"""The executor abstraction: submit shard tasks, get a deterministic reduction.

One fabric under every parallel engine (:class:`~repro.core.trainer.
ParallelTrainer`, :class:`~repro.atpg.ppsfp.PpsfpEngine`,
:class:`~repro.graph.sharded.ShardedInference`).
``Executor.submit(tasks, policy) -> list`` returns results **in task
order** regardless of completion order, so parallel and in-process runs
are comparable elementwise.  ``inprocess`` runs each task's fallback
serially — the oracle every recovery path must be bit-identical to,
which is why chaos (:mod:`repro.exec.chaos`) never injects there.
``forkpool`` hands the tasks to a private
:class:`~repro.exec.coordinator.Coordinator` whose forked workers the
one ladder in :mod:`repro.exec.scheduler` supervises; what the ladder
gives up on is computed through the task's in-process fallback, so the
numbers are identical at every rung.

Threads that share one process's arrays — the whole-graph inference
pass's row blocks (:func:`repro.core.inference.layer_forward`) — come
from :func:`thread_pool` instead: one lazily created, process-wide
``ThreadPoolExecutor``.
"""

from __future__ import annotations

import functools
import itertools
import os
import pickle
import threading
import time
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor

from repro.config import available_cpus
from repro.exec.coordinator import Coordinator
from repro.exec.policy import ExecPolicy, ShardTask, resolve_exec_backend
from repro.exec.scheduler import ensure_exec_metrics
from repro.obs.trace import span

__all__ = [
    "Executor",
    "InProcessExecutor",
    "ForkPoolExecutor",
    "make_executor",
]

_session_seq = itertools.count()


class Executor:
    """Abstract executor: shard tasks in, deterministic reduction out."""

    kind = "abstract"

    def __init__(self, name: str = "exec", policy: ExecPolicy | None = None):
        #: metric label and log field identifying the owning engine
        self.name = name
        self.policy = policy or ExecPolicy()
        #: failed task attempts in the most recent submit (engine counters)
        self.last_submit_failures = 0

    def submit(
        self,
        tasks: Sequence[ShardTask],
        policy: ExecPolicy | None = None,
    ) -> list:
        """Run ``tasks`` and return their results in task order."""
        tasks = list(tasks)
        metrics = ensure_exec_metrics()
        start = time.perf_counter()
        backend, run = self._prepare(len(tasks))
        metrics["tasks"].labels(self.name, backend).inc(len(tasks))
        with span("exec.submit", engine=self.name, backend=backend,
                  tasks=len(tasks)):
            results = run(tasks, policy or self.policy)
        metrics["submit_seconds"].labels(self.name, backend).observe(
            time.perf_counter() - start
        )
        return results

    def _prepare(self, n_tasks: int):
        """``(backend label, run(tasks, policy) -> results)`` for a submit."""
        raise NotImplementedError

    def close(self) -> None:
        """Release workers/segments (idempotent; submit may be called again)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InProcessExecutor(Executor):
    """Serial oracle backend: runs each task's fallback in task order.

    No workers, no chaos, no second attempts — failures propagate
    immediately.  This is the bit-identical reference every recovery
    path is measured against.
    """

    kind = "inprocess"

    def _prepare(self, n_tasks):
        return self.kind, lambda tasks, policy: [
            task.run_fallback() for task in tasks
        ]


class ForkPoolExecutor(Executor):
    """``forkpool`` backend: a private coordinator over forked workers.

    Workers are forked lazily (and replaced when lost), each told once
    per session to run ``initializer(*initargs)`` so engines can stage
    heavyweight per-process state.  ``close()`` ends the workers but
    keeps the executor reusable — the next ``submit`` forks again.
    """

    kind = "forkpool"

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        initializer=None,
        initargs: tuple = (),
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.max_workers = max(1, max_workers or available_cpus())
        self._init = (initializer, initargs)
        self._init_blob: bytes | None = None
        self._session = f"{self.name}-{os.getpid()}-{next(_session_seq)}"
        self._pool: Coordinator | None = None

    def _prepare(self, n_tasks):
        if self._pool is None:
            self._pool = Coordinator()
        self._pool.spawn_local(min(self.max_workers, n_tasks))
        return self.kind, functools.partial(self._run_on, self._pool)

    def _run_on(self, coordinator: Coordinator, tasks, policy):
        if self._init_blob is None:
            self._init_blob = pickle.dumps(
                self._init, protocol=pickle.HIGHEST_PROTOCOL
            )
        try:
            return coordinator.submit(
                self._session, self._init_blob, tasks, policy, engine=self.name
            )
        finally:
            self.last_submit_failures = coordinator.last_submit_failures

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass


# --------------------------------------------------------------------- #
def make_executor(
    backend: str | None = None,
    *,
    name: str = "exec",
    max_workers: int | None = None,
    initializer=None,
    initargs: tuple = (),
    policy: ExecPolicy | None = None,
    default: str = "forkpool",
) -> Executor:
    """Build the executor for a resolved backend.

    ``backend=None``/``"auto"`` honours ``REPRO_EXEC_BACKEND`` and then
    ``default`` — engines pass the backend their workload heuristics
    chose as ``default`` so the environment stays a pure override.
    """
    if resolve_exec_backend(backend, default=default) == "inprocess":
        return InProcessExecutor(name=name, policy=policy)
    return ForkPoolExecutor(
        max_workers,
        name=name,
        initializer=initializer,
        initargs=initargs,
        policy=policy,
    )


# --------------------------------------------------------------------- #
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
#: ``.pooled`` is true on the pool's own threads
_local = threading.local()


def _mark_pooled() -> None:
    _local.pooled = True


def thread_pool() -> ThreadPoolExecutor | None:
    """The process-wide thread pool — one thread fewer than
    :func:`~repro.config.available_cpus`, the caller being the other, and
    at least one — or None when called on one of its threads, whose
    caller must then do its work itself: a pool that waits on itself can
    deadlock.  Its size is fixed, so no caller's pool is ever shut down;
    a run it cannot start in time the caller takes back."""
    global _pool
    if getattr(_local, "pooled", False):
        return None
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max(1, available_cpus() - 1),
                thread_name_prefix="repro-pool",
                initializer=_mark_pooled,
            )
        return _pool


def _forget_thread_pool() -> None:
    """A forked child has none of its parent's threads (and maybe a lock
    held by one of them): it starts a pool of its own when it needs one."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_thread_pool)
