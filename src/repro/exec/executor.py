"""The executor abstraction: submit shard tasks, get a deterministic reduction.

One fabric under every parallel engine (:class:`~repro.core.trainer.
ParallelTrainer`, :class:`~repro.atpg.ppsfp.PpsfpEngine`,
:class:`~repro.graph.sharded.ShardedInference`).
``Executor.submit(tasks, policy) -> list`` returns results **in task
order** regardless of completion order, so parallel and in-process runs
are comparable elementwise.  ``inprocess`` runs each task's fallback
serially — the oracle every recovery path must be bit-identical to,
which is why chaos (:mod:`repro.exec.chaos`) never injects there.
``forkpool`` and ``socket`` hand the tasks to a
:class:`~repro.exec.coordinator.Coordinator` whose workers the one
ladder in :mod:`repro.exec.scheduler` supervises; what the ladder gives
up on is computed through the task's in-process fallback, so the numbers
are identical at every rung.
"""

from __future__ import annotations

import functools
import itertools
import os
import pickle
import time
import warnings
from collections.abc import Sequence

from repro.exec import net as net_mod
from repro.exec.coordinator import Coordinator, get_coordinator
from repro.exec.policy import ExecPolicy, ShardTask, resolve_exec_backend
from repro.exec.scheduler import ensure_exec_metrics
from repro.obs import logs
from repro.obs.trace import annotate, span

__all__ = [
    "Executor",
    "InProcessExecutor",
    "ForkPoolExecutor",
    "DistributedExecutor",
    "make_executor",
]

_log = logs.get_logger("exec")
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

    def submit_rounds(
        self,
        rounds: Sequence[Sequence[ShardTask]],
        policy: ExecPolicy | None = None,
    ) -> list[list]:
        """Run dependent task rounds in order, a barrier between rounds.

        Round ``r + 1`` starts only after every task of round ``r``
        completed (through the full supervision ladder, in-process
        rescue included), which is what lets multi-round protocols like
        per-layer boundary exchange assume their inputs are fully
        materialised.  Returns the per-round result lists;
        ``last_submit_failures`` accumulates across the rounds.
        """
        results: list[list] = []
        failures = 0
        for tasks in rounds:
            results.append(self.submit(tasks, policy=policy))
            failures += self.last_submit_failures
        self.last_submit_failures = failures
        return results

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
        sleep=time.sleep,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.max_workers = max(1, max_workers or os.cpu_count() or 1)
        self._init = (initializer, initargs)
        self._init_blob: bytes | None = None
        self._session = f"{self.name}-{os.getpid()}-{next(_session_seq)}"
        self._pool: Coordinator | None = None

    def _coordinator(self, n_tasks: int) -> Coordinator:
        """The coordinator this submit runs on, with workers to run it."""
        if self._pool is None:
            self._pool = Coordinator(listen=False)
        self._pool.spawn_local(min(self.max_workers, n_tasks))
        return self._pool

    def _prepare(self, n_tasks):
        coordinator = self._coordinator(n_tasks)
        return coordinator.kind, functools.partial(self._run_on, coordinator)

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


class DistributedExecutor(ForkPoolExecutor):
    """``socket`` backend: the process-global TCP coordinator's fleet.

    Engines obtained through :func:`make_executor` cannot tell the
    backends apart except by speed.  When no worker is registered within
    the connect window the submit runs on forked local workers instead —
    same ladder, same numbers — so ``socket`` is always safe to request.
    ``close()`` releases only those local workers; the fleet stays.
    """

    kind = "socket"

    def _coordinator(self, n_tasks: int) -> Coordinator:
        fleet = get_coordinator()
        window = net_mod.connect_timeout()
        if fleet.wait_for_workers(window):
            return fleet
        warnings.warn(
            f"no exec-worker registered within {window}s; "
            f"degrading {self.name} to forked local workers",
            ResourceWarning,
            stacklevel=5,
        )
        annotate("exec.degrade", engine=self.name, rung="forkpool")
        _log.warning(
            "no workers registered; degrading to forkpool",
            extra={"engine": self.name, "window_s": window},
        )
        return super()._coordinator(n_tasks)


# --------------------------------------------------------------------- #
def make_executor(
    backend: str | None = None,
    *,
    name: str = "exec",
    max_workers: int | None = None,
    initializer=None,
    initargs: tuple = (),
    policy: ExecPolicy | None = None,
    sleep=time.sleep,
    default: str = "forkpool",
) -> Executor:
    """Build the executor for a resolved backend.

    ``backend=None``/``"auto"`` honours ``REPRO_EXEC_BACKEND`` and then
    ``default`` — engines pass the backend their workload heuristics
    chose as ``default`` so the environment stays a pure override.
    """
    resolved = resolve_exec_backend(backend, default=default)
    if resolved == "inprocess":
        return InProcessExecutor(name=name, policy=policy)
    cls = DistributedExecutor if resolved == "socket" else ForkPoolExecutor
    return cls(
        max_workers,
        name=name,
        initializer=initializer,
        initargs=initargs,
        policy=policy,
        sleep=sleep,
    )
