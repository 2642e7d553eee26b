"""The supervision ladder: one pure task scheduler under the worker pool.

:class:`TaskScheduler` is a state machine for one ``submit``.  It owns
the attempts, the failure budgets, deadlines, stale-attempt rejection
and the task-order reduction; it owns no socket, thread, process or clock — time arrives as an argument,
so the whole ladder runs in microseconds under a test's virtual clock.

Events in (a driver calls these as frames arrive)::

    heartbeat(worker, at)      a worker exists and was heard from at ``at``
    worker_lost(worker, why)   its connection ended
    result(worker, session, index, attempt, decode)
    error(worker, session, index, attempt, exc)
    tick(now) -> actions       everything that depends on time

Actions out (the driver performs them in order)::

    ("dispatch", index, attempt, worker)   send the task frame
    ("kill", worker, reason)               end that worker, now
    ("rescue", indices, exc)               run these fallbacks in-process
    ("done", results)                      the submit is over

Invariants the driver relies on: a known worker runs at most one
attempt, and a task has at most one live attempt; an attempt that ends
without an answer ends with its worker killed *before* the task is
dispatched again or reported done (tasks may write shared memory, so a
superseded copy must not outlive its result); a result is reduced only from the attempt currently running on the
worker that sent it, in this session, for a task still undecided.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Hashable, Iterator, Sequence

from repro.exec.policy import ExecPolicy, RemoteTaskError
from repro.obs import logs
from repro.obs.metrics import get_registry
from repro.obs.trace import annotate
from repro.resilience.errors import ResultIntegrityError

__all__ = ["TaskScheduler", "ensure_exec_metrics"]

_log = logs.get_logger("exec")


def ensure_exec_metrics():
    """Register (get-or-create) the fabric's metric families.

    Called on every submit and eagerly by ``repro serve`` so the families
    are scrapeable before the first recovery event.  ``backend`` is the
    transport a submit actually ran on.
    """
    reg = get_registry()
    both = ("engine", "backend")
    return {
        "tasks": reg.counter(
            "repro_exec_tasks_total", "shard tasks submitted to the fabric", both
        ),
        "retries": reg.counter(
            "repro_exec_task_retries_total",
            "task attempts that failed and were retried or rescued", both,
        ),
        "restarts": reg.counter(
            "repro_exec_worker_restarts_total",
            "local workers forked to replace lost or killed ones", both,
        ),
        "fallbacks": reg.counter(
            "repro_exec_fallbacks_total",
            "tasks rescued through the bit-identical in-process fallback", both,
        ),
        "integrity": reg.counter(
            "repro_exec_integrity_failures_total",
            "frames or result payloads rejected by an integrity check", both,
        ),
        "submit_seconds": reg.histogram(
            "repro_exec_submit_seconds", "wall time of one Executor.submit", both
        ),
        "dispatches": reg.counter(
            "repro_exec_net_dispatches_total", "task frames sent to workers", both
        ),
        "requeues": reg.counter(
            "repro_exec_net_requeues_total", "attempts that failed, by cause",
            (*both, "reason"),
        ),
        "stale_results": reg.counter(
            "repro_exec_net_stale_results_total",
            "late, wrong-attempt or wrong-session replies dropped", both,
        ),
    }


class TaskScheduler:
    """The ladder for one submit of ``len(keys)`` tasks (module docstring).

    Workers are opaque hashables chosen by the driver, one per connection
    and never reused: a worker that was lost or killed stays gone, and a
    reconnect is a new worker.  ``attempt_ids`` must never repeat for the
    driver's lifetime: engines that submit many rounds in one session
    reuse task indices, and a late reply to round ``d`` must not match
    round ``d + 1``'s attempt.  ``runnable[i]`` false
    marks a fallback-only task, rescued without a dispatch.  ``grace`` is
    how long the submit tolerates having nobody to dispatch to.
    """

    def __init__(
        self,
        keys: Sequence[str],
        policy: ExecPolicy,
        *,
        session: str,
        attempt_ids: Iterator[int],
        hb_timeout: float,
        grace: float,
        runnable: Sequence[bool] | None = None,
        engine: str = "exec",
        backend: str = "forkpool",
    ) -> None:
        n = len(keys)
        self.keys = list(keys)
        self.policy = policy
        self.session = session
        self.hb_timeout = hb_timeout
        self.grace = grace
        self._attempt_ids = attempt_ids
        self._labels = (engine, backend)
        self._metrics = ensure_exec_metrics()
        #: the task-order reduction
        self.results: list = [None] * n
        self.done = [False] * n
        #: tasks given up on; the driver computes them in-process
        self.rescued = {i for i in range(n) if runnable and not runnable[i]}
        self.failures = [0] * n  # failed attempts, any cause
        self.pending = [i for i in range(n) if i not in self.rescued]
        self.ready_at = [0.0] * n
        #: worker -> when it was last heard from
        self.workers: dict[Hashable, float] = {}
        #: worker -> the attempt it is running
        self.running: dict[Hashable, int] = {}
        self._gone: set[Hashable] = set()
        #: attempt -> (task index, worker, sent at)
        self.attempts: dict[int, tuple[int, Hashable, float]] = {}
        self.last_exc: BaseException | None = None
        #: failed attempts so far (``Executor.last_submit_failures``)
        self.failed_attempts = 0
        self.dispatched = 0
        self.finished = False
        self._now = 0.0
        self._starved_since: float | None = None
        self._actions: list[tuple] = []

    # ------------------------------------------------------------------ #
    # Events
    # ------------------------------------------------------------------ #
    def heartbeat(self, worker: Hashable, at: float) -> None:
        if worker not in self._gone:
            self.workers[worker] = max(at, self.workers.get(worker, at))

    def worker_lost(self, worker: Hashable, reason: str = "disconnect") -> None:
        self._lose(worker, reason)

    def result(
        self, worker: Hashable, session: str, index: int, attempt: int,
        decode: Callable[[], object],
    ) -> None:
        """A result frame; ``decode`` loads the payload (may raise)."""
        if not self._is_current(worker, session, index, attempt):
            return
        try:
            value = decode()
        except Exception as exc:
            broken = isinstance(exc, ResultIntegrityError)
            self._fail(attempt, "integrity" if broken else "error", exc)
            return
        self._end(attempt)
        self.results[index] = value
        self.done[index] = True

    def error(
        self, worker: Hashable, session: str, index: int, attempt: int,
        exc: BaseException,
    ) -> None:
        if self._is_current(worker, session, index, attempt):
            self._fail(attempt, "error", exc)

    def _is_current(self, worker, session, index, attempt) -> bool:
        """Stale-attempt rejection: only the attempt ``worker`` is running
        now, for this session and this task, may be reduced or failed."""
        running = self.running.get(worker)
        on_task = (
            session == self.session
            and running is not None
            and self.attempts[running][0] == index
        )
        if on_task and running == attempt:
            return True
        self._metrics["stale_results"].labels(*self._labels).inc()
        annotate("exec.stale_result", worker=str(worker), attempt=attempt)
        if on_task:
            # A reply for the task this worker *is* running, under another
            # attempt number: it answered a stale generation and the real
            # attempt will never be answered, so fail it now rather than
            # at its deadline.
            self._fail(
                running, "stale_result",
                RemoteTaskError(
                    f"worker {worker} answered a stale attempt for "
                    f"task {self.keys[index]!r}"
                ),
            )
        return False

    # ------------------------------------------------------------------ #
    def tick(self, now: float) -> list[tuple]:
        """Apply everything time decides; return the actions to perform."""
        self._now = now
        timeout = self.policy.worker_timeout
        for attempt, (index, worker, sent_at) in sorted(self.attempts.items()):
            if timeout is not None and now - sent_at > timeout:
                self._lose(
                    worker, "deadline",
                    TimeoutError(
                        f"task {self.keys[index]!r} exceeded its {timeout}s "
                        f"deadline on worker {worker}"
                    ),
                    kill=True,
                )
            elif now - self.workers[worker] > self.hb_timeout:
                self._lose(worker, "stale_heartbeat", kill=True)
        # One task per idle healthy worker: workers execute serially, so a
        # deeper queue would only distort the deadline accounting.
        for index in [i for i in self.pending if self.ready_at[i] <= now]:
            worker = self._idle_worker(now)
            if worker is None:
                break
            self.pending.remove(index)
            self._dispatch(index, worker)
        live = [
            i for i in range(len(self.keys))
            if not self.done[i] and i not in self.rescued
        ]
        if live and not self.attempts and self._idle_worker(now) is None:
            # Nobody to dispatch to.  Give lost workers one grace window
            # to come back, then rescue what is left rather than spin.
            if self._starved_since is None:
                self._starved_since = now
            elif now - self._starved_since >= self.grace:
                self.last_exc = self.last_exc or ConnectionError(
                    f"no worker available for {self.grace}s"
                )
                self.rescued.update(live)
                self.pending.clear()
                live = []
        else:
            self._starved_since = None
        if not live and not self.finished:
            self.finished = True
            rescued = sorted(self.rescued)
            if rescued:
                self._actions.append(("rescue", rescued, self.last_exc))
            self._actions.append(("done", self.results))
        actions, self._actions = self._actions, []
        return actions

    # ------------------------------------------------------------------ #
    def _idle_worker(self, now: float):
        for worker, heard in self.workers.items():
            if worker not in self.running and now - heard <= self.hb_timeout:
                return worker
        return None

    def _dispatch(self, index: int, worker: Hashable) -> None:
        attempt = next(self._attempt_ids)
        self.attempts[attempt] = (index, worker, self._now)
        self.running[worker] = attempt
        self.dispatched += 1
        self._metrics["dispatches"].labels(*self._labels).inc()
        self._actions.append(("dispatch", index, attempt, worker))

    def _end(self, attempt: int) -> tuple[int, Hashable]:
        """Forget an attempt; its worker is idle again (if still known)."""
        index, worker, _ = self.attempts.pop(attempt)
        del self.running[worker]
        return index, worker

    def _lose(
        self, worker: Hashable, reason: str, exc: BaseException | None = None,
        kill: bool = False,
    ) -> None:
        """``worker`` is gone for good; what it was running failed with it."""
        self._gone.add(worker)
        if kill:
            self._actions.append(("kill", worker, reason))
        if self.workers.pop(worker, None) is not None and worker in self.running:
            self._fail(
                self.running[worker], reason,
                exc or ConnectionError(f"worker {worker} lost ({reason})"),
            )

    def _fail(self, attempt: int, reason: str, exc: BaseException) -> None:
        """One attempt failed: requeue its task or give up on it."""
        index, worker = self._end(attempt)
        key = self.keys[index]
        policy = self.policy
        self.last_exc = exc
        self.failed_attempts += 1
        self.failures[index] += 1
        metrics, labels = self._metrics, self._labels
        metrics["retries"].labels(*labels).inc()
        metrics["requeues"].labels(*labels, reason).inc()
        if reason == "integrity":
            metrics["integrity"].labels(*labels).inc()
        annotate(
            "exec.requeue", task=key, attempt=attempt, reason=reason,
            worker=str(worker),
        )
        if self.failures[index] >= policy.retry.max_attempts:
            self.rescued.add(index)
        else:
            warnings.warn(
                f"{labels[0]} task {key!r} failed ({reason}: "
                f"{type(exc).__name__}: {exc}); retrying, attempt "
                f"{self.failures[index] + 1}/{policy.retry.max_attempts}",
                ResourceWarning, stacklevel=2,
            )
            _log.warning(
                "task attempt failed",
                extra={
                    "engine": labels[0], "task": key, "reason": reason,
                    "error": f"{type(exc).__name__}: {exc}",
                },
            )
            self.ready_at[index] = self._now + policy.retry.delay(
                self.failures[index]
            )
            self.pending.append(index)
