"""Execution-fabric vocabulary: backends, tasks, and supervision policy.

This module is dependency-light on purpose (stdlib + the resilience
primitives only) so that :mod:`repro.config` and every engine can import
it without cycles.  The supervision ladder that interprets an
:class:`ExecPolicy` lives in :mod:`repro.exec.scheduler`.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.resilience.errors import ConfigError
from repro.resilience.retry import RetryPolicy

__all__ = [
    "EXEC_BACKENDS",
    "EXEC_BACKEND_ENV",
    "ShardTask",
    "ExecPolicy",
    "RemoteTaskError",
    "resolve_exec_backend",
]

#: fabric backend vocabulary.  ``inprocess`` is the bit-identical serial
#: oracle; ``forkpool`` supervises forked local workers.  Callers only
#: ever see :class:`~repro.exec.executor.Executor`.
EXEC_BACKENDS = ("auto", "inprocess", "forkpool")

#: environment override applied wherever a caller leaves the backend on
#: ``auto`` — the operational kill-switch (``inprocess`` disables every
#: fork pool in the process at once)
EXEC_BACKEND_ENV = "REPRO_EXEC_BACKEND"


def resolve_exec_backend(
    requested: str | None = None, default: str = "forkpool"
) -> str:
    """Map a backend request to a concrete non-``auto`` member of
    :data:`EXEC_BACKENDS` (``inprocess | forkpool``).

    An explicit ``requested`` choice always wins; ``auto``/``None`` honours
    ``REPRO_EXEC_BACKEND`` and then falls back to ``default`` — callers
    pass the backend their own workload heuristics picked, so the
    environment acts purely as an override, never a surprise.
    """
    choice = (requested or "auto").lower()
    if choice not in EXEC_BACKENDS:
        raise ConfigError(
            f"unknown exec backend {requested!r}; use one of {EXEC_BACKENDS}"
        )
    if choice != "auto":
        return choice
    env = os.environ.get(EXEC_BACKEND_ENV, "").strip().lower()
    if env and env != "auto":
        if env not in EXEC_BACKENDS:
            raise ConfigError(
                f"invalid {EXEC_BACKEND_ENV}={env!r}; use one of {EXEC_BACKENDS}"
            )
        return env
    if default not in EXEC_BACKENDS or default == "auto":
        raise ConfigError(f"invalid default exec backend {default!r}")
    return default


class RemoteTaskError(RuntimeError):
    """A task failed inside a worker and its exception did not pickle
    (carries the remote ``Type: message`` text)."""


@dataclass
class ShardTask:
    """One unit of shard work submitted to an :class:`Executor`.

    ``fn(*args)`` runs in a worker process, so ``fn`` must be a
    module-level picklable callable and ``args`` picklable values (shared
    ndarrays travel by segment name, see :mod:`repro.exec.shm`).
    ``fallback`` is a zero-argument *parent-side* callable producing a
    bit-identical result in-process; it is what the in-process backend
    runs and what rescues the task once retries/quarantine exhaust.
    ``meta`` never leaves the parent — engines use it to attach context
    (e.g. a graph name) for error reporting.
    """

    key: str
    fn: Callable | None = None
    args: tuple = ()
    fallback: Callable[[], Any] | None = None
    meta: Any = None

    def run_fallback(self):
        """Compute this task's result in the parent process."""
        if self.fallback is not None:
            return self.fallback()
        if self.fn is None:
            raise ValueError(f"task {self.key!r} has neither fn nor fallback")
        return self.fn(*self.args)


@dataclass(frozen=True)
class ExecPolicy:
    """Supervision policy for one :meth:`Executor.submit` call.

    One meaning per field on every transport (the ladder is
    :class:`~repro.exec.scheduler.TaskScheduler`).  An *attempt* is one
    dispatch of one task to one worker.  ``retry.max_attempts`` bounds a
    task's failed attempts of any cause, and ``retry.delay(k)`` is how
    long its ``k``-th failure keeps it out of the dispatch queue.
    ``exhausted_error`` lets an engine type the terminal error
    (``(failed_tasks, failures, last_exc) -> BaseException``); without it
    the last underlying worker exception propagates unchanged.
    """

    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(max_attempts=3, base_delay=0.05)
    )
    #: per-attempt result deadline in seconds; a worker that misses it
    #: is killed (None = wait forever)
    worker_timeout: float | None = 120.0
    #: attempts of one task that ended with its worker lost or killed
    #: (crash, missed deadline, silent heartbeat) before the
    #: task is quarantined: pulled out of the rotation as poison, ahead
    #: of its failure budget (None = disabled)
    quarantine_after: int | None = None
    #: rescue exhausted/quarantined tasks via their in-process fallback
    #: (bit-identical) instead of raising
    serial_fallback: bool = True
    #: checksum worker results end-to-end (detects corrupted returns)
    verify_integrity: bool = True
    #: fraction of ``worker_timeout`` after which an unanswered task is
    #: duplicate-sent to a second idle worker — the first valid result
    #: wins and the loser's worker is killed.  ``None`` disables it.
    straggler_fraction: float | None = 0.5
    #: factory for the terminal exception when rescue is disabled
    exhausted_error: (
        Callable[[Sequence[ShardTask], int, BaseException], BaseException] | None
    ) = None

    def __post_init__(self) -> None:
        if self.quarantine_after is not None and self.quarantine_after < 1:
            raise ConfigError("quarantine_after must be >= 1 (or None)")
        if self.worker_timeout is not None and self.worker_timeout <= 0:
            raise ConfigError("worker_timeout must be positive (or None)")
        if self.straggler_fraction is not None and not (
            0.0 < self.straggler_fraction <= 1.0
        ):
            raise ConfigError(
                "straggler_fraction must be in (0, 1] (or None to disable)"
            )
