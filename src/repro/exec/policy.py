"""Execution-fabric vocabulary: backends, tasks, and supervision policy.

This module is dependency-light on purpose (stdlib + the resilience
primitives only) so that :mod:`repro.config` and every engine can import
it without cycles.  The supervision ladder that interprets an
:class:`ExecPolicy` lives in :mod:`repro.exec.scheduler`.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
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
    runs and what rescues the task once its retries are spent.
    """

    key: str
    fn: Callable | None = None
    args: tuple = ()
    fallback: Callable[[], Any] | None = None

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

    The ladder that reads it is
    :class:`~repro.exec.scheduler.TaskScheduler`.  An *attempt* is one
    dispatch of one task to one worker.  ``retry.max_attempts`` bounds a
    task's failed attempts of any cause, and ``retry.delay(k)`` is how
    long its ``k``-th failure keeps it out of the dispatch queue.  A task
    whose budget is spent is computed through its in-process fallback,
    bit-identical to a worker's result.
    """

    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(max_attempts=3, base_delay=0.05)
    )
    #: per-attempt result deadline in seconds; a worker that misses it
    #: is killed (None = wait forever)
    worker_timeout: float | None = 120.0

    def __post_init__(self) -> None:
        # ``nan <= 0`` is false, so finiteness is its own check: a ``nan``
        # deadline would never expire and switch the deadline rung off.
        if self.worker_timeout is not None and not (
            math.isfinite(self.worker_timeout) and self.worker_timeout > 0
        ):
            raise ConfigError(
                "worker_timeout must be a finite number > 0 (or None), "
                f"got {self.worker_timeout!r}"
            )
