"""``repro.exec`` — the fault-tolerant execution fabric.

One executor abstraction under every parallel engine in the library:
:class:`~repro.core.trainer.ParallelTrainer`,
:class:`~repro.atpg.ppsfp.PpsfpEngine`, and
:class:`~repro.graph.sharded.ShardedInference` all express their parallel
work as :class:`ShardTask` lists and let one executor run them — the
serial :class:`InProcessExecutor` oracle or :class:`ForkPoolExecutor`
over forked workers — bit-identical by construction.

One supervision ladder (:mod:`repro.exec.scheduler`, a pure state
machine: retries with backoff, deadlines, heartbeats and stale-attempt
rejection, at most one live attempt per task, then the in-process
rescue; :class:`ExecPolicy` sets its budget and deadline), one worker loop (:mod:`repro.exec.worker`), one signed frame
codec (:mod:`repro.exec.net`); :mod:`repro.exec.coordinator` drives
them, :mod:`repro.exec.shm` guarantees the shared-memory lifecycle, and
:mod:`repro.exec.chaos` is the built-in fault-injection layer
(``REPRO_CHAOS``).
"""

from repro.exec.chaos import (
    CHAOS_ENV,
    CHAOS_MODES,
    PROCESS_CHAOS_MODES,
    ChaosInjectedError,
    ChaosSpec,
)
from repro.exec.coordinator import Coordinator
from repro.exec.executor import (
    Executor,
    ForkPoolExecutor,
    InProcessExecutor,
    make_executor,
)
from repro.exec.policy import (
    EXEC_BACKEND_ENV,
    EXEC_BACKENDS,
    ExecPolicy,
    RemoteTaskError,
    ShardTask,
    resolve_exec_backend,
)
from repro.exec.scheduler import TaskScheduler, ensure_exec_metrics
from repro.exec.shm import (
    SharedSegment,
    attached_ndarray,
    leaked_segment_names,
    owned_ndarray,
    sweep_orphans,
)

__all__ = [
    "EXEC_BACKENDS",
    "EXEC_BACKEND_ENV",
    "CHAOS_ENV",
    "CHAOS_MODES",
    "PROCESS_CHAOS_MODES",
    "ChaosInjectedError",
    "ChaosSpec",
    "Coordinator",
    "ExecPolicy",
    "Executor",
    "ForkPoolExecutor",
    "InProcessExecutor",
    "RemoteTaskError",
    "ShardTask",
    "SharedSegment",
    "TaskScheduler",
    "attached_ndarray",
    "ensure_exec_metrics",
    "leaked_segment_names",
    "make_executor",
    "owned_ndarray",
    "resolve_exec_backend",
    "sweep_orphans",
]
