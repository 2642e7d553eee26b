"""``repro.exec`` — the fault-tolerant execution fabric.

One executor abstraction under every parallel engine in the library:
:class:`~repro.core.trainer.ParallelTrainer`,
:class:`~repro.atpg.ppsfp.PpsfpEngine`, and
:class:`~repro.graph.sharded.ShardedInference` all express their parallel
work as :class:`ShardTask` lists and let one executor run them — the
serial :class:`InProcessExecutor` oracle, :class:`ForkPoolExecutor` over
forked workers, or :class:`DistributedExecutor` over ``repro
exec-worker`` processes — all bit-identical by construction.

One supervision ladder (:mod:`repro.exec.scheduler`, a pure state
machine) under both worker transports, one worker loop
(:mod:`repro.exec.worker`), one signed frame codec
(:mod:`repro.exec.net`); :mod:`repro.exec.coordinator` drives them,
:mod:`repro.exec.shm` guarantees the shared-memory lifecycle, and
:mod:`repro.exec.chaos` is the built-in fault-injection layer
(``REPRO_CHAOS``).
"""

from repro.exec.chaos import (
    CHAOS_ENV,
    CHAOS_MODES,
    NET_CHAOS_MODES,
    PROCESS_CHAOS_MODES,
    ChaosInjectedError,
    ChaosSpec,
)
from repro.exec.coordinator import (
    Coordinator,
    get_coordinator,
    shutdown_coordinator,
)
from repro.exec.executor import (
    DistributedExecutor,
    Executor,
    ForkPoolExecutor,
    InProcessExecutor,
    make_executor,
)
from repro.exec.net import (
    COORD_ENV,
    coordinator_address,
    parse_address,
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
from repro.exec.worker import run_worker
from repro.exec.shm import (
    SharedSegment,
    WeightStore,
    attach_manifest,
    attached_ndarray,
    leaked_segment_names,
    owned_ndarray,
    sweep_orphans,
)

__all__ = [
    "COORD_ENV",
    "EXEC_BACKENDS",
    "EXEC_BACKEND_ENV",
    "CHAOS_ENV",
    "CHAOS_MODES",
    "NET_CHAOS_MODES",
    "PROCESS_CHAOS_MODES",
    "ChaosInjectedError",
    "ChaosSpec",
    "Coordinator",
    "DistributedExecutor",
    "ExecPolicy",
    "Executor",
    "ForkPoolExecutor",
    "InProcessExecutor",
    "RemoteTaskError",
    "ShardTask",
    "SharedSegment",
    "TaskScheduler",
    "WeightStore",
    "attach_manifest",
    "attached_ndarray",
    "coordinator_address",
    "ensure_exec_metrics",
    "get_coordinator",
    "leaked_segment_names",
    "make_executor",
    "owned_ndarray",
    "parse_address",
    "resolve_exec_backend",
    "run_worker",
    "shutdown_coordinator",
    "sweep_orphans",
]
