"""Resilience layer: crash-safe persistence, fault tolerance, degradation.

The library's long-running entry points — multi-graph training, the
iterative OPI flow, benchmark regeneration — share these primitives:

* :mod:`~repro.resilience.errors` — the typed :class:`ReproError`
  hierarchy every layer raises instead of builtin internals;
* :mod:`~repro.resilience.atomic` — temp+fsync+rename file writes;
* :mod:`~repro.resilience.retry` — the exponential backoff schedule and
  a circuit breaker for transient failures;
* :mod:`~repro.resilience.checkpoint` — the atomic, self-validating
  snapshot store behind ``Trainer.fit(checkpoint=...)`` and OPI resume;
* :mod:`~repro.resilience.degrade` — the predictor degradation ladder
  (cascade -> partial cascade -> single GCN -> SCOAP heuristic);
* :mod:`~repro.resilience.watchdog` — stall detection for iterative
  loops.
"""

from repro.resilience.atomic import (
    atomic_save_npz,
    atomic_write,
    atomic_write_bytes,
    atomic_write_json,
)
from repro.resilience.checkpoint import Checkpoint, Checkpointer
from repro.resilience.degrade import HeuristicPredictor, LoadedPredictor, load_predictor
from repro.resilience.errors import (
    CheckpointCorruptError,
    ConfigError,
    ConvergenceError,
    NetlistFormatError,
    NumericalError,
    ReproError,
    WorkerFailedError,
)
from repro.resilience.retry import CircuitBreaker, CircuitOpenError, RetryPolicy
from repro.resilience.watchdog import ConvergenceWatchdog

__all__ = [
    "ReproError",
    "ConfigError",
    "NumericalError",
    "NetlistFormatError",
    "CheckpointCorruptError",
    "WorkerFailedError",
    "ConvergenceError",
    "atomic_write",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_save_npz",
    "RetryPolicy",
    "CircuitBreaker",
    "CircuitOpenError",
    "Checkpoint",
    "Checkpointer",
    "HeuristicPredictor",
    "LoadedPredictor",
    "load_predictor",
    "ConvergenceWatchdog",
]
