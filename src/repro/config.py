"""Unified execution configuration for every compute entry point.

:class:`ExecutionConfig` is the one object that answers "how should this
computation run" — worker count, shard count, fabric backend and dtype —
with a single, documented environment-override resolution.  One config is
valid for every consumer:

* ``backend`` (``auto`` | ``single`` | ``sharded``) is validated and read
  by nothing: an inference engine's class is its engine
  (:class:`~repro.core.inference.FastInference` runs the whole-graph
  pass, :class:`~repro.graph.sharded.ShardedInference` shards);
* ``shards`` is the shard count a ``ShardedInference`` partitions into;
* ``workers`` and ``exec_backend`` size and place every worker pool —
  sharded inference, multi-graph training and fault simulation, which
  picks between in-process and pooled grading from its input (see
  :mod:`repro.atpg.ppsfp`); ``workers`` also sizes the threads the
  whole-graph inference pass splits its row blocks between, at most
  :func:`available_cpus` ÷ :func:`blas_threads` of them (see
  :class:`repro.core.inference.FastInference`).  Left unset, it is the
  number of CPUs this process may run on (:func:`available_cpus`).

``auto`` always means "pick for the workload and machine", and an *explicit*
choice is never overridden by the environment.  Environment variables
(lowest precedence, applied only where the code left ``auto``):

* ``REPRO_EXEC_BACKEND`` — execution-fabric backend (``inprocess`` |
  ``forkpool``); ``inprocess`` is the process-wide kill-switch for fork
  pools;
* ``REPRO_WORKERS`` — worker-process count;
* ``REPRO_DTYPE`` — inference dtype (``float32`` / ``float64``).

Every entry point (``FaultSimulator``, ``ObservabilityAnalyzer``,
``LabelConfig``, ``AtpgConfig``, the inference engines) takes an
:class:`ExecutionConfig`.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from repro.resilience.errors import ConfigError

__all__ = [
    "ExecutionConfig",
    "INFERENCE_BACKENDS",
    "EXEC_BACKENDS",
]

#: vocabulary for the GCN inference engines
INFERENCE_BACKENDS = ("auto", "single", "sharded")
#: vocabulary for the execution fabric (mirrors repro.exec.policy)
EXEC_BACKENDS = ("auto", "inprocess", "forkpool")


def integer_problems(name: str, value, low: int) -> list[str]:
    """What is wrong with ``value`` as an integer ``>= low`` (nothing: ``[]``)."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low:
        return []
    return [f"{name} must be an integer >= {low}, got {value!r}"]


def fraction_problems(name: str, value) -> list[str]:
    """What is wrong with ``value`` as a finite number in [0, 1] (nothing: ``[]``)."""
    if isinstance(value, numbers.Real) and math.isfinite(value) and 0 <= value <= 1:
        return []
    return [f"{name} must be a finite number in [0, 1], got {value!r}"]


def check_config(what: str, problems: list[str]) -> None:
    """:class:`ConfigError` naming each of ``problems``, if there are any."""
    if problems:
        raise ConfigError(f"invalid {what}: " + "; ".join(problems))


_ENV_EXEC_BACKEND = "REPRO_EXEC_BACKEND"
_ENV_WORKERS = "REPRO_WORKERS"
_ENV_DTYPE = "REPRO_DTYPE"


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (``taskset``, a CPU-limited container), else the core count."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


#: what a BLAS reads for its thread count, OpenBLAS's variable first
_BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def blas_threads() -> int:
    """Threads one BLAS call may use: the first of the BLAS's thread
    variables that is set (read, never set here), else
    :func:`available_cpus` — OpenBLAS's and MKL's default."""
    for name in _BLAS_THREAD_ENV:
        raw = os.environ.get(name, "").split(",")[0].strip()
        if raw.isdigit() and int(raw) > 0:
            return int(raw)
    return available_cpus()


def _env_workers() -> int | None:
    """``REPRO_WORKERS`` as a worker count (None when unset); a value that
    is not a positive integer is a :class:`ConfigError`."""
    raw = os.environ.get(_ENV_WORKERS, "").strip()
    if not raw:
        return None
    try:
        workers = int(raw)
    except ValueError as exc:
        raise ConfigError(f"invalid {_ENV_WORKERS}={raw!r}: {exc}") from exc
    if workers < 1:
        raise ConfigError(f"invalid {_ENV_WORKERS}={raw!r}: must be >= 1")
    return workers


@dataclass(frozen=True)
class ExecutionConfig:
    """How a computation should execute (backend, parallelism, numerics).

    Immutable; derive variants with :meth:`replace`.  Every field is
    validated at construction, so a config that builds is valid for
    every consumer.
    """

    #: inference backend (``auto`` | ``single`` | ``sharded``): validated,
    #: read by nothing — the engine's class is the choice
    backend: str = "auto"
    #: worker processes for parallel paths, and most threads of the
    #: whole-graph inference pass (None = :func:`available_cpus`)
    workers: int | None = None
    #: numeric dtype for inference engines (``float64`` matches training)
    dtype: str = "float64"
    #: shard count of a ``ShardedInference`` (None = the worker count)
    shards: int | None = None
    #: execution-fabric backend request (``auto`` | ``inprocess`` |
    #: ``forkpool``); ``auto`` honours ``REPRO_EXEC_BACKEND`` then the
    #: engine's own workload heuristic.
    exec_backend: str = "auto"

    def __post_init__(self) -> None:
        problems = []
        if (
            not isinstance(self.backend, str)
            or self.backend.lower() not in INFERENCE_BACKENDS
        ):
            problems.append(
                f"backend {self.backend!r} must be one of {INFERENCE_BACKENDS}"
            )
        if self.workers is not None and self.workers < 1:
            problems.append("workers must be >= 1 (or None for auto)")
        if self.shards is not None and self.shards < 1:
            problems.append("shards must be >= 1 (or None for auto)")
        if (
            not isinstance(self.exec_backend, str)
            or self.exec_backend.lower() not in EXEC_BACKENDS
        ):
            problems.append(
                f"exec_backend {self.exec_backend!r} must be one of {EXEC_BACKENDS}"
            )
        try:
            dt = np.dtype(self.dtype)
        except TypeError:
            problems.append(f"dtype {self.dtype!r} is not a numpy dtype")
        else:
            if dt.kind != "f":
                problems.append(f"dtype {self.dtype!r} is not a float dtype")
            # Normalise to the canonical string so equality/caching works.
            object.__setattr__(self, "dtype", dt.name)
        if problems:
            raise ConfigError("invalid execution config: " + "; ".join(problems))

    # ------------------------------------------------------------------ #
    @classmethod
    def from_env(cls, **overrides) -> "ExecutionConfig":
        """Build a config from ``REPRO_*`` environment variables.

        Explicit ``overrides`` win over the environment.  Unset variables
        fall back to the dataclass defaults, so ``ExecutionConfig.
        from_env()`` in a clean environment equals ``ExecutionConfig()``.
        """
        env: dict = {}
        exec_backend = os.environ.get(_ENV_EXEC_BACKEND, "").strip().lower()
        if exec_backend:
            env["exec_backend"] = exec_backend
        workers = _env_workers()
        if workers is not None:
            env["workers"] = workers
        dtype = os.environ.get(_ENV_DTYPE, "").strip().lower()
        if dtype:
            env["dtype"] = dtype
        env.update(overrides)
        return cls(**env)

    def replace(self, **changes) -> "ExecutionConfig":
        """A copy with ``changes`` applied (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------ #
    def numpy_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)

    def resolved_workers(self) -> int:
        """Concrete worker count: explicit > ``REPRO_WORKERS`` >
        :func:`available_cpus`."""
        if self.workers is not None:
            return self.workers
        workers = _env_workers()
        return available_cpus() if workers is None else workers

    def resolved_shards(self, n_nodes: int | None = None) -> int:
        """Concrete shard count for partitioned inference.

        Defaults to the worker count (one shard per worker keeps the
        gather step cheap); clamped to ``n_nodes`` when given.
        """
        shards = self.shards or self.resolved_workers()
        if n_nodes is not None:
            shards = max(1, min(shards, n_nodes))
        return shards

    # ------------------------------------------------------------------ #
    def resolve_exec_backend(self, default: str = "forkpool") -> str:
        """Map the fabric request to a concrete backend
        (``inprocess`` | ``forkpool``).

        Delegates to :func:`repro.exec.policy.resolve_exec_backend`:
        explicit ``exec_backend`` wins, then ``REPRO_EXEC_BACKEND``, then
        ``default`` (the backend the caller's workload heuristic picked).
        """
        from repro.exec.policy import resolve_exec_backend

        return resolve_exec_backend(self.exec_backend, default=default)
