"""Unified execution configuration for every compute entry point.

Four PRs of growth left the public surface fragmented: ``FaultSimulator``
took ``backend=``, ``AtpgConfig`` took ``fault_sim_backend=``, the
environment override lived in ``REPRO_FAULT_SIM_BACKEND``, and the new
sharded inference engine would have added yet another knob.
:class:`ExecutionConfig` is the one object that answers "how should this
computation run" — backend choice, worker count, shard count, seed and
dtype — with a single, documented environment-override resolution.

Consumers and their backend vocabularies:

========================  =============================================
consumer                  backends
========================  =============================================
inference (GCN scoring)   ``auto`` | ``single`` | ``sharded``
fault simulation          ``auto`` | ``serial`` | ``batched`` | ``parallel``
========================  =============================================

``auto`` always means "pick for the workload and machine", and an *explicit*
choice is never overridden by the environment.  Environment variables
(lowest precedence, applied only where the code left ``auto``):

* ``REPRO_BACKEND`` — inference backend;
* ``REPRO_FAULT_SIM_BACKEND`` — fault-simulation backend (pre-existing);
* ``REPRO_EXEC_BACKEND`` — execution-fabric backend (``inprocess`` |
  ``forkpool`` | ``socket``); ``inprocess`` is the process-wide
  kill-switch for fork pools, ``socket`` routes every engine through the
  multi-host coordinator (see :mod:`repro.exec.coordinator`);
* ``REPRO_WORKERS`` — worker-process count;
* ``REPRO_SHARDS`` — inference shard count;
* ``REPRO_DTYPE`` — inference dtype (``float32`` / ``float64``).

Legacy ``backend=`` / ``fault_sim_backend=`` keyword arguments keep working
through shims that emit :class:`DeprecationWarning`; new code (and all of
``src/repro`` itself, enforced by ``scripts/check_api_boundaries.py``)
passes an :class:`ExecutionConfig`.
"""

from __future__ import annotations

import dataclasses
import os
import warnings
from dataclasses import dataclass

import numpy as np

from repro.resilience.errors import ConfigError

__all__ = [
    "ExecutionConfig",
    "INFERENCE_BACKENDS",
    "FAULT_SIM_BACKENDS",
    "EXEC_BACKENDS",
    "warn_deprecated_kwarg",
]

#: vocabulary for the GCN inference engines
INFERENCE_BACKENDS = ("auto", "single", "sharded")
#: vocabulary for the fault-simulation engines (mirrors repro.atpg.ppsfp)
FAULT_SIM_BACKENDS = ("auto", "serial", "batched", "parallel")
#: vocabulary for the execution fabric (mirrors repro.exec.policy)
EXEC_BACKENDS = ("auto", "inprocess", "forkpool", "socket")

_ENV_BACKEND = "REPRO_BACKEND"
_ENV_FAULT_SIM_BACKEND = "REPRO_FAULT_SIM_BACKEND"
_ENV_EXEC_BACKEND = "REPRO_EXEC_BACKEND"
_ENV_WORKERS = "REPRO_WORKERS"
_ENV_SHARDS = "REPRO_SHARDS"
_ENV_DTYPE = "REPRO_DTYPE"

#: node count above which ``auto`` prefers the sharded inference engine
#: (below it, partitioning overhead outweighs the parallel matmuls)
SHARDED_AUTO_MIN_NODES = 200_000


def warn_deprecated_kwarg(old: str, new: str, stacklevel: int = 3) -> None:
    """Emit the standard deprecation message for a legacy kwarg shim."""
    warnings.warn(
        f"{old} is deprecated; pass {new} instead "
        f"(the legacy kwarg will be removed after the next release)",
        DeprecationWarning,
        stacklevel=stacklevel,
    )


@dataclass(frozen=True)
class ExecutionConfig:
    """How a computation should execute (backend, parallelism, numerics).

    Immutable; derive variants with :meth:`replace`.  ``backend`` is
    interpreted by the consumer (see the module docstring for the two
    vocabularies); validation therefore happens at resolution time, not
    construction, except for obviously invalid values.
    """

    #: backend request; ``auto`` defers to workload heuristics + env
    backend: str = "auto"
    #: worker processes for parallel paths (None = machine core count)
    workers: int | None = None
    #: deterministic seed forwarded to stochastic consumers (None = theirs)
    seed: int | None = None
    #: numeric dtype for inference engines (``float64`` matches training)
    dtype: str = "float64"
    #: shard count for partitioned inference (None = derived from workers)
    shards: int | None = None
    #: execution-fabric backend request (``auto`` | ``inprocess`` |
    #: ``forkpool`` | ``socket``); ``auto`` honours
    #: ``REPRO_EXEC_BACKEND`` then the engine's own workload heuristic.
    #: Under ``socket``, sharded inference ships per-layer activation
    #: frames by value (no ``/dev/shm`` references), so shard rounds are
    #: runnable on any fleet host; with no reachable remote workers it
    #: degrades to the forkpool path unchanged.
    exec_backend: str = "auto"

    def __post_init__(self) -> None:
        problems = []
        if not isinstance(self.backend, str) or not self.backend:
            problems.append("backend must be a non-empty string")
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
        backend = os.environ.get(_ENV_BACKEND, "").strip().lower()
        if backend:
            env["backend"] = backend
        exec_backend = os.environ.get(_ENV_EXEC_BACKEND, "").strip().lower()
        if exec_backend:
            env["exec_backend"] = exec_backend
        for key, var in (("workers", _ENV_WORKERS), ("shards", _ENV_SHARDS)):
            raw = os.environ.get(var, "").strip()
            if raw:
                try:
                    env[key] = int(raw)
                except ValueError as exc:
                    raise ConfigError(f"invalid {var}={raw!r}: {exc}") from exc
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
        """Concrete worker count: explicit > ``REPRO_WORKERS`` > cores."""
        if self.workers is not None:
            return max(1, self.workers)
        raw = os.environ.get(_ENV_WORKERS, "").strip()
        if raw:
            try:
                return max(1, int(raw))
            except ValueError as exc:
                raise ConfigError(f"invalid {_ENV_WORKERS}={raw!r}") from exc
        return max(1, os.cpu_count() or 1)

    def resolved_shards(self, n_nodes: int | None = None) -> int:
        """Concrete shard count for partitioned inference.

        Defaults to the worker count (one shard per worker keeps the
        gather step cheap); clamped to ``n_nodes`` when given.
        """
        shards = self.shards
        if shards is None:
            raw = os.environ.get(_ENV_SHARDS, "").strip()
            if raw:
                try:
                    shards = int(raw)
                except ValueError as exc:
                    raise ConfigError(f"invalid {_ENV_SHARDS}={raw!r}") from exc
        if shards is None:
            shards = self.resolved_workers()
        shards = max(1, shards)
        if n_nodes is not None:
            shards = max(1, min(shards, n_nodes))
        return shards

    # ------------------------------------------------------------------ #
    def resolve_inference_backend(self, n_nodes: int) -> str:
        """Map the request to ``single`` or ``sharded`` for ``n_nodes``.

        ``auto`` honours ``REPRO_BACKEND`` first, then picks ``sharded``
        only when the graph is large enough to amortise partitioning *and*
        more than one worker is available.
        """
        choice = self.backend.lower()
        if choice not in INFERENCE_BACKENDS:
            raise ConfigError(
                f"unknown inference backend {self.backend!r}; "
                f"use one of {INFERENCE_BACKENDS}"
            )
        if choice == "auto":
            env = os.environ.get(_ENV_BACKEND, "").strip().lower()
            if env and env != "auto":
                if env not in INFERENCE_BACKENDS:
                    raise ConfigError(
                        f"invalid {_ENV_BACKEND}={env!r}; use {INFERENCE_BACKENDS}"
                    )
                return env
            if (
                n_nodes >= SHARDED_AUTO_MIN_NODES
                and self.resolved_workers() > 1
            ):
                return "sharded"
            return "single"
        return choice

    def resolve_exec_backend(self, default: str = "forkpool") -> str:
        """Map the fabric request to a concrete backend
        (``inprocess`` | ``forkpool`` | ``socket``).

        Delegates to :func:`repro.exec.policy.resolve_exec_backend`:
        explicit ``exec_backend`` wins, then ``REPRO_EXEC_BACKEND``, then
        ``default`` (the backend the caller's workload heuristic picked).
        """
        from repro.exec.policy import resolve_exec_backend

        return resolve_exec_backend(self.exec_backend, default=default)

    def resolve_fault_sim_backend(
        self, n_sites: int, n_words: int
    ) -> str:
        """Map the request to a concrete fault-simulation backend.

        Delegates to :func:`repro.atpg.ppsfp.resolve_backend` so the
        workload heuristics and the ``REPRO_FAULT_SIM_BACKEND`` override
        stay in one place.
        """
        from repro.atpg.ppsfp import resolve_backend

        if self.backend.lower() not in FAULT_SIM_BACKENDS:
            raise ConfigError(
                f"unknown fault-sim backend {self.backend!r}; "
                f"use one of {FAULT_SIM_BACKENDS}"
            )
        return resolve_backend(
            self.backend, n_sites, n_words, workers=self.workers
        )
