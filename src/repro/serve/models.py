"""Model lifecycle for the serving layer: hot reload, rollback, degrade.

The manager owns the *current* predictor behind a lock and swaps it
atomically.  A reload candidate is validated via :mod:`repro.core.
serialize` (strict load — every stage, every parameter shape) **before**
the swap, so a corrupt checkpoint can never become the serving model: the
last-good predictor keeps serving and the caller gets the typed error plus
rollback provenance.

A per-model :class:`~repro.resilience.retry.CircuitBreaker` (fresh on
every successful swap) fronts inference.  Any model failure degrades that
request to the SCOAP :class:`~repro.resilience.degrade.HeuristicPredictor`
with a ``degraded`` flag; once the breaker opens, the model is not even
attempted until the reset timeout elapses.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from pathlib import Path

import numpy as np

from repro.resilience.degrade import HeuristicPredictor, LoadedPredictor, load_predictor
from repro.resilience.retry import CircuitBreaker, CircuitOpenError

__all__ = ["ModelManager"]

#: predictor levels considered fully healthy (not flagged degraded)
_HEALTHY_LEVELS = frozenset({"cascade", "gcn"})


def _predict_fn(
    loaded: LoadedPredictor, execution: "ExecutionConfig | None" = None
) -> Callable[[object], np.ndarray]:
    """Bind the deployment inference path for ``loaded`` at swap time."""
    if loaded.level == "gcn":
        # Single GCNs score through the paper's sparse-matrix fast path,
        # which also carries the NumericalError non-finite guard; the
        # execution config routes large graphs to the sharded engine and
        # picks the serving dtype.  Weight casts are cached on the layer
        # snapshot, so hot reloads don't re-copy matrices per swap.
        from repro.core.inference import FastInference

        weights = loaded.predictor.layer_weights()
        return FastInference(weights, execution=execution).predict
    return loaded.predictor.predict


class ModelManager:
    """Thread-safe owner of the serving predictor.

    ``model_path=None`` starts heuristic-only (every response flagged
    degraded) — useful for bring-up before the first ``/reload``.  The
    initial load is *lenient* (the degradation ladder: a corrupt file at
    startup still yields a serving process); ``reload`` is *strict*.
    """

    def __init__(
        self,
        model_path: str | Path | None = None,
        heuristic: HeuristicPredictor | None = None,
        breaker_threshold: int = 3,
        breaker_reset_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        execution: "ExecutionConfig | None" = None,
    ) -> None:
        from repro.config import ExecutionConfig

        self._lock = threading.Lock()
        #: how GCN scoring executes (backend/dtype/workers); environment
        #: overrides (``REPRO_BACKEND`` etc.) apply when not given
        self.execution = execution or ExecutionConfig.from_env()
        self._heuristic = heuristic or HeuristicPredictor()
        self._breaker_threshold = breaker_threshold
        self._breaker_reset_s = breaker_reset_s
        self._clock = clock
        self._reloads = 0
        self._rollbacks = 0
        self._model_failures = 0
        if model_path is None:
            self._current = LoadedPredictor(
                predictor=self._heuristic,
                level="heuristic",
                detail="no model configured",
            )
        else:
            self._current = load_predictor(model_path, heuristic=self._heuristic)
        self._fn = _predict_fn(self._current, self.execution)
        self._breaker = self._fresh_breaker()
        self._last_good: Path | None = (
            self._current.path if self._current.level in _HEALTHY_LEVELS else None
        )

    def _fresh_breaker(self) -> CircuitBreaker:
        return CircuitBreaker(
            failure_threshold=self._breaker_threshold,
            reset_timeout=self._breaker_reset_s,
            clock=self._clock,
        )

    # ------------------------------------------------------------------ #
    def describe(self) -> dict:
        """Provenance + health snapshot for ``/healthz`` and reload bodies."""
        with self._lock:
            return {
                "level": self._current.level,
                "detail": self._current.detail,
                "path": str(self._current.path) if self._current.path else None,
                "last_good": str(self._last_good) if self._last_good else None,
                "breaker": self._breaker.state,
                "reloads": self._reloads,
                "rollbacks": self._rollbacks,
                "model_failures": self._model_failures,
            }

    def reload(self, path: str | Path) -> dict:
        """Validate ``path`` and atomically swap it in.

        On :class:`FileNotFoundError` / :class:`~repro.resilience.errors.
        CheckpointCorruptError` the current (last-good) predictor keeps
        serving, the rollback counter ticks, and the error propagates for
        the HTTP layer to report alongside :meth:`describe`.
        """
        from repro.core.serialize import load_model

        try:
            # Strict: unlike the lenient startup load, a reload candidate
            # with a corrupt stage is refused, not salvaged.
            candidate = LoadedPredictor.of(load_model(path), path)
        except Exception:
            with self._lock:
                self._rollbacks += 1
            raise
        fn = _predict_fn(candidate, self.execution)
        with self._lock:
            self._current = candidate
            self._fn = fn
            self._breaker = self._fresh_breaker()
            self._last_good = candidate.path
            self._reloads += 1
        return self.describe()

    # ------------------------------------------------------------------ #
    def predict(self, graph) -> tuple[np.ndarray, dict]:
        """Score ``graph``; never raises for model trouble.

        Returns ``(labels, info)`` where ``info`` records whether the
        answer is degraded (heuristic-served) and why.  Admission errors
        cannot reach here; anything the model throws is a *model* fault:
        the breaker records it and the SCOAP heuristic answers instead.
        """
        with self._lock:
            loaded, fn, breaker = self._current, self._fn, self._breaker
        info = {"predictor_level": loaded.level, "degraded": False}
        if loaded.level == "heuristic":
            info.update(degraded=True, reason=loaded.detail)
            return self._heuristic.predict(graph), info
        if loaded.level not in _HEALTHY_LEVELS:
            info["degraded"] = True
            info["reason"] = f"partial model: {loaded.detail}"
        try:
            return breaker.call(fn, graph), info
        except CircuitOpenError as exc:
            reason = str(exc)
        except Exception as exc:
            with self._lock:
                self._model_failures += 1
            reason = f"model failure ({type(exc).__name__}: {exc})"
        info.update(predictor_level="heuristic", degraded=True, reason=reason)
        return self._heuristic.predict(graph), info

    def close(self) -> None:
        """Nothing to release: the weights live on the heap.  Callers close
        a manager the way they close every other serve component."""
