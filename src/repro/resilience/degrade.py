"""Graceful degradation: the predictor loading ladder.

A deployed OPI flow needs *a* predictor even when its model file is
missing, truncated, or partially corrupt.  The ladder, best rung first:

1. **cascade** — the full multi-stage GCN loads and validates;
2. **cascade-partial** — some stages are corrupt, the valid prefix runs
   (still a confident-negative filter, just a shallower one);
3. **gcn** — the file holds a single GCN rather than a cascade;
4. **heuristic** — nothing loadable; fall back to thresholding the SCOAP
   observability attribute the graph already carries (the classic
   pre-learning test-point heuristic).

Every step down the ladder emits a :class:`ResourceWarning` stating what
was lost, so degradation is visible in logs but never fatal.

Imports of :mod:`repro.core` are deferred to call time: ``core.serialize``
itself depends on :mod:`repro.resilience.atomic`, and eager imports here
would close that cycle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.resilience.errors import CheckpointCorruptError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.graphdata import GraphData

__all__ = ["HeuristicPredictor", "LoadedPredictor", "load_predictor"]


class HeuristicPredictor:
    """SCOAP-based difficult-to-observe predictor (no trained model).

    The node attribute matrix is ``[LL, C0, C1, O]`` (Section 3.1), so the
    observability measure is already on every graph; a node whose SCOAP CO
    exceeds ``co_threshold`` is flagged positive.  With
    ``normalized=True`` (the :class:`~repro.core.attributes.
    AttributeConfig` default) the threshold is compared in the squashed
    ``log1p(co)/scoap_scale`` domain.
    """

    level = "heuristic"

    def __init__(
        self,
        co_threshold: float = 50.0,
        normalized: bool = True,
        scoap_scale: float = 7.0,
        column: int = 3,
    ) -> None:
        if co_threshold < 0:
            raise ValueError("co_threshold must be non-negative")
        self.co_threshold = co_threshold
        self.normalized = normalized
        self.scoap_scale = scoap_scale
        self.column = column

    def _cutoff(self) -> float:
        if self.normalized:
            return math.log1p(self.co_threshold) / self.scoap_scale
        return self.co_threshold

    def predict(self, graph: "GraphData") -> np.ndarray:
        """0/1 per node: 1 where the observability attribute is high."""
        observability = np.asarray(graph.attributes)[:, self.column]
        return (observability >= self._cutoff()).astype(np.int64)

    __call__ = predict


@dataclass
class LoadedPredictor:
    """Outcome of :func:`load_predictor`: the predictor plus provenance.

    ``predictor`` exposes ``.predict(graph) -> 0/1 array`` (and is itself
    callable for the heuristic), so ``loaded.predictor.predict`` plugs
    straight into :func:`repro.flow.insertion.run_gcn_opi`.
    """

    predictor: object
    level: str  #: "cascade" | "cascade-partial" | "gcn" | "heuristic"
    detail: str
    path: Path | None = None

    @classmethod
    def of(cls, model, path: str | Path) -> "LoadedPredictor":
        """The ladder rung a model read from ``path`` stands on."""
        from repro.core.multistage import MultiStageGCN

        path = Path(path)
        if not isinstance(model, MultiStageGCN):
            return cls(model, level="gcn", detail="single GCN loaded", path=path)
        loaded, expected = len(model.stages), model.config.n_stages
        if loaded < expected:
            return cls(
                model,
                level="cascade-partial",
                detail=f"{loaded}/{expected} stages loaded",
                path=path,
            )
        return cls(
            model, level="cascade", detail=f"all {expected} stages loaded", path=path
        )

    def predict(self, graph: "GraphData") -> np.ndarray:
        return self.predictor.predict(graph)


def _degrade(reason: str, path, heuristic: HeuristicPredictor | None, warn: bool):
    if warn:
        warnings.warn(
            f"falling back to SCOAP heuristic predictor: {reason}",
            ResourceWarning,
            stacklevel=3,
        )
    return LoadedPredictor(
        predictor=heuristic or HeuristicPredictor(),
        level="heuristic",
        detail=reason,
        path=Path(path) if path is not None else None,
    )


def load_predictor(
    path: str | Path,
    heuristic: HeuristicPredictor | None = None,
    warn: bool = True,
) -> LoadedPredictor:
    """Load the best available predictor from ``path``.

    Never raises on a bad model file: every failure degrades one rung down
    the ladder, bottoming out at the SCOAP heuristic.  Inspect
    ``result.level``/``result.detail`` to see what actually loaded.
    """
    from repro.core.serialize import load_model

    try:
        # A partial cascade has already warned about its dropped tail.
        model = load_model(path, strict=False)
    except FileNotFoundError:
        return _degrade(f"model file {path} does not exist", path, heuristic, warn)
    except CheckpointCorruptError as exc:
        return _degrade(str(exc), path, heuristic, warn)
    return LoadedPredictor.of(model, path)
