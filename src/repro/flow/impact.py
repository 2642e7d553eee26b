"""Impact evaluation for candidate observation points (Figure 6).

Not every difficult-to-observe node is worth an OP: observing one node can
fix the observability of much of its fan-in cone.  The paper defines the
impact of a location as the *reduction in positive predictions inside its
fan-in cone* after tentatively inserting an OP there, and ranks candidates
by it.

Implementation: tentatively insert the OP through
:class:`repro.flow.modify.IncrementalDesign` (which refreshes attributes in
the cone), hand the rows it changed to the :class:`~repro.flow.scorer.Scorer`,
count surviving positives in the cone, then roll scorer and insertion back
in O(cone).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.flow.modify import IncrementalDesign
from repro.flow.scorer import Scorer

__all__ = ["ImpactEvaluator"]


class ImpactEvaluator:
    """Ranks candidate OP locations by positive-prediction reduction.

    ``scorer`` must be bound to ``design.graph`` before :meth:`impact`;
    ``baseline_predictions`` are a copy of the labels it returned.
    """

    def __init__(self, design: IncrementalDesign, scorer: Scorer) -> None:
        self.design = design
        self.scorer = scorer

    def impact(self, candidate: int, baseline_predictions: np.ndarray) -> int:
        """Impact of observing ``candidate`` (Figure 6's ``5 - 1 = 4``)."""
        cone = self.design.fanin_cone(candidate, include_self=True)
        before = int(baseline_predictions[cone].sum())
        _, checkpoint = self.design.insert_op(candidate)
        try:
            predictions, token = self.scorer.rescore(checkpoint.changed_rows)
            after = int(predictions[cone].sum())
            self.scorer.rollback(token)
        finally:
            self.design.rollback(checkpoint)
        return before - after

    def rank(
        self,
        candidates: Sequence[int],
        baseline_predictions: np.ndarray,
    ) -> list[tuple[int, int]]:
        """Return ``(candidate, impact)`` sorted by decreasing impact.

        Ties break towards lower observability-attribute candidates (the
        hardest nodes first), then lower node id for determinism.
        """
        co = self.design.scoap.co
        scored = [
            (int(c), self.impact(int(c), baseline_predictions)) for c in candidates
        ]
        scored.sort(key=lambda item: (-item[1], -co[item[0]], item[0]))
        return scored
