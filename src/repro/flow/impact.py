"""Impact evaluation for candidate observation points (Figure 6).

Not every difficult-to-observe node is worth an OP: observing one node can
fix the observability of much of its fan-in cone.  The paper defines the
impact of a location as the *reduction in positive predictions inside its
fan-in cone* after tentatively inserting an OP there, and ranks candidates
by it.

Implementation: :class:`repro.flow.modify.IncrementalDesign` previews
every candidate's insertion (the attribute rows it would move, nothing
inserted), the :class:`~repro.flow.scorer.Scorer` is asked what labels
each preview would change inside the candidate's (memoised) fan-in cone —
so that it scores nothing else — and the surviving positives are counted.
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
    ``baseline_predictions`` are a copy of the labels it returned.  It is
    asked (``what_if(previews, within)``) about each candidate's fan-in
    cone only, and answers with rows inside it.
    """

    def __init__(self, design: IncrementalDesign, scorer: Scorer) -> None:
        self.design = design
        self.scorer = scorer

    def impact(self, candidate: int, baseline_predictions: np.ndarray) -> int:
        """Impact of observing ``candidate`` (Figure 6's ``5 - 1 = 4``)."""
        return self.rank([candidate], baseline_predictions)[0][1]

    def rank(
        self,
        candidates: Sequence[int],
        baseline_predictions: np.ndarray,
    ) -> list[tuple[int, int]]:
        """Return ``(candidate, impact)`` sorted by decreasing impact.

        Ties break towards lower observability-attribute candidates (the
        hardest nodes first), then lower node id for determinism.
        """
        design = self.design
        candidates = [int(c) for c in candidates]
        what_if = self.scorer.what_if(
            [design.preview_op(c) for c in candidates],
            [design.fanin_cone(c) for c in candidates],
        )
        scored = []
        for c, (rows, labels) in zip(candidates, what_if):
            # ``rows`` lie inside the cone; its other labels stay as they
            # are, so these alone can move the count.
            before = int(baseline_predictions[rows].sum())
            scored.append((c, before - int(labels.sum())))
        co = design.scoap.co
        scored.sort(key=lambda item: (-item[1], -co[item[0]], item[0]))
        return scored
