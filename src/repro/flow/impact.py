"""Impact evaluation for candidate observation points (Figure 6).

Not every difficult-to-observe node is worth an OP: observing one node can
fix the observability of much of its fan-in cone.  The paper defines the
impact of a location as the *reduction in positive predictions inside its
fan-in cone* after tentatively inserting an OP there, and ranks candidates
by it.

Implementation, a fixed number of array sweeps per iteration:
:meth:`repro.flow.modify.IncrementalDesign.preview_ops` previews every
candidate's insertion in one stacked SCOAP relaxation (the attribute rows
each would move, nothing inserted) — the caller takes the previews, ranks
them here and commits the ones it selects — and the design walks every
candidate's fan-in cone not yet memoised in one stacked level walk; the
:class:`~repro.flow.scorer.Scorer` is asked, in stacked what-if passes,
what labels each preview would change inside its candidate's cone — so
that it scores nothing else — and the surviving positives are counted.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.flow.modify import IncrementalDesign, OpPreview
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
        previews = self.design.preview_ops([candidate])
        return self.rank(previews, baseline_predictions)[0][1]

    def rank(
        self,
        previews: Sequence[OpPreview],
        baseline_predictions: np.ndarray,
    ) -> list[tuple[int, int]]:
        """Return ``(candidate, impact)`` sorted by decreasing impact, one
        per preview (of the design as it stands; ``target`` names the
        candidate).

        Ties break towards lower observability-attribute candidates (the
        hardest nodes first), then lower node id for determinism.
        """
        design = self.design
        candidates = [p.target for p in previews]
        what_if = self.scorer.what_if(previews, design.fanin_cones(candidates))
        scored = []
        for c, (rows, labels) in zip(candidates, what_if):
            # ``rows`` lie inside the cone; its other labels stay as they
            # are, so these alone can move the count.
            before = int(baseline_predictions[rows].sum())
            scored.append((c, before - int(labels.sum())))
        co = design.scoap.co
        scored.sort(key=lambda item: (-item[1], -co[item[0]], item[0]))
        return scored
