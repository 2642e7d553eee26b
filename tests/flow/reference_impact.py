"""The sequential definition of Figure 6's impact, kept as the oracle.

This is how :class:`repro.flow.impact.ImpactEvaluator` ranked candidates
before it scored them in stacked what-if passes: one candidate at a time,
really insert the OP, re-score what it changed, count the positives left
in the fan-in cone, roll scorer and design back.  The cone is a plain
depth-first walk over ``netlist.fanins``.  Everything the batched path
shares with nothing here: the tests require equal impacts and equal order.
"""

from __future__ import annotations

import numpy as np

from repro.flow.modify import IncrementalDesign
from repro.flow.scorer import Scorer


def reference_fanin_cone(design: IncrementalDesign, node: int) -> list[int]:
    """Fan-in cone of ``node``, node included, by depth-first walk."""
    seen = {node}
    stack = [node]
    while stack:
        for u in design.netlist.fanins(stack.pop()):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return sorted(seen)


def reference_impact(
    design: IncrementalDesign,
    scorer: Scorer,
    candidate: int,
    baseline_predictions: np.ndarray,
) -> int:
    """Drop in positive predictions inside ``candidate``'s fan-in cone
    after a tentative insertion there; ``scorer`` is bound to the design."""
    cone = reference_fanin_cone(design, candidate)
    before = int(baseline_predictions[cone].sum())
    _, checkpoint = design.insert_op(candidate)
    try:
        predictions, token = scorer.rescore(checkpoint.changed_rows)
        after = int(predictions[cone].sum())
        scorer.rollback(token)
    finally:
        design.rollback(checkpoint)
    return before - after


def reference_rank(
    design: IncrementalDesign,
    scorer: Scorer,
    candidates,
    baseline_predictions: np.ndarray,
) -> list[tuple[int, int]]:
    """``(candidate, impact)`` by decreasing impact, then harder (higher
    CO) candidates first, then lower node id."""
    co = design.scoap.co
    scored = [
        (int(c), reference_impact(design, scorer, int(c), baseline_predictions))
        for c in candidates
    ]
    scored.sort(key=lambda item: (-item[1], -co[item[0]], item[0]))
    return scored
