"""Impact evaluation (Figure 6)."""

import numpy as np
import pytest

from repro.circuit import generate_design
from repro.flow.impact import ImpactEvaluator
from repro.flow.modify import IncrementalDesign
from repro.flow.scorer import as_scorer


def co_threshold_predictor(threshold=4.0):
    """Toy predictor: positive when normalized observability is poor.

    Deterministic in the graph attributes, so impact is easy to reason
    about: inserting an OP lowers CO in the fan-in cone, flipping nodes to
    negative.
    """

    def predict(graph):
        return (graph.attributes[:, 3] > np.log1p(threshold) / 7.0).astype(np.int64)

    return predict


@pytest.fixture
def design():
    return IncrementalDesign(generate_design(200, seed=43))


def bound_evaluator(design):
    """An evaluator over the toy predictor, and its baseline labels."""
    scorer = as_scorer(co_threshold_predictor())
    baseline = scorer.bind(design.graph).copy()
    return ImpactEvaluator(design, scorer), baseline


class TestImpact:
    def test_figure6_semantics(self, design):
        evaluator, baseline = bound_evaluator(design)
        positives = np.flatnonzero(baseline == 1)
        if len(positives) == 0:
            pytest.skip("toy predictor found no positives on this design")
        candidate = int(positives[-1])
        impact = evaluator.impact(candidate, baseline)
        cone = design.fanin_cone(candidate)
        assert impact <= int(baseline[cone].sum())
        # Observing the candidate itself flips at least itself to easy.
        assert impact >= 1

    def test_design_unchanged_after_evaluation(self, design):
        evaluator, baseline = bound_evaluator(design)
        n0 = design.num_nodes
        attrs0 = design.graph.attributes.copy()
        positives = np.flatnonzero(baseline == 1)[:5]
        for c in positives:
            evaluator.impact(int(c), baseline)
        assert design.num_nodes == n0
        assert np.allclose(design.graph.attributes, attrs0)

    def test_rank_sorted_descending(self, design):
        evaluator, baseline = bound_evaluator(design)
        candidates = np.flatnonzero(baseline == 1)[:8]
        if len(candidates) < 2:
            pytest.skip("not enough candidates")
        ranked = evaluator.rank(design.preview_ops(candidates), baseline)
        impacts = [imp for _, imp in ranked]
        assert impacts == sorted(impacts, reverse=True)
        assert {c for c, _ in ranked} == set(candidates.tolist())
