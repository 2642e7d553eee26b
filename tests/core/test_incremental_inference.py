"""Incremental region inference vs full recomputation: bit-identical."""

import numpy as np
import pytest

from repro.circuit import generate_design
from repro.core.graphdata import GraphData
from repro.core.incremental_inference import IncrementalInference
from repro.core.inference import FastInference
from repro.core.model import GCN
from repro.experiments.common import default_gcn_config
from repro.flow.modify import IncrementalDesign
from repro.nn.sparse import COOMatrix


@pytest.fixture
def weights():
    model = GCN(default_gcn_config(seed=5))
    rng = np.random.default_rng(1)
    for p in model.parameters():
        p.data = p.data + rng.normal(scale=0.05, size=p.data.shape)
    return model.layer_weights()


def _graph_with_small_components(n_attrs: int) -> GraphData:
    """An isolated node (0), an isolated edge (1→2), a 3-node path
    (3→4→5) and one larger component (6..45): editing node 0 / 1 / 3
    recomputes exactly 1 / 2 / 3 rows."""
    edges = [(1, 2), (3, 4), (4, 5)]
    edges += [(u, u + 1) for u in range(6, 45)]
    edges += [(u, u + 3) for u in range(6, 43)]
    n = 46
    drivers = np.array([u for u, _ in edges], dtype=np.int64)
    sinks = np.array([v for _, v in edges], dtype=np.int64)
    ones = np.ones(len(edges))
    rng = np.random.default_rng(7)
    return GraphData(
        pred=COOMatrix((n, n), ones, sinks, drivers),
        succ=COOMatrix((n, n), ones.copy(), drivers.copy(), sinks.copy()),
        attributes=rng.uniform(0.0, 2.0, size=(n, n_attrs)),
    )


class TestIncrementalInference:
    def test_full_pass_matches_fast_inference(self, weights):
        design = IncrementalDesign(generate_design(300, seed=51))
        engine = IncrementalInference(weights, design.graph)
        logits = engine.full_pass()
        reference = FastInference(weights).logits(design.graph)
        assert np.array_equal(logits, reference)

    def test_update_after_op_matches_full(self, weights):
        design = IncrementalDesign(generate_design(300, seed=51))
        engine = IncrementalInference(weights, design.graph)
        engine.full_pass()

        target = 42
        _, checkpoint = design.insert_op(target)
        changed = [v for v, _ in checkpoint.changed_co] + [target]
        engine.update(changed)
        reference = FastInference(weights).logits(design.graph)
        assert np.array_equal(engine.logits, reference)

    def test_sequence_of_insertions(self, weights):
        design = IncrementalDesign(generate_design(250, seed=53))
        engine = IncrementalInference(weights, design.graph)
        engine.full_pass()
        for target in (10, 77, 150):
            _, checkpoint = design.insert_op(target)
            changed = [v for v, _ in checkpoint.changed_co] + [target]
            engine.update(changed)
            reference = FastInference(weights).logits(design.graph)
            assert np.array_equal(engine.logits, reference)

    @pytest.mark.parametrize("node,n_rows", [(0, 1), (1, 2), (3, 3)])
    def test_tiny_affected_sets_bit_identical(self, weights, node, n_rows):
        # One row takes row_stable_matmul's m == 1 padding path and the
        # 2-column head its narrow-output path; neither may round a row
        # differently from the whole-graph product.
        graph = _graph_with_small_components(
            weights.encoder_weights[0].shape[0]
        )
        engine = IncrementalInference(weights, graph)
        engine.full_pass()
        graph.attributes[node] += 0.25
        affected = engine.update([node])
        assert len(affected) == n_rows
        reference = FastInference(weights).logits(graph)
        assert np.array_equal(engine.logits, reference)

    def test_affected_region_is_local(self, weights):
        design = IncrementalDesign(generate_design(400, seed=57))
        engine = IncrementalInference(weights, design.graph)
        engine.full_pass()
        _, checkpoint = design.insert_op(5)
        changed = [v for v, _ in checkpoint.changed_co] + [5]
        affected = engine.update(changed)
        # the region must be a strict subset of the graph on any
        # non-trivial design
        assert 0 < len(affected) < design.graph.num_nodes

    def test_update_before_full_pass_rejected(self, weights):
        design = IncrementalDesign(generate_design(200, seed=59))
        engine = IncrementalInference(weights, design.graph)
        with pytest.raises(RuntimeError):
            engine.update([0])
        with pytest.raises(RuntimeError):
            engine.predict()

    def test_predict_matches_argmax(self, weights):
        design = IncrementalDesign(generate_design(200, seed=59))
        engine = IncrementalInference(weights, design.graph)
        engine.full_pass()
        assert np.array_equal(engine.predict(), np.argmax(engine.logits, axis=1))
