"""The row-blocked kernel against the unblocked oracles, bit for bit.

Two contracts.  The narrow product is the sequential sum of rounded
products, whatever the height of the operand and wherever a row sits in
it.  And nothing observable depends on ``BLOCK_ROWS``: every way of
computing a design's logits equals the unblocked reference at any block
size, including blocks of one row (the ``m == 1`` padding paths).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import generate_design
from repro.config import ExecutionConfig
from repro.core import inference
from repro.core.graphdata import GraphData
from repro.core.inference import (
    FastInference,
    head_forward,
    layer_forward,
    row_stable_matmul,
)
from repro.core.model import GCN, GCNConfig
from repro.experiments.common import default_gcn_config
from repro.flow.modify import IncrementalDesign
from repro.flow.scorer import IncrementalScorer
from repro.graph import ShardedInference
from repro.resilience.errors import NumericalError
from repro.serve.batch import merge_graphs

from tests.core import reference_kernels as reference
from tests.flow.test_scorer import perturbed_weights

SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 1e300, 5e-324])


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    """Equal dtype, shape and bit patterns; a NaN matches any NaN (which
    sign a sum of several NaNs keeps depends on the SIMD lane a row lands
    in — in the k-loop as much as in the kernel)."""
    if x.dtype != y.dtype or x.shape != y.shape:
        return False
    nan = np.isnan(x)
    bits = {8: np.int64, 4: np.int32}[x.dtype.itemsize]
    return np.array_equal(nan, np.isnan(y)) and np.array_equal(
        np.ascontiguousarray(x).view(bits)[~nan],
        np.ascontiguousarray(y).view(bits)[~nan],
    )


@st.composite
def operands(draw):
    m = draw(st.integers(1, 300))
    k = draw(st.integers(1, 130))
    n = draw(st.integers(1, 3))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.0, 0.02, 0.3]))
    arrays = []
    for shape in ((m, k), (k, n)):
        x = rng.standard_normal(shape)
        mask = rng.random(shape) < density
        x[mask] = rng.choice(SPECIALS, size=int(mask.sum()))
        with np.errstate(over="ignore", under="ignore"):
            arrays.append(x.astype(dtype))
    rows = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
    return arrays[0], arrays[1], rows


class TestNarrowProduct:
    @settings(max_examples=150, deadline=None)
    @given(operands())
    def test_equals_the_sequential_loop(self, drawn):
        a, b, _ = drawn
        with np.errstate(all="ignore"):
            assert same_bits(
                row_stable_matmul(a, b), reference.sequential_matmul(a, b)
            )

    @settings(max_examples=150, deadline=None)
    @given(operands())
    def test_any_row_subset_reproduces_the_full_rows(self, drawn):
        a, b, rows = drawn
        with np.errstate(all="ignore"):
            full = row_stable_matmul(a, b)
            assert same_bits(row_stable_matmul(a[rows], b), full[rows])

    @pytest.mark.parametrize("m", [1, 2, 3, 511, 512, 513, 5000])
    def test_head_shape_at_fixed_heights(self, m):
        rng = np.random.default_rng(m)
        a, b = rng.standard_normal((m, 128)), rng.standard_normal((128, 2))
        assert same_bits(row_stable_matmul(a, b), reference.sequential_matmul(a, b))

    def test_all_negative_zero_terms_sum_to_positive_zero(self):
        # The loop starts from +0.0, so (+0.0) + (-0.0) + ... is +0.0.
        a, b = np.full((3, 5), -0.0), np.ones((5, 2))
        out = row_stable_matmul(a, b)
        assert not np.signbit(out).any()
        assert same_bits(out, reference.sequential_matmul(a, b))

    def test_no_inner_dimension(self):
        out = row_stable_matmul(np.ones((3, 0)), np.ones((0, 2)))
        assert same_bits(out, np.zeros((3, 2)))


# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def weights():
    return perturbed_weights(default_gcn_config(seed=5), seed=2)


def make_graph(gates: int = 150, seed: int = 23) -> GraphData:
    return GraphData.from_netlist(generate_design(gates, seed=seed))


#: nodes in ``make_graph()``: block sizes are chosen around it
N = make_graph().num_nodes
BLOCKS = [1, 2, 7, N - 1, N, N + 1]


@pytest.fixture(params=BLOCKS, ids=lambda b: f"block-{b}")
def block(request, monkeypatch):
    monkeypatch.setattr(inference, "BLOCK_ROWS", request.param)
    return request.param


def identical(x: np.ndarray, y: np.ndarray) -> bool:
    return x.dtype == y.dtype == np.float64 and np.array_equal(
        x.view(np.int64), y.view(np.int64)
    )


class TestBlockInvariance:
    def test_whole_graph_pass(self, weights, block):
        graph = make_graph()
        engine = FastInference(weights)
        assert identical(engine.logits(graph), reference.logits(weights, graph))
        assert identical(
            engine.embed(graph), reference.embeddings(weights, graph)[-1]
        )

    def test_four_shards_in_process(self, weights, block):
        graph = make_graph()
        with ShardedInference(
            weights, ExecutionConfig(shards=4, workers=1)
        ) as engine:
            assert identical(engine.logits(graph), reference.logits(weights, graph))

    def test_merged_batch(self, weights, block):
        graphs = [make_graph(60, 3), make_graph(), make_graph(90, 4)]
        merged = merge_graphs(graphs)
        parts = merged.split(FastInference(weights).logits(merged.graph))
        for graph, part in zip(graphs, parts):
            assert identical(
                np.ascontiguousarray(part), reference.logits(weights, graph)
            )

    def test_incremental_bind_and_rescore(self, weights, block):
        design = IncrementalDesign(generate_design(150, seed=23))
        scorer = IncrementalScorer(weights)
        scorer.bind(design.graph)
        assert identical(scorer.logits, reference.logits(weights, design.graph))
        for target in (10, 77, 120):
            _, checkpoint = design.insert_op(target)
            scorer.rescore(checkpoint.changed_rows)
            assert identical(
                np.ascontiguousarray(scorer.logits),
                reference.logits(weights, design.graph),
            )

    def test_dense_adjacency_ablation(self, weights, block):
        # Dense gemm sums a row's n terms in k-panels, so it is only
        # height-stable while n fits one panel (384 here): true of this
        # graph, not of the ablation at large (which compares by allclose).
        graph = make_graph()
        pred, succ = graph.pred.to_dense(), graph.succ.to_dense()
        h = graph.attributes
        for d in range(weights.depth):
            h = layer_forward(weights, d, h, pred, succ, h)
        assert identical(
            head_forward(weights, h), reference.logits(weights, graph, pred, succ)
        )

    def test_one_row_trailing_block(self, weights, monkeypatch):
        graph = make_graph()
        monkeypatch.setattr(inference, "BLOCK_ROWS", N - 1)
        expected = reference.logits(weights, graph)
        assert identical(FastInference(weights).logits(graph), expected)
        # ...and the one row on its own, through both padding paths.
        pred, succ = graph.pred.to_scipy(), graph.succ.to_scipy()
        h = graph.attributes
        layers = reference.embeddings(weights, graph)
        for d, prev in enumerate([h] + layers[:-1]):
            out = layer_forward(
                weights, d, prev[-1:], pred[N - 1 :], succ[N - 1 :], prev
            )
            assert identical(out, layers[d][-1:])
        fused = layer_forward(
            weights, d, prev[-1:], pred[N - 1 :], succ[N - 1 :], prev, True
        )
        assert identical(fused, expected[-1:])

    def test_empty_row_set(self, weights):
        graph = make_graph()
        pred, succ = graph.pred.to_scipy(), graph.succ.to_scipy()
        h = graph.attributes
        out = layer_forward(weights, 0, h[:0], pred[:0], succ[:0], h)
        assert out.shape == (0, 32) and out.dtype == np.float64
        assert head_forward(weights, np.empty((0, 128))).shape == (0, 2)

    def test_non_finite_weight_still_raises(self, weights, block):
        graph = make_graph()
        poisoned = GCN(GCNConfig(seed=5)).layer_weights()
        poisoned.fc_weights[-1][3, 1] = np.nan
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalError, match="non-finite") as info:
                FastInference(poisoned).logits(graph)
        assert info.value.diagnostics["graph"] == graph.name
        assert info.value.diagnostics["bad_nodes"] == graph.num_nodes
