"""The row-blocked kernel against the unblocked oracles, bit for bit.

Five contracts.  The narrow product is the sequential sum of rounded
products, whatever the height, layout or dtypes of the operands and
wherever a row sits in them.  Nothing observable depends on
``BLOCK_ROWS``: every way of computing a design's logits equals the
unblocked reference at any block size, including blocks of one row (the
``m == 1`` padding paths), and a bias added from its block of copies
equals the broadcast add.  No pass writes into its inputs.  Nothing
depends on how many threads share a pass's blocks.  And labels and
probabilities taken from the two logit columns equal ``argmax`` and
``softmax`` along the class axis.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.circuit import generate_design
from repro.config import ExecutionConfig, available_cpus, blas_threads
from repro.core import inference
from repro.core.graphdata import GraphData
from repro.core.inference import (
    FastInference,
    class_labels,
    difficult_proba,
    head_forward,
    layer_forward,
    row_stable_matmul,
    softmax,
)
from repro.core.model import GCN, GCNConfig
from repro.exec import executor
from repro.exec.executor import make_executor, thread_pool
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
    """``(a, b, rows)``: ``a`` (m × K), ``b`` (K × n), each float64 or
    float32 (mixed too), ``a`` sometimes a column slice of a wider array
    and ``b`` sometimes a transposed view, and a row subset of ``a``."""
    m = draw(st.integers(0, 300))
    k = draw(st.integers(1, 130))
    n = draw(st.integers(1, 3))
    f32, f64 = np.float32, np.float64
    dtypes = draw(st.sampled_from([(f64, f64), (f32, f32), (f32, f64), (f64, f32)]))
    offset = draw(st.sampled_from([0, 0, 3]))  # a = wide[:, offset : offset + k]
    transposed = draw(st.booleans())  # b = (n × K).T
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.0, 0.02, 0.3]))
    arrays = []
    for shape, dtype in zip(
        ((m, k + 2 * offset), (n, k) if transposed else (k, n)), dtypes
    ):
        x = rng.standard_normal(shape)
        mask = rng.random(shape) < density
        x[mask] = rng.choice(SPECIALS, size=int(mask.sum()))
        with np.errstate(over="ignore", under="ignore"):
            arrays.append(x.astype(dtype))
    a = arrays[0][:, offset : offset + k]
    b = arrays[1].T if transposed else arrays[1]
    rows = rng.choice(m, size=int(rng.integers(0, m + 1)), replace=False)
    return a, b, rows


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

    @pytest.mark.parametrize("narrow", [np.float32, np.float64])
    def test_own_rows_wider_than_the_layer_input(self, weights, block, narrow):
        # A float64 own_prev beside float32 neighbours (and the reverse):
        # the block returns the unblocked expression's dtype and bits.
        graph = make_graph()
        wide = np.float64 if narrow == np.float32 else np.float32
        pred = graph.pred.to_scipy().astype(narrow)
        succ = graph.succ.to_scipy().astype(narrow)
        prev = graph.attributes.astype(narrow)
        own = graph.attributes.astype(wide)
        expected = reference.layer_forward(weights, 0, own, pred, succ, prev)
        out = layer_forward(weights, 0, own, pred, succ, prev)
        assert expected.dtype == np.float64
        assert same_bits(out, expected)

    def test_non_finite_weight_still_raises(self, weights, block):
        graph = make_graph()
        poisoned = GCN(GCNConfig(seed=5)).layer_weights()
        poisoned.fc_weights[-1][3, 1] = np.nan
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalError, match="non-finite") as info:
                FastInference(poisoned).logits(graph)
        assert info.value.diagnostics["graph"] == graph.name
        assert info.value.diagnostics["bad_nodes"] == graph.num_nodes


def snapshot(*arrays: np.ndarray) -> list[tuple]:
    return [(x.dtype, x.shape, x.tobytes()) for x in arrays]


class TestInputsUntouched:
    """The pass combines Equation (1) in place on its own aggregates: no
    call writes into the arrays it was given or the caches it reads."""

    def test_whole_graph_pass(self, weights, block):
        graph = make_graph()
        before = snapshot(graph.attributes)
        FastInference(weights).logits(graph)
        FastInference(weights).embed(graph)
        assert snapshot(graph.attributes) == before

    def test_four_shards_in_process(self, weights, block):
        graph = make_graph()
        before = snapshot(graph.attributes)
        with ShardedInference(
            weights, ExecutionConfig(shards=4, workers=1)
        ) as engine:
            engine.logits(graph)
        assert snapshot(graph.attributes) == before

    def test_merged_batch(self, weights, block):
        graphs = [make_graph(60, 3), make_graph(), make_graph(90, 4)]
        merged = merge_graphs(graphs)
        before = snapshot(merged.graph.attributes, *(g.attributes for g in graphs))
        FastInference(weights).logits(merged.graph)
        assert snapshot(
            merged.graph.attributes, *(g.attributes for g in graphs)
        ) == before

    def test_incremental_scorer(self, weights, block):
        design = IncrementalDesign(generate_design(150, seed=23))
        scorer = IncrementalScorer(weights)
        attributes = snapshot(design.graph.attributes)
        scorer.bind(design.graph)
        assert snapshot(design.graph.attributes) == attributes
        fresh = reference.embeddings(weights, design.graph)
        cached = [store.rows(N) for store in scorer._stores]
        assert snapshot(*cached[:-2]) == snapshot(design.graph.attributes, *fresh)

        # what_if patches nothing: every cached row keeps its bytes.
        held = [x.copy() for x in cached]
        scorer.what_if(design.preview_ops([10, 77, 120]))
        assert snapshot(*(store.rows(N) for store in scorer._stores)) == (
            snapshot(*held)
        )

        # rescore rewrites the rows it recomputes, and no others.
        _, checkpoint = design.insert_op(77)
        _, (_, _, rows, _) = scorer.rescore(checkpoint.changed_rows)
        kept = np.setdiff1d(np.arange(N), rows)
        now = [store.rows(N) for store in scorer._stores]
        assert snapshot(*(x[kept] for x in now)) == snapshot(*(x[kept] for x in held))
        layers = reference.embeddings(weights, design.graph)
        assert snapshot(*(store.rows(N + 1) for store in scorer._stores[1:-2])) == (
            snapshot(*layers)
        )


# --------------------------------------------------------------------- #
THREADS = [1, 2, 3]
THREAD_BLOCKS = [1, 7, N - 1, N, N + 1]


@pytest.fixture
def split_any(monkeypatch):
    """Let a pass of any block count, and any thread count whatever the
    host and its BLAS, take the threaded path."""
    monkeypatch.setattr(inference, "SPLIT_MIN_BLOCKS", 1)
    monkeypatch.setattr(inference, "available_cpus", lambda: 64)
    monkeypatch.setattr(inference, "blas_threads", lambda: 1)


def threaded(threads: int) -> ExecutionConfig:
    return ExecutionConfig(workers=threads, backend="single")


def sha256(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


@pytest.mark.usefixtures("split_any")
class TestThreadInvariance:
    @pytest.mark.parametrize("threads", THREADS)
    @pytest.mark.parametrize("rows", THREAD_BLOCKS, ids=lambda b: f"block-{b}")
    def test_whole_graph_pass(self, weights, monkeypatch, rows, threads):
        monkeypatch.setattr(inference, "BLOCK_ROWS", rows)
        graph = make_graph()
        engine = FastInference(weights, threaded(threads))
        final = reference.embeddings(weights, graph)[-1]
        expected = reference.logits(weights, graph)
        assert identical(engine.logits(graph), expected)
        assert identical(engine.embed(graph), final)

    @pytest.mark.parametrize("threads", THREADS)
    @pytest.mark.parametrize("rows", THREAD_BLOCKS, ids=lambda b: f"block-{b}")
    def test_merged_batch(self, weights, monkeypatch, rows, threads):
        monkeypatch.setattr(inference, "BLOCK_ROWS", rows)
        graphs = [make_graph(60, 3), make_graph(), make_graph(90, 4)]
        merged = merge_graphs(graphs)
        logits = FastInference(weights, threaded(threads)).logits(merged.graph)
        for graph, part in zip(graphs, merged.split(logits)):
            assert identical(
                np.ascontiguousarray(part), reference.logits(weights, graph)
            )

    def test_non_finite_weight_still_raises(self, monkeypatch):
        monkeypatch.setattr(inference, "BLOCK_ROWS", 7)
        graph = make_graph()
        poisoned = GCN(GCNConfig(seed=5)).layer_weights()
        poisoned.fc_weights[-1][3, 1] = np.nan
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalError, match="non-finite") as info:
                FastInference(poisoned, threaded(2)).logits(graph)
        assert info.value.diagnostics["bad_nodes"] == graph.num_nodes


@pytest.mark.usefixtures("split_any")
class TestBiasBlocks:
    """A block adds each bias from :meth:`GCNWeights.bias_blocks`; the
    oracles add it by broadcast.  Row sets of 1, 3 and ``BLOCK_ROWS``
    - 1 .. + 1 rows, at every block size :data:`BLOCKS` sweeps."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["fp64", "fp32"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_equals_the_broadcast_add(self, weights, block, threads, dtype):
        graph, w = make_graph(), weights.astype(dtype)
        pred, succ = (m.to_scipy().astype(dtype) for m in (graph.pred, graph.succ))
        h = graph.attributes.astype(dtype)
        for d in range(w.depth):
            for count in sorted({1, 3, block - 1, block, block + 1}):
                rows = np.arange(count) % N  # past N, rows repeat
                args = (w, d, h[rows], pred[rows], succ[rows], h)
                want = reference.layer_forward(*args)
                if d == w.depth - 1:
                    want = reference.head_forward(w, want)
                got = layer_forward(*args, with_head=True, threads=threads)
                assert got.dtype == dtype and same_bits(got, want), (d, count)
            h = reference.layer_forward(w, d, h, pred, succ, h)
        for count in sorted({1, 3, block - 1, block, block + 1}):
            rows = np.arange(count) % N
            assert same_bits(
                head_forward(w, h[rows]), reference.head_forward(w, h[rows])
            ), count

    def test_one_memo_per_snapshot_and_block_size(self, weights, monkeypatch):
        w = weights.astype(np.float32)  # a snapshot of its own
        first = w.bias_blocks(7)
        assert all(map(np.shares_memory, first[0], w.bias_blocks(7)[0]))
        encoder, head = w.bias_blocks(9)
        assert [b.shape for b in encoder] == [(9, len(b)) for b in w.encoder_biases]
        assert [b.shape for b in head] == [(9, len(b)) for b in w.fc_biases]
        assert all(b.dtype == np.float32 for b in encoder + head)
        # A pass at a patched size rebuilds the memo at that size.
        monkeypatch.setattr(inference, "BLOCK_ROWS", 5)
        FastInference(weights, ExecutionConfig(dtype="float32")).logits(make_graph())
        assert w.__dict__["_bias_blocks"][0] == 5

    def test_a_pickle_carries_no_bias_blocks(self, weights):
        pristine = pickle.dumps(weights)
        weights.bias_blocks(inference.BLOCK_ROWS)
        weights.astype(np.float32).bias_blocks(inference.BLOCK_ROWS)
        assert "_bias_blocks" in weights.__dict__
        clone = pickle.loads(pickle.dumps(weights))
        assert "_bias_blocks" not in clone.__dict__
        assert "_cast_cache" not in clone.__dict__
        assert pickle.dumps(weights) == pristine


def logit_pairs(dtype, width: int):
    """``n × 2`` finite logits of ``dtype``, with ties (±0.0 ones too)
    and magnitudes up to ``1e300`` (float32: its largest finite)."""
    values = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False, width=width),
        st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324, 1.0]).map(
            lambda x: float(np.clip(x, np.finfo(dtype).min, np.finfo(dtype).max).astype(dtype))
        ),
    )

    @st.composite
    def draw(draw):
        logits = draw(hnp.arrays(dtype, st.tuples(st.integers(0, 40), st.just(2)), elements=values))
        ties = draw(hnp.arrays(bool, logits.shape[0]))
        logits[ties, 1] = logits[ties, 0]
        flip = draw(hnp.arrays(bool, logits.shape[0]))
        logits[ties & flip, 1] *= -1.0  # 0.0 against -0.0
        return logits

    return draw()


class TestScoreColumns:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(logit_pairs(np.float64, 64), logit_pairs(np.float32, 32)))
    def test_equal_the_reductions_along_the_class_axis(self, logits):
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference.softmax(logits)
            got = softmax(logits)
            proba = difficult_proba(logits)
        assert got.dtype == proba.dtype == logits.dtype
        assert got.tobytes() == want.tobytes()
        assert proba.tobytes() == np.ascontiguousarray(want[:, 1]).tobytes()
        labels = class_labels(logits)
        assert labels.dtype == np.int64
        assert labels.tobytes() == reference.labels(logits).tobytes()

    @pytest.mark.parametrize("rows", [0, 1])
    def test_no_and_one_row(self, rows):
        logits = np.full((rows, 2), 3.0)
        assert class_labels(logits).tolist() == [0] * rows
        assert softmax(logits).shape == (rows, 2)
        assert difficult_proba(logits).tolist() == [0.5] * rows


@pytest.mark.usefixtures("split_any")
class TestThreadSplit:
    def test_error_in_a_pooled_run_reaches_the_caller(self, monkeypatch):
        # 8 one-row blocks over 2 threads.  Every block the caller takes
        # waits until a pool thread has raised, so the error is raised on
        # the pool, and the caller computes the blocks that are left.
        monkeypatch.setattr(inference, "BLOCK_ROWS", 1)
        pool_failed = threading.Event()
        done = []

        def compute(lo, hi):
            if threading.current_thread().name.startswith("repro-pool"):
                pool_failed.set()
                raise RuntimeError(f"boom on {threading.current_thread().name}")
            assert pool_failed.wait(timeout=30)
            done.append(lo)

        with pytest.raises(RuntimeError, match="boom on repro-pool"):
            inference._by_blocks(np.zeros((8, 2)), compute, threads=2)
        assert len(done) == 7

    def test_an_error_on_the_caller_stops_the_pool_runs(self, monkeypatch):
        # The pool's run is inside a block when the caller raises: the call
        # returns only once that block is done, and the run stops taking
        # blocks (each one after its first sleeps, so without the stop it
        # would still take all seven that are left).
        monkeypatch.setattr(inference, "BLOCK_ROWS", 1)
        pool_started, caller_failed = threading.Event(), threading.Event()
        started, finished = [], []

        def compute(lo, hi):
            if threading.current_thread().name.startswith("repro-pool"):
                started.append(lo)
                pool_started.set()
                assert caller_failed.wait(timeout=30)
                if len(started) > 1:
                    time.sleep(0.05)
                finished.append(lo)
                return
            assert pool_started.wait(timeout=30)
            caller_failed.set()
            raise RuntimeError("boom on the caller")

        with pytest.raises(RuntimeError, match="boom on the caller"):
            inference._by_blocks(np.zeros((8, 2)), compute, threads=2)
        assert started == finished and len(started) < 7

    def test_a_call_on_a_pool_thread_runs_serially(self, monkeypatch):
        monkeypatch.setattr(inference, "BLOCK_ROWS", 1)
        # Two pool threads, whatever the host: a nested split would hand
        # a run to the idle one.
        wide = ThreadPoolExecutor(
            2, thread_name_prefix="repro-pool", initializer=executor._mark_pooled
        )
        monkeypatch.setattr(executor, "_pool", wide)
        seen, out = set(), np.empty((9, 2))

        def compute(lo, hi):
            seen.add(threading.current_thread().name)
            out[lo:hi] = lo

        def nested():
            return inference._by_blocks(out, compute, threads=2)

        try:
            out = thread_pool().submit(nested).result(timeout=30)
        finally:
            wide.shutdown()
        assert np.array_equal(out[:, 0], np.arange(9.0))
        assert len(seen) == 1 and next(iter(seen)).startswith("repro-pool")

    def test_callers_of_different_sizes_share_the_pool(self, monkeypatch):
        # Both callers have handed the pool their runs before either is
        # past its first block, and each asks for a different number of
        # threads: the pool one of them holds must still take its runs, as
        # must the pool held here since before either call.
        monkeypatch.setattr(inference, "BLOCK_ROWS", 1)
        held = thread_pool()
        both_started = threading.Barrier(2, timeout=30)

        def call(n, threads):
            out = np.empty((n, 2))

            def compute(lo, hi):
                if lo == 0:
                    both_started.wait()
                out[lo:hi] = lo

            return inference._by_blocks(out, compute, threads=threads)

        calls = [(10, 2), (20, 4)]
        with ThreadPoolExecutor(len(calls)) as callers:
            outs = list(callers.map(lambda c: call(*c), calls))
        for (n, _), out in zip(calls, outs):
            assert np.array_equal(out[:, 0], np.arange(float(n)))
        assert held.submit(int).result(timeout=30) == 0

    def test_runs_a_busy_pool_has_not_started_are_taken_back(self, monkeypatch):
        monkeypatch.setattr(inference, "BLOCK_ROWS", 1)
        seen, out = set(), np.empty((9, 2))

        def compute(lo, hi):
            seen.add(threading.current_thread().name)
            out[lo:hi] = lo

        release = threading.Event()
        with ThreadPoolExecutor(1) as busy:
            busy.submit(release.wait, 30)
            monkeypatch.setattr(inference, "thread_pool", lambda: busy)
            try:
                inference._by_blocks(out, compute, threads=3)
            finally:
                release.set()
        assert np.array_equal(out[:, 0], np.arange(9.0))
        assert seen == {threading.current_thread().name}

    def test_a_forked_child_runs_a_threaded_pass(self, weights, monkeypatch):
        monkeypatch.setattr(inference, "BLOCK_ROWS", 7)
        graph = make_graph()
        engine = FastInference(weights, threaded(2))
        expected = sha256(engine.logits(graph))  # the parent's pool exists now

        def child(conn):
            # The inherited pool's threads did not survive the fork: a
            # run on them would never start.
            ran = thread_pool().submit(threading.current_thread).result(10)
            conn.send((sha256(engine.logits(graph)), ran.name))
            conn.close()

        ctx = multiprocessing.get_context("fork")
        receiver, sender = ctx.Pipe(duplex=False)
        process = ctx.Process(target=child, args=(sender,))
        process.start()
        sender.close()
        try:
            assert receiver.poll(60), "the forked child's pass hung"
            digest, pool_thread = receiver.recv()
            assert digest == expected and pool_thread.startswith("repro-pool")
        finally:
            process.join(timeout=30)
            if process.is_alive():
                process.kill()
        assert process.exitcode == 0

    @pytest.mark.parametrize(
        "cpus, blas, splits", [(2, 1, True), (2, 2, False), (4, 2, True), (2, 4, False)]
    )
    def test_a_threaded_blas_caps_the_split(
        self, weights, monkeypatch, cpus, blas, splits
    ):
        # Pass threads x BLAS threads stay within the allowed CPUs.
        monkeypatch.setattr(inference, "available_cpus", lambda: cpus)
        monkeypatch.setattr(inference, "blas_threads", lambda: blas)
        asked = []

        def pool():
            asked.append(True)
            return thread_pool()

        monkeypatch.setattr(inference, "thread_pool", pool)
        monkeypatch.setattr(inference, "BLOCK_ROWS", 7)
        graph = make_graph()
        logits = FastInference(weights, threaded(2)).logits(graph)
        assert identical(logits, reference.logits(weights, graph))
        assert bool(asked) == splits

    def test_one_allowed_cpu_runs_serially(self, weights, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert ExecutionConfig().resolved_workers() == 1
        assert make_executor("forkpool").max_workers == 1

        def no_pool():
            raise AssertionError("a one-CPU pass asked for a thread pool")

        monkeypatch.setattr(inference, "thread_pool", no_pool)
        monkeypatch.setattr(inference, "BLOCK_ROWS", 7)
        graph = make_graph()
        assert identical(
            FastInference(weights).logits(graph), reference.logits(weights, graph)
        )


class TestBlasThreads:
    NAMES = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")

    @pytest.fixture(autouse=True)
    def unset(self, monkeypatch):
        for name in self.NAMES:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)

    def test_unset_is_every_allowed_cpu(self):
        assert blas_threads() == available_cpus() == 3

    def test_openblas_variable_first(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "4,2")
        assert blas_threads() == 4
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert blas_threads() == 1

    @pytest.mark.parametrize("raw", ["", "0", "-1", "many"])
    def test_unusable_values_are_skipped(self, monkeypatch, raw):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", raw)
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
        assert blas_threads() == 2
