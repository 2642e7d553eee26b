"""The scorer protocol: incremental patches vs whole-graph passes, bit for bit."""

import io
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.circuit import GateType, adjacency_pair, generate_design, write_bench
from repro.config import ExecutionConfig
from repro.core.graphdata import GraphData
from repro.core.inference import FastInference
from repro.core.model import GCN, GCNConfig
from repro.core.serialize import load_gcn
from repro.experiments.common import default_gcn_config
from repro.flow.insertion import OpiConfig, run_gcn_opi
from repro.flow.modify import IncrementalDesign
from repro.flow.scorer import IncrementalScorer, WholeGraphScorer, as_scorer
from repro.nn.sparse import COOMatrix
from repro.obs.metrics import get_registry
from repro.obs.trace import trace
from repro.resilience.checkpoint import Checkpointer
from repro.resilience.errors import NumericalError
from repro.testability import scoap as scoap_module

from tests.flow.test_impact import co_threshold_predictor

#: the benchmark's trained classifier: few, local positives, as in Figure 7
TRAINED = Path(__file__).resolve().parents[2] / "perf" / "assets" / "gcn_w15.npz"


def perturbed_weights(config, seed: int):
    model = GCN(config)
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.data = p.data + rng.normal(scale=0.05, size=p.data.shape)
    return model.layer_weights()


@pytest.fixture(scope="module")
def weights():
    return perturbed_weights(default_gcn_config(seed=5), seed=1)


def make_small_weights():
    """Two narrow layers, cheap enough for hundreds of oracle passes; this
    draw labels about a third of a generated design positive."""
    return perturbed_weights(
        GCNConfig(hidden_dims=(8, 8), fc_dims=(8,), seed=3), seed=6
    )


@pytest.fixture(scope="module")
def small_weights():
    return make_small_weights()


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


def rows_scored() -> float:
    return get_registry().counter("repro_inference_incremental_rows_total").value


def patches() -> float:
    return get_registry().counter("repro_inference_incremental_updates_total").value


class TestIncrementalScorer:
    def test_bind_matches_fast_inference(self, weights):
        design = IncrementalDesign(generate_design(300, seed=51))
        scorer = IncrementalScorer(weights)
        labels = scorer.bind(design.graph)
        oracle = FastInference(weights)
        assert np.array_equal(scorer.logits, oracle.logits(design.graph))
        assert np.array_equal(labels, oracle.predict(design.graph))

    def test_sequence_of_insertions(self, weights):
        design = IncrementalDesign(generate_design(250, seed=53))
        scorer = IncrementalScorer(weights)
        scorer.bind(design.graph)
        oracle = FastInference(weights)
        for target in (10, 77, 150):
            _, checkpoint = design.insert_op(target)
            labels, _ = scorer.rescore(checkpoint.changed_rows)
            assert np.array_equal(scorer.logits, oracle.logits(design.graph))
            assert np.array_equal(labels, oracle.predict(design.graph))

    def test_several_insertions_in_one_rescore(self, weights):
        design = IncrementalDesign(generate_design(250, seed=53))
        scorer = IncrementalScorer(weights)
        scorer.bind(design.graph)
        changed = []
        for target in (10, 77, 150):
            changed += design.insert_op(target)[1].changed_rows
        scorer.rescore(changed)
        assert np.array_equal(
            scorer.logits, FastInference(weights).logits(design.graph)
        )

    @pytest.mark.parametrize("node,n_rows", [(0, 1), (1, 2), (3, 3)])
    def test_tiny_affected_sets_bit_identical(self, weights, node, n_rows):
        # One row takes row_stable_matmul's m == 1 padding path and the
        # 2-column head its narrow-output path; neither may round a row
        # differently from the whole-graph product.
        graph = _graph_with_small_components(4)
        scorer = IncrementalScorer(weights)
        scorer.bind(graph)
        graph.attributes[node] += 0.25
        before = rows_scored()
        scorer.rescore([node])
        assert rows_scored() - before == n_rows
        assert np.array_equal(scorer.logits, FastInference(weights).logits(graph))

    def test_nothing_changed_scores_nothing(self, weights):
        graph = _graph_with_small_components(4)
        scorer = IncrementalScorer(weights)
        labels = scorer.bind(graph).copy()
        before = rows_scored()
        relabelled, token = scorer.rescore([])
        assert rows_scored() == before
        assert np.array_equal(relabelled, labels)
        scorer.rollback(token)
        assert np.array_equal(scorer.logits, FastInference(weights).logits(graph))

    def test_affected_region_is_local(self, weights):
        design = IncrementalDesign(generate_design(400, seed=57))
        scorer = IncrementalScorer(weights)
        scorer.bind(design.graph)
        before = rows_scored()
        scorer.rescore(design.insert_op(5)[1].changed_rows)
        assert 0 < rows_scored() - before < design.graph.num_nodes


class TestWholeGraphScorer:
    def test_plain_callable_is_wrapped_and_scorer_is_not(self, weights):
        predictor = co_threshold_predictor()
        assert isinstance(as_scorer(predictor), WholeGraphScorer)
        scorer = IncrementalScorer(weights)
        assert as_scorer(scorer) is scorer

    def test_rescore_repredicts_the_edited_graph(self):
        design = IncrementalDesign(generate_design(200, seed=43))
        predictor = co_threshold_predictor()
        scorer = WholeGraphScorer(predictor)
        baseline = scorer.bind(design.graph)
        _, checkpoint = design.insert_op(int(np.flatnonzero(baseline)[-1]))
        labels, token = scorer.rescore(checkpoint.changed_rows)
        assert np.array_equal(labels, predictor(design.graph))
        assert len(labels) == len(baseline) + 1
        scorer.rollback(token)
        design.rollback(checkpoint)
        assert np.array_equal(scorer.rescore([])[0], baseline)


# --------------------------------------------------------------------- #
# The pure state machine: insert → rescore → rollback | commit
# --------------------------------------------------------------------- #


def _state(design: IncrementalDesign, scorer: IncrementalScorer) -> list[bytes]:
    """Every per-layer cache, the logits and label stores, the attribute
    rows and both live CSRs, as bytes."""
    n = design.num_nodes
    arrays = [store.rows(n) for store in scorer._stores]
    arrays.append(design.graph.attributes)
    for matrix in (design.graph.pred, design.graph.succ):
        csr = matrix.to_scipy()
        assert csr.shape == (n, n)
        arrays += [csr.indptr, csr.indices, csr.data]
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def _check_against_fresh(design, scorer, oracle) -> None:
    graph = design.graph
    logits = oracle.logits(graph)
    assert np.array_equal(scorer.logits, logits)
    assert np.array_equal(
        scorer._stores[-1].rows(graph.num_nodes), np.argmax(logits, axis=1)
    )
    for matrix, built in zip((graph.pred, graph.succ), adjacency_pair(design.netlist)):
        live, fresh = matrix.to_scipy(), built.to_scipy()
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(live, name), getattr(fresh, name))
            assert getattr(live, name).dtype == getattr(fresh, name).dtype


_STEP = st.tuples(
    st.sampled_from(["tentative", "commit", "nested"]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)


class TestStateMachine:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 5000), steps=st.lists(_STEP, min_size=1, max_size=8))
    def test_random_edit_sequences(self, small_weights, seed, steps):
        design = IncrementalDesign(generate_design(40 + seed % 50, seed=seed))
        oracle = FastInference(small_weights)
        scorer = IncrementalScorer(small_weights)
        scorer.bind(design.graph)
        _check_against_fresh(design, scorer, oracle)
        live = [design.graph.pred.to_scipy(), design.graph.succ.to_scipy()]

        def pick(i: int) -> int:
            legal = [
                v
                for v in design.netlist.nodes()
                if design.netlist.gate_type(v) is not GateType.OBS
            ]
            return legal[i % len(legal)]

        def insert(i: int):
            _, checkpoint = design.insert_op(pick(i))
            _, token = scorer.rescore(checkpoint.changed_rows)
            _check_against_fresh(design, scorer, oracle)
            return checkpoint, token

        def undo(checkpoint, token, expected: list[bytes]) -> None:
            scorer.rollback(token)
            design.rollback(checkpoint)
            assert _state(design, scorer) == expected
            _check_against_fresh(design, scorer, oracle)

        for kind, i, j in steps:
            before = _state(design, scorer)
            outer = insert(i)
            if kind == "commit":
                continue
            if kind == "nested":
                between = _state(design, scorer)
                undo(*insert(j), between)
            undo(*outer, before)
        # No edit ever dropped the CSR: it is the object built before bind.
        assert design.graph.pred.to_scipy() is live[0]
        assert design.graph.succ.to_scipy() is live[1]


# --------------------------------------------------------------------- #
# The flow over the protocol
# --------------------------------------------------------------------- #
FLOW_CONFIG = OpiConfig(max_iterations=3, select_fraction=0.4)


def _bench_text(netlist) -> str:
    stream = io.StringIO()
    write_bench(netlist, stream)
    return stream.getvalue()


def _same_flow(a, b) -> None:
    assert a.inserted == b.inserted
    assert a.positives_history == b.positives_history
    assert _bench_text(a.netlist) == _bench_text(b.netlist)


class TestFlowEquivalence:
    @pytest.mark.parametrize(
        "gates,seed", [(60, 1), (90, 2), (120, 3), (150, 4), (200, 5), (150, 7002)]
    )
    def test_weights_and_plain_callable_agree(self, small_weights, gates, seed):
        netlist = generate_design(gates, seed=seed)
        before = patches()
        incremental = run_gcn_opi(
            netlist, IncrementalScorer(small_weights), FLOW_CONFIG
        )
        assert patches() > before
        plain = run_gcn_opi(
            netlist, FastInference(small_weights).predict, FLOW_CONFIG
        )
        assert incremental.n_ops > 0
        _same_flow(incremental, plain)

    def test_api_takes_the_incremental_path_in_float64_only(self, small_weights):
        netlist = generate_design(120, seed=3)
        reference = run_gcn_opi(
            netlist, FastInference(small_weights).predict, FLOW_CONFIG
        )
        for model in (small_weights, FastInference(small_weights)):
            before = patches()
            _same_flow(
                api.insert_observation_points(netlist, model, FLOW_CONFIG),
                reference,
            )
            assert patches() > before
        before = patches()
        api.insert_observation_points(
            netlist,
            small_weights,
            FLOW_CONFIG,
            execution=ExecutionConfig(dtype="float32"),
        )
        assert patches() == before

    def test_resumed_flow_binds_after_replay(self, small_weights, tmp_path):
        netlist = generate_design(150, seed=4)
        reference = run_gcn_opi(
            netlist, FastInference(small_weights).predict, FLOW_CONFIG
        )
        assert reference.iterations == 3
        ckpt = Checkpointer(tmp_path / "opi")
        run_gcn_opi(
            netlist,
            IncrementalScorer(small_weights),
            OpiConfig(max_iterations=1, select_fraction=0.4),
            checkpoint=ckpt,
        )
        resumed = run_gcn_opi(
            netlist, IncrementalScorer(small_weights), FLOW_CONFIG, checkpoint=ckpt
        )
        _same_flow(resumed, reference)

    def test_non_finite_weights_surface_from_rescore(self, small_weights):
        class PoisonedAfterBind(IncrementalScorer):
            def bind(self, graph):
                labels = super().bind(graph)
                self.weights.fc_weights[0][0, 0] = np.nan
                return labels

        poisoned = PoisonedAfterBind(make_small_weights())
        with pytest.raises(NumericalError, match="non-finite"):
            run_gcn_opi(generate_design(120, seed=3), poisoned, FLOW_CONFIG)


class TestWorkGate:
    """Machine-independent form of the benchmark's claim, on its design."""

    CONFIG = OpiConfig(max_iterations=12, select_fraction=0.4)

    @staticmethod
    def _spans(node, name) -> list:
        found = [node] if node.name == name else []
        return found + [s for c in node.children for s in TestWorkGate._spans(c, name)]

    @staticmethod
    def _count_kernel(monkeypatch) -> list:
        """``(layer, rows)`` of every ``layer_forward`` call the scorer makes."""
        from repro.flow import scorer as scorer_module

        calls = []
        kernel = scorer_module.layer_forward

        def counted(weights, d, own_prev, *args, **kwargs):
            calls.append((d, own_prev.shape[0]))
            return kernel(weights, d, own_prev, *args, **kwargs)

        monkeypatch.setattr(scorer_module, "layer_forward", counted)
        return calls

    @staticmethod
    def _count_relaxations(monkeypatch) -> list:
        """One entry per ``relax_observability`` call the design makes."""
        from repro.flow import modify

        calls = []
        relax = modify.relax_observability

        def counted(*args, **kwargs):
            calls.append(len(args[3]))
            return relax(*args, **kwargs)

        monkeypatch.setattr(modify, "relax_observability", counted)
        return calls

    @staticmethod
    def _forbid_scipy_in_scorer(monkeypatch) -> None:
        """Fail on any scipy sparse matrix built inside ``what_if`` or
        ``rescore``: the kernel reads their row blocks as plain arrays."""
        from scipy.sparse import _base

        inside = []
        construct = _base._spbase.__init__

        def guarded(self, *args, **kwargs):
            if inside:
                raise AssertionError(f"{inside[-1]} built a {type(self).__name__}")
            return construct(self, *args, **kwargs)

        monkeypatch.setattr(_base._spbase, "__init__", guarded)
        for name in ("what_if", "rescore"):
            method = getattr(IncrementalScorer, name)

            def entered(self, *args, _method=method, _name=name, **kwargs):
                inside.append(_name)
                try:
                    return _method(self, *args, **kwargs)
                finally:
                    inside.pop()

            monkeypatch.setattr(IncrementalScorer, name, entered)

    def test_flow_scores_a_fraction_of_the_graph_per_candidate(self, monkeypatch):
        weights = load_gcn(TRAINED).layer_weights()
        netlist = generate_design(1000, seed=7002)
        calls = self._count_kernel(monkeypatch)
        relaxations = self._count_relaxations(monkeypatch)
        self._forbid_scipy_in_scorer(monkeypatch)

        # Previews and inserts relax CO in array sweeps, never by a fresh
        # SCOAP pass: the flow's one pass is its start's, which also gives
        # the graph its attributes.
        sweeps = []
        original = scoap_module.compute_scoap

        def counted(*args, **kwargs):
            sweeps.append(1)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if not name.startswith("repro."):
                continue
            if getattr(module, "compute_scoap", None) is original:
                monkeypatch.setattr(module, "compute_scoap", counted)
        rows, updates = rows_scored(), patches()
        with trace("opi") as root:
            result = api.insert_observation_points(netlist, weights, self.CONFIG)
        rows, updates = rows_scored() - rows, patches() - updates

        # One update per ranked candidate, one per re-prediction after the
        # first (which is the full pass); the candidates' share of them
        # goes through in chunks, every chunk under its iteration's rank.
        candidates = sum(result.positives_history[: result.iterations])
        rescored = len(result.positives_history) - 1
        assert updates == candidates + rescored
        assert len(self._spans(root, "opi.incremental_update")) == rescored
        assert len(self._spans(root, "opi.full_pass")) == 1
        ranks = self._spans(root, "opi.rank_impact")
        chunks = [c for rank in ranks for c in self._spans(rank, "opi.what_if")]
        assert len(chunks) == len(self._spans(root, "opi.what_if"))
        assert result.iterations <= len(chunks) < candidates / 4
        assert sum(c.attrs["candidates"] for c in chunks) == candidates
        assert result.n_ops > 100
        # One stacked relaxation per iteration previews every candidate, and
        # the commit reuses those previews instead of relaxing again.
        assert relaxations == result.positives_history[: result.iterations]
        assert len(sweeps) == 1
        # Rows whose logits were recomputed: each re-prediction's closure,
        # and of each candidate's closure the part inside its fan-in cone.
        # (58 082 until PR 23, when ranking scored whole closures.)
        assert rows == 12255
        assert sum(c.attrs["rows"] for c in chunks) <= rows
        # Rows through the kernel, all layers / the last layer and head
        # (177 426 / 59 142 until PR 23: every layer on every closure row).
        assert sum(n for _, n in calls) <= 50_000
        assert sum(n for d, n in calls if d == weights.depth - 1) <= 15_000
        assert (len(calls), sum(n for _, n in calls)) == (117, 41_547)
        assert sum(c.attrs["kernel_rows"] for c in chunks) < sum(n for _, n in calls)

    def test_one_kernel_call_per_layer_per_chunk(self, monkeypatch):
        # The benchmark's smoke design; the loop that inserted and rolled
        # back every candidate made 102 calls, and until PR 23 the 36 calls
        # took 8 922 rows for 2 802 logit rows.
        weights = load_gcn(TRAINED).layer_weights()
        netlist = generate_design(150, seed=7002)
        calls = self._count_kernel(monkeypatch)
        rows = rows_scored()
        with trace("opi") as root:
            result = api.insert_observation_points(netlist, weights, self.CONFIG)
        assert rows_scored() - rows == 917
        assert result.iterations == 5 and result.n_ops == 12
        chunks = len(self._spans(root, "opi.what_if"))
        # 33 candidates; the first iteration's 15 may take a second chunk.
        assert result.iterations <= chunks <= result.iterations + 1
        assert len(calls) == weights.depth * (chunks + result.iterations + 1)
        assert sum(n for _, n in calls) <= 4_500
