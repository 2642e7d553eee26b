"""Coalescing layer: block-diagonal merge, flush rule, bit-identity.

The load-bearing promise of the batching lane is that it changes latency
shape only, never answers: a coalesced pass must be **bit-identical** to
scoring each member solo at float64.  The hypothesis suite here asserts
exactly that over mixed-size netlist sets, at both the kernel level
(:func:`merge_graphs` + :class:`FastInference`) and the service level
(jobs flowing through :class:`ScoringService` workers).
"""

from __future__ import annotations

import threading
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import generate_design
from repro.core.graphdata import GraphData
from repro.core.inference import FastInference
from repro.core.model import GCN, GCNConfig
from repro.nn.sparse import COOMatrix
from repro.serve.admission import ScoreRequest
from repro.serve.batch import BatchPolicy, merge_graphs
from repro.serve.config import ServeConfig
from repro.serve.models import ModelManager
from repro.serve.protocol import OverloadedError
from repro.serve.service import ScoringService

TINY = GCNConfig(hidden_dims=(8,), fc_dims=(8,))


def _graph(gates: int, seed: int) -> GraphData:
    return GraphData.from_netlist(generate_design(gates, seed=seed))


def _random_coo(rng, rows: int, cols: int, nnz: int) -> COOMatrix:
    return COOMatrix(
        (rows, cols),
        rng.normal(size=nnz),
        rng.integers(0, rows, size=nnz),
        rng.integers(0, cols, size=nnz),
    )


# --------------------------------------------------------------------- #
# COOMatrix.block_diag
# --------------------------------------------------------------------- #
class TestBlockDiag:
    def test_matches_scipy_reference(self, rng):
        blocks = [
            _random_coo(rng, 5, 4, 7),
            _random_coo(rng, 3, 6, 5),
            _random_coo(rng, 8, 8, 12),
        ]
        merged = COOMatrix.block_diag(blocks).to_scipy()
        reference = sp.block_diag(
            [b.to_scipy() for b in blocks], format="csr"
        )
        assert merged.shape == reference.shape
        np.testing.assert_array_equal(merged.indptr, reference.indptr)
        np.testing.assert_array_equal(merged.indices, reference.indices)
        np.testing.assert_array_equal(merged.data, reference.data)

    def test_coo_view_consistent_with_csr_cache(self, rng):
        """Rebuilding from the COO triples reproduces the pre-seeded CSR."""
        merged = COOMatrix.block_diag(
            [_random_coo(rng, 4, 4, 6), _random_coo(rng, 5, 3, 4)]
        )
        rebuilt = COOMatrix(
            merged.shape, merged.values, merged.rows, merged.cols
        ).to_scipy()
        cached = merged.to_scipy()
        np.testing.assert_array_equal(rebuilt.toarray(), cached.toarray())
        np.testing.assert_array_equal(rebuilt.indptr, cached.indptr)
        np.testing.assert_array_equal(rebuilt.indices, cached.indices)
        np.testing.assert_array_equal(rebuilt.data, cached.data)

    def test_single_block_is_identity(self, rng):
        block = _random_coo(rng, 6, 5, 9)
        merged = COOMatrix.block_diag([block])
        assert merged.shape == block.shape
        np.testing.assert_array_equal(merged.to_dense(), block.to_dense())

    def test_rectangular_offsets(self):
        a = COOMatrix((2, 3), [1.0], [1], [2])
        b = COOMatrix((3, 2), [2.0], [0], [1])
        merged = COOMatrix.block_diag([a, b])
        assert merged.shape == (5, 5)
        dense = merged.to_dense()
        assert dense[1, 2] == 1.0
        assert dense[2, 4] == 2.0  # offset by a's (2, 3)
        assert merged.nnz == 2

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one block"):
            COOMatrix.block_diag([])

    def test_no_cross_block_entries(self, rng):
        blocks = [_random_coo(rng, 4, 4, 10), _random_coo(rng, 3, 3, 6)]
        dense = COOMatrix.block_diag(blocks).to_dense()
        assert not dense[:4, 4:].any()
        assert not dense[4:, :4].any()


# --------------------------------------------------------------------- #
# merge_graphs / MergedBatch
# --------------------------------------------------------------------- #
class TestMergeGraphs:
    def test_slices_partition_the_node_axis(self):
        graphs = [_graph(20, 1), _graph(35, 2), _graph(15, 3)]
        merged = merge_graphs(graphs)
        assert merged.size == 3
        total = sum(g.num_nodes for g in graphs)
        assert merged.graph.num_nodes == total
        edges = [(s.start, s.stop) for s in merged.slices]
        assert edges[0][0] == 0 and edges[-1][1] == total
        for (_, stop), (start, _) in zip(edges, edges[1:]):
            assert stop == start

    def test_attributes_stacked_in_order(self):
        graphs = [_graph(18, 4), _graph(24, 5)]
        merged = merge_graphs(graphs)
        for graph, rows in zip(graphs, merged.slices):
            np.testing.assert_array_equal(
                merged.graph.attributes[rows], graph.attributes
            )

    def test_split_undoes_the_merge(self):
        graphs = [_graph(12, 6), _graph(20, 7)]
        merged = merge_graphs(graphs)
        stacked = np.arange(merged.graph.num_nodes)
        parts = merged.split(stacked)
        assert [len(p) for p in parts] == [g.num_nodes for g in graphs]
        np.testing.assert_array_equal(np.concatenate(parts), stacked)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one graph"):
            merge_graphs([])


# --------------------------------------------------------------------- #
# Bit-identity: batched == solo at float64
# --------------------------------------------------------------------- #
class TestBatchedBitIdentity:
    @settings(max_examples=10, deadline=None)
    @given(
        sizes=st.lists(st.integers(8, 60), min_size=2, max_size=5),
        seed=st.integers(0, 10_000),
    )
    def test_logits_bit_identical_over_mixed_sizes(self, sizes, seed):
        graphs = [_graph(g, seed + i) for i, g in enumerate(sizes)]
        config = GCNConfig(hidden_dims=(8,), fc_dims=(8,), seed=seed % 97)
        engine = FastInference(GCN(config).layer_weights())
        solo = [engine.logits(g) for g in graphs]
        merged = merge_graphs(graphs)
        batched = merged.split(engine.logits(merged.graph))
        for one, many in zip(solo, batched):
            # Exact equality, not allclose: the block-diagonal structure
            # must leave every float64 operation untouched.
            np.testing.assert_array_equal(one, many)

    def test_labels_bit_identical_through_the_manager(self, model_file):
        manager = ModelManager(model_file)
        graphs = [_graph(25, 11), _graph(40, 12), _graph(10, 13)]
        solo = [manager.predict(g)[0] for g in graphs]
        merged = merge_graphs(graphs)
        batched = merged.split(manager.predict(merged.graph)[0])
        for one, many in zip(solo, batched):
            np.testing.assert_array_equal(one, many)
        manager.close()


def _request(gates: int, seed: int, deadline_s: float = 30.0) -> ScoreRequest:
    return ScoreRequest(
        graph=_graph(gates, seed),
        design=f"d{seed}",
        deadline_s=deadline_s,
        return_predictions=False,
    )


def _passes(service: ScoringService) -> tuple[int, float]:
    """``(count, sum)`` of the batch-size histogram: passes run, netlists in them."""
    sizes = service.registry.get("repro_serve_batch_size")
    return sizes.count, sizes.sum


def _wait_all(service: ScoringService, jobs) -> list:
    return [service.wait_for(job) for job in jobs]


class HeldManager(ModelManager):
    """``predict`` parks on its first call until the test releases it, and
    logs the node count of every graph it is handed, in order."""

    def __init__(self, model_file):
        super().__init__(model_file)
        self.started = threading.Event()
        self.release = threading.Event()
        self.seen: list[int] = []

    def predict(self, graph):
        self.seen.append(graph.num_nodes)
        self.started.set()
        assert self.release.wait(timeout=10.0), "test forgot to release"
        return super().predict(graph)


class TestServiceEquivalence:
    def test_coalesced_service_answers_match_solo_service(self, model_file):
        manager = ModelManager(model_file)
        requests = [_request(20 + 5 * i, 100 + i) for i in range(6)]
        solo_labels = [manager.predict(r.graph)[0] for r in requests]
        try:
            # One body, one pass — however many workers could have raced
            # for its members: they are enqueued in one critical section.
            for workers in (1, 2):
                service = ScoringService(
                    manager,
                    ServeConfig(workers=workers, queue_capacity=16, batch_max_requests=8),
                )
                try:
                    results = _wait_all(service, service.submit_many(requests))
                finally:
                    service.stop()
                for (labels, info), expected in zip(results, solo_labels):
                    np.testing.assert_array_equal(labels, expected)
                    assert info["batched"] and info["batch_size"] == 6
                assert _passes(service) == (1, 6.0)
        finally:
            manager.close()

    def test_failed_batch_rescued_member_by_member(self, model_file):
        """A poisoned batched pass falls back to solo scoring per member."""
        manager = ModelManager(model_file)
        solo_predict = manager.predict
        limit = 60  # any merged graph is bigger than each member

        def poisoned(graph):
            if graph.num_nodes > limit:
                raise RuntimeError("batched pass poisoned")
            return solo_predict(graph)

        manager.predict = poisoned
        requests = [_request(15, 200 + i) for i in range(4)]
        expected = [solo_predict(r.graph)[0] for r in requests]
        service = ScoringService(
            manager,
            ServeConfig(workers=1, queue_capacity=8, batch_max_requests=8),
        )
        try:
            results = _wait_all(service, service.submit_many(requests))
        finally:
            service.stop()
            manager.close()
        for (labels, info), want in zip(results, expected):
            np.testing.assert_array_equal(labels, want)
            assert not info.get("batched")
        rendered = service.registry.render_prometheus()
        assert "repro_serve_batch_fallbacks_total 1" in rendered
        assert service.snapshot()["completed"] == 4


# --------------------------------------------------------------------- #
# The flush rule: take what is queued now, score at once, never wait
# --------------------------------------------------------------------- #
class TestFlushRule:
    def test_lone_request_on_an_idle_service_is_scored_at_once(self, model_file):
        """Nothing is known to be coming, so nothing is waited for: one
        request is one pass of one (there is no linger to sit out)."""
        manager = ModelManager(model_file)
        service = ScoringService(
            manager, ServeConfig(workers=1, queue_capacity=4, batch_max_requests=8)
        )
        try:
            labels, info = service.score(_request(20, 300, deadline_s=0.3))
        finally:
            service.stop()
            manager.close()
        assert len(labels) == _graph(20, 300).num_nodes
        assert not info.get("batched")
        assert set(info["stages"]) == {"queue_wait", "predict"}
        assert _passes(service) == (1, 1.0)

    def test_jobs_queued_behind_a_held_worker_coalesce_when_it_frees(self, model_file):
        manager = HeldManager(model_file)
        service = ScoringService(
            manager, ServeConfig(workers=1, queue_capacity=8, batch_max_requests=8)
        )
        try:
            held = service.submit(_request(15, 400))
            assert manager.started.wait(timeout=5.0)  # the only worker is busy
            queued = [service.submit(_request(15, 401 + i)) for i in range(3)]
            assert service.queue_depth() == 3
            manager.release.set()
            results = _wait_all(service, [held, *queued])
        finally:
            manager.release.set()
            service.stop()
            manager.close()
        assert [info.get("batch_size", 1) for _, info in results] == [1, 3, 3, 3]
        assert _passes(service) == (2, 4.0)

    def test_member_over_the_node_budget_waits_for_the_next_pass_in_order(
        self, model_file
    ):
        manager = HeldManager(model_file)
        manager.release.set()
        requests = [_request(20 + 5 * i, 500 + i) for i in range(4)]
        nodes = [r.graph.num_nodes for r in requests]
        service = ScoringService(
            manager,
            ServeConfig(
                workers=1,
                queue_capacity=8,
                batch_max_requests=8,
                # Room for the first two members, not for the third as well.
                batch_max_nodes=nodes[0] + nodes[1] + nodes[2] - 1,
            ),
        )
        try:
            results = _wait_all(service, service.submit_many(requests))
        finally:
            service.stop()
            manager.close()
        # The third member stayed at the head of the queue and opened the
        # next pass; nobody behind it jumped ahead.
        assert manager.seen == [nodes[0] + nodes[1], nodes[2] + nodes[3]]
        assert [info["batch_size"] for _, info in results] == [2, 2, 2, 2]
        assert _passes(service) == (2, 4.0)

    def test_member_over_half_the_node_budget_still_coalesces(self, model_file):
        """The node budget is the only size rule: no member is held out of
        a batch for being large, and its answer is still its solo one."""
        manager = ModelManager(model_file)
        requests = [_request(120, 700), _request(15, 701), _request(15, 702)]
        nodes = [r.graph.num_nodes for r in requests]
        budget = sum(nodes)
        assert nodes[0] > budget // 2
        solo = [manager.predict(r.graph)[0] for r in requests]
        service = ScoringService(
            manager,
            ServeConfig(
                workers=1, queue_capacity=8, batch_max_requests=8, batch_max_nodes=budget
            ),
        )
        try:
            results = _wait_all(service, service.submit_many(requests))
        finally:
            service.stop()
            manager.close()
        for (labels, info), expected in zip(results, solo):
            np.testing.assert_array_equal(labels, expected)
            assert info["batch_size"] == 3
        assert _passes(service) == (1, 3.0)

    def test_member_over_the_node_budget_is_scored_alone(self, model_file):
        manager = HeldManager(model_file)
        manager.release.set()
        requests = [_request(15, 710), _request(120, 711), _request(15, 712)]
        nodes = [r.graph.num_nodes for r in requests]
        service = ScoringService(
            manager,
            ServeConfig(
                workers=1,
                queue_capacity=8,
                batch_max_requests=8,
                batch_max_nodes=nodes[1] - 1,
            ),
        )
        try:
            results = _wait_all(service, service.submit_many(requests))
        finally:
            service.stop()
            manager.close()
        # The oversized member opens a pass and nothing joins it.
        assert manager.seen == nodes
        assert [info.get("batch_size", 1) for _, info in results] == [1, 1, 1]
        assert _passes(service) == (3, 3.0)

    def test_set_larger_than_the_room_left_loses_only_its_tail(self, model_file):
        manager = HeldManager(model_file)
        service = ScoringService(
            manager, ServeConfig(workers=1, queue_capacity=3, batch_max_requests=8)
        )
        try:
            held = service.submit(_request(15, 600))
            assert manager.started.wait(timeout=5.0)  # claimed: the queue is empty
            outcomes = service.submit_many([_request(15, 601 + i) for i in range(5)])
            refused = outcomes[3:]
            assert all(isinstance(o, OverloadedError) for o in refused)
            assert service.snapshot()["rejected_overload"] == 2
            manager.release.set()
            results = _wait_all(service, [held, *outcomes[:3]])
        finally:
            manager.release.set()
            service.stop()
            manager.close()
        assert [info.get("batch_size", 1) for _, info in results] == [1, 3, 3, 3]
        assert service.snapshot()["completed"] == 4


# --------------------------------------------------------------------- #
# Members of one admission lane share its graph
# --------------------------------------------------------------------- #
def _lanes(count: int, k: int, deadline_ms: int = 30_000) -> list[ScoreRequest]:
    """``count`` generated members of one body, admitted on ``k`` lanes
    (members ``i::k`` share lane ``i``'s graph), in body order."""
    import io
    import json

    from repro.circuit.bench import write_bench
    from repro.serve.admission import admit_batch

    envelopes = []
    for i in range(count):
        text = io.StringIO()
        write_bench(generate_design(10 + 7 * i, seed=900 + i), text)
        envelopes.append(
            {"netlist": text.getvalue(), "design": f"m{i}", "deadline_ms": deadline_ms}
        )
    raw = json.dumps({"requests": envelopes}).encode()
    parts = [admit_batch(raw, ServeConfig(), part=(i, k)) for i in range(k)]
    return [request for _, request in sorted(
        (entry for part in parts for entry in part), key=lambda entry: entry[0]
    )]


def _solo_labels(manager, request: ScoreRequest) -> np.ndarray:
    """The labels of ``request``'s rows, scored as a graph of its own."""
    from tests.serve.member_rows import own_graph

    return np.asarray(manager.predict(own_graph(request))[0])


class TestSharedLaneGraphs:
    def test_a_lane_split_over_passes_by_the_request_budget(self, model_file):
        manager = HeldManager(model_file)
        manager.release.set()
        requests = _lanes(6, k=1)
        [graph] = {id(r.graph): r.graph for r in requests}.values()
        expected = [_solo_labels(manager, r) for r in requests]
        manager.seen.clear()
        service = ScoringService(
            manager, ServeConfig(workers=1, queue_capacity=8, batch_max_requests=4)
        )
        try:
            results = _wait_all(service, service.submit_many(requests))
        finally:
            service.stop()
            manager.close()
        for (labels, _), want in zip(results, expected):
            np.testing.assert_array_equal(labels, want)
        # Each pass scores the lane's graph, unmerged.
        assert manager.seen == [graph.num_nodes] * 2
        assert [info["batch_size"] for _, info in results] == [4] * 4 + [2] * 2

    def test_two_lanes_split_over_passes_by_the_node_budget(self, model_file):
        """Lane 0 holds members 0, 2, 4 and lane 1 members 1, 3, 5: room
        for one lane's graph a pass, so each pass takes every queued
        member of its graph, and no graph is scored twice."""
        manager = HeldManager(model_file)
        manager.release.set()
        requests = _lanes(6, k=2)
        graphs = list({id(r.graph): r.graph for r in requests}.values())
        assert len(graphs) == 2
        expected = [_solo_labels(manager, r) for r in requests]
        manager.seen.clear()
        service = ScoringService(
            manager,
            ServeConfig(
                workers=1,
                queue_capacity=8,
                batch_max_requests=8,
                batch_max_nodes=max(g.num_nodes for g in graphs),
            ),
        )
        try:
            results = _wait_all(service, service.submit_many(requests))
        finally:
            service.stop()
            manager.close()
        for (labels, _), want in zip(results, expected):
            np.testing.assert_array_equal(labels, want)
        assert manager.seen == [g.num_nodes for g in graphs]
        assert _passes(service) == (2, 6.0)

    def test_a_member_expiring_in_the_queue_leaves_its_lane_answered(self, model_file):
        manager = HeldManager(model_file)
        now = [0.0]
        service = ScoringService(
            manager,
            ServeConfig(workers=1, queue_capacity=8, batch_max_requests=8),
            clock=lambda: now[0],
        )
        requests = _lanes(4, k=1)
        requests[1].deadline_s = 0.5
        try:
            held = service.submit(_request(15, 950))
            assert manager.started.wait(timeout=5.0)
            jobs = service.submit_many(requests)
            now[0] = 1.0  # member 1's deadline lapses while it is queued
            manager.release.set()
            results = _wait_all(service, [held, *jobs[:1], *jobs[2:]])
        finally:
            manager.release.set()
            service.stop()
        expected = [_solo_labels(manager, r) for r in requests]
        manager.close()
        assert jobs[1].state == "cancelled"
        assert service.snapshot()["expired"] == 1
        for (labels, info), want in zip(results[1:], expected[:1] + expected[2:]):
            np.testing.assert_array_equal(labels, want)
            assert info["batch_size"] == 3

    def test_a_failed_merged_pass_answers_each_member_from_its_lane(self, model_file):
        manager = ModelManager(model_file)
        requests = _lanes(5, k=2)
        expected = [_solo_labels(manager, r) for r in requests]
        predict, calls = manager.predict, []

        def poisoned(graph):
            calls.append(graph.num_nodes)
            if len(calls) == 1:
                raise RuntimeError("merged pass poisoned")
            return predict(graph)

        manager.predict = poisoned
        service = ScoringService(
            manager, ServeConfig(workers=1, queue_capacity=8, batch_max_requests=8)
        )
        try:
            results = _wait_all(service, service.submit_many(requests))
        finally:
            service.stop()
            manager.close()
        for (labels, info), want in zip(results, expected):
            np.testing.assert_array_equal(labels, want)
            assert not info.get("batched")
        # The merged pass held both lane graphs; each rescue scored its own.
        lane_nodes = [r.graph.num_nodes for r in requests]
        assert calls == [lane_nodes[0] + lane_nodes[1], *lane_nodes]
        assert service.snapshot()["completed"] == 5

    def test_degraded_answers_are_the_members_rows_too(self):
        manager = ModelManager()  # no model: the SCOAP heuristic answers
        requests = _lanes(4, k=2)
        expected = [_solo_labels(manager, r) for r in requests]
        service = ScoringService(manager, ServeConfig(workers=1, queue_capacity=8))
        try:
            results = _wait_all(service, service.submit_many(requests))
        finally:
            service.stop()
            manager.close()
        for (labels, info), want in zip(results, expected):
            np.testing.assert_array_equal(labels, want)
            assert info["degraded"] and info["batch_size"] == 4


# --------------------------------------------------------------------- #
# BatchPolicy: pure arithmetic, no clock, no threads
# --------------------------------------------------------------------- #
def _job(nodes: int) -> SimpleNamespace:
    return SimpleNamespace(
        request=SimpleNamespace(graph=SimpleNamespace(num_nodes=nodes))
    )


class TestBatchPolicy:
    CONFIG = ServeConfig(batch_max_requests=4, batch_max_nodes=100)

    def test_admits_respects_request_budget(self):
        policy = BatchPolicy(self.CONFIG)
        policy.add(_job(1))
        for _ in range(3):
            assert policy.admits(_job(1))
            policy.add(_job(1))
        assert not policy.admits(_job(1))

    def test_admits_respects_node_budget(self):
        policy = BatchPolicy(self.CONFIG)
        policy.add(_job(60))
        assert policy.admits(_job(40))
        assert not policy.admits(_job(41))
        policy.add(_job(40))
        assert not policy.admits(_job(1))

    def test_a_shared_graph_counts_its_nodes_once(self):
        lane = _job(60).request.graph
        member = SimpleNamespace(request=SimpleNamespace(graph=lane))
        policy = BatchPolicy(self.CONFIG)
        policy.add(member)
        assert policy.holds(member) and not policy.holds(_job(60))
        policy.add(member)
        assert policy.nodes == 60 and policy.count == 2
        assert policy.admits(_job(40)) and not policy.admits(_job(41))
        # A graph over the node budget opened the batch: its members still
        # join it, up to the request budget; nothing else does.
        policy = BatchPolicy(self.CONFIG)
        big = SimpleNamespace(request=SimpleNamespace(graph=SimpleNamespace(num_nodes=150)))
        policy.add(big)
        for _ in range(3):
            assert policy.admits(big) and not policy.admits(_job(1))
            policy.add(big)
        assert not policy.admits(big)
        assert policy.nodes == 150


# --------------------------------------------------------------------- #
# Batch-era metrics: gauges and counters stay per-netlist
# --------------------------------------------------------------------- #
class TestBatchMetrics:
    def test_histograms_record_batch_shape(self, model_file):
        manager = ModelManager(model_file)
        service = ScoringService(
            manager,
            ServeConfig(workers=1, queue_capacity=16, batch_max_requests=8),
        )
        try:
            _wait_all(
                service,
                service.submit_many([_request(15, 300 + i) for i in range(5)]),
            )
        finally:
            service.stop()
            manager.close()
        assert _passes(service) == (1, 5.0)
        # Queue wait is still observed per netlist, under its old name.
        assert service.registry.get("repro_serve_batch_linger_seconds").count == 5
        # Lifecycle counters count netlists, not coalesced passes.
        assert service.snapshot()["completed"] == 5
