"""Partitioner invariants, including every degenerate shape."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit import generate_design
from repro.core.graphdata import GraphData
from repro.graph import PartitionConfig, partition_graph, shard_minibatches
from repro.graph.partition import _balanced_boundaries
from repro.nn.sparse import COOMatrix


def make_graph(n: int, edges: list[tuple[int, int]], n_attrs: int = 4) -> GraphData:
    """GraphData from explicit (driver, sink) edges."""
    rows = np.array([sink for _, sink in edges], dtype=np.int64)
    cols = np.array([driver for driver, _ in edges], dtype=np.int64)
    values = np.ones(len(edges), dtype=np.float64)
    pred = COOMatrix((n, n), values, rows, cols)
    succ = COOMatrix((n, n), values.copy(), cols.copy(), rows.copy())
    rng = np.random.default_rng(0)
    return GraphData(
        pred=pred, succ=succ, attributes=rng.normal(size=(n, n_attrs))
    )


@pytest.fixture(scope="module")
def netlist_graph():
    return GraphData.from_netlist(generate_design(600, seed=11))


class TestEdgeCases:
    def test_single_node_graph(self):
        graph = make_graph(1, [])
        partition = partition_graph(graph, PartitionConfig(n_shards=4))
        partition.validate()
        assert partition.n_shards == 1
        assert partition.shards[0].owned.tolist() == [0]
        assert partition.shards[0].halo.size == 0

    def test_empty_graph(self):
        graph = make_graph(0, [])
        partition = partition_graph(graph, PartitionConfig(n_shards=3))
        assert partition.n_shards == 0
        assert partition.n_nodes == 0
        partition.validate()

    def test_disconnected_components(self):
        # Two independent chains and one isolated node.
        edges = [(0, 1), (1, 2), (3, 4), (4, 5)]
        graph = make_graph(7, edges)
        partition = partition_graph(graph, PartitionConfig(n_shards=3, halo_hops=2))
        partition.validate()
        owned_union = np.sort(np.concatenate([s.owned for s in partition.shards]))
        assert owned_union.tolist() == list(range(7))
        # The isolated node has no neighbours, so it never lands in a halo.
        for shard in partition.shards:
            if 6 not in shard.owned:
                assert 6 not in shard.halo

    def test_more_shards_than_nodes_clamps(self):
        graph = make_graph(3, [(0, 1), (1, 2)])
        partition = partition_graph(graph, PartitionConfig(n_shards=10))
        partition.validate()
        assert partition.n_shards == 3
        assert all(s.n_owned == 1 for s in partition.shards)

    def test_every_node_in_some_halo(self):
        # A dense-enough chain with deep halos: every shard's halo is the
        # entire remainder of the graph.
        n = 6
        graph = make_graph(n, [(i, i + 1) for i in range(n - 1)])
        partition = partition_graph(
            graph, PartitionConfig(n_shards=3, halo_hops=n)
        )
        partition.validate()
        for shard in partition.shards:
            assert shard.n_nodes == n  # owned + halo = whole graph
            assert np.array_equal(
                np.sort(np.concatenate([shard.owned, shard.halo])),
                np.arange(n),
            )

    def test_zero_halo_hops(self):
        graph = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        partition = partition_graph(graph, PartitionConfig(n_shards=2, halo_hops=0))
        partition.validate()
        for shard in partition.shards:
            assert shard.halo.size == 0


class TestInvariants:
    def test_deterministic(self, netlist_graph):
        a = partition_graph(netlist_graph, PartitionConfig(n_shards=4))
        b = partition_graph(netlist_graph, PartitionConfig(n_shards=4))
        for sa, sb in zip(a.shards, b.shards):
            assert np.array_equal(sa.owned, sb.owned)
            assert np.array_equal(sa.halo, sb.halo)
        assert a.edge_cut == b.edge_cut

    def test_validate_passes_on_real_design(self, netlist_graph):
        for n_shards in (1, 2, 5):
            partition_graph(
                netlist_graph, PartitionConfig(n_shards=n_shards)
            ).validate()

    def test_owner_array_matches_shards(self, netlist_graph):
        partition = partition_graph(netlist_graph, PartitionConfig(n_shards=3))
        for shard in partition.shards:
            assert (partition.owner[shard.owned] == shard.index).all()

    def test_imbalance_and_cut_reported(self, netlist_graph):
        partition = partition_graph(netlist_graph, PartitionConfig(n_shards=4))
        assert partition.imbalance >= 1.0
        assert 0 <= partition.edge_cut <= netlist_graph.num_edges

    def test_halo_is_reachable_neighbourhood(self, netlist_graph):
        hops = 2
        partition = partition_graph(
            netlist_graph, PartitionConfig(n_shards=3, halo_hops=hops)
        )
        und = (
            (netlist_graph.pred.to_scipy() != 0)
            + (netlist_graph.succ.to_scipy() != 0)
        ).tocsr()
        for shard in partition.shards:
            # BFS oracle from the owned set.
            mask = np.zeros(netlist_graph.num_nodes, dtype=bool)
            mask[shard.owned] = True
            frontier = mask.copy()
            for _ in range(hops):
                frontier = (und @ frontier.astype(np.float64)) > 0
                frontier &= ~mask
                mask |= frontier
            expected = np.flatnonzero(mask)
            expected = np.setdiff1d(expected, shard.owned)
            assert np.array_equal(shard.halo, expected)

    def test_validate_raises_on_overlap(self, netlist_graph):
        partition = partition_graph(netlist_graph, PartitionConfig(n_shards=2))
        # Corrupt: duplicate a node into the second shard's owned set.
        bad = partition.shards[1]
        bad.owned = np.sort(np.append(bad.owned, partition.shards[0].owned[0]))
        with pytest.raises(ValueError):
            partition.validate()


class TestHelpers:
    def test_balanced_boundaries_nonempty(self):
        weights = np.array([100, 1, 1, 1, 1], dtype=np.int64)
        runs = _balanced_boundaries(weights, 3)
        assert len(runs) == 3
        assert all(len(run) for run in runs)
        assert sum(len(run) for run in runs) == 5


class TestMinibatches:
    def test_shard_minibatches_cover_labels_once(self, netlist_graph):
        rng = np.random.default_rng(1)
        graph = GraphData(
            pred=netlist_graph.pred,
            succ=netlist_graph.succ,
            attributes=netlist_graph.attributes,
            labels=rng.integers(0, 2, size=netlist_graph.num_nodes),
        )
        batches = shard_minibatches(graph, n_shards=3, halo_hops=3)
        covered = np.zeros(graph.num_nodes, dtype=np.int64)
        for batch in batches:
            assert batch.train_mask is not None
            covered[batch.extras["shard_nodes"][batch.train_mask]] += 1
        assert (covered == 1).all()

    def test_shard_minibatch_respects_parent_mask(self, netlist_graph):
        n = netlist_graph.num_nodes
        parent_mask = np.zeros(n, dtype=bool)
        parent_mask[: n // 2] = True
        graph = GraphData(
            pred=netlist_graph.pred,
            succ=netlist_graph.succ,
            attributes=netlist_graph.attributes,
            labels=np.zeros(n, dtype=np.int64),
            train_mask=parent_mask,
        )
        batches = shard_minibatches(graph, n_shards=2, halo_hops=3)
        covered = np.zeros(n, dtype=np.int64)
        for batch in batches:
            covered[batch.extras["shard_nodes"][batch.train_mask]] += 1
        assert (covered[parent_mask] == 1).all()
        assert (covered[~parent_mask] == 0).all()
