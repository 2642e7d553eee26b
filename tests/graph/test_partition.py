"""Partitioner invariants, including every degenerate shape."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit import generate_design
from repro.core.graphdata import GraphData
from repro.graph import PartitionConfig, partition_graph
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
        partition = partition_graph(graph, PartitionConfig(n_shards=3))
        partition.validate()
        owned_union = np.sort(np.concatenate([s.owned for s in partition.shards]))
        assert owned_union.tolist() == list(range(7))

    def test_more_shards_than_nodes_clamps(self):
        graph = make_graph(3, [(0, 1), (1, 2)])
        partition = partition_graph(graph, PartitionConfig(n_shards=10))
        partition.validate()
        assert partition.n_shards == 3
        assert all(s.n_owned == 1 for s in partition.shards)


class TestInvariants:
    def test_deterministic(self, netlist_graph):
        a = partition_graph(netlist_graph, PartitionConfig(n_shards=4))
        b = partition_graph(netlist_graph, PartitionConfig(n_shards=4))
        for sa, sb in zip(a.shards, b.shards):
            assert np.array_equal(sa.owned, sb.owned)
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

