"""Netlist -> graph export: COO adjacency."""

import numpy as np

from repro.circuit import adjacency_pair, edge_arrays


class TestEdgeArrays:
    def test_counts(self, c17):
        drivers, sinks = edge_arrays(c17)
        assert len(drivers) == len(sinks) == c17.num_edges

    def test_every_edge_listed(self, c17):
        drivers, sinks = edge_arrays(c17)
        listed = set(zip(drivers.tolist(), sinks.tolist()))
        assert listed == set(c17.iter_edges())


class TestAdjacencyPair:
    def test_pred_row_collects_fanins(self, c17):
        pred, _ = adjacency_pair(c17)
        dense = pred.to_dense()
        g22 = c17.find("G22")
        fanins = np.flatnonzero(dense[g22])
        assert set(fanins.tolist()) == set(c17.fanins(g22))

    def test_succ_is_pred_transpose(self, c17):
        pred, succ = adjacency_pair(c17)
        assert np.array_equal(pred.to_dense().T, succ.to_dense())

    def test_aggregation_sums_neighbours(self, c17):
        pred, succ = adjacency_pair(c17)
        feats = np.arange(c17.num_nodes, dtype=np.float64)[:, None]
        summed = pred.matmul(feats)
        g23 = c17.find("G23")
        assert summed[g23, 0] == sum(c17.fanins(g23))

    def test_shapes(self, medium_design):
        pred, succ = adjacency_pair(medium_design)
        n = medium_design.num_nodes
        assert pred.shape == succ.shape == (n, n)
        assert pred.nnz == succ.nnz == medium_design.num_edges

