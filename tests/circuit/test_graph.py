"""Netlist -> graph export: the adjacency CSRs built from the structure."""

import io
import json
import pickle

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import adjacency_pair, edge_arrays, generate_design, write_bench
from repro.serve import ServeConfig, admit
from tests.circuit import reference_frontend as reference


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


def sorted_from_triples(netlist) -> list[sp.csr_matrix]:
    """The (pred, succ) CSRs that sorting the netlist's COO triples gives."""
    drivers, sinks = reference.edge_arrays(netlist)
    n, ones = netlist.num_nodes, np.ones(len(drivers))
    return [
        sp.coo_matrix((ones, (rows, cols)), shape=(n, n)).tocsr()
        for rows, cols in ((sinks, drivers), (drivers, sinks))
    ]


def assert_same_csr(got: sp.csr_matrix, want: sp.csr_matrix) -> None:
    got, want = got.copy(), want.copy()
    got.sort_indices()
    want.sort_indices()
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestStructureBuiltCsr:
    """The CSR each matrix gets from the structure's fan-in or fan-out CSR
    equals the one the netlist's COO triples sort into: duplicate pins
    summed, every row ascending."""

    @staticmethod
    def check(netlist):
        for matrix, want in zip(adjacency_pair(netlist), sorted_from_triples(netlist)):
            csr = matrix.to_scipy()
            assert csr.has_canonical_format
            assert_same_csr(csr, want)

    @pytest.mark.parametrize("name", sorted(reference.hand_built_designs()))
    def test_hand_built(self, name):
        self.check(reference.hand_built_designs()[name])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), n_gates=st.integers(0, 120))
    def test_random_designs(self, seed, n_gates):
        # Flops rewired into feedback loops.
        self.check(reference.random_netlist(seed, n_gates))

    def test_after_observation_points(self):
        netlist = generate_design(200, seed=4)
        for target in (3, 40, 40, netlist.num_nodes - 1):
            netlist.insert_observation_point(target)
        self.check(netlist)

    def test_admitted_request_after_a_pickle_round_trip(self):
        netlist = generate_design(60, seed=9)
        stream = io.StringIO()
        write_bench(netlist, stream)
        request = admit(json.dumps({"netlist": stream.getvalue()}).encode(), ServeConfig())
        shipped = pickle.loads(pickle.dumps(request.graph))
        pairs = ((request.graph.pred, shipped.pred), (request.graph.succ, shipped.succ))
        for (before, after), want in zip(pairs, sorted_from_triples(netlist)):
            assert_same_csr(after.to_scipy(), want)
            assert_same_csr(before.to_scipy(), want)
