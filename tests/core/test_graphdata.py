"""GraphData container and masking."""

import io

import numpy as np
import pytest
import scipy.sparse
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuit import generate_design, parse_bench, write_bench
from repro.core.attributes import AttributeConfig, build_attributes, normalize_attributes
from repro.core.graphdata import GraphData
from repro.serve.batch import merge_graphs
from tests.circuit import reference_frontend as reference
from tests.testability import reference_scoap


def _reference_csr(netlist, pred):
    """The node-by-node edge list as a CSR matrix, duplicate pins summed."""
    drivers, sinks = reference.edge_arrays(netlist)
    rows, cols = (sinks, drivers) if pred else (drivers, sinks)
    n = netlist.num_nodes
    return scipy.sparse.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)).tocsr()


class TestFromNetlist:
    def test_basic(self, c17):
        g = GraphData.from_netlist(c17)
        assert g.num_nodes == c17.num_nodes
        assert g.num_edges == c17.num_edges
        assert g.attributes.shape == (c17.num_nodes, 4)
        assert g.name == "c17"

    def test_labels_length_checked(self, c17):
        with pytest.raises(ValueError):
            GraphData.from_netlist(c17, labels=np.zeros(3))

    def test_labels_cast_to_int(self, c17):
        g = GraphData.from_netlist(c17, labels=np.zeros(c17.num_nodes, dtype=float))
        assert g.labels.dtype == np.int64


class TestMasking:
    def test_default_mask_is_all(self, c17):
        g = GraphData.from_netlist(c17)
        assert np.array_equal(g.masked_indices(), np.arange(c17.num_nodes))

    def test_subset_restricts_loss_not_graph(self, c17):
        g = GraphData.from_netlist(c17, labels=np.zeros(c17.num_nodes))
        sub = g.subset(np.array([1, 3, 5]))
        assert sorted(sub.masked_indices().tolist()) == [1, 3, 5]
        # graph structure untouched: aggregation still sees everything
        assert sub.num_nodes == g.num_nodes
        assert sub.pred is g.pred

    def test_subset_of_subset(self, c17):
        g = GraphData.from_netlist(c17, labels=np.zeros(c17.num_nodes))
        sub = g.subset(np.array([1, 3, 5])).subset(np.array([3]))
        assert sub.masked_indices().tolist() == [3]


class TestMatchesNodeByNodeBuilder:
    """``from_netlist`` against the per-node loops it replaced, for a design
    scored on its own (``scalar``) and merged into a serving batch between
    two other designs (``batched``)."""

    @staticmethod
    def check(netlist, assembly="scalar"):
        scoap = reference_scoap.compute_scoap(netlist, reference.topological_order(netlist))
        raw = np.stack(
            [reference.logic_levels(netlist).astype(np.float64), scoap.cc0, scoap.cc1, scoap.co],
            axis=1,
        )
        if assembly == "scalar":
            graph = GraphData.from_netlist(netlist)
            for matrix, pred in ((graph.pred, True), (graph.succ, False)):
                assert matrix.shape == (netlist.num_nodes, netlist.num_nodes)
                actual, expected = matrix.to_scipy(), _reference_csr(netlist, pred)
                # The arrays as stored: same entries, same order in each row.
                for name in ("indptr", "indices", "data"):
                    a, b = getattr(actual, name), getattr(expected, name)
                    assert a.dtype == b.dtype and np.array_equal(a, b), name
            assert graph.num_edges == netlist.num_edges  # a pin read twice counts twice
            assert np.array_equal(graph.attributes, normalize_attributes(raw))
        else:
            members = [reference.hand_built_designs()["flop_loop"], netlist]
            members.append(reference.hand_built_designs()["duplicate_pins"])
            batch = merge_graphs([GraphData.from_netlist(m) for m in members])
            for matrix, pred in ((batch.graph.pred, True), (batch.graph.succ, False)):
                actual = matrix.to_scipy().copy()
                actual.sort_indices()
                expected = scipy.sparse.block_diag(
                    [_reference_csr(m, pred) for m in members], format="csr"
                )
                expected.sort_indices()
                assert actual.shape == expected.shape
                assert np.array_equal(actual.indptr, expected.indptr)
                assert np.array_equal(actual.indices, expected.indices)
                assert np.array_equal(actual.data, expected.data)
            start = members[0].num_nodes
            assert batch.slices[1] == slice(start, start + netlist.num_nodes)
            assert np.array_equal(
                batch.split(batch.graph.attributes)[1], normalize_attributes(raw)
            )
        assert np.array_equal(
            build_attributes(netlist, config=AttributeConfig(normalize=False)), raw
        )

    @pytest.fixture(params=["batched", "scalar"])
    def assembly(self, request):
        return request.param

    @pytest.mark.parametrize("name", sorted(reference.hand_built_designs()))
    def test_hand_built(self, assembly, name):
        self.check(reference.hand_built_designs()[name], assembly)

    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 10**6), n_gates=st.integers(0, 120))
    def test_random_designs(self, assembly, seed, n_gates):
        self.check(reference.random_netlist(seed, n_gates), assembly)

    def test_parsed_design(self, assembly):
        stream = io.StringIO()
        write_bench(generate_design(700, seed=3), stream)
        self.check(parse_bench(stream.getvalue()), assembly)
