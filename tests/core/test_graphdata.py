"""GraphData container and masking."""

import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuit import generate_design, parse_bench, write_bench
from repro.circuit import levelize as levelize_module
from repro.core.attributes import AttributeConfig, build_attributes, normalize_attributes
from repro.core.graphdata import GraphData
from repro.testability import scoap as scoap_module
from tests.circuit import reference_frontend as reference


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
    """``from_netlist`` against the per-node loops it replaced."""

    @staticmethod
    def check(netlist):
        graph = GraphData.from_netlist(netlist)
        drivers, sinks = reference.edge_arrays(netlist)
        for matrix, rows, cols in ((graph.pred, sinks, drivers), (graph.succ, drivers, sinks)):
            assert matrix.shape == (netlist.num_nodes, netlist.num_nodes)
            assert np.array_equal(matrix.rows, rows)  # same coordinates, same order
            assert np.array_equal(matrix.cols, cols)
            assert np.array_equal(matrix.values, np.ones(len(rows)))
        scoap = scoap_module._compute_scoap_scalar(
            netlist, reference.topological_order(netlist)
        )
        raw = np.stack(
            [reference.logic_levels(netlist).astype(np.float64), scoap.cc0, scoap.cc1, scoap.co],
            axis=1,
        )
        assert np.array_equal(graph.attributes, normalize_attributes(raw))
        assert np.array_equal(
            build_attributes(netlist, config=AttributeConfig(normalize=False)), raw
        )

    @pytest.fixture(params=[0, 10**9], ids=["batched", "scalar"])
    def crossover(self, request, monkeypatch):
        monkeypatch.setattr(levelize_module, "LEVEL_BATCH_MIN_NODES", request.param)

    @pytest.mark.parametrize("name", sorted(reference.hand_built_designs()))
    def test_hand_built(self, crossover, name):
        self.check(reference.hand_built_designs()[name])

    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 10**6), n_gates=st.integers(0, 120))
    def test_random_designs(self, crossover, seed, n_gates):
        self.check(reference.random_netlist(seed, n_gates))

    def test_parsed_design(self, crossover):
        stream = io.StringIO()
        write_bench(generate_design(700, seed=3), stream)
        self.check(parse_bench(stream.getvalue()))
