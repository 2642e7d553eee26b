"""Control-point insertion extension: netlist splice, labels, flow."""

import numpy as np
import pytest

from repro.atpg.simulator import LogicSimulator, unpack_values
from repro.circuit import GateType, Netlist, generate_design, validate_netlist
from repro.flow.control import (
    ControlLabelConfig,
    CpiConfig,
    label_control_nodes,
    run_gcn_cpi,
)
from repro.resilience.errors import ConfigError


@pytest.fixture
def and_funnel():
    """Deep AND funnel: internal nodes are almost never 1."""
    nl = Netlist("funnel")
    pis = [nl.add_input(f"i{k}") for k in range(8)]
    node = pis[0]
    for k in range(1, 8):
        node = nl.add_cell(GateType.AND, (node, pis[k]), f"a{k}")
    nl.mark_output(node)
    return nl


class TestInsertControlPoint:
    def test_or_type_forces_one(self, and_funnel):
        target = and_funnel.find("a4")
        sinks_before = list(and_funnel.fanouts(target))
        control, gate = and_funnel.insert_control_point(target, 1)
        assert and_funnel.gate_type(gate) is GateType.OR
        assert and_funnel.gate_type(control) is GateType.INPUT
        # all original sinks now read through the CP gate
        for sink in sinks_before:
            assert gate in and_funnel.fanins(sink)
            assert target not in and_funnel.fanins(sink)
        assert validate_netlist(and_funnel).ok

    def test_and_type_normal_mode_passthrough(self, and_funnel):
        target = and_funnel.find("a4")
        control, gate = and_funnel.insert_control_point(target, 0)
        assert and_funnel.gate_type(gate) is GateType.AND
        sim = LogicSimulator(and_funnel)
        rng = np.random.default_rng(0)
        words = sim.random_source_words(1, rng)
        # normal mode: control input held 0
        pos = sim.netlist.sources.index(control)
        words[pos] = 0
        values = sim.simulate(words)
        assert np.array_equal(values[gate], values[target])

    def test_or_type_test_mode_forces(self, and_funnel):
        target = and_funnel.find("a4")
        control, gate = and_funnel.insert_control_point(target, 1)
        sim = LogicSimulator(and_funnel)
        words = sim.random_source_words(1, np.random.default_rng(0))
        pos = sim.netlist.sources.index(control)
        words[pos] = np.uint64(0xFFFFFFFFFFFFFFFF)
        values = sim.simulate(words)
        assert values[gate][0] == np.uint64(0xFFFFFFFFFFFFFFFF)

    def test_po_mark_moves_to_gate(self):
        nl = Netlist()
        a = nl.add_input("a")
        g = nl.add_cell(GateType.NOT, (a,), "g")
        nl.mark_output(g)
        _, gate = nl.insert_control_point(g, 1)
        assert nl.is_output(gate)
        assert not nl.is_output(g)

    def test_invalid_inputs(self, and_funnel):
        with pytest.raises(ValueError):
            and_funnel.insert_control_point(0, 2)
        op = and_funnel.insert_observation_point(and_funnel.find("a4"))
        with pytest.raises(ValueError):
            and_funnel.insert_control_point(op, 1)

    def test_replace_fanin_validation(self, and_funnel):
        a4 = and_funnel.find("a4")
        i7 = and_funnel.find("i7")  # drives a7, not a4
        with pytest.raises(ValueError, match="does not drive"):
            and_funnel.replace_fanin(a4, i7, a4)


class TestControlLabels:
    def test_funnel_tail_is_difficult(self, and_funnel):
        result = label_control_nodes(
            and_funnel, ControlLabelConfig(n_patterns=512, threshold=0.02)
        )
        assert result.labels[and_funnel.find("a7")] == 1
        assert result.rare_value(and_funnel.find("a7")) == 1

    @pytest.mark.parametrize(
        "kwargs", [{"n_patterns": -5}, {"n_patterns": 0}, {"threshold": float("nan")}]
    )
    def test_config_refuses_what_it_cannot_run(self, kwargs):
        netlist = generate_design(50, seed=1)
        with pytest.raises(ConfigError, match="invalid control label config"):
            label_control_nodes(netlist, ControlLabelConfig(**kwargs))

    def test_sources_never_positive(self, and_funnel):
        result = label_control_nodes(and_funnel)
        for v in and_funnel.primary_inputs:
            assert result.labels[v] == 0

    def test_cp_fixes_controllability(self, and_funnel):
        config = ControlLabelConfig(n_patterns=512, threshold=0.02)
        target = and_funnel.find("a7")
        assert label_control_nodes(and_funnel, config).labels[target] == 1
        and_funnel.insert_control_point(target, 1)
        after = label_control_nodes(and_funnel, config)
        # the CP gate output is now controllable; the original net keeps
        # its distribution but everything downstream is fixed
        gate = [v for v in and_funnel.nodes()
                if and_funnel.gate_type(v) is GateType.OR][0]
        assert after.labels[gate] == 0

    def test_counts_bounded(self, small_design):
        result = label_control_nodes(small_design)
        assert 0 <= result.n_positive <= small_design.num_nodes
        assert (result.ones_count <= result.n_patterns).all()


class TestCpiFlow:
    def _toy_predictor(self, scoap_cut=25.0):
        def predict(graph):
            # graph has no labels; use the C0/C1 attributes as proxy: a
            # node is flagged when either controllability cost is extreme.
            c0, c1 = graph.attributes[:, 1], graph.attributes[:, 2]
            cut = np.log1p(scoap_cut) / 7.0
            return ((c0 > cut) | (c1 > cut)).astype(np.int64)

        return predict

    def test_flow_inserts_and_terminates(self):
        nl = generate_design(300, seed=67)
        result = run_gcn_cpi(
            nl, self._toy_predictor(), CpiConfig(max_iterations=10)
        )
        assert result.n_cps >= 0
        assert validate_netlist(result.netlist).ok
        assert nl.num_nodes < result.netlist.num_nodes or result.n_cps == 0

    def test_budget_respected(self):
        nl = generate_design(300, seed=67)
        result = run_gcn_cpi(
            nl, self._toy_predictor(), CpiConfig(max_iterations=10, max_cps=3)
        )
        assert result.n_cps <= 3

    def test_cpi_improves_controllability(self):
        nl = Netlist("funnel")
        pis = [nl.add_input(f"i{k}") for k in range(10)]
        node = pis[0]
        for k in range(1, 10):
            node = nl.add_cell(GateType.AND, (node, pis[k]), f"a{k}")
        nl.mark_output(node)
        config = ControlLabelConfig(n_patterns=512, threshold=0.02)
        before = label_control_nodes(nl, config).n_positive
        assert before > 0
        # The attribute-driven predictor sees the refreshed SCOAP CC after
        # every insertion round, so the flow converges like the real one.
        result = run_gcn_cpi(
            nl,
            self._toy_predictor(scoap_cut=10.0),
            CpiConfig(max_iterations=8, select_fraction=0.5, label_config=config),
        )
        after = label_control_nodes(result.netlist, config).n_positive
        assert result.n_cps > 0
        assert after < before
