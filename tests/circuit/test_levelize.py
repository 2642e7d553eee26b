"""Topological ordering and logic levels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import (
    CombinationalLoopError,
    GateType,
    Netlist,
    generate_design,
    logic_levels,
    topological_order,
    validate_netlist,
)
from repro.circuit import levelize as levelize_module
from tests.circuit import reference_frontend as reference


class TestTopologicalOrder:
    def test_fanins_precede_fanouts(self, c17):
        order = topological_order(c17)
        position = {v: i for i, v in enumerate(order)}
        for driver, sink in c17.iter_edges():
            assert position[driver] < position[sink]

    def test_all_nodes_present_once(self, medium_design):
        order = topological_order(medium_design)
        assert sorted(order) == list(medium_design.nodes())

    def test_combinational_loop_detected(self):
        nl = Netlist()
        a = nl.add_input("a")
        n1 = nl.add_cell(GateType.NOT, (a,))
        n2 = nl.add_cell(GateType.NOT, (n1,))
        # rewire n1's fanin from a to n2: a clean 2-gate loop
        nl._fanins[n1] = [n2]
        nl._fanouts[a].remove(n1)
        nl._fanouts[n2].append(n1)
        with pytest.raises(CombinationalLoopError):
            topological_order(nl)

    def test_dff_breaks_sequential_loop(self):
        nl = Netlist()
        a = nl.add_input("a")
        d = nl.add_cell(GateType.DFF, (a,))  # placeholder data
        g = nl.add_cell(GateType.AND, (a, d))
        nl._fanins[d][0] = g  # loop g -> d -> g, through the flop
        nl._fanouts[a].remove(d)
        nl._fanouts[g].append(d)
        nl.mark_output(g)
        order = topological_order(nl)
        assert sorted(order) == [a, d, g]


class TestLogicLevels:
    def test_sources_are_level_zero(self, c17):
        levels = logic_levels(c17)
        for v in c17.primary_inputs:
            assert levels[v] == 0

    def test_c17_levels(self, c17):
        levels = logic_levels(c17)
        assert levels[c17.find("G10")] == 1
        assert levels[c17.find("G11")] == 1
        assert levels[c17.find("G16")] == 2
        assert levels[c17.find("G22")] == 3
        assert levels[c17.find("G23")] == 3

    def test_level_is_longest_path(self):
        nl = Netlist()
        a = nl.add_input("a")
        n1 = nl.add_cell(GateType.NOT, (a,))
        n2 = nl.add_cell(GateType.NOT, (n1,))
        g = nl.add_cell(GateType.AND, (a, n2))  # short path 0, long path 2
        nl.mark_output(g)
        assert logic_levels(nl)[g] == 3

    def test_levels_strictly_increase_along_edges(self, medium_design):
        levels = logic_levels(medium_design)
        for driver, sink in medium_design.iter_edges():
            if medium_design.gate_type(sink) is GateType.DFF:
                continue
            assert levels[sink] > levels[driver]

    def test_levels_dtype(self, c17):
        assert logic_levels(c17).dtype == np.int64


class TestSweepsAgree:
    """Scalar and frontier sweeps against the deque/longest-path reference."""

    @staticmethod
    def check(netlist):
        expected_order = reference.topological_order(netlist)
        expected_levels = reference.logic_levels(netlist)
        for sweep in (
            levelize_module._levelize_scalar(netlist),
            levelize_module._levelize_frontier(netlist.structure()),
        ):
            assert sweep.order.tolist() == expected_order
            assert np.array_equal(sweep.levels, expected_levels)
            assert sweep.levels.dtype == np.int64
            # Buckets: order is grouped by level, level_ptr bounds the groups.
            assert sweep.depth == expected_levels.max()
            for level in range(sweep.depth + 1):
                bucket = sweep.order[sweep.level_ptr[level]:sweep.level_ptr[level + 1]]
                assert np.all(expected_levels[bucket] == level)
            assert sweep.level_ptr[-1] == netlist.num_nodes

    @pytest.mark.parametrize("name", sorted(reference.hand_built_designs()))
    def test_hand_built(self, name):
        self.check(reference.hand_built_designs()[name])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), n_gates=st.integers(0, 150))
    def test_random_designs(self, seed, n_gates):
        self.check(reference.random_netlist(seed, n_gates))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000), gates=st.integers(20, 900))
    def test_generated_designs(self, seed, gates):
        self.check(generate_design(gates, seed=seed))

    @pytest.mark.parametrize("threshold", [0, 10**9])
    def test_public_functions_on_both_sides_of_the_crossover(
        self, monkeypatch, medium_design, threshold
    ):
        monkeypatch.setattr(levelize_module, "LEVEL_BATCH_MIN_NODES", threshold)
        design = medium_design.copy()
        design.note_external_mutation()  # drop whatever the fixture memoised
        assert topological_order(design) == reference.topological_order(design)
        assert np.array_equal(logic_levels(design), reference.logic_levels(design))

    def test_both_sweeps_report_the_same_loop(self):
        nl = Netlist()
        a = nl.add_input("a")
        n1 = nl.add_cell(GateType.NOT, (a,))
        n2 = nl.add_cell(GateType.NOT, (n1,))
        nl.add_cell(GateType.BUF, (n2,))
        nl.replace_fanin(n1, a, n2)
        with pytest.raises(CombinationalLoopError) as expected:
            reference.topological_order(nl)
        for sweep in (
            lambda: levelize_module._levelize_scalar(nl),
            lambda: levelize_module._levelize_frontier(nl.structure()),
        ):
            with pytest.raises(CombinationalLoopError) as err:
                sweep()
            assert str(err.value) == str(expected.value)


class TestMemoisation:
    def test_one_sweep_serves_order_levels_and_validation(self, monkeypatch, c17):
        sweeps = []
        real = levelize_module._levelize
        monkeypatch.setattr(
            levelize_module, "_levelize", lambda nl: sweeps.append(nl) or real(nl)
        )
        design = c17.copy()
        design.note_external_mutation()
        topological_order(design)
        logic_levels(design)
        validate_netlist(design, strict=True)
        assert len(sweeps) == 1
        design.insert_observation_point(design.find("G11"))
        logic_levels(design)
        assert len(sweeps) == 2

    def test_results_are_private_copies(self, c17):
        levels = logic_levels(c17)
        levels[:] = -1
        order = topological_order(c17)
        order.clear()
        assert logic_levels(c17).min() == 0
        assert len(topological_order(c17)) == c17.num_nodes
