"""Netlist validation: errors, warnings, strict mode."""

import pytest

from repro.circuit import (
    GateType,
    Netlist,
    NetlistValidationError,
    validate_netlist,
)
from repro.circuit.bench import parse_bench
from tests.circuit.reference_frontend import hand_built_designs

#: a flop that holds its own value: legal, a sequential loop
FLOP_HOLDS_ITSELF = "INPUT(a)\nOUTPUT(b)\nb = DFF(b)\n"


class TestValidate:
    def test_clean_design_passes(self, c17):
        report = validate_netlist(c17)
        assert report.ok
        assert report.errors == []

    def test_empty_netlist_fails(self):
        report = validate_netlist(Netlist())
        assert not report.ok
        assert "empty" in report.errors[0]

    def test_no_observation_sites(self):
        nl = Netlist()
        a = nl.add_input("a")
        nl.add_cell(GateType.NOT, (a,))
        report = validate_netlist(nl)
        assert any("no observation sites" in e for e in report.errors)

    def test_dangling_gate_warns(self):
        nl = Netlist()
        a = nl.add_input("a")
        g = nl.add_cell(GateType.NOT, (a,), "used")
        nl.add_cell(GateType.NOT, (a,), "dangling")
        nl.mark_output(g)
        report = validate_netlist(nl)
        assert report.ok
        assert any("dangling" in w for w in report.warnings)

    def test_unused_pi_is_not_an_error(self):
        nl = Netlist()
        nl.add_input("unused")
        a = nl.add_input("a")
        g = nl.add_cell(GateType.BUF, (a,))
        nl.mark_output(g)
        assert validate_netlist(nl).ok

    def test_strict_mode_raises(self):
        with pytest.raises(NetlistValidationError):
            validate_netlist(Netlist(), strict=True)

    def test_generated_designs_validate(self, small_design, medium_design):
        assert validate_netlist(small_design).ok
        assert validate_netlist(medium_design).ok


class TestSelfLoops:
    def test_flop_loop_passes_strict(self):
        assert validate_netlist(hand_built_designs()["flop_loop"], strict=True).ok

    def test_parsed_flop_self_loop_passes_strict(self):
        assert validate_netlist(parse_bench(FLOP_HOLDS_ITSELF), strict=True).ok

    def test_gate_self_loop_still_fails(self):
        nl = Netlist()
        a, c = nl.add_input("a"), nl.add_input("c")
        g = nl.add_cell(GateType.AND, (a, c), "g")
        nl.replace_fanin(g, a, g)
        nl.mark_output(g)
        report = validate_netlist(nl)
        assert f"node {g} feeds itself combinationally" in report.errors
        with pytest.raises(NetlistValidationError, match="feeds itself"):
            validate_netlist(nl, strict=True)
