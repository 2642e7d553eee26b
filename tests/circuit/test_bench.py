"""ISCAS .bench parsing and writing.

``parse_bench`` here is the real parser wrapped so that every call is also
compared with the node-by-node reference parser.
"""

import io

import pytest

from repro.circuit import (
    BenchParseError,
    GateType,
    dump_bench,
    load_bench,
    write_bench,
)
from tests.circuit.reference_frontend import checked_parse_bench as parse_bench

C17_TEXT = """
# c17 benchmark
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
"""


class TestParse:
    def test_c17_structure(self):
        nl = parse_bench(C17_TEXT, "c17")
        assert nl.num_nodes == 11
        assert len(nl.primary_inputs) == 5
        assert len(nl.primary_outputs) == 2
        assert nl.gate_type(nl.find("G22")) is GateType.NAND

    def test_use_before_definition(self):
        text = "INPUT(a)\nOUTPUT(y)\ny = NOT(x)\nx = BUFF(a)\n"
        nl = parse_bench(text)
        assert nl.fanins(nl.find("y")) == [nl.find("x")]

    def test_gate_aliases(self):
        text = "INPUT(a)\nOUTPUT(y)\nb = INV(a)\ny = BUF(b)\n"
        nl = parse_bench(text)
        assert nl.gate_type(nl.find("b")) is GateType.NOT
        assert nl.gate_type(nl.find("y")) is GateType.BUF

    def test_dff_parses_as_source_with_data(self):
        text = "INPUT(a)\nOUTPUT(y)\nq = DFF(y)\ny = NAND(a, q)\n"
        nl = parse_bench(text)
        q = nl.find("q")
        assert nl.gate_type(q) is GateType.DFF
        assert nl.fanins(q) == [nl.find("y")]

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("y = FROB(a)\n", "unknown gate"),
            ("INPUT(a)\ny = NOT(a)\ny = NOT(a)\n", "redefined"),
            ("INPUT(a)\nwhat is this line", "cannot parse"),
            ("OUTPUT(y)\n", "never driven"),
            ("INPUT(a)\nOUTPUT(y)\ny = NOT(ghost)\n", "never defined"),
            ("INPUT(a)\nOUTPUT(y)\ny = AND(z, a)\nz = NOT(y)\n", "loop"),
        ],
    )
    def test_malformed_inputs(self, text, fragment):
        with pytest.raises(BenchParseError) as err:
            parse_bench(text)
        assert fragment in str(err.value)


class TestRoundTrip:
    def test_write_then_parse_preserves_structure(self, c17):
        buf = io.StringIO()
        write_bench(c17, buf)
        again = parse_bench(buf.getvalue())
        assert again.num_nodes == c17.num_nodes
        assert again.num_edges == c17.num_edges
        assert len(again.primary_outputs) == len(c17.primary_outputs)

    def test_observation_points_become_outputs(self, c17):
        nl = c17.copy()
        nl.insert_observation_point(nl.find("G11"))
        buf = io.StringIO()
        write_bench(nl, buf)
        again = parse_bench(buf.getvalue())
        # The OBS cell is exported as a buffered OUTPUT.
        assert len(again.primary_outputs) == 3

    def test_file_round_trip(self, c17, tmp_path):
        path = tmp_path / "c17.bench"
        dump_bench(c17, path)
        again = load_bench(path)
        assert again.name == "c17"
        assert again.num_nodes == c17.num_nodes

    def test_constants_exported_as_self_xor(self):
        from repro.circuit import Netlist

        nl = Netlist("ties")
        a = nl.add_input("a")
        c0 = nl.add_cell(GateType.CONST0, (), "t0")
        c1 = nl.add_cell(GateType.CONST1, (), "t1")
        g = nl.add_cell(GateType.AND, (a, c1), "g")
        h = nl.add_cell(GateType.OR, (g, c0), "h")
        nl.mark_output(h)
        buf = io.StringIO()
        write_bench(nl, buf)
        again = parse_bench(buf.getvalue())
        # simulate both on a=1: h must be 1; on a=0: h must be 0
        from repro.atpg.simulator import LogicSimulator
        import numpy as np

        sim = LogicSimulator(again)
        words = np.array([[np.uint64(0b10)]])
        values = sim.simulate(words)
        assert int(values[again.find("h")][0]) == 0b10

    def test_constants_without_pi_rejected(self):
        from repro.circuit import Netlist

        nl = Netlist("no_pi")
        c1 = nl.add_cell(GateType.CONST1, (), "t1")
        nl.mark_output(c1)
        with pytest.raises(ValueError, match="primary input"):
            write_bench(nl, io.StringIO())
