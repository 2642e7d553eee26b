"""Structural Verilog parsing and writing."""

import io

import numpy as np
import pytest

from repro.circuit import (
    GateType,
    VerilogParseError,
    dump_verilog,
    load_verilog,
    parse_verilog,
    write_verilog,
)

MUX = """
// 2:1 mux
module mux2 (a, b, s, y);
  input a, b;
  input s;
  output y;
  wire ns, t0, t1;
  not g0 (ns, s);
  and g1 (t0, a, ns);
  and g2 (t1, b, s);
  or  g3 (y, t0, t1);
endmodule
"""


class TestParse:
    def test_mux_structure(self):
        nl = parse_verilog(MUX)
        assert nl.name == "mux2"
        assert len(nl.primary_inputs) == 3
        assert nl.primary_outputs == [nl.find("y")]
        assert nl.gate_type(nl.find("t0")) is GateType.AND
        assert nl.gate_type(nl.find("ns")) is GateType.NOT

    def test_use_before_declaration_order(self):
        text = """
        module m (a, y);
          input a; output y;
          buf g1 (y, w);   /* w defined later */
          not g2 (w, a);
        endmodule
        """
        nl = parse_verilog(text)
        assert nl.fanins(nl.find("y")) == [nl.find("w")]

    def test_unnamed_instances(self):
        text = "module m (a, y); input a; output y; not (y, a); endmodule"
        nl = parse_verilog(text)
        assert nl.gate_type(nl.find("y")) is GateType.NOT

    def test_alias_assign(self):
        text = "module m (a, y); input a; output y; assign y = a; endmodule"
        nl = parse_verilog(text)
        assert nl.gate_type(nl.find("y")) is GateType.BUF

    def test_constants(self):
        text = (
            "module m (a, y); input a; output y; "
            "and g (y, a, 1'b1); endmodule"
        )
        nl = parse_verilog(text)
        consts = [v for v in nl.nodes() if nl.gate_type(v) is GateType.CONST1]
        assert len(consts) == 1

    def test_dff(self):
        text = (
            "module m (d, q); input d; output q; wire n; "
            "dff ff (q, n); not g (n, q); endmodule"
        )
        nl = parse_verilog(text)
        q = nl.find("q")
        assert nl.gate_type(q) is GateType.DFF
        assert nl.fanins(q) == [nl.find("n")]

    def test_comments_stripped(self):
        text = (
            "module m (a, y); // ports\n input a; /* multi\nline */ "
            "output y; buf g (y, a); endmodule"
        )
        assert parse_verilog(text).num_nodes == 2

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("wire w;", "no module"),
            ("module m (a); input a;", "endmodule"),
            ("module m (a, y); input a; output y; frob g (y, a); endmodule",
             "unsupported statement"),
            ("module m (a, y); input a; output y; endmodule", "never driven"),
            ("module m (a, y); input a; output y; buf g (y, a); "
             "buf h (y, a); endmodule", "multiple drivers"),
            ("module m (a, y); input a[3:0]; output y; endmodule",
             "unsupported net"),
            ("module m (y); output y; buf a (y, w); buf b (w, y); endmodule",
             "loop"),
            ("module m (a, y); input a; output y; "
             "assign y = a & 1'b1; endmodule", "alias assigns"),
        ],
    )
    def test_malformed(self, text, fragment):
        with pytest.raises(VerilogParseError) as err:
            parse_verilog(text)
        assert fragment in str(err.value)


S27 = """
module s27 (G0, G1, G2, G3, G17);
  input G0, G1, G2, G3;
  output G17;
  wire G5, G6, G7, G8, G9, G10, G11, G12, G13, G14, G15, G16;
  dff ff0 (G5, G10);
  dff ff1 (G6, G11);
  dff ff2 (G7, G13);
  not g0 (G14, G0);
  not g1 (G17, G11);
  and g2 (G8, G14, G6);
  or  g3 (G15, G12, G8);
  or  g4 (G16, G3, G8);
  nand g5 (G9, G16, G15);
  nor g6 (G10, G14, G11);
  nor g7 (G11, G5, G9);
  nor g8 (G12, G1, G7);
  nor g9 (G13, G2, G12);
endmodule
"""


class TestSharedNumbering:
    def test_s27_equals_its_bench_form(self):
        from pathlib import Path

        from repro.circuit import load_bench

        bench = load_bench(Path(__file__).parent / "fixtures" / "s27.bench")
        verilog = parse_verilog(S27)
        for field, array in vars(bench.structure()).items():
            assert np.array_equal(getattr(verilog.structure(), field), array), field
        assert [verilog.cell_name(v) for v in verilog.nodes()] == [
            bench.cell_name(v) for v in bench.nodes()
        ]
        assert verilog.primary_outputs == bench.primary_outputs

    def test_deep_reversed_chain_parses(self):
        depth = 5000
        gates = [f"not g{i} (n{i}, n{i - 1});" for i in range(depth, 0, -1)]
        text = "\n".join([f"module chain (n0, n{depth});", f"output n{depth};", *gates,
                          "input n0;", "endmodule"])
        netlist = parse_verilog(text)
        assert netlist.num_nodes == depth + 1
        assert [netlist.find(f"n{i}") for i in (0, 1, depth)] == [0, 1, depth]

    def test_each_constant_pin_is_a_tie_cell_of_its_own(self):
        text = ("module m (a, y, z); input a; output y, z; and g (y, a, 1'b1); "
                "or h (z, 1'b1, 1'h0, y); endmodule")
        netlist = parse_verilog(text)
        counts = netlist.type_counts()
        assert (counts["CONST1"], counts["CONST0"]) == (2, 1)
        assert [netlist.gate_type(u).name for u in netlist.fanins(netlist.find("z"))] == [
            "CONST1", "CONST0", "AND",
        ]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("module m (a, y); input a; output y; and g (y, a); endmodule",
             "net 'y': AND takes >=2 fanins, got 1"),
            ("module m (a, y); input a; output y; buf g (y, w); endmodule",
             "signal 'w' used but never defined"),
            ("module m (a, y); input a, a; output y; buf g (y, a); endmodule",
             "input 'a' declared twice"),
        ],
    )
    def test_messages(self, text, message):
        with pytest.raises(VerilogParseError) as err:
            parse_verilog(text)
        assert str(err.value) == message


class TestRoundTrip:
    def test_write_then_parse(self, c17):
        buf = io.StringIO()
        write_verilog(c17, buf)
        again = parse_verilog(buf.getvalue())
        assert again.num_nodes == c17.num_nodes
        assert again.num_edges == c17.num_edges
        assert len(again.primary_outputs) == 2

    def test_round_trip_preserves_simulation(self, mux2, rng):
        from repro.atpg.simulator import LogicSimulator

        buf = io.StringIO()
        write_verilog(mux2, buf)
        again = parse_verilog(buf.getvalue())
        sim1, sim2 = LogicSimulator(mux2), LogicSimulator(again)
        words = sim1.random_source_words(1, rng)
        v1 = sim1.simulate(words)
        # map by name: the same source order is not guaranteed
        order2 = [again.find(mux2.cell_name(s)) for s in mux2.sources]
        remap = np.empty_like(words)
        for i, s2 in enumerate(order2):
            remap[again.sources.index(s2)] = words[i]
        v2 = sim2.simulate(remap)
        for po in mux2.primary_outputs:
            po2 = again.find(mux2.cell_name(po))
            assert np.array_equal(v1[po], v2[po2])

    def test_observation_points_exported_as_outputs(self, c17):
        nl = c17.copy()
        nl.insert_observation_point(nl.find("G11"))
        buf = io.StringIO()
        write_verilog(nl, buf)
        again = parse_verilog(buf.getvalue())
        assert len(again.primary_outputs) == 3

    def test_file_round_trip(self, mux2, tmp_path):
        path = tmp_path / "mux2.v"
        dump_verilog(mux2, path)
        again = load_verilog(path)
        assert again.name == "mux2"
        assert again.num_nodes == mux2.num_nodes

    def test_generated_design_round_trip(self):
        from repro.circuit import generate_design

        nl = generate_design(150, seed=44)
        buf = io.StringIO()
        write_verilog(nl, buf)
        again = parse_verilog(buf.getvalue())
        assert again.num_nodes == nl.num_nodes
        assert again.num_edges == nl.num_edges
