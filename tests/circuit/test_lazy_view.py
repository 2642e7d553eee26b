"""A parsed netlist is arrays until asked: the lazy per-cell view.

The oracle is the cell-by-cell reference parser: whatever a freshly loaded
netlist answers — from its arrays or from lists it builds on the spot —
must be what the netlist built by ``add_cell`` answers, before and after
mutations.
"""

import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.circuit.netlist as netlist_module
from repro import api
from repro.circuit import (
    BenchParseError,
    GateType,
    Netlist,
    generate_design,
    parse_bench,
    parse_verilog,
    validate_netlist,
    write_bench,
)
from repro.core.model import GCN, GCNConfig
from repro.flow.modify import IncrementalDesign
from repro.serve import ServeConfig, admit
from tests.circuit import reference_frontend as reference
from tests.circuit.test_bench_fuzz import valid_bench
from tests.circuit.test_structure import assert_mirrors_lists

FIXTURES = Path(__file__).parent / "fixtures"

#: One design, valid in any line order.  Its flops capture an input and
#: themselves, so the reference (which walks a data cone the moment it
#: meets the flop) numbers every order as the parser does.
DESIGN = [
    "INPUT(a)", "INPUT(b)", "INPUT(c)", "z = AND(a, b)", "y = NOT(z)",
    "x = NOR(a, a, c)", "w = XOR(x, y, b)", "v = BUFF(w)", "p = DFF(a)",
    "r = dff(r)", "u = NAND(r, p)", "t = OR(u, v)",
]
EXTRAS = ["OUTPUT(t)", "OUTPUT(w)", "OUTPUT(a)", "output( t )", "# comment", "", "s = NOT(x)  # dangles"]

ACCESSORS = {
    "num_nodes": lambda nl: nl.num_nodes,
    "num_edges": lambda nl: nl.num_edges,
    "gate_type": lambda nl: [nl.gate_type(v) for v in nl.nodes()],
    "fanins": lambda nl: [nl.fanins(v) for v in nl.nodes()],
    "fanouts": lambda nl: [nl.fanouts(v) for v in nl.nodes()],
    "cell_name": lambda nl: [nl.cell_name(v) for v in nl.nodes()],
    "find": lambda nl: [nl.find(nl.cell_name(v)) for v in nl.nodes()],
    "primary_inputs": lambda nl: nl.primary_inputs,
    "primary_outputs": lambda nl: nl.primary_outputs,
    "observation_sites": lambda nl: nl.observation_sites,
    "fingerprint": lambda nl: nl.fingerprint(),
    "mutation_count": lambda nl: nl.mutation_count,
    "copy": lambda nl: reference.same_netlist(nl.copy(), nl) and nl.copy().fingerprint(),
    "copy_then_mutate": lambda nl: _mutated_copy(nl),
    "type_counts": lambda nl: nl.type_counts(),
    "iter_edges": lambda nl: list(nl.iter_edges()),
    "structure": lambda nl: [a.tolist() for a in vars(nl.structure()).values()],
}


def _mutated_copy(netlist: Netlist):
    """A copy must not share what a mutation writes to."""
    before = netlist.fingerprint()
    dup = netlist.copy()
    dup.insert_observation_point(0)
    return netlist.fingerprint() == before, dup.fingerprint(), netlist.num_nodes


def insert_observation_point(netlist: Netlist) -> None:
    netlist.insert_observation_point(netlist.num_nodes // 2)


def insert_control_point(netlist: Netlist) -> None:
    netlist.insert_control_point(netlist.num_nodes // 2, control_to=netlist.num_nodes % 2)


def replace_fanin(netlist: Netlist) -> None:
    sink = next(v for v in reversed(netlist.nodes()) if netlist.fanins(v))
    netlist.replace_fanin(sink, netlist.fanins(sink)[-1], 0)


def opi_rollback(netlist: Netlist) -> None:
    design = IncrementalDesign(netlist)
    for target in (0, netlist.num_nodes - 1):
        _, checkpoint = design.insert_op(target)
        design.rollback(checkpoint)


MUTATIONS = [insert_observation_point, insert_control_point, replace_fanin, opi_rollback]


def check_against_cell_by_cell(text: str) -> None:
    built = reference.parse_bench(text)
    assert reference.same_netlist(parse_bench(text), built)
    for name, accessor in ACCESSORS.items():
        assert accessor(parse_bench(text)) == accessor(built), name
    for mutate in MUTATIONS:
        loaded, expected = parse_bench(text), built.copy()
        mutate(loaded)
        mutate(expected)
        assert_mirrors_lists(loaded)
        for name, accessor in ACCESSORS.items():
            assert accessor(loaded) == accessor(expected), (mutate.__name__, name)


class TestAccessors:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 200), gates=st.integers(5, 400))
    def test_generated_designs(self, seed, gates):
        check_against_cell_by_cell(valid_bench(seed=seed, gates=gates))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(EXTRAS), max_size=5, unique=True).flatmap(
        lambda extras: st.permutations(DESIGN + extras)
    ))
    def test_one_design_in_any_line_order(self, lines):
        check_against_cell_by_cell("\n".join(lines))

    def test_unnamed_cells_stay_unnamed(self):
        text = "module m (a, y); input a; output y; and g (y, a, 1'b1); endmodule"
        netlist = parse_verilog(text)
        (tie,) = (v for v in netlist.nodes() if netlist.gate_type(v) is GateType.CONST1)
        assert netlist.given_name(tie) is None and netlist.cell_name(tie) == f"n{tie}"
        with pytest.raises(KeyError):
            netlist.find(f"n{tie}")

    def test_marking_an_output_keeps_the_arrays(self, monkeypatch):
        netlist = parse_bench(valid_bench(gates=300))
        monkeypatch.setattr(netlist_module, "csr_to_rows", _never)
        view, fingerprint = netlist.structure(), netlist.fingerprint()
        netlist.mark_output(netlist.num_nodes // 2)
        assert netlist.structure() is view
        assert netlist.fingerprint() != fingerprint
        with pytest.raises(ValueError, match="does not exist"):
            netlist.mark_output(netlist.num_nodes)


def _never(*_):
    raise AssertionError("the per-cell lists of a loaded netlist were built")


class TestLoadPathStaysInArrays:
    """The point of the lazy view: text -> scores builds no per-cell object."""

    @pytest.fixture
    def text(self) -> str:
        # Past LEVEL_BATCH_MIN_NODES (smaller designs are swept cell by cell,
        # from the lists), with the dangling-gate warnings validation words.
        netlist = generate_design(400, seed=8)
        netlist.add_cell(GateType.NOT, (netlist.num_nodes // 2,))
        stream = io.StringIO()
        write_bench(netlist, stream)
        return stream.getvalue()

    def test_api_score(self, monkeypatch, text):
        weights = GCN(GCNConfig(seed=3)).layer_weights()
        expected = api.score(weights, reference.parse_bench(text)).logits
        monkeypatch.setattr(netlist_module, "csr_to_rows", _never)
        netlist = api.load_netlist(text)
        assert validate_netlist(netlist, strict=True).warnings
        assert np.array_equal(api.score(weights, netlist).logits, expected)

    def test_serve_admit(self, monkeypatch, text):
        monkeypatch.setattr(netlist_module, "csr_to_rows", _never)
        request = admit(json.dumps({"netlist": text}).encode(), ServeConfig())
        assert request.warnings
        assert np.array_equal(
            request.graph.attributes, api.build_graph(reference.parse_bench(text)).attributes
        )


class TestIscasFixtures:
    @pytest.mark.parametrize("name, nodes", [("c17", 11), ("s27", 17)])
    def test_parse_validate_and_score(self, name, nodes):
        netlist = api.load_netlist(FIXTURES / f"{name}.bench")
        assert netlist.num_nodes == nodes
        assert validate_netlist(netlist, strict=True).ok
        result = api.score(GCN(GCNConfig(seed=3)).layer_weights(), netlist)
        assert result.logits.shape == (nodes, 2) and np.isfinite(result.logits).all()

    def test_c17_is_the_hand_built_one(self, c17):
        assert reference.same_netlist(api.load_netlist(FIXTURES / "c17.bench"), c17)

    def test_s27_numbering(self):
        # Inputs, then the walk from each assignment in line order with the
        # flops as sources: G17 = NOT(G11) pulls G11's cone in ahead of G15.
        netlist = api.load_netlist(FIXTURES / "s27.bench")
        assert [netlist.cell_name(v) for v in netlist.nodes()] == [
            "G0", "G1", "G2", "G3", "G5", "G6", "G7", "G14", "G8", "G16", "G12",
            "G15", "G9", "G11", "G17", "G10", "G13",
        ]
        for flop, data in (("G5", "G10"), ("G6", "G11"), ("G7", "G13")):
            assert netlist.fanins(netlist.find(flop)) == [netlist.find(data)]
        assert netlist.primary_outputs == [netlist.find("G17")]
        # The reference walks G5's data cone with G11 still open.
        with pytest.raises(BenchParseError, match="combinational loop through 'G11'"):
            reference.parse_bench((FIXTURES / "s27.bench").read_text())

    def test_declaration_order_is_kept_when_gates_follow_their_drivers(self):
        text = "INPUT(a)\nq = DFF(h)\ng = NAND(a, q)\nr = DFF(r)\nh = NOT(g)\nOUTPUT(h)\n"
        netlist = parse_bench(text)
        assert [netlist.cell_name(v) for v in netlist.nodes()] == ["a", "q", "g", "r", "h"]
        stream = io.StringIO()
        write_bench(netlist, stream)
        again = parse_bench(stream.getvalue())
        assert reference.same_netlist(again, netlist)

    def test_a_loop_beside_a_flop_is_still_a_loop(self):
        text = "INPUT(a)\nq = DFF(y)\ny = AND(z, q)\nz = OR(y, a)\nOUTPUT(y)\n"
        with pytest.raises(BenchParseError, match="combinational loop through 'y'"):
            parse_bench(text)
