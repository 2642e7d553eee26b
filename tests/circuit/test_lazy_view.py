"""A parsed netlist answers every accessor from its arrays.

The oracle is the cell-by-cell reference parser: whatever a freshly loaded
netlist answers must be what the netlist the reference builds answers,
before and after mutations.
"""

import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.atpg.ppsfp as ppsfp
import repro.nn.sparse as sparse_module
from repro import api
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import collapse_faults, full_fault_list
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
from repro.circuit.stats import compute_stats
from repro.config import ExecutionConfig
from repro.core.model import GCN, GCNConfig
from repro.dft.cost import evaluate_test_cost
from repro.flow.control import ControlLabelConfig, label_control_nodes
from repro.flow.modify import IncrementalDesign
from repro.serve import ServeConfig, admit
from repro.testability.labels import LabelConfig, label_nodes
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
    "sources": lambda nl: nl.sources,
    "primary_outputs": lambda nl: nl.primary_outputs,
    "observation_sites": lambda nl: nl.observation_sites,
    "observation_points": lambda nl: nl.observation_points(),
    "observed_nodes": lambda nl: nl.observed_nodes().tolist(),
    "structure_digest": reference.structure_digest,
    "mutation_count": lambda nl: nl.mutation_count,
    "copy": lambda nl: reference.same_netlist(nl.copy(), nl) and reference.structure_digest(nl.copy()),
    "copy_then_mutate": lambda nl: _mutated_copy(nl),
    "type_counts": lambda nl: nl.type_counts(),
    "iter_edges": lambda nl: list(nl.iter_edges()),
    "structure": lambda nl: [a.tolist() for a in vars(nl.structure()).values()],
}


def _mutated_copy(netlist: Netlist):
    """A copy must not share what a mutation writes to."""
    before = reference.structure_digest(netlist)
    dup = netlist.copy()
    dup.insert_observation_point(0)
    digest = reference.structure_digest
    return digest(netlist) == before, digest(dup), netlist.num_nodes


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

    def test_marking_an_output_keeps_the_arrays(self):
        netlist = parse_bench(valid_bench(gates=300))
        view, digest = netlist.structure(), reference.structure_digest(netlist)
        netlist.mark_output(netlist.num_nodes // 2)
        assert netlist.structure() is view
        assert reference.structure_digest(netlist) != digest
        with pytest.raises(ValueError, match="does not exist"):
            netlist.mark_output(netlist.num_nodes)


class TestLoadPathStaysInArrays:
    """Text -> scores on the arrays the parser built."""

    @staticmethod
    def design_text(gates: int) -> str:
        """A generated design with the dangling gate validation warns of."""
        netlist = generate_design(gates, seed=8)
        netlist.add_cell(GateType.NOT, (netlist.num_nodes // 2,))
        stream = io.StringIO()
        write_bench(netlist, stream)
        return stream.getvalue()

    @pytest.fixture
    def text(self) -> str:
        return self.design_text(400)

    @pytest.fixture
    def tiny_text(self) -> str:
        """``serve_tiny_batch``'s design size, well under 256 nodes."""
        return self.design_text(60)

    @staticmethod
    def forbid_coo_to_csr(monkeypatch) -> None:
        def refused(*args, **kwargs):
            raise AssertionError("an adjacency was sorted from its COO triples")

        monkeypatch.setattr(sparse_module.sp, "coo_matrix", refused)

    @staticmethod
    def assert_adjacency_of(graph, expected) -> None:
        for got, want in ((graph.pred, expected.pred), (graph.succ, expected.succ)):
            got, want = got.to_scipy(), want.to_scipy()
            assert (got != want).nnz == 0 and got.shape == want.shape

    def test_api_score(self, text):
        weights = GCN(GCNConfig(seed=3)).layer_weights()
        expected = api.score(weights, reference.parse_bench(text)).logits
        netlist = api.load_netlist(text)
        assert validate_netlist(netlist, strict=True).warnings
        assert np.array_equal(api.score(weights, netlist).logits, expected)

    def test_serve_admit(self, text):
        request = admit(json.dumps({"netlist": text}).encode(), ServeConfig())
        assert request.warnings
        assert np.array_equal(
            request.graph.attributes, api.build_graph(reference.parse_bench(text)).attributes
        )

    def test_tiny_design_is_built_in_arrays(self, monkeypatch, tiny_text):
        expected = api.build_graph(reference.parse_bench(tiny_text))
        netlist = api.load_netlist(tiny_text)
        assert validate_netlist(netlist, strict=True).warnings
        graph = api.build_graph(netlist)
        assert netlist.num_nodes < 256
        self.forbid_coo_to_csr(monkeypatch)
        assert np.array_equal(graph.attributes, expected.attributes)
        self.assert_adjacency_of(graph, expected)

    def test_tiny_serve_admit(self, monkeypatch, tiny_text):
        expected = api.build_graph(reference.parse_bench(tiny_text))
        request = admit(json.dumps({"netlist": tiny_text}).encode(), ServeConfig())
        assert request.warnings
        self.forbid_coo_to_csr(monkeypatch)
        assert np.array_equal(request.graph.attributes, expected.attributes)
        self.assert_adjacency_of(request.graph, expected)


#: what a whole-netlist accessor answers, in a form ``==`` compares
WHOLE_NETLIST = {
    name: ACCESSORS[name]
    for name in (
        "num_nodes", "num_edges", "primary_inputs", "sources", "primary_outputs",
        "observation_sites", "observation_points", "observed_nodes", "type_counts",
        "iter_edges",
    )
}


def analyses(netlist: Netlist) -> dict:
    """Every whole-netlist analysis of ``netlist``, in comparable form."""
    faults = collapse_faults(netlist, full_fault_list(netlist))
    with FaultSimulator(netlist) as fsim:
        words = fsim.simulator.random_source_words(2, np.random.default_rng(5))
        detected = fsim.simulate_batch(faults, words).detecting_pattern
    labels = label_nodes(netlist, LabelConfig(n_patterns=128))
    return {
        **{name: accessor(netlist) for name, accessor in WHOLE_NETLIST.items()},
        "len": len(netlist),
        "nodes": list(netlist.nodes()),
        "labels": labels.labels.tolist(),
        "observed_count": labels.observed_count.tolist(),
        "control": label_control_nodes(netlist, ControlLabelConfig(n_patterns=128)).labels.tolist(),
        "full_faults": full_fault_list(netlist),
        "collapsed": collapse_faults(netlist),
        "detected": detected,
        "stats": compute_stats(netlist),
        "cost": evaluate_test_cost(netlist, 100, n_chains=3),
    }


class TestWholeNetlistAnalysesStayInArrays:
    """Labelling, fault lists, fault simulation, stats and scan cost answer
    on a parsed netlist what they answer on the reference parser's."""

    @pytest.fixture
    def text(self) -> str:
        return TestLoadPathStaysInArrays.design_text(300)

    def test_in_process(self, text):
        expected = analyses(reference.parse_bench(text))
        netlist = parse_bench(text)
        assert analyses(netlist) == expected

    def test_with_observation_points(self, text):
        built = reference.parse_bench(text)
        for target in (3, built.num_nodes // 2, built.num_nodes - 1):
            built.insert_observation_point(target)
        expected = analyses(built)
        netlist = Netlist.disjoint_union([built])  # the same cells, as arrays
        assert analyses(netlist) == expected

    def test_pooled_labels(self, monkeypatch, text):
        """The stem grading's workers are sent the netlist in array form."""
        expected = label_nodes(parse_bench(text), LabelConfig(n_patterns=128))
        monkeypatch.setattr(ppsfp, "POOL_MIN_SITES", 1)
        pooled, parallel_masks = [], ppsfp.PpsfpEngine._parallel_masks

        def counted(engine, sites, *args):
            pooled.append(len(sites))
            return parallel_masks(engine, sites, *args)

        monkeypatch.setattr(ppsfp.PpsfpEngine, "_parallel_masks", counted)
        netlist = parse_bench(text)
        execution = ExecutionConfig(workers=2, exec_backend="forkpool")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = label_nodes(netlist, LabelConfig(n_patterns=128, execution=execution))
        # A worker that failed would be rescued in process under a
        # ResourceWarning.
        assert pooled and not [w for w in caught if w.category is ResourceWarning]
        assert np.array_equal(result.labels, expected.labels)
        assert np.array_equal(result.observed_count, expected.observed_count)


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
