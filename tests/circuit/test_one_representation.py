"""The netlist's columns against the per-cell lists they replaced.

A hypothesis oracle: random sequences of mutations are applied to a
:class:`Netlist` and to :class:`~tests.circuit.reference_netlist.
ReferenceNetlist` (the list-of-lists logic), starting from a netlist built
cell by cell and from a parsed one, and after every step each accessor of
``test_lazy_view.ACCESSORS`` answers the same (or raises the same error).

Fan-out rows are compared as multisets, and exactly as long as no flop was
wired after a later cell was added: the reference appends a sink where it
is wired, so ``add_flop`` followed by a late ``replace_fanin`` puts the
flop after higher sinks, while the columns derive every fan-out row in
ascending sink order.

Also: a structure once handed out is never written to, whatever mutation
follows (a rewired pin, a rollback and an append, a copy's mutation).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import GateType, Netlist, generate_design, parse_bench
from repro.flow.modify import IncrementalDesign
from tests.circuit import reference_frontend as reference
from tests.circuit.reference_netlist import ReferenceNetlist, csr_to_rows
from tests.circuit.test_bench_fuzz import valid_bench
from tests.circuit.test_lazy_view import ACCESSORS

PICK = st.integers(0, 10**6)
OPS = st.one_of(
    st.tuples(
        st.just("add_cell"),
        st.sampled_from(list(GateType)),
        st.lists(PICK, max_size=4),
        st.integers(0, 2),  # no name, a fresh one, or one that may be taken
    ),
    st.tuples(st.just("add_flop"), st.integers(0, 2)),
    # to a picked driver, or to the newest cell (which then drives a pin)
    st.tuples(st.just("wire_flop"), PICK, st.booleans()),
    st.tuples(st.just("observe"), PICK),
    # then, if asked, drop the newest cell at once: the CP gate, which
    # drives every pin its target drove
    st.tuples(st.just("control"), PICK, st.integers(0, 1), st.booleans()),
    st.tuples(st.just("remove_last_cell")),
    st.tuples(st.just("mark_output"), PICK),
    st.tuples(st.just("copy")),
)


def outcome(call):
    """What ``call()`` returns, or the type and message of what it raises."""
    try:
        return "returned", call()
    except (ValueError, KeyError, IndexError) as exc:
        return "raised", type(exc), str(exc)


class Pair:
    """A netlist and its reference, mutated in step."""

    def __init__(self, netlist: Netlist, ref: ReferenceNetlist) -> None:
        self.netlist, self.ref = netlist, ref
        self.unwired: list[int] = []  #: flops still capturing themselves
        self.reordered = False  #: a flop was wired after a later cell

    def both(self, method: str, *args):
        got = outcome(lambda: getattr(self.netlist, method)(*args))
        assert got == outcome(lambda: getattr(self.ref, method)(*args)), (method, args)
        return got

    def apply(self, step: int, op: tuple):
        """Apply ``op`` to both; a removal's outcome is returned."""
        kind, n = op[0], self.netlist.num_nodes
        if kind == "add_cell":
            _, gate_type, picks, naming = op
            name = (None, f"c{step}", "c0")[naming]
            self.both("add_cell", gate_type, [p % (n + 2) for p in picks], name)
        elif kind == "add_flop":
            got = self.both("add_flop", (None, f"c{step}", "c0")[op[1]])
            if got[0] == "returned":
                self.unwired.append(got[1])
        elif kind == "wire_flop" and self.unwired and n:
            flop = self.unwired.pop(0)
            self.reordered |= flop < n - 1
            self.both("replace_fanin", flop, flop, n - 1 if op[2] else op[1] % n)
        elif kind == "observe" and n:
            self.both("insert_observation_point", op[1] % n)
        elif kind == "control" and n:
            target = op[1] % n
            self.unwired = [f for f in self.unwired if f != target]  # the CP gate drives it
            self.both("insert_control_point", target, op[2])
            if op[3]:
                return self.both("remove_last_cell")
        elif kind == "remove_last_cell":
            return self.both("remove_last_cell")
        elif kind == "mark_output":
            self.both("mark_output", op[1] % (n + 1))
        elif kind == "copy":
            self.netlist, self.ref = self.netlist.copy(), self.ref.copy()

    def check(self) -> None:
        netlist, ref = self.netlist, self.ref
        view = ref.to_netlist()  # the reference's cells, for whole-netlist accessors
        for name, accessor in ACCESSORS.items():
            if name not in ("fanouts", "structure", "mutation_count"):
                assert outcome(lambda: accessor(netlist)) == outcome(lambda: accessor(view)), name
        assert netlist.mutation_count == ref.mutation_count
        got, want = netlist.structure(), ref.structure()
        for field in ("types", "fanin_ptr", "fanin_idx", "fanout_ptr"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        rows = [netlist.fanouts(v) for v in netlist.nodes()]
        assert rows == csr_to_rows(got.fanout_ptr, got.fanout_idx)
        expected = [ref.fanouts(v) for v in ref.nodes()]
        assert list(map(sorted, rows)) == list(map(sorted, expected))
        if not self.reordered:
            assert rows == expected


def run(pair: Pair, ops: list[tuple]) -> None:
    pair.check()
    held = []  # every pair a copy left behind, with what it showed then
    for step, op in enumerate(ops):
        before = pair.netlist
        pair.apply(step, op)
        if pair.netlist is not before:
            held.append((before, reference.structure_digest(before)))
        pair.check()
    for netlist, digest in held:
        assert reference.structure_digest(netlist) == digest


class TestAgainstTheLists:
    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(OPS, max_size=30))
    def test_built_cell_by_cell(self, ops):
        run(Pair(Netlist("built"), ReferenceNetlist("built")), ops)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 200), gates=st.integers(5, 60), ops=st.lists(OPS, max_size=30))
    def test_parsed(self, seed, gates, ops):
        text = valid_bench(seed=seed, gates=gates)
        run(Pair(parse_bench(text), reference.parse_bench_cells(text)), ops)

    def test_a_late_flop_wiring_is_the_only_reordering(self):
        pair = Pair(Netlist(), ReferenceNetlist())
        run(pair, [("add_cell", GateType.INPUT, [], 0), ("add_flop", 0),
                   ("add_cell", GateType.NOT, [0], 0), ("wire_flop", 0, False)])
        assert pair.reordered
        assert pair.netlist.fanouts(0) == [1, 2] and pair.ref.fanouts(0) == [2, 1]


REFUSED = ("raised", ValueError, "the newest cell is missing or still drives a pin")


class TestRefusedRemoval:
    """A removal is refused while any pin names the newest cell, however
    that pin came to name it, and then changes nothing."""

    @pytest.mark.parametrize("copied", [False, True])
    def test_a_late_wired_flop_pin(self, copied):
        pair = Pair(Netlist(), ReferenceNetlist())
        ops = [("add_cell", GateType.INPUT, [], 0), ("add_flop", 0),
               ("add_cell", GateType.NOT, [0], 0), ("wire_flop", 0, True)]
        run(pair, ops + [("copy",)] * copied)
        assert pair.netlist.fanins(1) == [2]
        assert pair.apply(len(ops), ("remove_last_cell",)) == REFUSED
        pair.check()

    @pytest.mark.parametrize("control_to", [0, 1])
    def test_a_control_point_rewire(self, control_to):
        text = valid_bench(seed=4, gates=40)
        pair = Pair(parse_bench(text), reference.parse_bench_cells(text))
        target = pair.netlist.fanins(last_gate(pair.netlist))[0]
        assert pair.apply(0, ("control", target, control_to, True)) == REFUSED
        pair.check()

    def test_a_parsed_flops_data_input(self):
        text = "INPUT(a)\nOUTPUT(z)\nq = DFF(z)\nz = AND(a, q)\n"  # q's row names z
        pair = Pair(parse_bench(text), reference.parse_bench_cells(text))
        assert pair.apply(0, ("remove_last_cell",)) == REFUSED
        pair.check()


def snapshot(netlist: Netlist):
    """``netlist``'s structure, and a private copy of each of its arrays."""
    structure = netlist.structure()
    return structure, {k: v.copy() for k, v in vars(structure).items()}


def assert_unchanged(held) -> None:
    structure, arrays = held
    for field, array in arrays.items():
        assert np.array_equal(getattr(structure, field), array), field


def built() -> Netlist:
    netlist = Netlist("built")
    a, b = netlist.add_input("a"), netlist.add_input("b")
    x = netlist.add_cell(GateType.AND, (a, b))
    netlist.mark_output(netlist.add_cell(GateType.NOR, (x, b)))
    return netlist


def parsed() -> Netlist:
    return parse_bench(valid_bench(seed=4, gates=40))


@pytest.fixture(params=[built, parsed, generate_design], ids=["built", "parsed", "generated"])
def netlist(request) -> Netlist:
    return request.param()


def last_gate(netlist: Netlist) -> int:
    return next(v for v in reversed(netlist.nodes()) if netlist.fanins(v))


class TestHeldStructureIsNeverWritten:
    def test_across_replace_fanin(self, netlist):
        held = snapshot(netlist)
        sink = last_gate(netlist)
        old = netlist.fanins(sink)[0]
        netlist.replace_fanin(sink, old, 1 - min(old, 1))
        assert_unchanged(held)
        assert netlist.structure().fanin_idx.tolist() != held[1]["fanin_idx"].tolist()

    def test_across_rollback_then_append(self, netlist):
        netlist.add_cell(GateType.NOT, (0,))
        held = snapshot(netlist)
        netlist.remove_last_cell()
        netlist.add_cell(GateType.AND, (1, 1))
        assert_unchanged(held)

    def test_across_a_control_point(self, netlist):
        held = snapshot(netlist)
        netlist.insert_control_point(netlist.fanins(last_gate(netlist))[0], 1)
        assert_unchanged(held)

    def test_across_a_copys_mutation(self, netlist):
        held = snapshot(netlist)
        dup = netlist.copy()
        sink = last_gate(dup)
        old = dup.fanins(sink)[0]
        dup.replace_fanin(sink, old, 1 - min(old, 1))
        dup.add_cell(GateType.NOT, (sink,))
        assert_unchanged(held)
        assert netlist.structure() is held[0]

    def test_across_an_incremental_designs_commits_and_rollbacks(self, netlist):
        design = IncrementalDesign(netlist)
        held = design._structure, {k: v.copy() for k, v in vars(design._structure).items()}
        _, checkpoint = design.insert_op(last_gate(netlist))
        design.rollback(checkpoint)
        design.insert_op(0)
        assert_unchanged(held)
