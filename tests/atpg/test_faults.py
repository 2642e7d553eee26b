"""Stuck-at fault lists and equivalence collapsing."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.faults import Fault, collapse_faults, full_fault_list
from repro.circuit import GateType, Netlist, generate_design, parse_bench, write_bench
from tests.atpg import reference_faults

#: one appended cell: its type, and whether it hangs off the cell appended
#: before it (a chain) or off an existing node picked by the integer
_CHAIN_CELL = st.tuples(
    st.sampled_from([GateType.BUF, GateType.NOT]), st.booleans(), st.integers(0, 10**6)
)


def with_chains(seed: int, cells) -> Netlist:
    """A generated design with BUF/NOT cells appended: chains, NOT-of-NOT,
    and branches that make a chain's driver a stem."""
    netlist = generate_design(60, seed=seed)
    last = None
    for gate_type, chained, pick in cells:
        driver = last if chained and last is not None else pick % netlist.num_nodes
        last = netlist.add_cell(gate_type, (driver,))
        if pick % 3 == 0:
            netlist.mark_output(last)
    return netlist


class TestFault:
    def test_valid_values(self):
        assert Fault(3, 0).stuck_value == 0
        with pytest.raises(ValueError):
            Fault(3, 2)

    def test_str(self):
        assert str(Fault(7, 1)) == "n7/sa1"

    def test_hashable_and_ordered(self):
        faults = {Fault(1, 0), Fault(1, 0), Fault(1, 1)}
        assert len(faults) == 2
        assert Fault(1, 0) < Fault(1, 1) < Fault(2, 0)


class TestFullFaultList:
    def test_two_per_node(self, c17):
        faults = full_fault_list(c17)
        assert len(faults) == 2 * c17.num_nodes

    def test_obs_cells_excluded_by_default(self, c17):
        c17.insert_observation_point(c17.find("G11"))
        faults = full_fault_list(c17)
        assert len(faults) == 2 * (c17.num_nodes - 1)
        included = full_fault_list(c17, include_observation_cells=True)
        assert len(included) == 2 * c17.num_nodes


class TestCollapse:
    def test_buffer_chain_collapses_to_head(self):
        nl = Netlist()
        a = nl.add_input("a")
        b1 = nl.add_cell(GateType.BUF, (a,))
        b2 = nl.add_cell(GateType.BUF, (b1,))
        nl.mark_output(b2)
        collapsed = collapse_faults(nl)
        assert set(collapsed) == {Fault(a, 0), Fault(a, 1)}

    def test_inverter_flips_polarity(self):
        nl = Netlist()
        a = nl.add_input("a")
        inv = nl.add_cell(GateType.NOT, (a,))
        nl.mark_output(inv)
        collapsed = set(collapse_faults(nl))
        # inv/sa0 == a/sa1 and inv/sa1 == a/sa0: only the PI pair remains.
        assert collapsed == {Fault(a, 0), Fault(a, 1)}

    def test_fanout_stem_not_collapsed(self):
        nl = Netlist()
        a = nl.add_input("a")
        b = nl.add_cell(GateType.BUF, (a,))
        c = nl.add_cell(GateType.NOT, (a,))  # a now has two fanouts
        nl.mark_output(b)
        nl.mark_output(c)
        collapsed = set(collapse_faults(nl))
        # Buffer/inverter faults do NOT fold into the stem across a fanout.
        assert Fault(b, 0) in collapsed
        assert Fault(c, 0) in collapsed

    def test_collapse_reduces_on_generated(self, small_design):
        full = full_fault_list(small_design)
        collapsed = collapse_faults(small_design)
        assert len(collapsed) <= len(full)
        assert len(set(collapsed)) == len(collapsed)

    def test_collapse_of_explicit_list(self, c17):
        some = [Fault(c17.find("G10"), 0)]
        assert collapse_faults(c17, some) == some

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 500), cells=st.lists(_CHAIN_CELL, max_size=30))
    def test_matches_cell_by_cell_walk(self, seed, cells):
        """Same list, order included, as the oracle: list form and parsed,
        the full fault list and an explicit one in reverse."""
        built = with_chains(seed, cells)
        stream = io.StringIO()
        write_bench(built, stream)
        for netlist in (built, parse_bench(stream.getvalue())):
            faults = full_fault_list(netlist, include_observation_cells=True)[::-1]
            got = [collapse_faults(netlist), collapse_faults(netlist, faults)]
            expected = [
                reference_faults.collapse_faults(netlist),
                reference_faults.collapse_faults(netlist, faults),
            ]
            assert got == expected

    def test_not_of_not_keeps_polarity(self):
        nl = Netlist()
        a = nl.add_input("a")
        n1 = nl.add_cell(GateType.NOT, (a,))
        n2 = nl.add_cell(GateType.NOT, (n1,))
        nl.mark_output(n2)
        assert collapse_faults(nl, [Fault(n2, 0), Fault(n1, 0)]) == [Fault(a, 0), Fault(a, 1)]

    def test_a_buffer_loop_terminates(self):
        nl = Netlist()
        a = nl.add_input("a")
        b1 = nl.add_cell(GateType.BUF, (a,))
        b2 = nl.add_cell(GateType.NOT, (b1,))
        nl.replace_fanin(b1, a, b2)  # b1 -> b2 -> b1, no head
        assert len(collapse_faults(nl)) <= len(full_fault_list(nl))
