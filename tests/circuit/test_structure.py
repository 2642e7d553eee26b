"""The array view of a netlist: content, memoisation, invalidation."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import GateType, Netlist, generate_design, parse_bench, write_bench
from repro.circuit.structure import csr_to_rows, expand_rows, rows_to_csr, sorted_unique
from tests.circuit import reference_frontend as reference


def assert_mirrors_lists(netlist: Netlist) -> None:
    view = netlist.structure()
    assert view.types.tolist() == [int(netlist.gate_type(v)) for v in netlist.nodes()]
    assert csr_to_rows(view.fanin_ptr, view.fanin_idx) == [netlist.fanins(v) for v in netlist.nodes()]
    assert csr_to_rows(view.fanout_ptr, view.fanout_idx) == [netlist.fanouts(v) for v in netlist.nodes()]
    drivers, sinks = reference.edge_arrays(netlist)
    assert np.array_equal(view.fanin_idx, drivers)
    assert np.array_equal(view.pin_sinks(), sinks)


class TestContent:
    @pytest.mark.parametrize("name", sorted(reference.hand_built_designs()))
    def test_hand_built(self, name):
        assert_mirrors_lists(reference.hand_built_designs()[name])

    def test_empty_netlist(self):
        view = Netlist().structure()
        assert view.num_nodes == 0 and view.fanin_ptr.tolist() == [0]

    def test_parser_installs_the_view_it_built(self):
        stream = io.StringIO()
        write_bench(generate_design(200, seed=9), stream)
        parsed = parse_bench(stream.getvalue())
        installed = parsed.structure()
        parsed.note_external_mutation()
        rebuilt = parsed.structure()
        assert rebuilt is not installed
        for field in ("types", "fanin_ptr", "fanin_idx", "fanout_ptr", "fanout_idx"):
            assert np.array_equal(getattr(installed, field), getattr(rebuilt, field)), field

    def test_scan_captured(self):
        design = reference.hand_built_designs()["observation_cells"]
        captured = set(design.structure().scan_captured().tolist())
        assert captured == set(design.observation_sites) - set(design.primary_outputs)


class TestDisjointUnion:
    """``Netlist.disjoint_union``: the members side by side, ids shifted."""

    @settings(max_examples=30, deadline=None)
    @given(
        draws=st.lists(
            st.tuples(st.sampled_from(reference.MEMBER_KINDS), st.integers(0, 10**4)),
            min_size=1,
            max_size=5,
        )
    )
    def test_members_side_by_side(self, draws):
        members = [reference.union_member(kind, seed) for kind, seed in draws]
        union = Netlist.disjoint_union(members)
        assert union._loaded is not None  # array form, like a parsed netlist
        view = union.structure()
        fanins, fanouts = (csr_to_rows(view.fanin_ptr, view.fanin_idx),
                           csr_to_rows(view.fanout_ptr, view.fanout_idx))
        outputs, offset = [], 0
        for member in members:
            ids = range(offset, offset + member.num_nodes)
            shift = [[u + offset for u in row] for row in (member.fanins(v) for v in member.nodes())]
            assert [fanins[v] for v in ids] == shift
            shift = [[u + offset for u in row] for row in (member.fanouts(v) for v in member.nodes())]
            assert [fanouts[v] for v in ids] == shift
            assert view.types[offset:offset + member.num_nodes].tolist() == [
                int(member.gate_type(v)) for v in member.nodes()
            ]
            outputs += [v + offset for v in member.primary_outputs]
            offset += member.num_nodes
        assert union.num_nodes == offset
        assert union.primary_outputs == outputs
        assert_mirrors_lists(union)


class TestMemoisation:
    def test_same_object_until_mutated(self, c17):
        assert c17.structure() is c17.structure()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda nl: nl.add_cell(GateType.NOT, (0,)),
            lambda nl: nl.replace_fanin(nl.find("G22"), nl.find("G10"), nl.find("G1")),
            lambda nl: nl.insert_observation_point(nl.find("G11")),
            lambda nl: nl.note_external_mutation(),
        ],
        ids=["add_cell", "replace_fanin", "insert_observation_point", "note_external_mutation"],
    )
    def test_invalidated_by(self, c17, mutate):
        before = c17.structure()
        digest = reference.structure_digest(c17)
        mutate(c17)
        assert c17.structure() is not before
        assert_mirrors_lists(c17)
        if c17.structure().fanin_idx.tolist() != before.fanin_idx.tolist():
            assert reference.structure_digest(c17) != digest

    def test_copy_shares_the_view_but_not_its_fate(self, c17):
        view = c17.structure()
        dup = c17.copy()
        assert dup.structure() is view
        dup.add_cell(GateType.NOT, (0,))
        assert c17.structure() is view
        assert dup.structure().num_nodes == view.num_nodes + 1


class TestCsrHelpers:
    def test_round_trip(self):
        rows = [[3, 1], [], [2, 2, 2], []]
        ptr, idx = rows_to_csr(rows)
        assert ptr.tolist() == [0, 2, 2, 5, 5]
        assert csr_to_rows(ptr, idx) == rows

    def test_expand_rows(self):
        ptr, idx = rows_to_csr([[10, 11], [], [12], [13, 14, 15]])
        positions, counts = expand_rows(ptr, np.array([3, 1, 0]))
        assert idx[positions].tolist() == [13, 14, 15, 10, 11]
        assert counts.tolist() == [3, 0, 2]
        positions, counts = expand_rows(ptr, np.array([], dtype=np.int64))
        assert len(positions) == 0 and len(counts) == 0

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.integers(-(2**62), 2**62), max_size=300), small=st.booleans())
    def test_sorted_unique_is_np_unique(self, values, small):
        a = np.array(values, dtype=np.int64)
        if small:
            a %= 7  # mostly repeats
        expected = np.unique(a)
        got = sorted_unique(a)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)

    @pytest.mark.parametrize("a", [[], [5], np.array([], dtype=np.int64), np.array([4])])
    def test_sorted_unique_empty_and_single(self, a):
        expected = np.unique(a)
        got = sorted_unique(a)
        assert got.dtype == expected.dtype and got.tolist() == expected.tolist()

    def test_sorted_unique_leaves_its_input_alone(self):
        a = np.array([3, 1, 3])
        sorted_unique(a)
        assert a.tolist() == [3, 1, 3]
