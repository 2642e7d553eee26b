"""The array view of a netlist: content, memoisation, invalidation."""

import io

import numpy as np
import pytest

from repro.circuit import GateType, Netlist, generate_design, parse_bench, write_bench
from repro.circuit.structure import csr_to_rows, expand_rows, rows_to_csr
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
        fingerprint = c17.fingerprint()
        mutate(c17)
        assert c17.structure() is not before
        assert_mirrors_lists(c17)
        if c17.structure().fanin_idx.tolist() != before.fanin_idx.tolist():
            assert c17.fingerprint() != fingerprint

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
