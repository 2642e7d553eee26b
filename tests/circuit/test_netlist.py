"""Netlist container: construction, arity checks, mutation, copying."""

import pytest

from repro.circuit import GateType, Netlist
from tests.circuit.reference_frontend import structure_digest


class TestConstruction:
    def test_add_input_and_gate(self):
        nl = Netlist()
        a = nl.add_input("a")
        b = nl.add_input("b")
        g = nl.add_cell(GateType.AND, (a, b), "g")
        assert nl.num_nodes == 3
        assert nl.num_edges == 2
        assert nl.gate_type(g) is GateType.AND
        assert nl.fanins(g) == [a, b]
        assert nl.fanouts(a) == [g]

    def test_ids_are_dense_and_ordered(self):
        nl = Netlist()
        ids = [nl.add_input() for _ in range(5)]
        assert ids == list(range(5))

    @pytest.mark.parametrize(
        "gate,fanins",
        [
            (GateType.INPUT, (0,)),
            (GateType.NOT, ()),
            (GateType.NOT, (0, 0)),
            (GateType.AND, (0,)),
            (GateType.DFF, ()),
        ],
    )
    def test_arity_violations(self, gate, fanins):
        nl = Netlist()
        nl.add_input("a")
        with pytest.raises(ValueError):
            nl.add_cell(gate, fanins)

    def test_dangling_fanin_rejected(self):
        nl = Netlist()
        nl.add_input("a")
        with pytest.raises(ValueError):
            nl.add_cell(GateType.NOT, (7,))

    def test_duplicate_name_rejected(self):
        nl = Netlist()
        nl.add_input("x")
        with pytest.raises(ValueError):
            nl.add_input("x")

    def test_find_by_name(self):
        nl = Netlist()
        a = nl.add_input("a")
        assert nl.find("a") == a
        with pytest.raises(KeyError):
            nl.find("missing")

    def test_default_cell_name(self):
        nl = Netlist()
        a = nl.add_input()
        assert nl.cell_name(a) == f"n{a}"


class TestOutputsAndObservation:
    def test_mark_output_idempotent(self):
        nl = Netlist()
        a = nl.add_input("a")
        nl.mark_output(a)
        nl.mark_output(a)
        assert nl.primary_outputs == [a]

    def test_mark_output_validates(self):
        nl = Netlist()
        with pytest.raises(ValueError):
            nl.mark_output(0)

    def test_observation_sites_include_dff_data(self):
        nl = Netlist()
        a = nl.add_input("a")
        g = nl.add_cell(GateType.NOT, (a,))
        nl.add_cell(GateType.DFF, (g,))
        assert g in nl.observation_sites
        assert a not in nl.observation_sites

    def test_observation_point_insertion(self):
        nl = Netlist()
        a = nl.add_input("a")
        g = nl.add_cell(GateType.NOT, (a,))
        nl.mark_output(g)
        p = nl.insert_observation_point(a)
        assert nl.gate_type(p) is GateType.OBS
        assert nl.observation_points() == [p]
        assert a in nl.observation_sites

    def test_observation_point_on_obs_rejected(self):
        nl = Netlist()
        a = nl.add_input("a")
        g = nl.add_cell(GateType.NOT, (a,))
        nl.mark_output(g)
        p = nl.insert_observation_point(a)
        with pytest.raises(ValueError, match="already an observation"):
            nl.insert_observation_point(p)

    def test_sources_include_dff_outputs(self):
        nl = Netlist()
        a = nl.add_input("a")
        d = nl.add_cell(GateType.DFF, (a,))
        assert set(nl.sources) == {a, d}
        assert nl.primary_inputs == [a]


class TestCopyAndIteration:
    def test_copy_is_deep(self, c17):
        dup = c17.copy()
        dup.add_input("new_pi")
        dup.mark_output(0)
        assert dup.num_nodes == c17.num_nodes + 1
        assert not c17.is_output(0)

    def test_iter_edges_matches_counts(self, c17):
        edges = list(c17.iter_edges())
        assert len(edges) == c17.num_edges
        for driver, sink in edges:
            assert driver in c17.fanins(sink)

    def test_type_counts(self, c17):
        counts = c17.type_counts()
        assert counts["INPUT"] == 5
        assert counts["NAND"] == 6

    def test_repr_mentions_sizes(self, c17):
        text = repr(c17)
        assert "nodes=11" in text and "edges=12" in text


class TestFingerprint:
    def test_structural_identity_ignores_names(self):
        a, b = Netlist("a"), Netlist("b")
        for nl, prefix in ((a, "x"), (b, "y")):
            i1 = nl.add_input(f"{prefix}1")
            i2 = nl.add_input(f"{prefix}2")
            nl.mark_output(nl.add_cell(GateType.AND, (i1, i2)))
        assert structure_digest(a) == structure_digest(b)

    def test_mutations_change_fingerprint(self):
        nl = Netlist()
        i1, i2 = nl.add_input(), nl.add_input()
        g = nl.add_cell(GateType.AND, (i1, i2))
        fp0 = structure_digest(nl)
        nl.mark_output(g)
        fp1 = structure_digest(nl)
        assert fp1 != fp0
        nl.insert_observation_point(i1)
        assert structure_digest(nl) != fp1

    def test_fingerprint_memoised_until_mutation(self):
        nl = Netlist()
        i1 = nl.add_input()
        nl.mark_output(nl.add_cell(GateType.NOT, (i1,)))
        v0 = nl.mutation_count
        assert structure_digest(nl) == structure_digest(nl)
        assert nl.mutation_count == v0  # reading the structure never mutates
        nl.note_external_mutation()
        assert nl.mutation_count == v0 + 1

    def test_copy_shares_fingerprint(self):
        nl = Netlist()
        i1, i2 = nl.add_input(), nl.add_input()
        nl.mark_output(nl.add_cell(GateType.OR, (i1, i2)))
        assert structure_digest(nl.copy()) == structure_digest(nl)


class TestLateWiringAndUndo:
    def test_flop_created_before_its_data_cone(self):
        nl = Netlist()
        q = nl.add_flop("q")
        assert nl.gate_type(q) is GateType.DFF
        assert nl.fanins(q) == [q] and nl.fanouts(q) == [q]  # legal as it stands
        a = nl.add_input("a")
        g = nl.add_cell(GateType.NAND, (a, q), "g")
        nl.replace_fanin(q, q, g)
        assert nl.fanins(q) == [g] and nl.fanouts(q) == [g] and nl.fanouts(g) == [q]
        assert nl.observation_sites == [g]

    def test_remove_last_cell_undoes_add_cell(self, c17):
        before = c17.copy()
        digest, version = structure_digest(c17), c17.mutation_count
        g10, g16 = c17.find("G10"), c17.find("G16")
        extra = c17.add_cell(GateType.XOR, (g10, g16, g10), "extra")
        c17.replace_fanin(c17.find("G22"), g10, g16)  # extra is no longer last in G10's row
        c17.replace_fanin(c17.find("G22"), g16, g10)
        c17.mark_output(extra)
        c17.remove_last_cell()
        assert c17.num_nodes == before.num_nodes and not c17.is_output(extra)
        assert sorted(c17.fanouts(g10)) == sorted(before.fanouts(g10))
        assert sorted(c17.fanouts(g16)) == sorted(before.fanouts(g16))
        assert structure_digest(c17) == digest and c17.mutation_count > version
        with pytest.raises(KeyError):
            c17.find("extra")
        c17.add_cell(GateType.NOT, (g10,), "extra")  # the name is free again

    def test_remove_last_cell_refuses_a_driver(self):
        nl = Netlist()
        with pytest.raises(ValueError, match="newest cell"):
            nl.remove_last_cell()
        a = nl.add_input("a")
        nl.add_cell(GateType.NOT, (a,))
        nl.remove_last_cell()
        nl.add_flop()
        with pytest.raises(ValueError, match="still drives"):
            nl.remove_last_cell()  # the flop drives its own data pin
