"""Bit-parallel simulator vs the scalar oracle, packing helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.simulator import (
    LogicSimulator,
    pack_patterns,
    popcount_words,
    random_pattern_words,
    tail_mask,
    unpack_values,
)
from repro.circuit import GateType, Netlist, generate_design
from tests.helpers import scalar_simulate


class TestPacking:
    def test_pack_unpack_round_trip(self, rng):
        patterns = rng.integers(0, 2, size=(100, 7)).astype(np.uint8)
        words = pack_patterns(patterns)
        assert words.shape == (7, 2)
        assert np.array_equal(unpack_values(words, 100), patterns)

    def test_pack_rejects_1d(self):
        with pytest.raises(ValueError):
            pack_patterns(np.zeros(5))

    def test_tail_mask(self):
        masks = tail_mask(70)
        assert masks.shape == (2,)
        assert masks[0] == np.uint64(0xFFFFFFFFFFFFFFFF)
        assert masks[1] == np.uint64((1 << 6) - 1)

    def test_tail_mask_exact_multiple(self):
        masks = tail_mask(128)
        assert (masks == np.uint64(0xFFFFFFFFFFFFFFFF)).all()

    def test_popcount(self):
        words = np.array([[np.uint64(0b1011)], [np.uint64(0)]])
        assert popcount_words(words) == 3


class TestSimulate:
    def test_matches_scalar_oracle_c17(self, c17, rng):
        sim = LogicSimulator(c17)
        words = sim.random_source_words(1, rng)
        values = sim.simulate(words)
        bits = unpack_values(values, 64)
        src = unpack_values(words, 64)
        for p in range(0, 64, 7):
            ref = scalar_simulate(
                c17, {s: int(src[p][i]) for i, s in enumerate(c17.sources)}
            )
            for v in c17.nodes():
                assert int(bits[p][v]) == ref[v]

    def test_wrong_source_shape_rejected(self, c17):
        sim = LogicSimulator(c17)
        with pytest.raises(ValueError):
            sim.simulate(np.zeros((3, 1), dtype=np.uint64))

    def test_constants(self):
        nl = Netlist()
        a = nl.add_input("a")
        c0 = nl.add_cell(GateType.CONST0, ())
        c1 = nl.add_cell(GateType.CONST1, ())
        g = nl.add_cell(GateType.AND, (a, c1))
        h = nl.add_cell(GateType.OR, (g, c0))
        nl.mark_output(h)
        sim = LogicSimulator(nl)
        words = np.array([[np.uint64(0xDEADBEEF)]])
        values = sim.simulate(words)
        assert values[c0][0] == 0
        assert values[c1][0] == np.uint64(0xFFFFFFFFFFFFFFFF)
        assert values[h][0] == words[0][0]

    def test_dff_output_is_source(self):
        nl = Netlist()
        a = nl.add_input("a")
        d = nl.add_cell(GateType.DFF, (a,))
        g = nl.add_cell(GateType.XOR, (a, d))
        nl.mark_output(g)
        sim = LogicSimulator(nl)
        words = np.array([[np.uint64(0b1100)], [np.uint64(0b1010)]])
        values = sim.simulate(words)
        assert values[g][0] == np.uint64(0b0110)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_random_designs_match_oracle(self, seed):
        nl = generate_design(80, seed=seed)
        sim = LogicSimulator(nl)
        rng = np.random.default_rng(seed)
        words = sim.random_source_words(1, rng)
        values = sim.simulate(words)
        bits = unpack_values(values, 64)
        src = unpack_values(words, 64)
        p = int(rng.integers(0, 64))
        ref = scalar_simulate(
            nl, {s: int(src[p][i]) for i, s in enumerate(nl.sources)}
        )
        assert all(int(bits[p][v]) == ref[v] for v in nl.nodes())

    def test_array_form_netlist_stays_arrays(self, rng):
        # The schedule and the cone sweep read ``structure()`` only.
        nl = generate_design(200, seed=4)
        view = nl.structure()
        sim = LogicSimulator(nl)
        sim.simulate(sim.random_source_words(1, rng))
        sim.forward_union(sim.source_ids)
        assert nl.structure() is view


class TestConeAndEval:
    def test_forward_cone_topo_sorted(self, medium_design):
        sim = LogicSimulator(medium_design)
        cone = sim.forward_cone(0)
        levels = sim.levels
        assert all(levels[cone[i]] <= levels[cone[i + 1]] for i in range(len(cone) - 1))

    def test_forward_cone_excludes_start(self, c17):
        sim = LogicSimulator(c17)
        g11 = c17.find("G11")
        cone = sim.forward_cone(g11)
        assert g11 not in cone
        assert c17.find("G16") in cone
        assert c17.find("G23") in cone
        assert c17.find("G10") not in cone

    def test_forward_cone_stops_at_dff(self):
        nl = Netlist()
        a = nl.add_input("a")
        g = nl.add_cell(GateType.NOT, (a,))
        d = nl.add_cell(GateType.DFF, (g,))
        h = nl.add_cell(GateType.NOT, (d,))
        nl.mark_output(h)
        sim = LogicSimulator(nl)
        assert sim.forward_cone(a) == [g]

    def test_eval_node_matches_simulate(self, c17, rng):
        sim = LogicSimulator(c17)
        values = sim.simulate(sim.random_source_words(2, rng))
        for v in c17.nodes():
            if c17.gate_type(v) is GateType.INPUT:
                continue
            assert np.array_equal(sim.eval_node(v, values), values[v])
