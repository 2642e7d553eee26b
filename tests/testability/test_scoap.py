"""SCOAP: hand-computed values on canonical circuits, invariants."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import GateType, Netlist, generate_design, parse_bench, write_bench
from repro.testability.scoap import SCOAP_INF, compute_scoap
from tests.circuit import reference_frontend as reference
from tests.testability import reference_scoap


class TestControllability:
    def test_pi_is_one(self, c17):
        scoap = compute_scoap(c17)
        for v in c17.primary_inputs:
            assert scoap.cc0[v] == 1.0
            assert scoap.cc1[v] == 1.0

    def test_and_chain_hand_values(self, and_chain):
        scoap = compute_scoap(and_chain)
        g1 = and_chain.find("g1")
        # AND: CC1 = CC1(a)+CC1(b)+1 = 3; CC0 = min(CC0)+1 = 2
        assert scoap.cc1[g1] == 3.0
        assert scoap.cc0[g1] == 2.0
        g3 = and_chain.find("g3")
        # g2: CC1 = 3+1+1 = 5, CC0 = 2; g3: CC1 = 5+1+1 = 7, CC0 = 2
        assert scoap.cc1[g3] == 7.0
        assert scoap.cc0[g3] == 2.0

    def test_nand_hand_values(self, c17):
        scoap = compute_scoap(c17)
        g10 = c17.find("G10")
        # NAND: CC0 = sum(CC1)+1 = 3; CC1 = min(CC0)+1 = 2
        assert scoap.cc0[g10] == 3.0
        assert scoap.cc1[g10] == 2.0

    def test_not_swaps(self):
        nl = Netlist()
        a = nl.add_input("a")
        g = nl.add_cell(GateType.AND, (a, a))  # cc0=2, cc1=3
        inv = nl.add_cell(GateType.NOT, (g,))
        nl.mark_output(inv)
        scoap = compute_scoap(nl)
        assert scoap.cc0[inv] == scoap.cc1[g] + 1
        assert scoap.cc1[inv] == scoap.cc0[g] + 1

    def test_xor_dp(self, xor_pair):
        scoap = compute_scoap(xor_pair)
        x1 = xor_pair.find("x1")
        # XOR(a,b): CC0 = min(1+1, 1+1)+1 = 3; CC1 = min(1+1, 1+1)+1 = 3
        assert scoap.cc0[x1] == 3.0
        assert scoap.cc1[x1] == 3.0

    def test_constants(self):
        nl = Netlist()
        c0 = nl.add_cell(GateType.CONST0, ())
        a = nl.add_input("a")
        g = nl.add_cell(GateType.OR, (c0, a))
        nl.mark_output(g)
        scoap = compute_scoap(nl)
        assert scoap.cc0[c0] == 1.0
        assert scoap.cc1[c0] == SCOAP_INF

    def test_dff_scan_controllable(self):
        nl = Netlist()
        a = nl.add_input("a")
        d = nl.add_cell(GateType.DFF, (a,))
        g = nl.add_cell(GateType.BUF, (d,))
        nl.mark_output(g)
        scoap = compute_scoap(nl)
        assert scoap.cc0[d] == scoap.cc1[d] == 1.0


class TestObservability:
    def test_po_is_zero(self, c17):
        scoap = compute_scoap(c17)
        for po in c17.primary_outputs:
            assert scoap.co[po] == 0.0

    def test_and_chain_hand_values(self, and_chain):
        scoap = compute_scoap(and_chain)
        # CO(g2) = CO(g3) + CC1(d) + 1 = 0 + 1 + 1 = 2
        assert scoap.co[and_chain.find("g2")] == 2.0
        # CO(g1) = CO(g2) + CC1(c) + 1 = 4
        assert scoap.co[and_chain.find("g1")] == 4.0
        # CO(a) = CO(g1) + CC1(b) + 1 = 6
        assert scoap.co[and_chain.find("a")] == 6.0

    def test_min_over_branches(self, c17):
        scoap = compute_scoap(c17)
        g11 = c17.find("G11")
        # G11 feeds G16 and G19; CO = min over the two branch costs.
        g16, g19 = c17.find("G16"), c17.find("G19")
        co16 = scoap.co[g16] + scoap.cc0[c17.find("G2")] + 1
        co19 = scoap.co[g19] + scoap.cc0[c17.find("G7")] + 1
        assert scoap.co[g11] == min(co16, co19)

    def test_dangling_node_unobservable(self):
        nl = Netlist()
        a = nl.add_input("a")
        g = nl.add_cell(GateType.NOT, (a,), "dangling")
        h = nl.add_cell(GateType.BUF, (a,))
        nl.mark_output(h)
        scoap = compute_scoap(nl)
        assert scoap.co[g] == SCOAP_INF

    def test_dff_data_input_observable(self):
        nl = Netlist()
        a = nl.add_input("a")
        g = nl.add_cell(GateType.NOT, (a,))
        nl.add_cell(GateType.DFF, (g,))
        scoap = compute_scoap(nl)
        assert scoap.co[g] == 0.0

    def test_observation_point_zeroes_target(self, and_chain):
        g1 = and_chain.find("g1")
        before = compute_scoap(and_chain).co[g1]
        and_chain.insert_observation_point(g1)
        after = compute_scoap(and_chain).co[g1]
        assert before > 0.0
        assert after == 0.0

    def test_xor_observability_uses_min_cc(self, xor_pair):
        scoap = compute_scoap(xor_pair)
        x1 = xor_pair.find("x1")
        c = xor_pair.find("c")
        # CO(x1) = CO(x2) + min(CC0(c), CC1(c)) + 1 = 0 + 1 + 1
        assert scoap.co[x1] == 2.0


class TestInvariants:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_property_all_finite_positive(self, seed):
        nl = generate_design(100, seed=seed)
        scoap = compute_scoap(nl)
        assert (scoap.cc0 >= 1.0).all()
        assert (scoap.cc1 >= 1.0).all()
        assert (scoap.co >= 0.0).all()
        assert (scoap.cc0 <= SCOAP_INF).all()

    def test_as_matrix_shape(self, c17):
        matrix = compute_scoap(c17).as_matrix()
        assert matrix.shape == (c17.num_nodes, 3)


class TestBatchedSweepAgrees:
    """The level-batched sweep against the node-by-node oracle, bit for bit."""

    @staticmethod
    def check(netlist):
        expected = reference_scoap.compute_scoap(netlist, reference.topological_order(netlist))
        batched = compute_scoap(netlist)
        for name in ("cc0", "cc1", "co"):
            got, want = getattr(batched, name), getattr(expected, name)
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got, want), name
        return expected

    @pytest.mark.parametrize("name", sorted(reference.hand_built_designs()))
    def test_hand_built(self, name):
        self.check(reference.hand_built_designs()[name])

    def test_saturation_is_reached(self):
        scoap = self.check(reference.hand_built_designs()["saturation"])
        assert (scoap.cc1 == SCOAP_INF).sum() >= 3  # tie cell and both clamped gates
        assert scoap.co.max() == SCOAP_INF

    def test_wide_parity_hand_values(self):
        # x3 = XOR(cheap0 [2, 4], cheap1 [4, 2], pi [1, 1]): the cheapest
        # assignment (0, 1, either) costs 5 for both parities.
        design = reference.hand_built_designs()["wide_parity"]
        scoap = self.check(design)
        assert (scoap.cc0[5], scoap.cc1[5]) == (6.0, 6.0)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**6), n_gates=st.integers(0, 150))
    def test_random_designs(self, seed, n_gates):
        self.check(reference.random_netlist(seed, n_gates))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000), gates=st.integers(20, 900))
    def test_generated_designs(self, seed, gates):
        self.check(generate_design(gates, seed=seed))

    def test_compute_scoap_on_a_parsed_design(self):
        # Array form end to end: the structure comes from the parser, not lists.
        stream = io.StringIO()
        write_bench(generate_design(300, seed=5), stream)
        self.check(parse_bench(stream.getvalue()))
