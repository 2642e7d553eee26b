"""Fault simulation vs exhaustive scalar fault injection."""

import numpy as np
import pytest

from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import Fault, full_fault_list
from repro.atpg.simulator import pack_patterns
from repro.circuit import GateType, Netlist, generate_design
from tests.helpers import exhaustive_fault_detection, scalar_simulate


def all_patterns(netlist):
    """Every input combination as a packed batch (small circuits only)."""
    n = len(netlist.sources)
    patterns = np.array(
        [[(p >> i) & 1 for i in range(n)] for p in range(2**n)], dtype=np.uint8
    )
    return pack_patterns(patterns), 2**n


class TestDetectionMask:
    @pytest.mark.parametrize("fixture", ["c17", "mux2", "xor_pair", "reconvergent"])
    def test_matches_exhaustive_oracle(self, fixture, request):
        nl = request.getfixturevalue(fixture)
        words, n_patterns = all_patterns(nl)
        fsim = FaultSimulator(nl)
        values = fsim.good_values(words)
        src_order = {s: i for i, s in enumerate(nl.sources)}
        faults = full_fault_list(nl)
        for fault, mask in zip(faults, fsim.detection_masks(faults, values)):
            for p in range(n_patterns):
                bits = {s: (p >> src_order[s]) & 1 for s in nl.sources}
                good = scalar_simulate(nl, bits)
                detected_ref = False
                if good[fault.node] != fault.stuck_value:
                    from tests.helpers import _faulty_simulate

                    faulty = _faulty_simulate(nl, bits, fault.node, fault.stuck_value)
                    observed = set(nl.observation_sites) | set(
                        nl.observation_points()
                    )
                    detected_ref = any(good[o] != faulty[o] for o in observed)
                got = bool((mask[p // 64] >> np.uint64(p % 64)) & np.uint64(1))
                assert got == detected_ref, f"{fault} pattern {p}"

    def test_unactivated_fault_never_detected(self):
        nl = Netlist()
        a = nl.add_input("a")
        c1 = nl.add_cell(GateType.CONST1, ())
        g = nl.add_cell(GateType.AND, (a, c1))
        nl.mark_output(g)
        fsim = FaultSimulator(nl)
        words, n = all_patterns(nl)
        values = fsim.good_values(words)
        # c1 stuck at 1 is never activated (line already 1).
        assert not fsim.detection_masks([Fault(c1, 1)], values).any()


class TestSimulateBatch:
    def test_detecting_pattern_indices_valid(self, c17, rng):
        fsim = FaultSimulator(c17)
        words = fsim.simulator.random_source_words(1, rng)
        result = fsim.simulate_batch(full_fault_list(c17), words, n_patterns=40)
        for fault, p in result.detecting_pattern.items():
            assert 0 <= p < 40
            assert fault in result.detected

    def test_tail_patterns_ignored(self, c17, rng):
        fsim = FaultSimulator(c17)
        words = fsim.simulator.random_source_words(1, rng)
        full = fsim.simulate_batch(full_fault_list(c17), words, n_patterns=64)
        one = fsim.simulate_batch(full_fault_list(c17), words, n_patterns=1)
        assert len(one.detected) <= len(full.detected)

    @pytest.mark.parametrize("n_patterns", [0, -1, 65])
    def test_pattern_count_outside_the_words_is_refused(self, c17, rng, n_patterns):
        fsim = FaultSimulator(c17)
        words = fsim.simulator.random_source_words(1, rng)
        with pytest.raises(ValueError, match=r"n_patterns must be in 1\.\.64 "):
            fsim.simulate_batch(full_fault_list(c17), words, n_patterns=n_patterns)

    def test_detection_consistent_with_exhaustive(self, mux2):
        # With ALL patterns, detected set == set of detectable faults.
        words, n = all_patterns(mux2)
        fsim = FaultSimulator(mux2)
        result = fsim.simulate_batch(full_fault_list(mux2), words, n_patterns=n)
        detected = set(result.detected)
        for fault in full_fault_list(mux2):
            expected = exhaustive_fault_detection(mux2, fault.node, fault.stuck_value)
            assert (fault in detected) == expected


class TestFaultCoverage:
    def test_coverage_increases_with_patterns(self, small_design, rng):
        fsim = FaultSimulator(small_design)
        faults = full_fault_list(small_design)
        one = [fsim.simulator.random_source_words(1, np.random.default_rng(1))]
        many = one + [
            fsim.simulator.random_source_words(1, np.random.default_rng(k))
            for k in range(2, 6)
        ]
        cov_one, _ = fsim.fault_coverage(faults, one)
        cov_many, _ = fsim.fault_coverage(faults, many)
        assert cov_many >= cov_one > 0.2

    def test_empty_fault_list(self, c17, rng):
        fsim = FaultSimulator(c17)
        cov, rest = fsim.fault_coverage([], [fsim.simulator.random_source_words(1, rng)])
        assert cov == 1.0 and rest == []

    def test_observation_point_improves_coverage(self, rng):
        nl = generate_design(200, seed=13)
        faults = full_fault_list(nl)
        batches = [
            np.random.default_rng(7).integers(
                0, 2**64, size=(len(nl.sources), 2), dtype=np.uint64
            )
        ]
        cov_before, undetected = FaultSimulator(nl).fault_coverage(faults, batches)
        if not undetected:
            pytest.skip("design fully covered by the batch already")
        # Observe every undetected fault site directly.
        improved = nl.copy()
        for fault in undetected:
            improved.insert_observation_point(fault.node)
        batches2 = [
            np.random.default_rng(7).integers(
                0, 2**64, size=(len(improved.sources), 2), dtype=np.uint64
            )
        ]
        cov_after, _ = FaultSimulator(improved).fault_coverage(faults, batches2)
        assert cov_after > cov_before
