"""Fault diagnosis: the injected defect must rank at (or near) the top."""

import numpy as np
import pytest

from repro.atpg import (
    AtpgConfig,
    Fault,
    FailLog,
    collapse_faults,
    diagnose,
    run_atpg,
    simulate_fail_log,
)
from repro.circuit import generate_design


@pytest.fixture(scope="module")
def tested_design():
    netlist = generate_design(150, seed=83)
    atpg = run_atpg(netlist, config=AtpgConfig(seed=0))
    return netlist, atpg.patterns


class TestSimulateFailLog:
    def test_detected_fault_produces_failures(self, tested_design):
        netlist, patterns = tested_design
        fault = collapse_faults(netlist)[5]
        log = simulate_fail_log(netlist, patterns, fault)
        # The ATPG detected (almost) every collapsed fault, so the log of a
        # detected fault cannot be empty.
        assert log.n_patterns == patterns.shape[0]

    def test_sites_are_observation_sites(self, tested_design):
        netlist, patterns = tested_design
        fault = collapse_faults(netlist)[10]
        log = simulate_fail_log(netlist, patterns, fault)
        observed = set(netlist.observation_sites) | set(netlist.observation_points())
        for sites in log.failures.values():
            assert sites <= observed

    def test_fail_bits_round_trip(self):
        log = FailLog(n_patterns=4, failures={1: frozenset({7, 9})})
        assert log.fail_bits() == {(1, 7), (1, 9)}
        assert log.failing_patterns == [1]


class TestDiagnose:
    def test_injected_defect_ranks_first(self, tested_design):
        netlist, patterns = tested_design
        candidates = collapse_faults(netlist)
        hits = 0
        checked = 0
        for fault in candidates[::17]:
            log = simulate_fail_log(netlist, patterns, fault)
            if not log.fail_bits():
                continue  # undetected by this pattern set: nothing to diagnose
            checked += 1
            ranking = diagnose(netlist, patterns, log, top_k=5)
            assert ranking, f"no explanation found for {fault}"
            top_score = ranking[0].score
            best = {c.fault for c in ranking if c.score == top_score}
            if fault in best:
                hits += 1
        assert checked > 0
        # The defect is in the top-score equivalence set almost always
        # (perfect-score ties with equivalent faults are expected).
        assert hits / checked > 0.9

    def test_perfect_score_is_exact_reproduction(self, tested_design):
        netlist, patterns = tested_design
        fault = collapse_faults(netlist)[3]
        log = simulate_fail_log(netlist, patterns, fault)
        if not log.fail_bits():
            pytest.skip("fault not detected by this pattern set")
        ranking = diagnose(netlist, patterns, log, top_k=3)
        assert ranking[0].score == pytest.approx(1.0)

    def test_empty_log_returns_nothing(self, tested_design):
        netlist, patterns = tested_design
        empty = FailLog(n_patterns=patterns.shape[0])
        assert diagnose(netlist, patterns, empty) == []

    def test_top_k_respected(self, tested_design):
        netlist, patterns = tested_design
        fault = collapse_faults(netlist)[7]
        log = simulate_fail_log(netlist, patterns, fault)
        if not log.fail_bits():
            pytest.skip("fault not detected by this pattern set")
        assert len(diagnose(netlist, patterns, log, top_k=2)) <= 2

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_below_one_rejected(self, tested_design, top_k):
        netlist, patterns = tested_design
        log = simulate_fail_log(netlist, patterns, collapse_faults(netlist)[7])
        with pytest.raises(ValueError, match="top_k"):
            diagnose(netlist, patterns, log, top_k=top_k)

    def test_observation_point_sharpens_diagnosis(self):
        """OPs shrink the top-score equivalence class (ref [25]'s point)."""
        netlist = generate_design(120, seed=89)
        atpg = run_atpg(netlist, config=AtpgConfig(seed=1))
        candidates = collapse_faults(netlist)

        def ambiguity(nl, patterns):
            total, ties = 0, 0
            for fault in candidates[::11]:
                log = simulate_fail_log(nl, patterns, fault)
                if not log.fail_bits():
                    continue
                ranking = diagnose(nl, patterns, log, candidates=candidates, top_k=10)
                if not ranking:
                    continue
                top = ranking[0].score
                ties += sum(1 for c in ranking if c.score == top)
                total += 1
            return ties / total if total else float("inf")

        base = ambiguity(netlist, atpg.patterns)
        improved = netlist.copy()
        from repro.testability import compute_scoap

        worst = np.argsort(compute_scoap(netlist).co)[-8:]
        for v in worst:
            improved.insert_observation_point(int(v))
        atpg2 = run_atpg(improved, faults=candidates, config=AtpgConfig(seed=1))
        sharpened = ambiguity(improved, atpg2.patterns)
        assert sharpened <= base + 0.2
