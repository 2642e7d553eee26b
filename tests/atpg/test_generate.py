"""The two-phase ATPG driver and its compaction."""

import numpy as np
import pytest

from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import collapse_faults, full_fault_list
from repro.atpg.generate import AtpgConfig, AtpgResult, run_atpg
from repro.atpg.simulator import pack_patterns
from repro.circuit import generate_design
from repro.resilience.errors import ConfigError


class TestRunAtpg:
    def test_c17_full_coverage(self, c17):
        result = run_atpg(c17, config=AtpgConfig(seed=0))
        assert result.fault_coverage == 1.0
        assert result.pattern_count >= 1
        assert result.untestable == 0

    def test_patterns_actually_achieve_reported_coverage(self, c17):
        result = run_atpg(c17, config=AtpgConfig(seed=0))
        fsim = FaultSimulator(c17)
        faults = [
            f
            for f in collapse_faults(c17)
            if f not in set(result.untestable_faults)
        ]
        cov, _ = fsim.fault_coverage(faults, [pack_patterns(result.patterns)])
        assert cov >= result.fault_coverage - 1e-9

    def test_small_generated_design(self, small_design):
        result = run_atpg(small_design, config=AtpgConfig(seed=1))
        assert 0.9 < result.fault_coverage <= 1.0
        assert result.detected + len([]) <= result.n_faults

    def test_compaction_never_loses_coverage(self, small_design):
        compacted = run_atpg(
            small_design, config=AtpgConfig(seed=3, compaction=True)
        )
        raw = run_atpg(small_design, config=AtpgConfig(seed=3, compaction=False))
        assert compacted.fault_coverage == pytest.approx(raw.fault_coverage)
        assert compacted.pattern_count <= raw.pattern_count
        # Verify by re-simulation over the detectable fault universe.
        fsim = FaultSimulator(small_design)
        excluded = set(compacted.untestable_faults) | set(
            compacted.undetected_faults
        )
        faults = [f for f in collapse_faults(small_design) if f not in excluded]
        cov, _ = fsim.fault_coverage(faults, [pack_patterns(compacted.patterns)])
        assert cov == pytest.approx(1.0)

    def test_explicit_fault_list_respected(self, c17):
        faults = collapse_faults(c17)[:4]
        result = run_atpg(c17, faults=faults, config=AtpgConfig(seed=0))
        assert result.n_faults == 4

    def test_result_counters_consistent(self, small_design):
        r = run_atpg(small_design, config=AtpgConfig(seed=5))
        detectable = r.n_faults - r.untestable
        assert 0 <= r.detected <= detectable
        assert r.fault_coverage == pytest.approx(
            r.detected / detectable if detectable else 1.0
        )

    def test_deterministic_for_seed(self, c17):
        a = run_atpg(c17, config=AtpgConfig(seed=9))
        b = run_atpg(c17, config=AtpgConfig(seed=9))
        assert a.pattern_count == b.pattern_count
        assert np.array_equal(a.patterns, b.patterns)

    def test_observation_points_reduce_pattern_count_or_equal(self):
        # Observing internal funnels should not make testing harder.
        nl = generate_design(250, seed=17)
        base = run_atpg(nl, config=AtpgConfig(seed=2))
        improved = nl.copy()
        # observe the 10 least-observable nodes
        from repro.testability import compute_scoap

        worst = np.argsort(compute_scoap(nl).co)[-10:]
        for v in worst:
            improved.insert_observation_point(int(v))
        better = run_atpg(improved, faults=collapse_faults(nl), config=AtpgConfig(seed=2))
        assert better.fault_coverage >= base.fault_coverage - 0.02


class TestAtpgConfigChecks:
    """Values ``run_atpg`` cannot run are refused at construction: a
    negative backtrack budget aborts every fault PODEM has to backtrack on,
    and a negative pattern budget means nothing."""

    @pytest.mark.parametrize(
        "field, value",
        [("max_backtracks", -1), ("max_random_patterns", -5), ("max_backtracks", 2.5)],
    )
    def test_refused(self, field, value):
        with pytest.raises(ConfigError, match=f"invalid ATPG config: {field} must be"):
            AtpgConfig(**{field: value})

    def test_zero_budgets_are_runnable(self, c17):
        result = run_atpg(c17, config=AtpgConfig(max_random_patterns=0, max_backtracks=0))
        assert result.random_patterns_used == 0 and result.fault_coverage == 1.0
