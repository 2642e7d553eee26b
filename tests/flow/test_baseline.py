"""The COP-greedy baseline OPI flow."""

import numpy as np
import pytest

from repro.circuit import generate_design
from repro.flow import baseline
from repro.flow.baseline import BaselineOpiConfig, run_baseline_opi
from repro.resilience.errors import ConfigError
from repro.testability.cop import compute_cop


@pytest.fixture
def netlist():
    return generate_design(250, seed=53)


class TestBaselineOpi:
    def test_clears_hard_nodes(self, netlist):
        config = BaselineOpiConfig(detect_threshold=0.005, max_iterations=80)
        result = run_baseline_opi(netlist, config)
        assert result.hard_history[-1] == 0
        cop = compute_cop(result.netlist)
        d0, d1 = cop.detection_probability()
        hard = np.minimum(d0, d1) < config.detect_threshold
        # Only OBS infrastructure may remain below threshold.
        from repro.circuit import GateType

        for v in np.flatnonzero(hard):
            assert (
                result.netlist.gate_type(int(v)) is GateType.OBS
                or int(v) in {
                    result.netlist.fanins(p)[0]
                    for p in result.netlist.observation_points()
                }
            )

    def test_original_untouched(self, netlist):
        n0 = netlist.num_nodes
        run_baseline_opi(netlist, BaselineOpiConfig(max_iterations=5))
        assert netlist.num_nodes == n0

    def test_hard_count_decreases_overall(self, netlist):
        result = run_baseline_opi(
            netlist, BaselineOpiConfig(detect_threshold=0.005, max_iterations=80)
        )
        assert result.hard_history[0] >= result.hard_history[-1]

    def test_budget_respected(self, netlist):
        result = run_baseline_opi(
            netlist, BaselineOpiConfig(max_ops=4, max_iterations=50)
        )
        assert result.n_ops <= 4

    def test_no_duplicate_targets(self, netlist):
        result = run_baseline_opi(
            netlist, BaselineOpiConfig(detect_threshold=0.005, max_iterations=80)
        )
        assert len(set(result.inserted)) == len(result.inserted)

    def test_tighter_threshold_needs_fewer_or_equal_ops(self, netlist):
        strict = run_baseline_opi(
            netlist, BaselineOpiConfig(detect_threshold=0.02, max_iterations=80)
        )
        loose = run_baseline_opi(
            netlist, BaselineOpiConfig(detect_threshold=0.002, max_iterations=80)
        )
        assert loose.n_ops <= strict.n_ops

    @pytest.mark.parametrize(
        "config",
        [
            BaselineOpiConfig(detect_threshold=0.005, max_iterations=80),
            BaselineOpiConfig(detect_threshold=0.02, max_iterations=80),
            BaselineOpiConfig(max_ops=4, max_iterations=50),
        ],
    )
    def test_stacked_cones_choose_like_a_depth_first_walk(self, netlist, monkeypatch, config):
        stacked = run_baseline_opi(netlist, config)

        def depth_first(fanin_ptr, fanin_idx, nodes):
            cones = []
            for node in nodes:
                seen, stack = {node}, [node]
                while stack:
                    v = stack.pop()
                    for u in fanin_idx[fanin_ptr[v] : fanin_ptr[v + 1]].tolist():
                        if u not in seen:
                            seen.add(u)
                            stack.append(u)
                cones.append(np.array(sorted(seen)))
            return cones

        monkeypatch.setattr(baseline, "walk_fanin_cones", depth_first)
        walked = run_baseline_opi(netlist, config)
        assert stacked.inserted == walked.inserted
        assert stacked.hard_history == walked.hard_history


class TestConfigChecks:
    """Values the flow cannot run are refused at construction: no OP per
    round never converges, and a NaN threshold marks nothing hard."""

    @pytest.mark.parametrize(
        "field, value",
        [("per_round", 0), ("per_round", -2), ("detect_threshold", float("nan")),
         ("detect_threshold", 1.5)],
    )
    def test_refused(self, field, value):
        with pytest.raises(ConfigError, match=f"invalid baseline OPI config: {field} must be"):
            BaselineOpiConfig(**{field: value})
