"""The iterative GCN-guided OPI flow (Figure 7)."""

import numpy as np
import pytest

from repro.circuit import GateType, generate_design
from repro.flow.insertion import OpiConfig, run_gcn_opi
from repro.resilience.errors import ConfigError

from tests.flow.test_impact import co_threshold_predictor


@pytest.fixture
def netlist():
    return generate_design(200, seed=47)


class TestRunGcnOpi:
    def test_flow_terminates_with_no_positives(self, netlist):
        predictor = co_threshold_predictor(threshold=6.0)
        result = run_gcn_opi(netlist, predictor, OpiConfig(max_iterations=30))
        # The toy predictor is purely attribute-driven: inserting OPs keeps
        # lowering CO until nothing is positive.
        assert result.positives_history[-1] == 0
        assert result.n_ops > 0

    def test_original_netlist_untouched(self, netlist):
        n0 = netlist.num_nodes
        predictor = co_threshold_predictor(threshold=6.0)
        run_gcn_opi(netlist, predictor, OpiConfig(max_iterations=3))
        assert netlist.num_nodes == n0
        assert not netlist.observation_points()

    def test_result_netlist_has_ops(self, netlist):
        predictor = co_threshold_predictor(threshold=6.0)
        result = run_gcn_opi(netlist, predictor, OpiConfig(max_iterations=30))
        ops = result.netlist.observation_points()
        assert len(ops) == result.n_ops
        targets = {result.netlist.fanins(p)[0] for p in ops}
        assert targets == set(result.inserted)

    def test_max_ops_budget_respected(self, netlist):
        predictor = co_threshold_predictor(threshold=6.0)
        result = run_gcn_opi(
            netlist, predictor, OpiConfig(max_iterations=30, max_ops=5)
        )
        assert result.n_ops <= 5

    def test_positives_monotonically_handled(self, netlist):
        predictor = co_threshold_predictor(threshold=6.0)
        result = run_gcn_opi(netlist, predictor, OpiConfig(max_iterations=30))
        # Not strictly monotone in general, but must reach zero and never
        # insert an OP twice at one node.
        assert len(set(result.inserted)) == len(result.inserted)

    def test_without_impact_inserts_all_positives(self, netlist):
        predictor = co_threshold_predictor(threshold=6.0)
        with_impact = run_gcn_opi(
            netlist, predictor, OpiConfig(max_iterations=40, select_fraction=0.5)
        )
        without = run_gcn_opi(
            netlist,
            predictor,
            OpiConfig(max_iterations=40, use_impact=False, select_fraction=1.0),
        )
        # Impact-guided selection should not need MORE points than blanket
        # insertion at every positive.
        assert with_impact.positives_history[-1] == 0
        assert without.positives_history[-1] == 0
        assert with_impact.n_ops <= without.n_ops

    def test_never_targets_obs_cells(self, netlist):
        predictor = co_threshold_predictor(threshold=6.0)
        result = run_gcn_opi(netlist, predictor, OpiConfig(max_iterations=30))
        for target in result.inserted:
            assert result.netlist.gate_type(target) is not GateType.OBS


class TestOpiConfigChecks:
    """Values the flow cannot run are refused at construction, the
    ``OpiConfig(min_impact=nan)`` probe among them."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("min_impact", float("nan")),
            ("min_impact", 1.5),
            ("select_fraction", 1.5),
            ("select_fraction", -0.1),
            ("select_fraction", float("nan")),
            ("max_iterations", 0),
            ("min_per_iteration", -1),
            ("max_ops", -2),
            ("stall_patience", 0),
        ],
    )
    def test_refused(self, field, value):
        with pytest.raises(ConfigError, match=f"invalid OPI config: {field} must be"):
            OpiConfig(**{field: value})

    def test_defaults_and_the_runnable_edges_build(self):
        OpiConfig()
        OpiConfig(select_fraction=0.0, min_per_iteration=0, max_ops=0, stall_patience=1)
