"""Difficult-to-observe labelling."""

import numpy as np
import pytest

from repro.circuit import GateType, Netlist, generate_design
from repro.resilience.errors import ConfigError
from repro.testability.labels import LabelConfig, LabelResult, label_nodes


class TestLabelConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_patterns": 0},
            {"n_patterns": -5},
            {"n_patterns": 64.0},
            {"n_patterns": True},
            {"threshold": float("nan")},
            {"threshold": float("inf")},
            {"threshold": -0.01},
            {"threshold": 1.5},
            {"threshold": "0.01"},
        ],
    )
    def test_invalid_values_refused(self, kwargs):
        with pytest.raises(ConfigError, match="invalid label config"):
            LabelConfig(**kwargs)

    def test_bounds_and_numpy_scalars_accepted(self):
        LabelConfig(n_patterns=1, threshold=0.0)
        LabelConfig(n_patterns=np.int64(64), threshold=np.float64(1.0))


class TestLabelNodes:
    def test_counts_consistent(self, small_design):
        result = label_nodes(small_design, LabelConfig(n_patterns=64))
        assert result.n_positive + result.n_negative == small_design.num_nodes
        assert result.positive_rate == pytest.approx(
            result.n_positive / small_design.num_nodes
        )

    def test_outputs_never_positive(self, small_design):
        result = label_nodes(small_design, LabelConfig(n_patterns=64))
        for po in small_design.primary_outputs:
            assert result.labels[po] == 0

    def test_threshold_monotone(self, small_design):
        loose = label_nodes(small_design, LabelConfig(n_patterns=128, threshold=0.001))
        tight = label_nodes(small_design, LabelConfig(n_patterns=128, threshold=0.05))
        assert loose.n_positive <= tight.n_positive

    def test_deterministic(self, small_design):
        a = label_nodes(small_design, LabelConfig(n_patterns=64, seed=3))
        b = label_nodes(small_design, LabelConfig(n_patterns=64, seed=3))
        assert np.array_equal(a.labels, b.labels)

    def test_obs_cells_forced_easy(self, and_chain):
        and_chain.insert_observation_point(and_chain.find("g1"))
        result = label_nodes(and_chain, LabelConfig(n_patterns=64))
        for p in and_chain.observation_points():
            assert result.labels[p] == 0

    def test_observation_point_flips_hard_node_to_easy(self):
        # Deep AND funnel: the head of the chain is hard to observe; after
        # inserting an OP right at it, it must become easy.
        nl = Netlist()
        pis = [nl.add_input(f"i{k}") for k in range(9)]
        node = pis[0]
        for k in range(1, 9):
            node = nl.add_cell(GateType.AND, (node, pis[k]))
        nl.mark_output(node)
        config = LabelConfig(n_patterns=256, threshold=0.02)
        before = label_nodes(nl, config)
        assert before.labels[pis[0]] == 1
        nl.insert_observation_point(pis[0])
        after = label_nodes(nl, config)
        assert after.labels[pis[0]] == 0

    def test_positive_rate_realistic_on_generated(self, medium_design):
        result = label_nodes(medium_design, LabelConfig(n_patterns=256))
        assert 0.0 < result.positive_rate < 0.25
