"""Incremental SCOAP updates vs full recomputation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import generate_design, logic_levels
from repro.testability.incremental import (
    refresh_observability,
    update_scoap_after_op,
)
from repro.testability.scoap import compute_scoap


class TestUpdateAfterOp:
    def _insert_and_compare(self, netlist, target):
        levels = logic_levels(netlist)
        scoap = compute_scoap(netlist)
        op = netlist.insert_observation_point(target)
        update_scoap_after_op(netlist, scoap, op, levels)
        fresh = compute_scoap(netlist)
        assert np.allclose(scoap.cc0, fresh.cc0)
        assert np.allclose(scoap.cc1, fresh.cc1)
        assert np.allclose(scoap.co, fresh.co)

    def test_c17_all_targets(self, c17):
        for target in list(c17.nodes()):
            self._insert_and_compare(c17.copy(), target)

    def test_generated_design_sample_targets(self, rng):
        nl = generate_design(300, seed=23)
        for target in rng.choice(nl.num_nodes, size=8, replace=False):
            self._insert_and_compare(nl.copy(), int(target))

    def test_sequential_insertions_stay_consistent(self, rng):
        nl = generate_design(200, seed=29)
        levels = logic_levels(nl)
        scoap = compute_scoap(nl)
        for target in rng.choice(nl.num_nodes, size=5, replace=False):
            op = nl.insert_observation_point(int(target))
            update_scoap_after_op(nl, scoap, op, levels)
        fresh = compute_scoap(nl)
        assert np.allclose(scoap.co, fresh.co)
        assert np.allclose(scoap.cc0, fresh.cc0)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 5000), target_frac=st.floats(0.0, 0.999))
    def test_property_incremental_equals_fresh(self, seed, target_frac):
        nl = generate_design(80, seed=seed)
        target = int(target_frac * nl.num_nodes)
        self._insert_and_compare(nl, target)

    def test_caller_maintained_observed_set_changes_nothing(self):
        nl = generate_design(200, seed=29)
        levels = logic_levels(nl)
        target = 57
        op = nl.insert_observation_point(target)
        scanned, passed = compute_scoap(nl.copy()), compute_scoap(nl.copy())
        for scoap in (scanned, passed):
            scoap.co[op], scoap.co[target] = 0.0, 1e6  # stale: relax it
        observed = set(nl.observation_sites) | set(nl.observation_points())
        changed_scanned = refresh_observability(nl, scanned, [target], levels)
        changed_passed = refresh_observability(
            nl, passed, [target], levels, observed
        )
        assert changed_scanned == changed_passed and changed_passed
        assert np.array_equal(scanned.co, passed.co)

    def test_co_never_increases(self, c17):
        levels = logic_levels(c17)
        scoap = compute_scoap(c17)
        before = scoap.co.copy()
        op = c17.insert_observation_point(c17.find("G11"))
        update_scoap_after_op(c17, scoap, op, levels)
        assert (scoap.co[: len(before)] <= before + 1e-12).all()

    def test_target_becomes_perfectly_observable(self, and_chain):
        levels = logic_levels(and_chain)
        scoap = compute_scoap(and_chain)
        g1 = and_chain.find("g1")
        assert scoap.co[g1] > 0
        op = and_chain.insert_observation_point(g1)
        update_scoap_after_op(and_chain, scoap, op, levels)
        assert scoap.co[g1] == 0.0

    def test_fallback_level_is_computed_once_per_call(self):
        # Seeds appended after ``levels`` was taken all sit one level
        # behind it; finding that level is O(n) and must not repeat.
        class CountingLevels(np.ndarray):
            max_calls = 0

            def max(self, *args, **kwargs):
                type(self).max_calls += 1
                return super().max(*args, **kwargs)

        nl = generate_design(120, seed=31)
        levels = logic_levels(nl).view(CountingLevels)
        ops = [nl.insert_observation_point(t) for t in (10, 40, 70, 100)]
        scoap = compute_scoap(nl)
        assert refresh_observability(nl, scoap, ops, levels) == []
        assert CountingLevels.max_calls == 1
