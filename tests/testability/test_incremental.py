"""The stacked array CO relaxation vs the heap oracle and full recomputation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import GateType, generate_design, logic_levels
from repro.testability.incremental import relax_observability
from repro.testability.scoap import ScoapResult, compute_scoap, crossing_costs

from tests.circuit import reference_frontend as reference
from tests.testability.reference_incremental import (
    refresh_observability,
    update_scoap_after_op,
)


def relax(structure, scoap, targets):
    """``relax_observability`` over ``structure`` at ``scoap``'s CO."""
    crossing = crossing_costs(structure, scoap.cc0, scoap.cc1)
    return relax_observability(structure, crossing, scoap.co, targets)


def oracle(netlist, scoap, target, levels):
    """The heap's moved nodes (ascending) and their new CO when ``target``
    counts as observed; ``scoap`` is left alone."""
    co = scoap.co.copy()
    observed = set(netlist.observation_sites) | set(netlist.observation_points())
    observed.add(target)
    changed = refresh_observability(
        netlist, ScoapResult(scoap.cc0, scoap.cc1, co), [target], levels, observed
    )
    moved = np.array(sorted(dict(changed)), dtype=np.int64)
    return moved, co[moved]


def check_each_target(netlist, targets):
    """One stacked call for all of ``targets`` equals the oracle, target by
    target, and writes nothing."""
    levels = logic_levels(netlist)
    scoap = compute_scoap(netlist)
    before = scoap.co.copy()
    nodes, co, bounds = relax(netlist.structure(), scoap, targets)
    assert np.array_equal(scoap.co, before)
    assert len(bounds) == len(targets) + 1
    for i, target in enumerate(targets):
        moved, new_co = oracle(netlist, scoap, target, levels)
        assert np.array_equal(nodes[bounds[i] : bounds[i + 1]], moved)
        assert np.array_equal(co[bounds[i] : bounds[i + 1]], new_co)


class TestUpdateAfterOp:
    def _insert_and_compare(self, netlist, target):
        levels = logic_levels(netlist)
        scoap = compute_scoap(netlist)
        structure = netlist.structure()
        nodes, co, _ = relax(structure, scoap, [target])
        moved, new_co = oracle(netlist, scoap, target, levels)
        assert np.array_equal(nodes, moved) and np.array_equal(co, new_co)
        scoap.co[nodes] = co
        netlist.insert_observation_point(target)
        fresh = compute_scoap(netlist)
        assert np.array_equal(scoap.co, fresh.co[:-1])
        assert fresh.co[-1] == 0.0

    def test_c17_all_targets(self, c17):
        for target in list(c17.nodes()):
            self._insert_and_compare(c17.copy(), target)

    def test_generated_design_sample_targets(self, rng):
        nl = generate_design(300, seed=23)
        targets = rng.choice(nl.num_nodes, size=8, replace=False).tolist()
        for target in targets:
            self._insert_and_compare(nl.copy(), target)
        check_each_target(nl, targets)

    def test_sequential_insertions_stay_consistent(self, rng):
        # The wiring and crossing costs of the original cells serve every
        # later insertion: OBS cells are sinks and leave CC alone.
        nl = generate_design(200, seed=29)
        other = nl.copy()
        levels = logic_levels(nl)
        structure = nl.structure()
        scoap, expected = compute_scoap(nl), compute_scoap(other)
        for target in rng.choice(nl.num_nodes, size=5, replace=False).tolist():
            nodes, co, _ = relax(structure, scoap, [target])
            p = nl.insert_observation_point(target)
            scoap.co = np.append(scoap.co, 0.0)
            scoap.co[nodes] = co
            op = other.insert_observation_point(target)
            update_scoap_after_op(other, expected, op, levels)
            assert np.array_equal(scoap.co, expected.co)
            assert np.array_equal(scoap.co, compute_scoap(nl).co)
            assert p == len(scoap.co) - 1

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 5000), target_frac=st.floats(0.0, 0.999))
    def test_property_incremental_equals_fresh(self, seed, target_frac):
        nl = generate_design(80, seed=seed)
        target = int(target_frac * nl.num_nodes)
        self._insert_and_compare(nl, target)

    def test_observed_nodes_never_move(self):
        nl = reference.random_netlist(7, 120)
        observed = set(nl.observation_sites) | set(nl.observation_points())
        scoap = compute_scoap(nl)
        assert (scoap.co[sorted(observed)] == 0.0).all()
        nodes, _, _ = relax(nl.structure(), scoap, list(nl.nodes()))
        assert not observed & set(nodes.tolist())

    def test_co_never_increases(self, c17):
        scoap = compute_scoap(c17)
        nodes, co, _ = relax(c17.structure(), scoap, [c17.find("G11")])
        assert len(nodes) and (co < scoap.co[nodes]).all()

    def test_target_becomes_perfectly_observable(self, and_chain):
        scoap = compute_scoap(and_chain)
        g1 = and_chain.find("g1")
        assert scoap.co[g1] > 0
        nodes, co, _ = relax(and_chain.structure(), scoap, [g1])
        assert co[nodes == g1].tolist() == [0.0]


class TestStackedTargets:
    @pytest.mark.parametrize("name", sorted(reference.hand_built_designs()))
    def test_hand_built(self, name):
        netlist = reference.hand_built_designs()[name]
        check_each_target(netlist, list(netlist.nodes()))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n_gates=st.integers(0, 120),
        picks=st.lists(st.integers(0, 10**6), max_size=12),
    )
    def test_random_designs(self, seed, n_gates, picks):
        # Duplicate pins, tie cells, flop loops and OBS cells (as targets
        # too); targets may repeat.
        netlist = reference.random_netlist(seed, n_gates)
        check_each_target(netlist, [p % netlist.num_nodes for p in picks])

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 5000), gates=st.integers(20, 400))
    def test_generated_designs(self, seed, gates):
        netlist = generate_design(gates, seed=seed)
        targets = [
            v for v in netlist.nodes() if netlist.gate_type(v) is not GateType.INPUT
        ]
        check_each_target(netlist, targets[:: max(1, len(targets) // 25)])

    def test_no_targets(self, c17):
        nodes, co, bounds = relax(c17.structure(), compute_scoap(c17), [])
        assert len(nodes) == len(co) == 0 and bounds.tolist() == [0]
