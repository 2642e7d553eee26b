"""Exact observability analysis vs brute-force flip-and-resimulate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.observability import ObservabilityAnalyzer, observability_counts
from repro.atpg.simulator import LogicSimulator, unpack_values
from repro.circuit import GateType, Netlist, generate_design
from tests.helpers import scalar_simulate


def brute_force_masks(netlist, source_words):
    """Flip every node one at a time and fully resimulate (oracle)."""
    sim = LogicSimulator(netlist)
    values = sim.simulate(source_words)
    observed = set(netlist.observation_sites) | set(netlist.observation_points())
    n_words = source_words.shape[1]
    masks = np.zeros((netlist.num_nodes, n_words), dtype=np.uint64)
    for v in netlist.nodes():
        faulty = values.copy()
        faulty[v] = ~values[v]
        for w in sim.order:
            if w == v or netlist.gate_type(w) in (GateType.INPUT, GateType.DFF):
                continue
            faulty[w] = sim.eval_node(w, faulty)
        diff = np.zeros(n_words, dtype=np.uint64)
        for o in observed:
            if o == v:
                diff |= np.uint64(0xFFFFFFFFFFFFFFFF)
            else:
                diff |= faulty[o] ^ values[o]
        masks[v] = diff
    return masks


class TestExactMasks:
    @pytest.mark.parametrize(
        "fixture", ["c17", "and_chain", "mux2", "xor_pair", "reconvergent"]
    )
    def test_matches_brute_force_on_canonical_circuits(self, fixture, request, rng):
        nl = request.getfixturevalue(fixture)
        analyzer = ObservabilityAnalyzer(nl)
        words = analyzer.simulator.random_source_words(1, rng)
        assert np.array_equal(analyzer.masks(words), brute_force_masks(nl, words))

    def test_matches_brute_force_on_generated(self, rng):
        nl = generate_design(150, seed=11)
        analyzer = ObservabilityAnalyzer(nl)
        words = analyzer.simulator.random_source_words(2, rng)
        assert np.array_equal(analyzer.masks(words), brute_force_masks(nl, words))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_property_matches_brute_force(self, seed):
        nl = generate_design(60, seed=seed)
        analyzer = ObservabilityAnalyzer(nl)
        rng = np.random.default_rng(seed)
        words = analyzer.simulator.random_source_words(1, rng)
        assert np.array_equal(analyzer.masks(words), brute_force_masks(nl, words))

    def test_outputs_always_observed(self, c17, rng):
        analyzer = ObservabilityAnalyzer(c17)
        masks = analyzer.masks(analyzer.simulator.random_source_words(1, rng))
        ones = np.uint64(0xFFFFFFFFFFFFFFFF)
        for po in c17.primary_outputs:
            assert masks[po][0] == ones

    def test_masked_branch_never_observed(self, reconvergent, rng):
        # m = AND(s, NOT s) == 0: flipping m is seen (it feeds the OR with
        # d possibly 0), but the constant-0 side means s's effect through m
        # cancels; check specific masking: node 'ns' reconverges with s.
        analyzer = ObservabilityAnalyzer(reconvergent)
        words = analyzer.simulator.random_source_words(1, rng)
        masks = analyzer.masks(words)
        brute = brute_force_masks(reconvergent, words)
        assert np.array_equal(masks, brute)

    def test_op_insertion_makes_target_observed(self, and_chain, rng):
        target = and_chain.find("g1")
        and_chain.insert_observation_point(target)
        analyzer = ObservabilityAnalyzer(and_chain)
        masks = analyzer.masks(analyzer.simulator.random_source_words(1, rng))
        assert masks[target][0] == np.uint64(0xFFFFFFFFFFFFFFFF)


class TestObservabilityCounts:
    def test_counts_bounded_by_n_patterns(self, c17):
        counts = observability_counts(c17, n_patterns=100, seed=0)
        assert counts.max() <= 100
        assert counts.min() >= 0

    def test_po_counts_equal_n_patterns(self, c17):
        counts = observability_counts(c17, n_patterns=100, seed=0)
        for po in c17.primary_outputs:
            assert counts[po] == 100

    def test_deterministic_given_seed(self, small_design):
        a = observability_counts(small_design, n_patterns=64, seed=5)
        b = observability_counts(small_design, n_patterns=64, seed=5)
        assert np.array_equal(a, b)

    def test_deep_and_tree_rarely_observed(self):
        # A 6-deep AND funnel: inner nodes need 5 side-1s to propagate.
        nl = Netlist()
        pis = [nl.add_input(f"i{k}") for k in range(7)]
        node = pis[0]
        for k in range(1, 7):
            node = nl.add_cell(GateType.AND, (node, pis[k]))
        nl.mark_output(node)
        counts = observability_counts(nl, n_patterns=512, seed=1)
        assert counts[pis[0]] < counts[nl.primary_outputs[0]]
        assert counts[pis[0]] < 0.1 * 512
