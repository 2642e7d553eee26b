"""Synthetic design generator: shape statistics, determinism, and the oracle."""

import dataclasses
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circuit import (
    GateType,
    generate_design,
    generate_random_dag,
    logic_levels,
    validate_netlist,
)
from repro.circuit.bench import write_bench
from repro.circuit.generator import GeneratorConfig, _Cells
from tests.circuit import reference_frontend, reference_generator


def text_of(netlist, writer=write_bench) -> str:
    stream = io.StringIO()
    writer(netlist, stream)
    return stream.getvalue()


def assert_same_design(netlist, oracle) -> None:
    """Equal to the cell-by-cell oracle's netlist, down to the text."""
    assert text_of(netlist) == text_of(oracle, reference_frontend.write_bench)
    assert netlist.name == oracle.name
    assert netlist.mutation_count == oracle.mutation_count
    assert netlist.primary_outputs == oracle.primary_outputs
    assert list(netlist.iter_edges()) == list(oracle.iter_edges())


configs = st.builds(
    GeneratorConfig,
    n_inputs=st.one_of(st.none(), st.integers(1, 40)),
    block_size=st.integers(8, 400),
    min_block_depth=st.integers(1, 6),
    max_block_depth=st.integers(6, 14),
    inverter_fraction=st.sampled_from([0.0, 0.25, 0.6]),
    three_input_fraction=st.sampled_from([0.0, 0.05, 0.4]),
    level_reach=st.integers(1, 4),
    hub_fraction=st.sampled_from([0.0, 0.01, 0.2]),
    hub_pick_prob=st.sampled_from([0.0, 0.08, 0.5]),
    gating_depth=st.integers(2, 5),
    gated_output_fraction=st.sampled_from([0.0, 0.15, 0.9]),
    dff_fraction=st.sampled_from([0.0, 0.3, 1.0]),
    pi_interface=st.one_of(st.none(), st.sampled_from([0, 1, 3, 12])),
    import_window=st.sampled_from([0, 5, 240]),
    hub_window=st.integers(1, 12),
    hub_global_prob=st.sampled_from([0.0, 0.1, 1.0]),
)


class TestGenerateDesign:
    def test_deterministic_for_seed(self):
        a = generate_design(500, seed=9)
        b = generate_design(500, seed=9)
        assert a.num_nodes == b.num_nodes
        assert list(a.iter_edges()) == list(b.iter_edges())
        assert [a.gate_type(v) for v in a.nodes()] == [
            b.gate_type(v) for v in b.nodes()
        ]

    def test_seeds_differ(self):
        a = generate_design(500, seed=1)
        b = generate_design(500, seed=2)
        assert list(a.iter_edges()) != list(b.iter_edges())

    def test_validates_clean(self):
        report = validate_netlist(generate_design(800, seed=3))
        assert report.ok

    def test_edge_node_ratio_in_industrial_range(self):
        nl = generate_design(3000, seed=5)
        ratio = nl.num_edges / nl.num_nodes
        assert 1.3 < ratio < 2.2  # paper's designs sit at ~1.5

    def test_sparsity_matches_paper_claim_at_scale(self):
        # Sparsity 1 - E/N^2 improves with N; the paper's >99.95 % holds
        # from ~10k nodes up (their designs are 1.4M nodes).
        nl = generate_random_dag(10_000, seed=5)
        sparsity = 1.0 - nl.num_edges / (nl.num_nodes**2)
        assert sparsity > 0.9995

    def test_depth_is_bounded_by_block_structure(self):
        nl = generate_design(2000, seed=1)
        assert logic_levels(nl).max() < 80

    def test_all_sinks_are_observed(self):
        nl = generate_design(600, seed=2)
        observed = set(nl.observation_sites)
        for v in nl.nodes():
            if not nl.fanouts(v) and nl.gate_type(v) is not GateType.INPUT:
                assert v in observed

    def test_dff_fraction_produces_flops(self):
        config = GeneratorConfig(dff_fraction=1.0)
        nl = generate_design(400, seed=0, config=config)
        assert any(nl.gate_type(v) is GateType.DFF for v in nl.nodes())
        assert validate_netlist(nl).ok

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            generate_design(2)

    @settings(max_examples=8, deadline=None)
    @given(
        n=st.integers(min_value=50, max_value=800),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property_always_valid_dag(self, n, seed):
        nl = generate_design(n, seed=seed)
        report = validate_netlist(nl)
        assert report.ok
        assert nl.num_nodes >= n


class TestMatchesCellByCellOracle:
    """The array generator makes the oracle's draws and the oracle's designs."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(4, 700),
        seed=st.integers(0, 2**32 - 1),
        config=st.one_of(st.none(), configs),
    )
    @example(n=4, seed=0, config=None)
    @example(n=4, seed=1, config=GeneratorConfig(dff_fraction=0.5, pi_interface=0))
    @example(n=300, seed=2, config=GeneratorConfig(dff_fraction=0.3))
    @example(n=300, seed=3, config=GeneratorConfig(pi_interface=0))
    def test_generate_design(self, n, seed, config):
        assert_same_design(
            generate_design(n, seed=seed, config=config),
            reference_generator.generate_design(n, seed=seed, config=config),
        )

    @pytest.mark.parametrize("n, seed", [(60, 1), (1000, 7002), (2000, 5)])
    def test_benchmark_sized_designs(self, n, seed):
        assert_same_design(
            generate_design(n, seed=seed), reference_generator.generate_design(n, seed=seed)
        )

    def test_rng_left_where_the_oracle_leaves_it(self):
        rng, oracle_rng = np.random.default_rng(4), np.random.default_rng(4)
        config = GeneratorConfig(dff_fraction=0.5)
        generate_design(500, seed=rng, config=config)
        reference_generator.generate_design(500, seed=oracle_rng, config=config)
        assert rng.random() == oracle_rng.random()

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(0, 600),
        seed=st.integers(0, 2**32 - 1),
        avg_fanin=st.sampled_from([1.0, 1.5, 2.0, 2.5]),
    )
    def test_generate_random_dag(self, n, seed, avg_fanin):
        assert_same_design(
            generate_random_dag(n, seed=seed, avg_fanin=avg_fanin),
            reference_generator.generate_random_dag(n, seed=seed, avg_fanin=avg_fanin),
        )

    def test_caller_config_is_left_alone(self):
        config = GeneratorConfig(n_gates=123, dff_fraction=0.2)
        before = dataclasses.replace(config)
        netlist = generate_design(60, seed=1, config=config)
        assert config == before
        assert netlist.name == "synth60"
        assert netlist.num_nodes - len(netlist.primary_inputs) >= 60

    def test_generated_netlist_stays_in_array_form(self):
        netlist = generate_design(300, seed=1)
        view = netlist.structure()
        text_of(netlist)
        assert netlist.structure() is view  # the generator's arrays, never rebuilt


class TestCellBuilderChecks:
    """What ``add_cell`` checked per cell, the builder checks at the end."""

    def test_arity_rule(self):
        cells = _Cells()
        a = cells.add_input("a")
        cells.add(GateType.NOT, (a, a))
        with pytest.raises(ValueError, match="NOT takes 1 fanin, got 2"):
            cells.netlist("bad", np.array([], dtype=np.int64))

    @pytest.mark.parametrize("driver", [1, 2, -1])
    def test_fanin_must_be_an_earlier_cell(self, driver):
        cells = _Cells()
        a = cells.add_input("a")
        cells.add(GateType.AND, (a, driver))
        with pytest.raises(ValueError, match=f"fanin id {driver} does not exist"):
            cells.netlist("bad", np.array([], dtype=np.int64))


class TestGenerateRandomDag:
    def test_exact_node_count(self):
        nl = generate_random_dag(5000, seed=0)
        assert nl.num_nodes == 5000

    def test_avg_fanin_close_to_request(self):
        nl = generate_random_dag(5000, seed=0, avg_fanin=1.5)
        assert abs(nl.num_edges / nl.num_nodes - 1.5) < 0.25

    def test_validates(self):
        assert validate_netlist(generate_random_dag(1000, seed=1)).ok

    def test_deterministic(self):
        a = generate_random_dag(300, seed=4)
        b = generate_random_dag(300, seed=4)
        assert list(a.iter_edges()) == list(b.iter_edges())
