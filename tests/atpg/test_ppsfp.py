"""Batched/parallel fault-simulation engine vs the serial oracle."""

import os

import numpy as np
import pytest

from repro.atpg.cones import (
    cone_cache_info,
    get_cone_index,
    invalidate_cone_cache,
)
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import Fault, full_fault_list
from repro.atpg.observability import ObservabilityAnalyzer
from repro.atpg.ppsfp import (
    BatchedConeEngine,
    PpsfpConfig,
    PpsfpEngine,
    _inject_rows,
    resolve_backend,
)
from repro.atpg.simulator import LogicSimulator
from repro.circuit import GateType, Netlist, generate_design
from repro.obs.metrics import MetricsRegistry, set_registry

FIXTURES = ["c17", "mux2", "xor_pair", "reconvergent"]


@pytest.fixture(autouse=True)
def _fresh_cone_cache():
    invalidate_cone_cache()
    yield
    invalidate_cone_cache()


def _serial_masks(fsim, faults, values):
    return np.stack([fsim.detection_mask(f, values) for f in faults])


# --------------------------------------------------------------------- #
# Netlist fingerprint / mutation tracking
# --------------------------------------------------------------------- #
class TestFingerprint:
    def test_structural_identity_ignores_names(self):
        a, b = Netlist("a"), Netlist("b")
        for nl, prefix in ((a, "x"), (b, "y")):
            i1 = nl.add_input(f"{prefix}1")
            i2 = nl.add_input(f"{prefix}2")
            nl.mark_output(nl.add_cell(GateType.AND, (i1, i2)))
        assert a.fingerprint() == b.fingerprint()

    def test_mutations_change_fingerprint(self):
        nl = Netlist()
        i1, i2 = nl.add_input(), nl.add_input()
        g = nl.add_cell(GateType.AND, (i1, i2))
        fp0 = nl.fingerprint()
        nl.mark_output(g)
        fp1 = nl.fingerprint()
        assert fp1 != fp0
        nl.insert_observation_point(i1)
        assert nl.fingerprint() != fp1

    def test_fingerprint_memoised_until_mutation(self):
        nl = Netlist()
        i1 = nl.add_input()
        nl.mark_output(nl.add_cell(GateType.NOT, (i1,)))
        v0 = nl.mutation_count
        assert nl.fingerprint() == nl.fingerprint()
        assert nl.mutation_count == v0  # fingerprint() itself never mutates
        nl.note_external_mutation()
        assert nl.mutation_count == v0 + 1

    def test_copy_shares_fingerprint(self):
        nl = Netlist()
        i1, i2 = nl.add_input(), nl.add_input()
        nl.mark_output(nl.add_cell(GateType.OR, (i1, i2)))
        fp = nl.fingerprint()
        assert nl.copy().fingerprint() == fp


# --------------------------------------------------------------------- #
# Cone cache
# --------------------------------------------------------------------- #
class TestConeCache:
    def test_forward_cone_matches_uncached_traversal(self, c17):
        sim = LogicSimulator(c17)
        for v in c17.nodes():
            cone = sim.forward_cone(v)
            # reference: BFS over fanouts, sorted by (level, id)
            seen, stack, ref = {v}, [v], []
            while stack:
                u = stack.pop()
                for w in c17.fanouts(u):
                    if w not in seen and c17.gate_type(w) is not GateType.DFF:
                        seen.add(w)
                        ref.append(w)
                        stack.append(w)
            ref.sort(key=lambda u: (sim.levels[u], u))
            assert cone == ref

    def test_cache_shared_across_simulators(self, c17):
        LogicSimulator(c17).forward_cone(0)
        before = cone_cache_info()
        LogicSimulator(c17).forward_cone(0)
        after = cone_cache_info()
        assert after["hits"] > before["hits"]
        assert after["entries"] == before["entries"]

    def test_structurally_equal_netlists_share_entry(self, c17):
        LogicSimulator(c17).forward_cone(0)
        LogicSimulator(c17.copy()).forward_cone(0)
        assert cone_cache_info()["entries"] == 1

    def test_mutation_gets_fresh_cones(self, c17):
        sim = LogicSimulator(c17)
        g16 = c17.find("G16")
        before = sim.forward_cone(g16)
        op = c17.insert_observation_point(g16)
        after = LogicSimulator(c17).forward_cone(g16)
        assert op in after and op not in before

    def test_invalidate_drops_current_entry(self, c17):
        get_cone_index(c17).cone(0)
        assert cone_cache_info()["entries"] == 1
        invalidate_cone_cache(c17)
        assert cone_cache_info()["entries"] == 0

    def test_invalidate_with_nothing_cached_hashes_nothing(self, c17, monkeypatch):
        # The OPI loop invalidates around every tentative insertion while
        # the cache is empty: that must not cost a whole-netlist hash.
        def no_hash():
            raise AssertionError("fingerprinted a netlist for an empty cache")

        monkeypatch.setattr(c17, "_build_fingerprint", no_hash)
        invalidate_cone_cache(c17)
        assert cone_cache_info()["entries"] == 0

    def test_stale_copy_mutation_does_not_poison_original(self, c17):
        # A copy shares the original's fingerprint until its first edit.
        # If the copy is mutated *in place* (without invalidate_cone_cache)
        # after an index was built on it, the cached entry's live netlist
        # reference drifts away from its key.  The next lookup under the
        # original netlist must detect this and rebuild, not serve cones
        # computed against the mutated structure.
        work = c17.copy()
        get_cone_index(work).cone(0)  # cached under the shared fingerprint
        g16 = work.find("G16")
        work.insert_observation_point(g16)  # mutate WITHOUT invalidating

        index = get_cone_index(c17)
        assert index.netlist.fingerprint() == c17.fingerprint()
        for v in range(c17.num_nodes):
            assert all(u < c17.num_nodes for u in index.cone(v))


# --------------------------------------------------------------------- #
# Backend resolution
# --------------------------------------------------------------------- #
class TestResolveBackend:
    def test_explicit_choices_pass_through(self):
        for b in ("serial", "batched", "parallel"):
            assert resolve_backend(b, 10, 1) == b

    def test_auto_small_workload_is_batched(self):
        assert resolve_backend("auto", 10, 1, workers=8) == "batched"

    def test_auto_large_workload_multicore_is_parallel(self):
        assert resolve_backend("auto", 100_000, 4, workers=8) == "parallel"

    def test_env_overrides_auto_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SIM_BACKEND", "serial")
        assert resolve_backend("auto", 100_000, 4, workers=8) == "serial"
        assert resolve_backend("batched", 10, 1) == "batched"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("turbo", 10, 1)


# --------------------------------------------------------------------- #
# Batched engine equivalence
# --------------------------------------------------------------------- #
class TestBatchedEquivalence:
    @pytest.mark.parametrize("fixture", FIXTURES)
    @pytest.mark.parametrize("dense_threshold", [0.0, 0.4, 100.0])
    def test_detection_masks_bit_identical(
        self, fixture, dense_threshold, request
    ):
        nl = request.getfixturevalue(fixture)
        fsim = FaultSimulator(nl, config=PpsfpConfig(dense_threshold=dense_threshold))
        rng = np.random.default_rng(0)
        values = fsim.good_values(fsim.simulator.random_source_words(2, rng))
        faults = full_fault_list(nl)
        serial = _serial_masks(fsim, faults, values)
        batched = fsim.detection_masks(faults, values, backend="batched")
        np.testing.assert_array_equal(serial, batched)

    def test_simulate_batch_identical_results(self):
        nl = generate_design(n_gates=150, seed=3)
        rng = np.random.default_rng(1)
        words = LogicSimulator(nl).random_source_words(2, rng)
        faults = full_fault_list(nl)
        res_s = FaultSimulator(nl, backend="serial").simulate_batch(
            faults, words, n_patterns=100
        )
        res_b = FaultSimulator(nl, backend="batched").simulate_batch(
            faults, words, n_patterns=100
        )
        assert res_s.detected == res_b.detected  # including order
        assert res_s.detecting_pattern == res_b.detecting_pattern

    def test_tail_mask_trims_batched_path(self):
        nl = generate_design(n_gates=60, seed=5)
        rng = np.random.default_rng(2)
        words = LogicSimulator(nl).random_source_words(1, rng)
        faults = full_fault_list(nl)
        for n_patterns in (1, 3, 63, 64):
            res_s = FaultSimulator(nl, backend="serial").simulate_batch(
                faults, words, n_patterns=n_patterns
            )
            res_b = FaultSimulator(nl, backend="batched").simulate_batch(
                faults, words, n_patterns=n_patterns
            )
            assert res_s.detected == res_b.detected
            assert res_s.detecting_pattern == res_b.detecting_pattern

    def test_small_fault_groups_chunk_correctly(self, c17):
        fsim = FaultSimulator(c17, config=PpsfpConfig(group_size=1))
        rng = np.random.default_rng(3)
        values = fsim.good_values(fsim.simulator.random_source_words(1, rng))
        faults = full_fault_list(c17)
        np.testing.assert_array_equal(
            _serial_masks(fsim, faults, values),
            fsim.detection_masks(faults, values, backend="batched"),
        )

    def test_fault_coverage_identical(self):
        nl = generate_design(n_gates=120, seed=9)
        rng = np.random.default_rng(4)
        batches = [LogicSimulator(nl).random_source_words(1, rng) for _ in range(3)]
        faults = full_fault_list(nl)
        cov_s, rem_s = FaultSimulator(nl, backend="serial").fault_coverage(
            faults, batches
        )
        cov_b, rem_b = FaultSimulator(nl, backend="batched").fault_coverage(
            faults, batches
        )
        assert cov_s == cov_b
        assert rem_s == rem_b

    def test_observation_points_propagate(self, reconvergent):
        nl = reconvergent
        # An OP deep in the masked region changes detectability; both
        # backends must agree after the mutation.
        target = nl.find("m")
        nl.insert_observation_point(target)
        fsim = FaultSimulator(nl)
        rng = np.random.default_rng(5)
        values = fsim.good_values(fsim.simulator.random_source_words(1, rng))
        faults = full_fault_list(nl)
        np.testing.assert_array_equal(
            _serial_masks(fsim, faults, values),
            fsim.detection_masks(faults, values, backend="batched"),
        )


# --------------------------------------------------------------------- #
# Observability backend equivalence
# --------------------------------------------------------------------- #
class TestObservabilityBackends:
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_masks_bit_identical(self, fixture, request):
        nl = request.getfixturevalue(fixture)
        rng = np.random.default_rng(0)
        serial = ObservabilityAnalyzer(nl, backend="serial")
        values = serial.simulator.simulate(
            serial.simulator.random_source_words(2, rng)
        )
        with ObservabilityAnalyzer(nl, backend="batched") as batched:
            np.testing.assert_array_equal(
                serial.masks_from_values(values),
                batched.masks_from_values(values),
            )

    def test_with_observation_points(self):
        nl = generate_design(n_gates=100, seed=11)
        rng = np.random.default_rng(1)
        targets = [v for v in nl.nodes() if nl.fanouts(v)][:3]
        for t in targets:
            nl.insert_observation_point(t)
        serial = ObservabilityAnalyzer(nl, backend="serial")
        values = serial.simulator.simulate(
            serial.simulator.random_source_words(1, rng)
        )
        with ObservabilityAnalyzer(nl, backend="batched") as batched:
            np.testing.assert_array_equal(
                serial.masks_from_values(values),
                batched.masks_from_values(values),
            )


# --------------------------------------------------------------------- #
# Parallel backend
# --------------------------------------------------------------------- #
def _crashing_worker(*args, **kwargs):
    raise RuntimeError("injected fault-sim worker failure")


class TestParallelBackend:
    def test_parallel_masks_bit_identical(self):
        nl = generate_design(n_gates=120, seed=21)
        fsim = FaultSimulator(
            nl, config=PpsfpConfig(workers=2, shards=3, worker_timeout=60.0)
        )
        rng = np.random.default_rng(0)
        values = fsim.good_values(fsim.simulator.random_source_words(2, rng))
        faults = full_fault_list(nl)
        try:
            serial = _serial_masks(fsim, faults, values)
            parallel = fsim.detection_masks(faults, values, backend="parallel")
        finally:
            fsim.close()
        np.testing.assert_array_equal(serial, parallel)

    def test_worker_failure_falls_back_batched(self):
        nl = generate_design(n_gates=80, seed=22)
        fsim = FaultSimulator(nl, config=PpsfpConfig(workers=2, shards=2))
        fsim.engine.worker_fn = _crashing_worker
        rng = np.random.default_rng(1)
        values = fsim.good_values(fsim.simulator.random_source_words(1, rng))
        faults = full_fault_list(nl)
        try:
            with pytest.warns(ResourceWarning):
                parallel = fsim.detection_masks(
                    faults, values, backend="parallel"
                )
            serial = _serial_masks(fsim, faults, values)
        finally:
            fsim.close()
        np.testing.assert_array_equal(serial, parallel)

    def test_no_fallback_raises_after_retries(self):
        nl = generate_design(n_gates=40, seed=23)
        fsim = FaultSimulator(
            nl, config=PpsfpConfig(workers=1, shards=1, serial_fallback=False)
        )
        fsim.engine.worker_fn = _crashing_worker
        rng = np.random.default_rng(2)
        values = fsim.good_values(fsim.simulator.random_source_words(1, rng))
        faults = full_fault_list(nl)[:4]
        try:
            with pytest.warns(ResourceWarning):
                with pytest.raises(RuntimeError, match="injected"):
                    fsim.detection_masks(faults, values, backend="parallel")
        finally:
            fsim.close()

    def test_close_is_idempotent(self):
        nl = generate_design(n_gates=30, seed=24)
        fsim = FaultSimulator(nl)
        fsim.close()
        fsim.close()


# --------------------------------------------------------------------- #
# Work-counter accounting (the deterministic perf signal CI asserts on)
# --------------------------------------------------------------------- #
class TestWorkCounters:
    def test_batched_does_orders_less_python_work(self):
        nl = generate_design(n_gates=300, seed=31)
        rng = np.random.default_rng(0)
        words = LogicSimulator(nl).random_source_words(1, rng)
        faults = full_fault_list(nl)

        reg = MetricsRegistry()
        set_registry(reg)
        try:
            FaultSimulator(nl, backend="serial").simulate_batch(faults, words)
            serial_evals = reg.get("repro_atpg_cone_node_evals_total").value
            FaultSimulator(nl, backend="batched").simulate_batch(faults, words)
            group_evals = reg.get("repro_atpg_cone_group_evals_total").value
        finally:
            set_registry(MetricsRegistry())
        assert serial_evals > 0 and group_evals > 0
        # The whole point: per-fault node walks collapse into per-group ops.
        assert serial_evals / group_evals >= 20

    def test_faults_per_second_gauge_labelled_by_backend(self):
        nl = generate_design(n_gates=60, seed=32)
        rng = np.random.default_rng(0)
        words = LogicSimulator(nl).random_source_words(1, rng)
        faults = full_fault_list(nl)
        reg = MetricsRegistry()
        set_registry(reg)
        try:
            FaultSimulator(nl, backend="batched").simulate_batch(faults, words)
            gauge = reg.get("repro_atpg_faults_per_second")
            assert gauge.labels(backend="batched").value > 0
        finally:
            set_registry(MetricsRegistry())
