"""In-process and pooled fault-simulation engine vs the serial oracle."""

import dataclasses

import numpy as np
import pytest

from repro.atpg import ppsfp
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import Fault, full_fault_list
from repro.atpg.observability import ObservabilityAnalyzer
from repro.atpg.ppsfp import PpsfpEngine
from repro.atpg.simulator import LogicSimulator
from repro.circuit import GateType, Netlist, generate_design
from repro.config import ExecutionConfig
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.resilience.errors import ConfigError
from tests.atpg import reference_faultsim as reference

FIXTURES = ["c17", "mux2", "xor_pair", "reconvergent"]
IN_PROCESS = ExecutionConfig(workers=1)


def _serial_masks(fsim, faults, values):
    return reference.detection_masks(fsim.netlist, faults, values)[0]


# --------------------------------------------------------------------- #
# Forward cones
# --------------------------------------------------------------------- #
class TestConeCache:
    def test_forward_cone_matches_uncached_traversal(self, c17):
        sim = LogicSimulator(c17)
        for v in c17.nodes():
            assert sim.forward_cone(v) == reference.forward_cone(c17, sim.levels, v)

    def test_mutation_gets_fresh_cones(self, c17):
        sim = LogicSimulator(c17)
        g16 = c17.find("G16")
        before = sim.forward_cone(g16)
        op = c17.insert_observation_point(g16)
        after = LogicSimulator(c17).forward_cone(g16)
        assert op in after and op not in before


# --------------------------------------------------------------------- #
# Grading-path resolution: the engine picks from the input, the config
# only says how many workers on which fabric
# --------------------------------------------------------------------- #
class TestResolveBackend:
    @staticmethod
    def _path(n_sites, **execution):
        nl = generate_design(n_gates=20, seed=1)
        engine = PpsfpEngine(
            LogicSimulator(nl), nl.observation_sites,
            ExecutionConfig(**execution),
        )
        return engine.grading_path(n_sites)

    def test_explicit_choices_pass_through(self, monkeypatch):
        # An explicit fabric choice decides the pool's transport; only
        # ``inprocess`` keeps a large call off the pool.
        monkeypatch.delenv("REPRO_EXEC_BACKEND", raising=False)
        n = ppsfp.POOL_MIN_SITES
        assert self._path(n, workers=8, exec_backend="forkpool") == "parallel"
        assert self._path(n, workers=8, exec_backend="inprocess") == "batched"

    def test_auto_small_workload_is_batched(self):
        assert self._path(10, workers=8) == "batched"

    def test_auto_large_workload_multicore_is_parallel(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXEC_BACKEND", raising=False)
        assert self._path(100_000, workers=8) == "parallel"
        assert self._path(100_000, workers=1) == "batched"

    def test_unknown_backend_rejected(self):
        for backend in ("turbo", "serial", "batched", "parallel"):
            with pytest.raises(ConfigError):
                ExecutionConfig(backend=backend)


# --------------------------------------------------------------------- #
# Batched engine equivalence
# --------------------------------------------------------------------- #
class TestBatchedEquivalence:
    @pytest.mark.parametrize("fixture", FIXTURES)
    @pytest.mark.parametrize("chunk_share", [0.0, 0.4, 100.0])
    def test_detection_masks_bit_identical(
        self, fixture, chunk_share, request, monkeypatch
    ):
        # chunk_share sizes a chunk as a share of the fault list: 0.0 grades
        # one site per chunk (smallest unions), 0.4 a partial union, 100.0
        # the whole list in one chunk (a union over most of the circuit).
        nl = request.getfixturevalue(fixture)
        faults = full_fault_list(nl)
        monkeypatch.setattr(
            ppsfp, "MAX_GROUP", max(1, int(chunk_share * len(faults)))
        )
        fsim = FaultSimulator(nl)
        rng = np.random.default_rng(0)
        values = fsim.good_values(fsim.simulator.random_source_words(2, rng))
        serial = _serial_masks(fsim, faults, values)
        batched = fsim.detection_masks(faults, values)
        np.testing.assert_array_equal(serial, batched)

    def test_simulate_batch_identical_results(self):
        nl = generate_design(n_gates=150, seed=3)
        rng = np.random.default_rng(1)
        words = LogicSimulator(nl).random_source_words(2, rng)
        faults = full_fault_list(nl)
        res_s, _ = reference.simulate_batch(nl, faults, words, n_patterns=100)
        res_b = FaultSimulator(nl, IN_PROCESS).simulate_batch(
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
            res_s, _ = reference.simulate_batch(
                nl, faults, words, n_patterns=n_patterns
            )
            res_b = FaultSimulator(nl, IN_PROCESS).simulate_batch(
                faults, words, n_patterns=n_patterns
            )
            assert res_s.detected == res_b.detected
            assert res_s.detecting_pattern == res_b.detecting_pattern

    def test_small_fault_groups_chunk_correctly(self, c17, monkeypatch):
        monkeypatch.setattr(ppsfp, "MAX_GROUP", 1)
        fsim = FaultSimulator(c17)
        rng = np.random.default_rng(3)
        values = fsim.good_values(fsim.simulator.random_source_words(1, rng))
        faults = full_fault_list(c17)
        np.testing.assert_array_equal(
            _serial_masks(fsim, faults, values),
            fsim.detection_masks(faults, values),
        )

    def test_chunk_of_empty_cones(self):
        # g drives only a flop's data pin and h only a primary output, so
        # the chunk's union cone is empty and every site is frontier.
        nl = Netlist("dead_ends")
        a, b = nl.add_input("a"), nl.add_input("b")
        g = nl.add_cell(GateType.AND, (a, b), "g")
        q = nl.add_cell(GateType.DFF, (g,), "q")
        h = nl.add_cell(GateType.OR, (a, q), "h")
        nl.mark_output(h)
        fsim = FaultSimulator(nl, IN_PROCESS)
        assert len(fsim.simulator.forward_union([g, h])) == 0
        rng = np.random.default_rng(6)
        values = fsim.good_values(fsim.simulator.random_source_words(2, rng))
        faults = [Fault(v, s) for v in (g, h) for s in (0, 1)]
        np.testing.assert_array_equal(
            _serial_masks(fsim, faults, values),
            fsim.detection_masks(faults, values),
        )
        diffs = fsim.engine.batched.propagate(
            np.array([g, h]), ~values[[g, h]], values
        )
        assert not diffs.any()

    def test_site_inside_another_sites_cone(self, c17):
        # G16 is in G11's cone: in one chunk, G16's stuck row must survive
        # its own group's write while G11's effect flows through it.
        g11, g16 = c17.find("G11"), c17.find("G16")
        fsim = FaultSimulator(c17, IN_PROCESS)
        assert g16 in fsim.simulator.forward_cone(g11)
        rng = np.random.default_rng(7)
        values = fsim.good_values(fsim.simulator.random_source_words(2, rng))
        faults = [Fault(v, s) for v in (g11, g16) for s in (0, 1)]
        np.testing.assert_array_equal(
            _serial_masks(fsim, faults, values),
            fsim.detection_masks(faults, values),
        )

    def test_fault_coverage_identical(self):
        nl = generate_design(n_gates=120, seed=9)
        rng = np.random.default_rng(4)
        batches = [LogicSimulator(nl).random_source_words(1, rng) for _ in range(3)]
        faults = full_fault_list(nl)
        cov_s, rem_s = reference.fault_coverage(nl, faults, batches)
        cov_b, rem_b = FaultSimulator(nl, IN_PROCESS).fault_coverage(
            faults, batches
        )
        assert cov_s == cov_b
        assert rem_s == rem_b

    def test_observation_points_propagate(self, reconvergent):
        nl = reconvergent
        # An OP deep in the masked region changes detectability; engine
        # and oracle must agree after the mutation.
        target = nl.find("m")
        nl.insert_observation_point(target)
        fsim = FaultSimulator(nl)
        rng = np.random.default_rng(5)
        values = fsim.good_values(fsim.simulator.random_source_words(1, rng))
        faults = full_fault_list(nl)
        np.testing.assert_array_equal(
            _serial_masks(fsim, faults, values),
            fsim.detection_masks(faults, values),
        )


# --------------------------------------------------------------------- #
# Observability engine vs the per-stem oracle
# --------------------------------------------------------------------- #
class TestObservabilityBackends:
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_masks_bit_identical(self, fixture, request):
        nl = request.getfixturevalue(fixture)
        rng = np.random.default_rng(0)
        with ObservabilityAnalyzer(nl, execution=IN_PROCESS) as analyzer:
            values = analyzer.simulator.simulate(
                analyzer.simulator.random_source_words(2, rng)
            )
            np.testing.assert_array_equal(
                reference.observability_masks(nl, values),
                analyzer.masks_from_values(values),
            )

    def test_with_observation_points(self):
        nl = generate_design(n_gates=100, seed=11)
        rng = np.random.default_rng(1)
        targets = [v for v in nl.nodes() if nl.fanouts(v)][:3]
        for t in targets:
            nl.insert_observation_point(t)
        with ObservabilityAnalyzer(nl, execution=IN_PROCESS) as analyzer:
            values = analyzer.simulator.simulate(
                analyzer.simulator.random_source_words(1, rng)
            )
            np.testing.assert_array_equal(
                reference.observability_masks(nl, values),
                analyzer.masks_from_values(values),
            )


# --------------------------------------------------------------------- #
# Pooled path (small fault lists pool once POOL_MIN_SITES is lowered)
# --------------------------------------------------------------------- #
def _crashing_worker(*args, **kwargs):
    raise RuntimeError("injected fault-sim worker failure")


class TestParallelBackend:
    @pytest.fixture(autouse=True)
    def _pool_every_call(self, monkeypatch):
        monkeypatch.setattr(ppsfp, "POOL_MIN_SITES", 1)

    def test_parallel_masks_bit_identical(self):
        nl = generate_design(n_gates=120, seed=21)
        fsim = FaultSimulator(nl, ExecutionConfig(workers=2))
        fsim.engine.policy = dataclasses.replace(
            fsim.engine.policy, worker_timeout=60.0
        )
        rng = np.random.default_rng(0)
        values = fsim.good_values(fsim.simulator.random_source_words(2, rng))
        faults = full_fault_list(nl)
        try:
            serial = _serial_masks(fsim, faults, values)
            parallel = fsim.detection_masks(faults, values)
        finally:
            fsim.close()
        np.testing.assert_array_equal(serial, parallel)

    def test_worker_failure_falls_back_batched(self):
        nl = generate_design(n_gates=80, seed=22)
        fsim = FaultSimulator(nl, ExecutionConfig(workers=2))
        fsim.engine.worker_fn = _crashing_worker
        rng = np.random.default_rng(1)
        values = fsim.good_values(fsim.simulator.random_source_words(1, rng))
        faults = full_fault_list(nl)
        try:
            with pytest.warns(ResourceWarning):
                parallel = fsim.detection_masks(faults, values)
            serial = _serial_masks(fsim, faults, values)
        finally:
            fsim.close()
        np.testing.assert_array_equal(serial, parallel)

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

        _, serial_evals = reference.simulate_batch(nl, faults, words)
        reg = MetricsRegistry()
        set_registry(reg)
        try:
            FaultSimulator(nl, IN_PROCESS).simulate_batch(faults, words)
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
            FaultSimulator(nl, IN_PROCESS).simulate_batch(faults, words)
            gauge = reg.get("repro_atpg_faults_per_second")
            assert gauge.labels(backend="batched").value > 0
        finally:
            set_registry(MetricsRegistry())
