"""ExecutionConfig: validation, env resolution, the one spelling of a backend."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro import api
from repro.atpg import ppsfp
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import full_fault_list
from repro.atpg.generate import AtpgConfig
from repro.atpg.observability import ObservabilityAnalyzer, observability_counts
from repro.atpg.ppsfp import BatchedConeEngine, PpsfpEngine
from repro.circuit import generate_design
from repro.cli import main as cli_main
from repro.config import ExecutionConfig, INFERENCE_BACKENDS
from repro.core.graphdata import GraphData
from repro.core.model import GCN, GCNConfig
from repro.core.trainer import ParallelTrainer, TrainConfig, Trainer
from repro.exec import DistributedExecutor, ForkPoolExecutor, make_executor
from repro.graph import PartitionConfig, ShardedInference
from repro.resilience.errors import ConfigError
from repro.serve import ServeConfig
from repro.testability import LabelConfig, label_nodes


@pytest.fixture(scope="module")
def netlist():
    return generate_design(60, seed=9)


class TestValidation:
    def test_defaults(self):
        cfg = ExecutionConfig()
        assert cfg.backend == "auto"
        assert cfg.workers is None
        assert cfg.dtype == "float64"

    def test_dtype_normalised(self):
        assert ExecutionConfig(dtype=np.float32).dtype == "float32"
        assert ExecutionConfig(dtype="float32").numpy_dtype() == np.float32

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"shards": 0},
            {"dtype": "int32"},
            {"backend": ""},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ExecutionConfig(**kwargs)

    def test_replace_is_frozen_copy(self):
        cfg = ExecutionConfig()
        other = cfg.replace(workers=3)
        assert cfg.workers is None and other.workers == 3
        with pytest.raises(Exception):
            cfg.workers = 2  # frozen


class TestEnvResolution:
    def test_from_env_reads_variables(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "sharded")
        monkeypatch.setenv("REPRO_WORKERS", "5")
        monkeypatch.setenv("REPRO_SHARDS", "7")
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        cfg = ExecutionConfig.from_env()
        assert cfg.backend == "sharded"
        assert cfg.workers == 5
        assert cfg.shards == 7
        assert cfg.dtype == "float32"

    def test_explicit_overrides_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert ExecutionConfig.from_env(workers=2).workers == 2

    def test_bad_env_values_raise(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ConfigError):
            ExecutionConfig.from_env()

    def test_resolved_workers_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert ExecutionConfig().resolved_workers() == 4
        assert ExecutionConfig(workers=2).resolved_workers() == 2

    def test_resolved_shards_defaults_to_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert ExecutionConfig(workers=3).resolved_shards() == 3
        assert ExecutionConfig(workers=3).resolved_shards(n_nodes=2) == 2
        assert ExecutionConfig(shards=5, workers=2).resolved_shards() == 5


class TestBackendResolution:
    def test_inference_vocabulary(self):
        for backend in INFERENCE_BACKENDS:
            ExecutionConfig(backend=backend).resolve_inference_backend(10)
        with pytest.raises(ConfigError):
            ExecutionConfig(backend="warp").resolve_inference_backend(10)

    def test_auto_small_graph_single(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        cfg = ExecutionConfig(workers=8)
        assert cfg.resolve_inference_backend(1000) == "single"

    def test_auto_large_graph_sharded(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        cfg = ExecutionConfig(workers=8)
        assert cfg.resolve_inference_backend(1_000_000) == "sharded"

    def test_auto_single_worker_stays_single(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        cfg = ExecutionConfig(workers=1)
        assert cfg.resolve_inference_backend(1_000_000) == "single"

    def test_env_backend_wins_over_auto_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "sharded")
        assert ExecutionConfig().resolve_inference_backend(10) == "sharded"
        assert (
            ExecutionConfig(backend="single").resolve_inference_backend(10)
            == "single"
        )

    def test_fault_sim_vocabulary(self, netlist, tmp_path):
        # The old fault-sim choices are no backend: a config spelling one
        # fails to build, and the CLI flag that passed one is gone.
        for backend in ("serial", "batched", "parallel"):
            with pytest.raises(ConfigError, match="single"):
                ExecutionConfig(backend=backend)
        path = tmp_path / "tiny.bench"
        api.save_netlist(netlist, path)
        with pytest.raises(SystemExit) as exc:
            cli_main(["analyze", str(path), "--fault-sim-backend", "batched"])
        assert exc.value.code == 2

    def test_one_config_serves_every_consumer(self, netlist, monkeypatch):
        """An inference backend is a valid config for fault simulation and
        labelling too: they read only its worker count and fabric."""
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        sharded = ExecutionConfig(backend="sharded", workers=1)
        reference = api.label_nodes(netlist, api.LabelConfig(n_patterns=64))
        labelled = api.label_nodes(
            netlist, api.LabelConfig(n_patterns=64, execution=sharded)
        )
        np.testing.assert_array_equal(labelled.labels, reference.labels)
        summary = api.simulate_faults(netlist, n_patterns=64, execution=sharded)
        assert summary.coverage == api.simulate_faults(
            netlist, n_patterns=64
        ).coverage
        weights = GCN(GCNConfig(seed=5)).layer_weights()
        assert api.score(weights, netlist, execution=sharded).backend == "sharded"

        monkeypatch.setenv("REPRO_BACKEND", "sharded")
        from_env = api.LabelConfig(
            n_patterns=64, execution=ExecutionConfig.from_env()
        )
        np.testing.assert_array_equal(
            api.label_nodes(netlist, from_env).labels, reference.labels
        )


class TestDeprecationShims:
    """The shims are gone: backend selection is spelled ``ExecutionConfig``,
    and each legacy keyword — the constructor ``sleep=`` that was accepted
    and ignored, the per-engine pool, supervision and tuning knobs — is
    now a ``TypeError``."""

    def test_fault_simulator_backend_kwarg(self, netlist):
        with pytest.raises(TypeError, match="unexpected keyword"):
            FaultSimulator(netlist, backend="serial")

    def test_fault_simulator_execution_no_warning(self, netlist, recwarn):
        fsim = FaultSimulator(netlist, ExecutionConfig(workers=1))
        assert fsim.execution.workers == 1
        fsim.close()
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]

    def test_observability_analyzer_backend_kwarg(self, netlist):
        with pytest.raises(TypeError, match="unexpected keyword"):
            ObservabilityAnalyzer(netlist, backend="serial")

    def test_observability_counts_backend_kwarg(self, netlist):
        with pytest.raises(TypeError, match="unexpected keyword"):
            observability_counts(netlist, n_patterns=64, backend="serial")

    def test_label_config_backend_field(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            LabelConfig(backend="batched")

    def test_atpg_config_fault_sim_backend_field(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            AtpgConfig(**{"fault_sim_backend": "serial"})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_executor("inprocess", sleep=None),
            lambda: ForkPoolExecutor(1, sleep=None),
            lambda: DistributedExecutor(1, sleep=None),
            lambda: ParallelTrainer(None, sleep=None),
            lambda: ParallelTrainer(None, **{"max_workers": 2}),
            lambda: ParallelTrainer(None, **{"worker_timeout": 1.0}),
            lambda: ParallelTrainer(None, **{"retry_policy": None}),
            lambda: ParallelTrainer(None, **{"serial_fallback": False}),
            lambda: FaultSimulator(None, config=None),
            lambda: ObservabilityAnalyzer(None, config=None),
            lambda: PpsfpEngine(None, (), config=None),
            lambda: BatchedConeEngine(None, (), group_size=1),
            lambda: BatchedConeEngine(None, (), max_group_bytes=1),
            lambda: BatchedConeEngine(None, (), dense_threshold=0.5),
            lambda: PartitionConfig(balance_slack=0.1),
            lambda: PartitionConfig(refine_passes=1),
            lambda: PartitionConfig(n_shards=2, halo_hops=1),
            lambda: Trainer(None, execution=ExecutionConfig()),
            lambda: ServeConfig(batching=False),
            lambda: ServeConfig(batch_solo_threshold=1),
        ],
        ids=["make_executor", "ForkPoolExecutor", "DistributedExecutor",
             "ParallelTrainer", "ParallelTrainer-max-workers",
             "ParallelTrainer-worker-timeout", "ParallelTrainer-retry-policy",
             "ParallelTrainer-serial-fallback", "FaultSimulator-config",
             "ObservabilityAnalyzer-config", "PpsfpEngine-config",
             "BatchedConeEngine-group-size",
             "BatchedConeEngine-max-group-bytes",
             "BatchedConeEngine-dense-threshold",
             "PartitionConfig-balance-slack",
             "PartitionConfig-refine-passes",
             "PartitionConfig-halo-hops", "Trainer-execution",
             "ServeConfig-batching", "ServeConfig-batch-solo-threshold"],
    )
    def test_constructor_sleep_is_gone(self, build):
        with pytest.raises(TypeError, match="unexpected keyword"):
            build()


# --------------------------------------------------------------------- #
# One way to size a worker pool: ExecutionConfig, for every engine
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def pool_design():
    """Enough stems and faults (>= 1024) for ``auto`` to pick the pool."""
    return generate_design(3000, seed=3)


def _label(design, execution):
    label_nodes(design, LabelConfig(n_patterns=64, execution=execution))


def _observe(design, execution):
    with ObservabilityAnalyzer(design, execution=execution) as analyzer:
        analyzer.masks(
            analyzer.simulator.random_source_words(1, np.random.default_rng(0))
        )


def _fault_sim(design, execution, n_faults=ppsfp.POOL_MIN_SITES):
    with FaultSimulator(design, execution) as fsim:
        words = fsim.simulator.random_source_words(1, np.random.default_rng(0))
        faults = full_fault_list(design)[:n_faults]
        fsim.detection_masks(faults, fsim.good_values(words))


def _sharded(design, execution):
    weights = GCN(GCNConfig(seed=5)).layer_weights()
    graph = GraphData.from_netlist(generate_design(120, seed=23))
    with ShardedInference(weights, execution) as engine:
        engine.logits(graph)


def _train(design, execution):
    graphs = []
    for seed in (1, 2):
        g = GraphData.from_netlist(generate_design(40, seed=seed))
        graphs.append(GraphData(
            pred=g.pred, succ=g.succ, attributes=g.attributes,
            labels=(g.attributes[:, 3] > 0).astype(np.int64), name=f"g{seed}",
        ))
    ParallelTrainer(
        GCN(GCNConfig(hidden_dims=(4,), fc_dims=(4,), seed=5)),
        TrainConfig(epochs=1, lr=0.1, momentum=0.0, optimizer="sgd"),
        execution=execution,
    ).train_step(graphs)


POOL_ENGINES = {
    "label_nodes": _label,
    "ObservabilityAnalyzer": _observe,
    "FaultSimulator": _fault_sim,
    # one fault short of POOL_MIN_SITES: in process whatever the config
    "FaultSimulator-below-min": functools.partial(
        _fault_sim, n_faults=ppsfp.POOL_MIN_SITES - 1
    ),
    "ShardedInference": _sharded,
    "ParallelTrainer": _train,
}
POOL_CASES = [
    ("workers=1", ExecutionConfig(workers=1), []),
    ("inprocess", ExecutionConfig(exec_backend="inprocess"), []),
    ("workers=2", ExecutionConfig(workers=2), [2]),
]


class TestPoolSizedByExecutionConfig:
    @pytest.mark.parametrize("case", POOL_CASES, ids=[c[0] for c in POOL_CASES])
    @pytest.mark.parametrize("engine", POOL_ENGINES)
    def test_pools_built(self, engine, case, pool_design, monkeypatch):
        """The pools an engine builds are the ones its ExecutionConfig
        asks for: none with one worker or ``inprocess``, one of exactly
        ``workers`` otherwise — except that fault simulation pools only a
        call grading at least ``POOL_MIN_SITES`` faults."""
        monkeypatch.delenv("REPRO_EXEC_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        _, execution, expected = case
        built = []
        real_init = ForkPoolExecutor.__init__

        def spy(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            built.append(self.max_workers)

        monkeypatch.setattr(ForkPoolExecutor, "__init__", spy)
        POOL_ENGINES[engine](pool_design, execution)
        if engine == "FaultSimulator-below-min":
            expected = []
        assert built == expected
