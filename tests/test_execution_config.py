"""ExecutionConfig: validation, env resolution, the one spelling of a backend."""

from __future__ import annotations

import numpy as np
import pytest

from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.generate import AtpgConfig
from repro.atpg.observability import ObservabilityAnalyzer, observability_counts
from repro.atpg.ppsfp import BACKENDS, resolve_backend
from repro.circuit import generate_design
from repro.config import ExecutionConfig, INFERENCE_BACKENDS
from repro.core.trainer import ParallelTrainer
from repro.exec import DistributedExecutor, ForkPoolExecutor, make_executor
from repro.resilience.errors import ConfigError
from repro.testability import LabelConfig


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

    def test_fault_sim_vocabulary(self, netlist):
        # The fault simulator reads its vocabulary off the same config.
        for backend in BACKENDS:
            fsim = FaultSimulator(netlist, ExecutionConfig(backend=backend))
            assert fsim.backend == backend
            resolve_backend(fsim.backend, 10, 1)
        with pytest.raises(ValueError):
            resolve_backend(ExecutionConfig(backend="sharded").backend, 100, 4)


class TestDeprecationShims:
    """The shims are gone: backend selection is spelled ``ExecutionConfig``,
    and each legacy keyword — like the constructor ``sleep=`` that was
    accepted and ignored — is now a ``TypeError``."""

    def test_fault_simulator_backend_kwarg(self, netlist):
        with pytest.raises(TypeError, match="unexpected keyword"):
            FaultSimulator(netlist, backend="serial")

    def test_fault_simulator_execution_no_warning(self, netlist, recwarn):
        fsim = FaultSimulator(netlist, ExecutionConfig(backend="batched"))
        assert fsim.backend == "batched"
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
        ],
        ids=["make_executor", "ForkPoolExecutor", "DistributedExecutor",
             "ParallelTrainer"],
    )
    def test_constructor_sleep_is_gone(self, build):
        with pytest.raises(TypeError, match="unexpected keyword"):
            build()
