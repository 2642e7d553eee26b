"""Backend-resolution precedence, exercised through all three engines.

The contract: an *explicit* ``exec_backend`` always wins, then
``REPRO_EXEC_BACKEND``, then the engine's own workload default
(``forkpool`` for all three); ``auto`` is a pure placeholder that never
reaches ``make_executor``; junk in the environment raises a typed
:class:`ConfigError` naming the allowed vocabulary.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.atpg import FaultSimulator, full_fault_list
from repro.atpg.ppsfp import PpsfpConfig
from repro.circuit import generate_design
from repro.config import ExecutionConfig
from repro.core.graphdata import GraphData
from repro.core.model import GCN, GCNConfig
from repro.core.trainer import ParallelTrainer, TrainConfig
from repro.graph import ShardedInference
from repro.resilience.errors import ConfigError
from repro.resilience.retry import RetryPolicy

NO_SLEEP = lambda s: None  # noqa: E731
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.0)


def _recorder(monkeypatch, module):
    """Swap the module's ``make_executor`` for one that records the backend."""
    seen: dict = {}
    real = module.make_executor

    def record(backend, **kwargs):
        seen["backend"] = backend
        return real(backend, **kwargs)

    monkeypatch.setattr(module, "make_executor", record)
    return seen


# ------------------------------------------------------------------ #
# One tiny workload per engine; returns the backend make_executor saw
# (engines skip make_executor entirely on their serial inprocess path).
# ------------------------------------------------------------------ #
def _run_trainer(monkeypatch, explicit):
    import repro.core.trainer as trainer_mod

    seen = _recorder(monkeypatch, trainer_mod)
    netlist = generate_design(40, seed=3)
    g = GraphData.from_netlist(netlist)
    graph = GraphData(
        pred=g.pred, succ=g.succ, attributes=g.attributes,
        labels=(g.attributes[:, 3] > 0).astype(np.int64), name="g",
    )
    trainer = ParallelTrainer(
        GCN(GCNConfig(hidden_dims=(4,), fc_dims=(4,), seed=5)),
        TrainConfig(epochs=1, lr=0.1, momentum=0.0, optimizer="sgd"),
        max_workers=1,
        retry_policy=FAST_RETRY,
        sleep=NO_SLEEP,
        execution=ExecutionConfig(exec_backend=explicit or "auto"),
    )
    trainer.train_step([graph])
    return seen.get("backend", "inprocess")


def _run_fault_sim(monkeypatch, explicit):
    import repro.atpg.ppsfp as ppsfp_mod

    seen = _recorder(monkeypatch, ppsfp_mod)
    nl = generate_design(n_gates=40, seed=7)
    with FaultSimulator(
        nl,
        config=PpsfpConfig(
            workers=1, shards=1, retry=FAST_RETRY, exec_backend=explicit
        ),
    ) as fsim:
        rng = np.random.default_rng(2)
        values = fsim.good_values(fsim.simulator.random_source_words(1, rng))
        fsim.detection_masks(
            full_fault_list(nl)[:8], values, backend="parallel"
        )
    return seen.get("backend", "inprocess")


def _run_inference(monkeypatch, explicit):
    import repro.graph.sharded as sharded_mod

    seen = _recorder(monkeypatch, sharded_mod)
    weights = GCN(GCNConfig(seed=5)).layer_weights()
    graph = GraphData.from_netlist(generate_design(120, seed=23))
    with ShardedInference(
        weights,
        ExecutionConfig(shards=2, workers=2, exec_backend=explicit or "auto"),
    ) as engine:
        engine.retry = FAST_RETRY
        engine.logits(graph)
    return seen.get("backend", "inprocess")


ENGINES = [
    ("train", _run_trainer),
    ("atpg", _run_fault_sim),
    ("inference", _run_inference),
]


@pytest.mark.parametrize("name,run", ENGINES, ids=[n for n, _ in ENGINES])
class TestResolutionPrecedence:
    def test_explicit_wins_over_env(self, name, run, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "inprocess")
        assert run(monkeypatch, "forkpool") == "forkpool"

    def test_env_wins_over_engine_default(self, name, run, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "inprocess")
        assert run(monkeypatch, None) == "inprocess"

    def test_engine_default_when_unset(self, name, run, monkeypatch):
        assert run(monkeypatch, None) == "forkpool"

    def test_auto_never_escapes(self, name, run, monkeypatch):
        # ``auto`` must resolve before make_executor, to the engine default.
        assert run(monkeypatch, "auto") == "forkpool"

    def test_invalid_env_raises_with_vocabulary(self, name, run, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "threads")
        with pytest.raises(ConfigError, match="forkpool"):
            run(monkeypatch, None)
