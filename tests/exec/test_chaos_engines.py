"""Chaos suite: every engine × every chaos mode, bit-identical to the oracle.

The contract under test is the ISSUE's acceptance bar: with
``REPRO_CHAOS`` set, all three fork-pool engines must either recover
(retry rounds) or degrade (serial in-process fallback), and either way
produce results **bit-identical** to the same computation run without
chaos.  Warnings are expected noise here — recovery is the point — so
each chaos run suppresses them; correctness is asserted on the outputs.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from repro.atpg import FaultSimulator, full_fault_list, ppsfp
from repro.circuit import generate_design
from repro.config import ExecutionConfig
from repro.core.graphdata import GraphData
from repro.core.inference import FastInference
from repro.core.model import GCN, GCNConfig
from repro.core.trainer import ParallelTrainer, TrainConfig
from repro.exec.chaos import PROCESS_CHAOS_MODES
from repro.graph import ShardedInference
from repro.resilience.retry import RetryPolicy

FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.0)
#: short enough that hang-mode attempts resolve quickly.  The suite
#: asserts bit-identity only, so a clean task that a loaded host pushes
#: past it costs a rescue, never a failure.
WORKER_TIMEOUT_S = 0.5


def _fast(policy):
    """``policy`` with the suite's short retry and deadline."""
    return dataclasses.replace(
        policy, retry=FAST_RETRY, worker_timeout=WORKER_TIMEOUT_S
    )


def _arm(monkeypatch, mode: str) -> None:
    monkeypatch.setenv("REPRO_CHAOS", mode)
    # A hang longer than the worker timeout (so the deadline trips); the
    # hung worker is killed at the deadline, not waited for.
    monkeypatch.setenv("REPRO_CHAOS_HANG_S", "2")


# --------------------------------------------------------------------- #
# ParallelTrainer
# --------------------------------------------------------------------- #
def _labelled_graph(seed=11, n=100):
    netlist = generate_design(n, seed=seed)
    g = GraphData.from_netlist(netlist)
    labels = (g.attributes[:, 3] > np.median(g.attributes[:, 3])).astype(np.int64)
    return GraphData(
        pred=g.pred, succ=g.succ, attributes=g.attributes, labels=labels,
        name=f"g{seed}",
    )


@pytest.fixture(scope="module")
def train_graphs():
    return [_labelled_graph(1), _labelled_graph(2)]


def _train_step(graphs):
    model = GCN(GCNConfig(hidden_dims=(8,), fc_dims=(8,), seed=5))
    trainer = ParallelTrainer(
        model,
        TrainConfig(epochs=1, lr=0.1, momentum=0.0, optimizer="sgd"),
        execution=ExecutionConfig(workers=2),
    )
    trainer.policy = _fast(trainer.policy)
    loss = trainer.train_step(graphs)
    return loss, {k: v.copy() for k, v in model.state_dict().items()}


class TestTrainerChaos:
    @pytest.mark.parametrize("mode", PROCESS_CHAOS_MODES)
    def test_epoch_bit_identical_under_chaos(
        self, mode, train_graphs, monkeypatch
    ):
        oracle_loss, oracle_state = _train_step(train_graphs)
        _arm(monkeypatch, mode)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            loss, state = _train_step(train_graphs)
        assert loss == oracle_loss
        assert set(state) == set(oracle_state)
        for key in oracle_state:
            np.testing.assert_array_equal(state[key], oracle_state[key], key)


# --------------------------------------------------------------------- #
# PpsfpEngine (fault simulation)
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def fault_sim_case():
    nl = generate_design(n_gates=80, seed=31)
    fsim = FaultSimulator(nl, ExecutionConfig(workers=2))
    fsim.engine.policy = _fast(fsim.engine.policy)
    rng = np.random.default_rng(2)
    values = fsim.good_values(fsim.simulator.random_source_words(1, rng))
    faults = full_fault_list(nl)
    oracle = fsim.detection_masks(faults, values)  # below POOL_MIN_SITES
    yield fsim, faults, values, oracle
    fsim.close()


@pytest.fixture
def pooled(monkeypatch):
    """Every fault-sim call grades on the pool, however few its faults."""
    monkeypatch.setattr(ppsfp, "POOL_MIN_SITES", 1)


class TestFaultSimChaos:
    @pytest.mark.parametrize("mode", PROCESS_CHAOS_MODES)
    def test_masks_bit_identical_under_chaos(
        self, mode, fault_sim_case, pooled, monkeypatch
    ):
        fsim, faults, values, oracle = fault_sim_case
        _arm(monkeypatch, mode)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            masks = fsim.detection_masks(faults, values)
        np.testing.assert_array_equal(masks, oracle)


# --------------------------------------------------------------------- #
# ShardedInference
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def inference_case():
    model = GCN(GCNConfig(seed=5))
    rng = np.random.default_rng(2)
    for p in model.parameters():
        p.data = p.data + rng.normal(scale=0.05, size=p.data.shape)
    weights = model.layer_weights()
    graph = GraphData.from_netlist(generate_design(400, seed=23))
    oracle = FastInference(weights).logits(graph)
    return weights, graph, oracle


class TestInferenceChaos:
    @pytest.mark.parametrize("mode", PROCESS_CHAOS_MODES)
    def test_logits_bit_identical_under_chaos(
        self, mode, inference_case, monkeypatch
    ):
        weights, graph, oracle = inference_case
        _arm(monkeypatch, mode)
        with ShardedInference(
            weights, ExecutionConfig(shards=2, workers=2)
        ) as engine:
            engine.policy = _fast(engine.policy)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                logits = engine.logits(graph)
        np.testing.assert_array_equal(logits, oracle)


# --------------------------------------------------------------------- #
# Kill switch: REPRO_EXEC_BACKEND=inprocess bypasses chaos entirely
# --------------------------------------------------------------------- #
class TestKillSwitch:
    def test_inprocess_backend_immune_to_chaos(
        self, inference_case, monkeypatch
    ):
        weights, graph, oracle = inference_case
        _arm(monkeypatch, "raise")
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "inprocess")
        with ShardedInference(
            weights, ExecutionConfig(shards=2, workers=2)
        ) as engine:
            # No warnings expected: chaos only ever runs in forked workers
            # and the kill switch means none are forked.
            with warnings.catch_warnings():
                warnings.simplefilter("error", ResourceWarning)
                logits = engine.logits(graph)
        np.testing.assert_array_equal(logits, oracle)

    def test_partial_rate_still_exact(self, fault_sim_case, pooled, monkeypatch):
        fsim, faults, values, oracle = fault_sim_case
        monkeypatch.setenv("REPRO_CHAOS", "raise:0.5")
        monkeypatch.setenv("REPRO_CHAOS_SEED", "3")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            masks = fsim.detection_masks(faults, values)
        np.testing.assert_array_equal(masks, oracle)
