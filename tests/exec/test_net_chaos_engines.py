"""Network chaos suite: every engine × every net chaos mode over loopback.

The distributed mirror of ``test_chaos_engines.py``: with
``REPRO_EXEC_BACKEND=socket`` and a two-worker loopback fleet, all three
engines must survive injected disconnects, delayed results, heartbeat
partitions and stale-generation replies — and produce results
**bit-identical** to the chaos-free oracle.  Thread-based workers are
safe here because no net mode ever calls ``os._exit``.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.atpg import FaultSimulator, full_fault_list
from repro.atpg.ppsfp import PpsfpConfig
from repro.circuit import generate_design
from repro.config import ExecutionConfig
from repro.core.graphdata import GraphData
from repro.core.inference import FastInference
from repro.core.model import GCN, GCNConfig
from repro.core.trainer import ParallelTrainer, TrainConfig
from repro.exec.chaos import NET_CHAOS_MODES
from repro.graph import ShardedInference
from repro.resilience.retry import RetryPolicy

FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.0)
WORKER_TIMEOUT_S = 0.5


@pytest.fixture()
def fleet(fleet):
    """Two loopback workers on this test's own coordinator."""
    return fleet(2)


def _arm(monkeypatch, mode: str) -> None:
    """Socket backend + the given net chaos mode at rate 1.0.

    The suite asserts bit-identity only, so every window is as short as
    the mode allows: the conftest's 0.3 s hang outlives the heartbeat
    timeout set here (so ``partition`` trips the silent-worker scan) and
    stays below the task deadline (so ``delay`` is answered, late).
    """
    monkeypatch.setenv("REPRO_EXEC_BACKEND", "socket")
    monkeypatch.setenv("REPRO_CHAOS", mode)
    monkeypatch.setenv("REPRO_EXEC_HB_TIMEOUT_S", "0.2")


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


def _train_step(graphs):
    model = GCN(GCNConfig(hidden_dims=(8,), fc_dims=(8,), seed=5))
    trainer = ParallelTrainer(
        model,
        TrainConfig(epochs=1, lr=0.1, momentum=0.0, optimizer="sgd"),
        max_workers=2,
        worker_timeout=WORKER_TIMEOUT_S,
        retry_policy=FAST_RETRY,
    )
    loss = trainer.train_step(graphs)
    return loss, {k: v.copy() for k, v in model.state_dict().items()}


@pytest.fixture(scope="module")
def train_case():
    graphs = [_labelled_graph(1), _labelled_graph(2)]
    return graphs, _train_step(graphs)


class TestTrainerNetChaos:
    @pytest.mark.parametrize("mode", NET_CHAOS_MODES)
    def test_epoch_bit_identical(self, mode, train_case, fleet, monkeypatch):
        graphs, (oracle_loss, oracle_state) = train_case
        _arm(monkeypatch, mode)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            loss, state = _train_step(graphs)
        assert loss == oracle_loss
        for key in oracle_state:
            np.testing.assert_array_equal(state[key], oracle_state[key], key)


# --------------------------------------------------------------------- #
# PpsfpEngine (fault simulation)
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def fault_sim_case():
    nl = generate_design(n_gates=80, seed=31)
    fsim = FaultSimulator(
        nl,
        config=PpsfpConfig(
            workers=2,
            shards=2,
            retry=FAST_RETRY,
            worker_timeout=WORKER_TIMEOUT_S,
        ),
    )
    rng = np.random.default_rng(2)
    values = fsim.good_values(fsim.simulator.random_source_words(1, rng))
    faults = full_fault_list(nl)
    oracle = fsim.detection_masks(faults, values, backend="batched")
    yield fsim, faults, values, oracle
    fsim.close()


class TestFaultSimNetChaos:
    @pytest.mark.parametrize("mode", NET_CHAOS_MODES)
    def test_masks_bit_identical(self, mode, fault_sim_case, fleet, monkeypatch):
        fsim, faults, values, oracle = fault_sim_case
        _arm(monkeypatch, mode)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            masks = fsim.detection_masks(faults, values, backend="parallel")
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


class TestInferenceNetChaos:
    @pytest.mark.parametrize("mode", NET_CHAOS_MODES)
    def test_logits_bit_identical(
        self, mode, inference_case, fleet, monkeypatch
    ):
        weights, graph, oracle = inference_case
        _arm(monkeypatch, mode)
        with ShardedInference(
            weights, ExecutionConfig(shards=2, workers=2)
        ) as engine:
            engine.retry = FAST_RETRY
            engine.worker_timeout = WORKER_TIMEOUT_S
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                logits = engine.logits(graph)
        np.testing.assert_array_equal(logits, oracle)


# --------------------------------------------------------------------- #
# Zero-worker degradation: socket backend with nobody listening
# --------------------------------------------------------------------- #
class TestZeroWorkerDegradation:
    def test_inference_degrades_to_forkpool(
        self, inference_case, fast_net, monkeypatch
    ):
        weights, graph, oracle = inference_case
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "socket")
        monkeypatch.setenv("REPRO_EXEC_CONNECT_TIMEOUT_S", "0.2")
        with ShardedInference(
            weights, ExecutionConfig(shards=2, workers=2)
        ) as engine:
            engine.retry = FAST_RETRY
            engine.worker_timeout = WORKER_TIMEOUT_S
            with pytest.warns(ResourceWarning, match="degrading"):
                logits = engine.logits(graph)
        np.testing.assert_array_equal(logits, oracle)
