"""Sharded inference: bit-identity, no routing, pool resilience."""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.circuit import generate_design
from repro.config import ExecutionConfig
from repro.core.graphdata import GraphData
from repro.core.inference import FastInference
from repro.core.model import GCN, GCNConfig
from repro.flow.modify import IncrementalDesign
from repro.flow.scorer import IncrementalScorer
from repro.core.serialize import save_gcn
from repro.graph import ShardedInference, partition, sharded
from repro.graph.sharded import _exchange_worker_round
from repro.serve import ModelManager
from repro.serve.batch import merge_graphs


@pytest.fixture(scope="module")
def model():
    model = GCN(GCNConfig(seed=5))
    rng = np.random.default_rng(2)
    for p in model.parameters():
        p.data = p.data + rng.normal(scale=0.05, size=p.data.shape)
    return model


@pytest.fixture(scope="module")
def weights(model):
    return model.layer_weights()


@pytest.fixture(scope="module")
def graph():
    return GraphData.from_netlist(generate_design(700, seed=23))


def _crashing_worker(*args, **kwargs):
    raise OSError("injected shard-worker failure")


# One arm per way of computing a design's logits other than the whole-graph
# pass.  Each returns ``(graph, logits)``; the contract is that ``logits``
# equals ``FastInference(weights).logits(graph)`` bit for bit.
def _sharded_arm(n_shards, workers=1, backend_env=None):
    """Sharded logits through the executor that ``workers`` and
    ``REPRO_EXEC_BACKEND`` pick; embeddings are checked on the way."""

    def run(weights):
        graph = GraphData.from_netlist(generate_design(700, seed=23))
        with pytest.MonkeyPatch.context() as mp:
            mp.delenv("REPRO_EXEC_BACKEND", raising=False)
            if backend_env is not None:
                mp.setenv("REPRO_EXEC_BACKEND", backend_env)
            with ShardedInference(
                weights, ExecutionConfig(shards=n_shards, workers=workers)
            ) as engine:
                logits = engine.logits(graph)
                embeddings = engine.embed(graph)
                forked = engine._executor is not None
        assert forked == (
            n_shards > 1 and workers > 1 and backend_env != "inprocess"
        )
        assert np.array_equal(FastInference(weights).embed(graph), embeddings)
        return graph, logits

    return run


def _batched_arm(weights):
    """The design's slice of a block-diagonal batch (the serve lane)."""
    graphs = [
        GraphData.from_netlist(generate_design(gates, seed=seed))
        for gates, seed in ((60, 3), (700, 23), (150, 4))
    ]
    merged = merge_graphs(graphs)
    logits = FastInference(weights).logits(merged.graph)
    return graphs[1], merged.split(logits)[1]


def _incremental_arm(k):
    def run(weights):
        """Row-subset patches after ``k`` random OP insertions, checked
        after the full pass and after every rescore."""
        design = IncrementalDesign(generate_design(700, seed=23))
        oracle = FastInference(weights)
        scorer = IncrementalScorer(weights)
        scorer.bind(design.graph)
        assert np.array_equal(scorer.logits, oracle.logits(design.graph))
        rng = np.random.default_rng(k)
        for _ in range(k):
            target = int(rng.integers(design.num_nodes))
            _, checkpoint = design.insert_op(target)
            scorer.rescore(checkpoint.changed_rows)
            assert np.array_equal(scorer.logits, oracle.logits(design.graph))
        return design.graph, scorer.logits

    return run


class TestBitIdentity:
    @pytest.mark.parametrize(
        "arm",
        [
            pytest.param(_sharded_arm(1), id="sharded-1"),
            pytest.param(_sharded_arm(2), id="sharded-2"),
            pytest.param(_sharded_arm(3), id="sharded-3"),
            pytest.param(_sharded_arm(7), id="sharded-7"),
            pytest.param(
                _sharded_arm(2, 2, "inprocess"), id="sharded-2-env-inprocess"
            ),
            pytest.param(
                _sharded_arm(3, 2, "inprocess"), id="sharded-3-env-inprocess"
            ),
            pytest.param(
                _sharded_arm(7, 2, "inprocess"), id="sharded-7-env-inprocess"
            ),
            pytest.param(_sharded_arm(1, 2), id="sharded-1-two-workers"),
            pytest.param(_sharded_arm(2, 2), id="sharded-2-pool"),
            pytest.param(_sharded_arm(3, 2), id="sharded-3-pool"),
            pytest.param(_sharded_arm(7, 2), id="sharded-7-pool"),
            pytest.param(_batched_arm, id="batched"),
            pytest.param(_incremental_arm(1), id="incremental-1-op"),
            pytest.param(_incremental_arm(6), id="incremental-6-ops"),
        ],
    )
    def test_logits_bit_identical_float64(self, weights, arm):
        graph, logits = arm(weights)
        assert logits.dtype == np.float64
        assert np.array_equal(FastInference(weights).logits(graph), logits)

    def test_embed_bit_identical(self, weights, graph):
        single = FastInference(weights).embed(graph)
        with ShardedInference(
            weights, ExecutionConfig(shards=3, workers=1)
        ) as engine:
            assert np.array_equal(single, engine.embed(graph))

    def test_pool_path_bit_identical(self, weights, graph):
        single = FastInference(weights).logits(graph)
        with ShardedInference(
            weights, ExecutionConfig(shards=2, workers=2)
        ) as engine:
            sharded = engine.logits(graph)
        assert np.array_equal(single, sharded)

    def test_float32_close(self, weights, graph):
        single = FastInference(
            weights, execution=ExecutionConfig(dtype="float32")
        ).logits(graph)
        with ShardedInference(
            weights, ExecutionConfig(shards=3, workers=1, dtype="float32")
        ) as engine:
            sharded = engine.logits(graph)
        assert sharded.dtype == np.float32
        assert np.allclose(single, sharded, atol=1e-4)

    def test_predictions_match(self, weights, graph):
        single = FastInference(weights)
        with ShardedInference(
            weights, ExecutionConfig(shards=4, workers=1)
        ) as engine:
            assert np.array_equal(single.predict(graph), engine.predict(graph))
            assert np.allclose(
                single.predict_proba(graph), engine.predict_proba(graph)
            )

    def test_empty_graph(self, weights):
        empty = GraphData.from_netlist(generate_design(4, seed=0))
        # Tiny but non-empty designs still work with absurd shard requests.
        with ShardedInference(
            weights, ExecutionConfig(shards=16, workers=1)
        ) as engine:
            out = engine.logits(empty)
        assert out.shape == (empty.num_nodes, 2)


class TestConfiguration:
    def test_plan_cached_per_graph(self, weights, graph):
        with ShardedInference(
            weights, ExecutionConfig(shards=2, workers=1)
        ) as engine:
            engine.logits(graph)
            plan = engine._plan
            engine.logits(graph)
            assert engine._plan is plan


class TestRouting:
    def test_no_config_or_environment_routes_to_sharded(
        self, model, weights, graph, tmp_path, monkeypatch
    ):
        """Every way of asking for the sharded engine other than building
        one — environment, config, the serve daemon's config — gets the
        whole-graph pass: nothing partitions, nothing forks."""
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("a graph was partitioned")

        # The engine calls partition_graph through its own module's name.
        monkeypatch.setattr(partition, "partition_graph", spy)
        monkeypatch.setattr(sharded, "partition_graph", spy)
        monkeypatch.setenv("REPRO_BACKEND", "sharded")
        monkeypatch.setenv("REPRO_SHARDS", "3")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        reference = FastInference(weights).logits(graph)

        scored = api.score(weights, graph)
        assert (scored.backend, calls) == ("single", [])
        assert np.array_equal(scored.logits, reference)

        engine = FastInference(
            weights, ExecutionConfig(backend="sharded", workers=2)
        )
        assert np.array_equal(engine.logits(graph), reference)
        assert (api.score(engine, graph).backend, calls) == ("single", [])

        manager = ModelManager(
            save_gcn(model, tmp_path / "model.npz"),
            execution=ExecutionConfig.from_env(),
        )
        labels, info = manager.predict(graph)
        assert (info["degraded"], calls) == (False, [])
        assert manager._fn.__self__.backend == "single"
        assert np.array_equal(labels, np.argmax(reference, axis=1))

    def test_single_backend_stays_in_process(self, weights, graph):
        fast = FastInference(weights, execution=ExecutionConfig(backend="single"))
        self._assert_served_by(fast, "single", weights, graph)

    def test_explicit_sharded_backend(self, weights, graph):
        # The one way to a sharded pass: build the sharded engine.
        with ShardedInference(
            weights, ExecutionConfig(shards=3, workers=1)
        ) as engine:
            self._assert_served_by(engine, "sharded", weights, graph)

    @staticmethod
    def _assert_served_by(engine, backend, weights, graph):
        result = api.score(engine, graph)
        assert result.backend == backend
        assert np.array_equal(
            FastInference(weights).logits(graph), result.logits
        )
        assert np.array_equal(result.logits, engine.logits(graph))


class TestPoolResilience:
    def test_worker_crash_falls_back_bit_identical(self, weights, graph):
        single = FastInference(weights).logits(graph)
        with ShardedInference(
            weights, ExecutionConfig(shards=2, workers=2)
        ) as engine:
            engine.worker_fn = _crashing_worker
            with pytest.warns(ResourceWarning):
                out = engine.logits(graph)
        assert np.array_equal(single, out)

    def test_worker_fn_is_real_entrypoint(self):
        # The injectable default must stay the module-level picklable fn.
        engine = ShardedInference(
            GCN(GCNConfig(seed=0)).layer_weights(),
            ExecutionConfig(shards=1, workers=1),
        )
        try:
            assert engine.worker_fn is _exchange_worker_round
        finally:
            engine.close()

