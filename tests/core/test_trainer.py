"""Training: convergence, masking, multi-graph scheme, parallel parity."""

import numpy as np
import pytest

from repro.circuit import generate_design
from repro.config import ExecutionConfig
from repro.core.graphdata import GraphData
from repro.core.model import GCN, GCNConfig
from repro.core.trainer import (
    ParallelTrainer,
    TrainConfig,
    Trainer,
    masked_accuracy,
)
from repro.resilience.errors import ConfigError


def _labelled_graph(seed=11, n=120):
    netlist = generate_design(n, seed=seed)
    rng = np.random.default_rng(seed)
    # Learnable labels: threshold on the observability attribute.
    g = GraphData.from_netlist(netlist)
    labels = (g.attributes[:, 3] > np.median(g.attributes[:, 3])).astype(np.int64)
    return GraphData(
        pred=g.pred, succ=g.succ, attributes=g.attributes, labels=labels,
        name=f"g{seed}",
    )


SMALL_CFG = GCNConfig(hidden_dims=(8, 16), fc_dims=(16,))


class TestTrainer:
    def test_loss_decreases(self):
        graph = _labelled_graph()
        model = GCN(SMALL_CFG)
        trainer = Trainer(model, TrainConfig(epochs=30, eval_every=5))
        history = trainer.fit([graph])
        assert history.loss[-1] < history.loss[0]

    def test_learns_separable_task(self):
        graph = _labelled_graph()
        model = GCN(SMALL_CFG)
        trainer = Trainer(model, TrainConfig(epochs=120, eval_every=30))
        history = trainer.fit([graph])
        assert history.final_train_accuracy() > 0.85

    def test_history_records_eval_points(self):
        graph = _labelled_graph()
        trainer = Trainer(GCN(SMALL_CFG), TrainConfig(epochs=20, eval_every=7))
        history = trainer.fit([graph], test_graphs=[_labelled_graph(seed=12)])
        assert history.epochs == [7, 14, 20]
        assert len(history.test_accuracy) == 3

    def test_mask_restricts_loss(self):
        graph = _labelled_graph()
        idx = np.arange(10)
        masked = graph.subset(idx)
        model = GCN(SMALL_CFG)
        trainer = Trainer(model, TrainConfig(epochs=60, lr=0.02, eval_every=60))
        history = trainer.fit([masked])
        # 10 nodes are easy to overfit
        assert history.final_train_accuracy() == 1.0

    def test_multi_graph_loss_is_mean(self):
        g1, g2 = _labelled_graph(1), _labelled_graph(2)
        model = GCN(SMALL_CFG)
        trainer = Trainer(model, TrainConfig(epochs=1, eval_every=1))
        loss_both = trainer.train_step([g1, g2])
        from repro.core.trainer import _graph_loss

        model2 = GCN(SMALL_CFG)
        l1 = _graph_loss(model2, g1, None).item()
        l2 = _graph_loss(model2, g2, None).item()
        assert loss_both == pytest.approx((l1 + l2) / 2, rel=1e-9)

    def test_class_weights_shift_predictions(self):
        graph = _labelled_graph()

        def positive_rate(weights):
            model = GCN(SMALL_CFG)
            cfg = TrainConfig(epochs=30, eval_every=30, class_weights=weights)
            Trainer(model, cfg).fit([graph])
            return model.predict(graph).mean()

        assert positive_rate((1.0, 10.0)) >= positive_rate((10.0, 1.0))

    def test_unlabelled_graph_rejected(self, c17):
        graph = GraphData.from_netlist(c17)
        trainer = Trainer(GCN(SMALL_CFG), TrainConfig(epochs=1))
        with pytest.raises(ValueError, match="no labels"):
            trainer.fit([graph])

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(ValueError, match="optimizer"):
            Trainer(GCN(SMALL_CFG), TrainConfig(optimizer="lbfgs"))

    def test_sgd_optimizer_path(self):
        graph = _labelled_graph()
        trainer = Trainer(
            GCN(SMALL_CFG), TrainConfig(epochs=10, optimizer="sgd", lr=0.02)
        )
        history = trainer.fit([graph])
        assert history.loss[-1] < history.loss[0] * 1.5


class TestMaskedAccuracy:
    def test_perfect_and_zero(self):
        graph = _labelled_graph()
        model = GCN(SMALL_CFG)
        acc = masked_accuracy(model, [graph])
        assert 0.0 <= acc <= 1.0


class TestParallelTrainer:
    def test_single_step_matches_serial(self):
        """Figure-5 scheme: averaged worker gradients == serial gradients."""
        g1, g2 = _labelled_graph(1), _labelled_graph(2)
        serial_model = GCN(GCNConfig(hidden_dims=(8,), fc_dims=(8,), seed=5))
        parallel_model = GCN(GCNConfig(hidden_dims=(8,), fc_dims=(8,), seed=5))
        cfg = TrainConfig(epochs=1, lr=0.1, momentum=0.0, optimizer="sgd")
        Trainer(serial_model, cfg).train_step([g1, g2])
        ParallelTrainer(
            parallel_model, cfg, execution=ExecutionConfig(workers=2)
        ).train_step([g1, g2])
        for ps, pp in zip(serial_model.parameters(), parallel_model.parameters()):
            assert np.allclose(ps.data, pp.data, atol=1e-12)


class TestOneConfigTrainsOneModel:
    """How inference would execute never changes what training learns:
    every trainer trains each graph whole, whatever the config says."""

    CASES = {
        "default": ExecutionConfig(),
        "sharded": ExecutionConfig(backend="sharded", shards=3, workers=1),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_trainers_agree_bit_for_bit(self, case, monkeypatch):
        from repro import api

        execution = self.CASES[case]
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        graphs = [_labelled_graph(seed=5, n=600), _labelled_graph(seed=6, n=200)]
        gcn = GCNConfig(hidden_dims=(8, 16), fc_dims=(16,), seed=3)
        cfg = TrainConfig(epochs=3, eval_every=1)

        serial = GCN(gcn)
        reference = Trainer(serial, cfg).fit(graphs)
        parallel = GCN(gcn)
        pooled = ParallelTrainer(
            parallel,
            cfg,
            execution=execution.replace(workers=1),
        ).fit(graphs)
        facade = api.train(graphs, config=cfg, gcn=gcn, execution=execution)

        for model, history in ((parallel, pooled), (facade.model, facade.history)):
            assert history.loss == reference.loss
            for mine, theirs in zip(model.parameters(), serial.parameters()):
                np.testing.assert_array_equal(mine.data, theirs.data)


class TestTrainConfigChecks:
    """Values training cannot run are refused at construction, the
    ``TrainConfig(lr=nan, epochs=-3)`` probe among them."""

    @pytest.mark.parametrize(
        "fields, problem",
        [
            ({"lr": float("nan"), "epochs": -3}, "epochs must be an integer >= 0"),
            ({"lr": float("nan")}, "lr must be a finite number > 0"),
            ({"lr": float("inf")}, "lr must be a finite number > 0"),
            ({"lr": 0.0}, "lr must be a finite number > 0"),
            ({"epochs": 2.5}, "epochs must be an integer >= 0"),
            ({"eval_every": 0}, "eval_every must be an integer >= 1"),
            ({"optimizer": "adagrad"}, "optimizer must be one of"),
            ({"class_weights": (1.0,)}, "class_weights must be two finite numbers > 0"),
            ({"class_weights": (1.0, float("nan"))}, "class_weights must be two finite"),
            ({"class_weights": (0.0, 2.0)}, "class_weights must be two finite"),
        ],
    )
    def test_refused(self, fields, problem):
        with pytest.raises(ConfigError, match=f"invalid training config: .*{problem}"):
            TrainConfig(**fields)

    def test_both_problems_of_the_probe_are_named(self):
        with pytest.raises(ConfigError) as info:
            TrainConfig(lr=float("nan"), epochs=-3)
        assert "epochs" in str(info.value) and "lr" in str(info.value)

    def test_defaults_and_the_runnable_edges_build(self):
        TrainConfig()
        TrainConfig(epochs=0, optimizer="sgd", class_weights=(1.0, 3.5), lr=1e-6)
