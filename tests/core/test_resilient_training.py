"""Checkpoint/resume equivalence and parallel-trainer fault tolerance."""

import numpy as np
import pytest

from repro.circuit import generate_design
from repro.core.graphdata import GraphData
from repro.core.model import GCN, GCNConfig
from repro.core.trainer import ParallelTrainer, TrainConfig, Trainer
from repro.resilience.checkpoint import Checkpointer
from repro.resilience.errors import CheckpointCorruptError, WorkerFailedError
from repro.resilience.retry import RetryPolicy
from tests import helpers


def _labelled_graph(seed=11, n=120):
    netlist = generate_design(n, seed=seed)
    g = GraphData.from_netlist(netlist)
    labels = (g.attributes[:, 3] > np.median(g.attributes[:, 3])).astype(np.int64)
    return GraphData(
        pred=g.pred, succ=g.succ, attributes=g.attributes, labels=labels,
        name=f"g{seed}",
    )


SMALL_CFG = GCNConfig(hidden_dims=(8, 16), fc_dims=(16,))
NO_SLEEP = RetryPolicy(max_attempts=3, base_delay=0.0)


def _state(model):
    return {k: v.copy() for k, v in model.state_dict().items()}


class TestResumeEquivalence:
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_interrupted_run_resumes_to_identical_weights(self, tmp_path, optimizer):
        """train 40 epochs == train 20, kill, resume 20 — bit-identical."""
        graph = _labelled_graph()
        make_cfg = lambda epochs: TrainConfig(
            epochs=epochs, eval_every=10, optimizer=optimizer, momentum=0.9
        )

        reference = GCN(SMALL_CFG)
        ref_history = Trainer(reference, make_cfg(40)).fit([graph])

        # "Interrupted" run: stop at epoch 20 (checkpoint written there) ...
        ckpt = Checkpointer(tmp_path / "ckpt")
        interrupted = GCN(SMALL_CFG)
        Trainer(interrupted, make_cfg(20)).fit(
            [graph], checkpoint=ckpt, checkpoint_every=20
        )
        # ... then a fresh process resumes towards 40 from the snapshot.
        resumed_model = GCN(SMALL_CFG)
        resumed_history = Trainer(resumed_model, make_cfg(40)).fit(
            [graph], checkpoint=ckpt, checkpoint_every=20
        )

        ref_state = _state(reference)
        res_state = _state(resumed_model)
        assert set(ref_state) == set(res_state)
        for key in ref_state:
            assert np.array_equal(ref_state[key], res_state[key]), key
        assert resumed_history.epochs == ref_history.epochs
        assert resumed_history.loss == pytest.approx(ref_history.loss, abs=0)

    def test_finished_run_fast_forwards(self, tmp_path):
        graph = _labelled_graph()
        ckpt = Checkpointer(tmp_path / "ckpt")
        model = GCN(SMALL_CFG)
        cfg = TrainConfig(epochs=10, eval_every=5)
        Trainer(model, cfg).fit([graph], checkpoint=ckpt, checkpoint_every=5)
        done = _state(model)

        again = GCN(SMALL_CFG)
        Trainer(again, cfg).fit([graph], checkpoint=ckpt, checkpoint_every=5)
        for key, value in _state(again).items():
            assert np.array_equal(value, done[key])

    def test_resume_survives_corrupt_latest_snapshot(self, tmp_path):
        graph = _labelled_graph()
        ckpt = Checkpointer(tmp_path / "ckpt", keep=None)
        model = GCN(SMALL_CFG)
        Trainer(model, TrainConfig(epochs=20, eval_every=10)).fit(
            [graph], checkpoint=ckpt, checkpoint_every=10
        )
        helpers.truncate_file(ckpt.directory / "ckpt_00000020.npz")

        resumed = GCN(SMALL_CFG)
        with pytest.warns(ResourceWarning, match="skipping corrupt checkpoint"):
            Trainer(resumed, TrainConfig(epochs=20, eval_every=10)).fit(
                [graph], checkpoint=ckpt, checkpoint_every=10
            )
        # Resumed from epoch 10 and retrained 10..20: same endpoint as the
        # uninterrupted run (serial training is deterministic).
        for key, value in _state(resumed).items():
            assert np.array_equal(value, _state(model)[key])

    def test_optimizer_mismatch_rejected(self, tmp_path):
        graph = _labelled_graph()
        ckpt = Checkpointer(tmp_path / "ckpt")
        Trainer(GCN(SMALL_CFG), TrainConfig(epochs=5, eval_every=5)).fit(
            [graph], checkpoint=ckpt, checkpoint_every=5
        )
        with pytest.raises(CheckpointCorruptError, match="optimizer"):
            Trainer(
                GCN(SMALL_CFG), TrainConfig(epochs=5, optimizer="sgd")
            ).fit([graph], checkpoint=ckpt)

    def test_model_mismatch_rejected(self, tmp_path):
        graph = _labelled_graph()
        ckpt = Checkpointer(tmp_path / "ckpt")
        Trainer(GCN(SMALL_CFG), TrainConfig(epochs=5, eval_every=5)).fit(
            [graph], checkpoint=ckpt, checkpoint_every=5
        )
        other = GCN(GCNConfig(hidden_dims=(4,), fc_dims=(4,)))
        with pytest.raises(CheckpointCorruptError):
            Trainer(other, TrainConfig(epochs=5)).fit([graph], checkpoint=ckpt)


class TestParallelFaultTolerance:
    def _reference_step(self, graphs, seed=5):
        model = GCN(GCNConfig(hidden_dims=(8,), fc_dims=(8,), seed=seed))
        cfg = TrainConfig(epochs=1, lr=0.1, momentum=0.0, optimizer="sgd")
        Trainer(model, cfg).train_step(graphs)
        # ParallelTrainer reports the post-update loss; evaluate the serial
        # model the same way so the two are comparable.
        from repro.core.trainer import _graph_loss
        from repro.nn.tensor import no_grad

        with no_grad():
            loss = sum(
                _graph_loss(model, g, cfg.class_weights).item() for g in graphs
            ) / len(graphs)
        return model, loss

    def _parallel_trainer(self, seed=5, **kwargs):
        model = GCN(GCNConfig(hidden_dims=(8,), fc_dims=(8,), seed=seed))
        cfg = TrainConfig(epochs=1, lr=0.1, momentum=0.0, optimizer="sgd")
        kwargs.setdefault("retry_policy", NO_SLEEP)
        kwargs.setdefault("max_workers", 2)
        return model, ParallelTrainer(model, cfg, **kwargs)

    def test_raising_worker_retried_to_serial_parity(self, tmp_path, monkeypatch):
        """A worker that raises mid-epoch is retried; the epoch completes
        with the same result as the serial trainer."""
        g1, g2 = _labelled_graph(1), _labelled_graph(2)
        serial_model, serial_loss = self._reference_step([g1, g2])

        monkeypatch.setenv(helpers.FAULT_DIR_ENV, str(tmp_path / "faults"))
        helpers.arm_worker_faults(tmp_path / "faults", 1)
        model, trainer = self._parallel_trainer()
        trainer.worker_fn = helpers.raising_worker_gradients
        with pytest.warns(ResourceWarning, match="retrying"):
            loss = trainer.train_step([g1, g2])

        assert loss == pytest.approx(serial_loss)
        for ps, pp in zip(serial_model.parameters(), model.parameters()):
            assert np.allclose(ps.data, pp.data, atol=1e-12)

    def test_killed_worker_recovers_from_broken_pool(self, tmp_path, monkeypatch):
        """A worker process dying mid-task is replaced, its graph retried,
        and the epoch still completes with serial-parity loss."""
        g1, g2 = _labelled_graph(1), _labelled_graph(2)
        serial_model, serial_loss = self._reference_step([g1, g2])

        monkeypatch.setenv(helpers.FAULT_DIR_ENV, str(tmp_path / "faults"))
        helpers.arm_worker_faults(tmp_path / "faults", 1)
        model, trainer = self._parallel_trainer()
        trainer.worker_fn = helpers.dying_worker_gradients
        with pytest.warns(ResourceWarning, match="retrying"):
            loss = trainer.train_step([g1, g2])

        assert loss == pytest.approx(serial_loss)
        for ps, pp in zip(serial_model.parameters(), model.parameters()):
            assert np.allclose(ps.data, pp.data, atol=1e-12)

    def test_permanent_failure_rescued_serially(self):
        g1, g2 = _labelled_graph(1), _labelled_graph(2)
        serial_model, serial_loss = self._reference_step([g1, g2])

        model, trainer = self._parallel_trainer(
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0)
        )
        trainer.worker_fn = helpers.always_failing_worker
        with pytest.warns(ResourceWarning, match="serially"):
            loss = trainer.train_step([g1, g2])

        assert loss == pytest.approx(serial_loss)
        for ps, pp in zip(serial_model.parameters(), model.parameters()):
            assert np.allclose(ps.data, pp.data, atol=1e-12)

    def test_no_fallback_raises_typed_error(self):
        g1 = _labelled_graph(1)
        _, trainer = self._parallel_trainer(
            serial_fallback=False,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0),
        )
        trainer.worker_fn = helpers.always_failing_worker
        with pytest.warns(ResourceWarning):
            with pytest.raises(WorkerFailedError) as excinfo:
                trainer.train_step([g1])
        assert excinfo.value.graph_name == "g1"
