"""Model persistence round trips."""

import numpy as np
import pytest

from repro.circuit import generate_design
from repro.core import (
    GCN,
    GCNConfig,
    GraphData,
    MultiStageConfig,
    MultiStageGCN,
    TrainConfig,
    load_cascade,
    load_gcn,
    save_cascade,
    save_gcn,
)
from repro.core.serialize import load_model
from repro.resilience.errors import CheckpointCorruptError
from tests.helpers import corrupt_file, truncate_file


def _saved_gcn(tmp_path):
    model = GCN(GCNConfig(hidden_dims=(8,), fc_dims=(8,)))
    return save_gcn(model, tmp_path / "model.npz")


def _fitted_cascade(graph):
    cascade = MultiStageGCN(
        MultiStageConfig(
            n_stages=2,
            gcn=GCNConfig(hidden_dims=(8,), fc_dims=(8,)),
            train=TrainConfig(epochs=5, eval_every=5),
        )
    )
    cascade.fit([graph])
    return cascade


def _saved_cascade(graph, tmp_path):
    return save_cascade(_fitted_cascade(graph), tmp_path / "cascade.npz")


@pytest.fixture
def graph():
    netlist = generate_design(150, seed=71)
    labels = np.zeros(netlist.num_nodes, dtype=np.int64)
    labels[::7] = 1
    return GraphData.from_netlist(netlist, labels=labels)


class TestGcnRoundTrip:
    def test_predictions_preserved(self, graph, tmp_path):
        model = GCN(GCNConfig(hidden_dims=(8, 16), fc_dims=(16,), seed=3))
        rng = np.random.default_rng(0)
        for p in model.parameters():
            p.data = p.data + rng.normal(scale=0.1, size=p.data.shape)
        path = save_gcn(model, tmp_path / "model.npz")
        again = load_gcn(path)
        assert again.config == model.config
        with_original = model(graph).data
        with_loaded = again(graph).data
        assert np.allclose(with_original, with_loaded)

    def test_suffix_added(self, graph, tmp_path):
        model = GCN(GCNConfig(hidden_dims=(8,), fc_dims=(8,)))
        path = save_gcn(model, tmp_path / "model")
        assert path.suffix == ".npz"
        assert path.exists()


class TestCascadeRoundTrip:
    def test_predictions_preserved(self, graph, tmp_path):
        cascade = MultiStageGCN(
            MultiStageConfig(
                n_stages=2,
                gcn=GCNConfig(hidden_dims=(8,), fc_dims=(8,)),
                train=TrainConfig(epochs=15, eval_every=15),
            )
        )
        cascade.fit([graph])
        path = save_cascade(cascade, tmp_path / "cascade.npz")
        again = load_cascade(path)
        assert len(again.stages) == len(cascade.stages)
        assert np.array_equal(again.predict(graph), cascade.predict(graph))

    def test_calibrated_decision_threshold_survives(self, graph, tmp_path):
        cascade = _fitted_cascade(graph)
        cascade.decision_threshold = 0.35
        again = load_cascade(save_cascade(cascade, tmp_path / "cascade.npz"))
        assert again.decision_threshold == 0.35
        assert np.array_equal(again.predict(graph), cascade.predict(graph))

    def test_file_without_a_threshold_loads_at_half(self, graph, tmp_path):
        cascade = _fitted_cascade(graph)
        cascade.decision_threshold = 0.35
        path = save_cascade(cascade, tmp_path / "cascade.npz")
        stored = np.load(path)
        np.savez(
            path,
            **{k: stored[k] for k in stored.files if k != "__decision_threshold__"},
        )
        assert load_cascade(path).decision_threshold == 0.5

    def test_unfitted_rejected(self, tmp_path):
        cascade = MultiStageGCN()
        with pytest.raises(ValueError):
            save_cascade(cascade, tmp_path / "x.npz")


class TestLoadValidation:
    """Corrupt/missing checkpoint files raise typed errors, never land as
    silently-wrong weights."""

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_gcn(tmp_path / "absent.npz")
        with pytest.raises(FileNotFoundError):
            load_cascade(tmp_path / "absent.npz")

    def test_truncated_gcn(self, tmp_path):
        path = _saved_gcn(tmp_path)
        truncate_file(path)
        with pytest.raises(CheckpointCorruptError):
            load_gcn(path)

    def test_corrupted_gcn(self, tmp_path):
        path = _saved_gcn(tmp_path)
        corrupt_file(path)
        with pytest.raises(CheckpointCorruptError):
            load_gcn(path)

    def test_corrupt_error_is_valueerror(self, tmp_path):
        """Backwards compatible: existing `except ValueError` keeps working."""
        path = _saved_gcn(tmp_path)
        truncate_file(path)
        with pytest.raises(ValueError):
            load_gcn(path)

    def test_not_an_npz(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(CheckpointCorruptError):
            load_gcn(path)

    def test_wrong_kind(self, graph, tmp_path):
        gcn_path = _saved_gcn(tmp_path)
        with pytest.raises(CheckpointCorruptError):
            load_cascade(gcn_path)
        cascade_path = _saved_cascade(graph, tmp_path)
        with pytest.raises(CheckpointCorruptError):
            load_gcn(cascade_path)

    def test_strict_cascade_rejects_missing_stage(self, graph, tmp_path):
        path = _saved_cascade(graph, tmp_path)
        stored = np.load(path)
        kept = {
            key: stored[key]
            for key in stored.files
            if not key.startswith("stage1/param/")
        }
        np.savez(path, **kept)
        with pytest.raises(CheckpointCorruptError):
            load_cascade(path)
        with pytest.warns(ResourceWarning, match="dropping cascade stages"):
            partial = load_cascade(path, strict=False)
        assert len(partial.stages) == 1


class TestLoadModel:
    """``load_model`` reads either format and tells them apart itself."""

    def test_reads_both_kinds(self, graph, tmp_path):
        assert isinstance(load_model(_saved_gcn(tmp_path)), GCN)
        assert isinstance(load_model(_saved_cascade(graph, tmp_path)), MultiStageGCN)

    def test_strict_passes_through(self, graph, tmp_path):
        path = _saved_cascade(graph, tmp_path)
        stored = np.load(path)
        np.savez(
            path,
            **{k: stored[k] for k in stored.files if not k.startswith("stage1/param/")},
        )
        with pytest.raises(CheckpointCorruptError):
            load_model(path)
        with pytest.warns(ResourceWarning, match="dropping cascade stages"):
            assert len(load_model(path, strict=False).stages) == 1
