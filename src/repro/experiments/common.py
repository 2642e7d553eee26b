"""Shared experiment infrastructure: configs, caching, result output.

Every experiment honours two environment variables:

* ``REPRO_SCALE`` — design-size multiplier (see :mod:`repro.data.benchmarks`);
* ``REPRO_FULL`` — when set to ``1``, run paper-strength settings (more
  epochs, full sweeps); default is a CI-affordable profile with the same
  qualitative shape.

Trained models are cached on disk next to the label cache so re-running a
benchmark does not retrain from scratch.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import numpy as np

from repro.core.graphdata import GraphData
from repro.core.model import GCNConfig
from repro.core.multistage import MultiStageConfig, MultiStageGCN
from repro.core.trainer import TrainConfig
from repro.data.benchmarks import default_cache_dir
from repro.resilience.atomic import atomic_write_json
from repro.resilience.checkpoint import Checkpointer
from repro.testability.labels import LabelConfig

__all__ = [
    "full_mode",
    "experiment_label_config",
    "default_gcn_config",
    "default_train_config",
    "default_multistage_config",
    "results_dir",
    "write_result",
    "checkpoint_dir",
    "fit_cascade_cached",
    "fit_gcn_cached",
]


def full_mode() -> bool:
    """True when ``REPRO_FULL=1``: paper-strength experiment settings."""
    return os.environ.get("REPRO_FULL", "0") == "1"


def experiment_label_config() -> LabelConfig:
    """The labelling configuration shared by every experiment."""
    return LabelConfig(n_patterns=256, threshold=0.01, seed=0)


def default_gcn_config(depth: int = 3, seed: int = 0) -> GCNConfig:
    """Paper architecture truncated to ``depth`` layers (K = 32, 64, 128)."""
    dims = (32, 64, 128)[:depth]
    return GCNConfig(hidden_dims=dims, fc_dims=(64, 64, 128), seed=seed)


def default_train_config(epochs: int | None = None) -> TrainConfig:
    if epochs is None:
        epochs = 400 if full_mode() else 300
    return TrainConfig(
        epochs=epochs, weight_decay=1e-4, eval_every=max(1, epochs // 30)
    )


def default_multistage_config(n_stages: int = 3) -> MultiStageConfig:
    return MultiStageConfig(
        n_stages=n_stages,
        gcn=default_gcn_config(),
        train=default_train_config(),
    )


def results_dir() -> Path:
    """Directory benchmark outputs are written to (``results/`` in cwd)."""
    path = Path(os.environ.get("REPRO_RESULTS", "results"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_result(name: str, payload: dict) -> Path:
    """Persist an experiment's rows as JSON under :func:`results_dir`.

    The write is atomic, so an interrupted benchmark run never leaves a
    truncated results file behind.
    """
    path = results_dir() / f"{name}.json"
    return atomic_write_json(path, payload, indent=2, default=_jsonify)


def checkpoint_dir() -> Path | None:
    """Training-checkpoint root (``REPRO_CHECKPOINT_DIR``), if configured.

    Set by ``python -m repro experiment --checkpoint-dir ...``; when
    present, the cached fit helpers snapshot training state under it so an
    interrupted experiment resumes instead of retraining from epoch 1.
    """
    value = os.environ.get("REPRO_CHECKPOINT_DIR")
    return Path(value) if value else None


def _jsonify(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialise {type(value)}")


# --------------------------------------------------------------------- #
# Single-GCN training with a disk cache
# --------------------------------------------------------------------- #
def _gcn_key(
    gcn_config: GCNConfig,
    train_config: TrainConfig,
    graph_names: list[str],
    scale: float,
    tag: str,
) -> str:
    blob = (
        f"{gcn_config.hidden_dims}|{gcn_config.fc_dims}|{gcn_config.seed}|"
        f"{train_config.epochs}|{train_config.lr}|{train_config.optimizer}|"
        f"{train_config.weight_decay}|{train_config.class_weights}|"
        f"{sorted(graph_names)}|{scale}|{tag}|v1"
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def fit_gcn_cached(
    train_graphs: list[GraphData],
    gcn_config: GCNConfig,
    train_config: TrainConfig,
    scale: float,
    tag: str = "",
    test_graphs: list[GraphData] | None = None,
    model_factory=None,
    cache: bool = True,
):
    """Train (or load from cache) a single GCN on ``train_graphs``.

    ``tag`` disambiguates runs that share configs but differ in inputs the
    key cannot see (balanced-mask seeds, attribute masking, frozen
    parameters via ``model_factory``).  The learning curves are cached
    alongside the weights, so repeated benchmark runs replay identical
    histories.  Returns ``(model, TrainHistory)``.
    """
    from repro.core.model import GCN
    from repro.core.trainer import TrainHistory, Trainer

    names = [g.name for g in train_graphs]
    key = _gcn_key(gcn_config, train_config, names, scale, tag)
    cache_path = default_cache_dir() / f"gcn_{key}.npz" if cache else None
    model = model_factory() if model_factory is not None else GCN(gcn_config)
    if cache_path is not None and cache_path.exists():
        stored = np.load(cache_path)
        model.load_state_dict(
            {k[6:]: stored[k] for k in stored.files if k.startswith("param/")}
        )
        history = TrainHistory(
            epochs=[int(e) for e in stored["hist/epochs"]],
            loss=[float(x) for x in stored["hist/loss"]],
            train_accuracy=[float(x) for x in stored["hist/train_accuracy"]],
            test_accuracy=[float(x) for x in stored["hist/test_accuracy"]],
        )
        return model, history
    ckpt_root = checkpoint_dir()
    checkpoint = Checkpointer(ckpt_root / f"gcn_{key}") if ckpt_root else None
    history = Trainer(model, train_config).fit(
        train_graphs, test_graphs, checkpoint=checkpoint
    )
    if cache_path is not None:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        payload = {f"param/{k}": v for k, v in model.state_dict().items()}
        payload["hist/epochs"] = np.array(history.epochs)
        payload["hist/loss"] = np.array(history.loss)
        payload["hist/train_accuracy"] = np.array(history.train_accuracy)
        payload["hist/test_accuracy"] = np.array(history.test_accuracy)
        np.savez_compressed(cache_path, **payload)
    return model, history


# --------------------------------------------------------------------- #
# Cascade training with a disk cache
# --------------------------------------------------------------------- #
def _cascade_key(config: MultiStageConfig, graph_names: list[str], scale: float) -> str:
    blob = (
        f"{config.n_stages}|{config.gcn.hidden_dims}|{config.gcn.fc_dims}|"
        f"{config.gcn.seed}|{config.train.epochs}|{config.train.lr}|"
        f"{config.train.optimizer}|{config.positive_weight_scale}|"
        f"{config.filter_threshold}|{config.final_stage_weighted}|"
        f"{sorted(graph_names)}|{scale}|v1"
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def fit_cascade_cached(
    train_graphs: list[GraphData],
    config: MultiStageConfig,
    scale: float,
    cache: bool = True,
) -> MultiStageGCN:
    """Train (or load from cache) a multi-stage cascade on ``train_graphs``."""
    names = [g.name for g in train_graphs]
    key = _cascade_key(config, names, scale)
    cache_path = default_cache_dir() / f"cascade_{key}.npz" if cache else None
    cascade = MultiStageGCN(config)
    if cache_path is not None and cache_path.exists():
        stored = np.load(cache_path)
        n_stages = int(stored["n_stages"])
        from dataclasses import replace

        from repro.core.model import GCN

        cascade.stages = []
        for k in range(n_stages):
            model = GCN(replace(config.gcn, seed=config.gcn.seed + k))
            state = {
                key.split("/", 1)[1]: stored[key]
                for key in stored.files
                if key.startswith(f"s{k}/")
            }
            model.load_state_dict(state)
            cascade.stages.append(model)
        return cascade

    ckpt_root = checkpoint_dir()
    cascade.fit(
        train_graphs,
        checkpoint_dir=ckpt_root / f"cascade_{key}" if ckpt_root else None,
    )
    if cache_path is not None:
        payload = {"n_stages": np.array(len(cascade.stages))}
        for k, model in enumerate(cascade.stages):
            for key, value in model.state_dict().items():
                payload[f"s{k}/{key}"] = value
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(cache_path, **payload)
    return cascade
