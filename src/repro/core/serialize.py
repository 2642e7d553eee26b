"""Model persistence: save/load trained GCNs and cascades to ``.npz``.

A deployed OPI flow trains once and infers on every new design (the model
is inductive), so models need to outlive the training process.  The format
is a flat ``.npz``: a JSON-encoded config header plus one array per
parameter, stable across sessions and numpy versions.

Robustness contract: saves are atomic (an interrupt never leaves a
half-written file), and loads validate the archive — magic keys, format
version, config blob, parameter shapes — raising a typed
:class:`~repro.resilience.errors.CheckpointCorruptError` instead of
surfacing numpy/zipfile internals.  ``load_cascade(strict=False)``
salvages the valid stages of a partially corrupt cascade, which is one
rung of the degradation ladder in :mod:`repro.resilience.degrade`.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.core.model import GCN, GCNConfig
from repro.core.multistage import MultiStageConfig, MultiStageGCN
from repro.core.trainer import TrainConfig
from repro.resilience.atomic import atomic_save_npz
from repro.resilience.errors import CheckpointCorruptError

__all__ = ["save_gcn", "load_gcn", "save_cascade", "load_cascade", "load_model"]

_FORMAT_VERSION = 1


def _config_blob(config: GCNConfig) -> str:
    data = asdict(config)
    data["hidden_dims"] = list(data["hidden_dims"])
    data["fc_dims"] = list(data["fc_dims"])
    return json.dumps(data)


def _config_from_blob(blob: str, path: Path) -> GCNConfig:
    try:
        data = json.loads(blob)
        data["hidden_dims"] = tuple(data["hidden_dims"])
        data["fc_dims"] = tuple(data["fc_dims"])
        return GCNConfig(**data)
    except (json.JSONDecodeError, TypeError, KeyError, ValueError) as exc:
        raise CheckpointCorruptError(
            f"invalid model config in {path.name}: {exc}", path=path
        ) from exc


class _NpzView:
    """Dict-like view over an ``.npz`` that maps member-read failures
    (bit rot surfaces lazily, at decompression time) to typed errors."""

    def __init__(self, stored, path: Path):
        self._stored = stored
        self._path = path
        self.files = list(stored.files)

    def __getitem__(self, key: str) -> np.ndarray:
        try:
            return self._stored[key]
        except Exception as exc:  # zlib/CRC/zipfile errors on a bad member
            raise CheckpointCorruptError(
                f"unreadable array {key!r} in {self._path.name}: {exc}",
                path=self._path,
            ) from exc


def _open_npz(path: str | Path, required: tuple[str, ...]):
    """Open an ``.npz`` model file, validating existence and header keys."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no model file at {path}")
    try:
        stored = np.load(path, allow_pickle=False)
        files = set(stored.files)
    except Exception as exc:  # truncated/garbled zip, bad members
        raise CheckpointCorruptError(
            f"unreadable model file {path.name}: {exc}", path=path
        ) from exc
    missing = [key for key in required if key not in files]
    if missing:
        raise CheckpointCorruptError(
            f"model file {path.name} is missing keys {missing}", path=path
        )
    view = _NpzView(stored, path)
    version = int(view["__format__"])
    if version != _FORMAT_VERSION:
        raise CheckpointCorruptError(
            f"unsupported model format version {version} in {path.name}", path=path
        )
    return view, path


def _load_state(model: GCN, state: dict[str, np.ndarray], path: Path, what: str) -> None:
    expected = model.state_dict()
    if set(state) != set(expected):
        raise CheckpointCorruptError(
            f"{what} in {path.name}: parameter set mismatch "
            f"(missing {sorted(set(expected) - set(state))}, "
            f"unexpected {sorted(set(state) - set(expected))})",
            path=path,
        )
    for key, value in state.items():
        if value.shape != expected[key].shape:
            raise CheckpointCorruptError(
                f"{what} in {path.name}: parameter {key!r} has shape "
                f"{value.shape}, expected {expected[key].shape}",
                path=path,
            )
    model.load_state_dict(state)


def save_gcn(model: GCN, path: str | Path) -> Path:
    """Serialise ``model`` (architecture + parameters) to ``path``.

    The write is atomic: an interrupt leaves either the previous file or
    the complete new one, never a truncated archive.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    payload: dict[str, np.ndarray] = {
        "__format__": np.array(_FORMAT_VERSION),
        "__config__": np.array(_config_blob(model.config)),
    }
    for key, value in model.state_dict().items():
        payload[f"param/{key}"] = value
    atomic_save_npz(path, payload)
    return path


def load_gcn(path: str | Path) -> GCN:
    """Reconstruct a :class:`GCN` saved by :func:`save_gcn`.

    Raises :class:`FileNotFoundError` for a missing path and
    :class:`CheckpointCorruptError` for anything unreadable or internally
    inconsistent.
    """
    stored, path = _open_npz(path, required=("__format__", "__config__"))
    config = _config_from_blob(str(stored["__config__"]), path)
    model = GCN(config)
    state = {
        key.split("/", 1)[1]: stored[key]
        for key in stored.files
        if key.startswith("param/")
    }
    _load_state(model, state, path, "model")
    return model


def save_cascade(cascade: MultiStageGCN, path: str | Path) -> Path:
    """Serialise a fitted multi-stage cascade to ``path`` (atomically)."""
    if not cascade.stages:
        raise ValueError("cascade has not been fitted")
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    payload: dict[str, np.ndarray] = {
        "__format__": np.array(_FORMAT_VERSION),
        "__n_stages__": np.array(len(cascade.stages)),
        "__filter_threshold__": np.array(cascade.config.filter_threshold),
        "__decision_threshold__": np.array(cascade.decision_threshold),
        "__config__": np.array(_config_blob(cascade.config.gcn)),
    }
    for k, stage in enumerate(cascade.stages):
        payload[f"stage{k}/__config__"] = np.array(_config_blob(stage.config))
        for key, value in stage.state_dict().items():
            payload[f"stage{k}/param/{key}"] = value
    atomic_save_npz(path, payload)
    return path


def load_cascade(path: str | Path, strict: bool = True) -> MultiStageGCN:
    """Reconstruct a cascade saved by :func:`save_cascade`.

    With ``strict=False``, stages that fail validation are dropped with a
    :class:`ResourceWarning` and the surviving prefix of the cascade is
    returned (the filtering stages are order-dependent, so salvage stops
    at the first bad stage).  A cascade with no loadable stage raises
    :class:`CheckpointCorruptError` either way.  A file written before
    the calibrated ``decision_threshold`` was saved loads at 0.5.
    """
    stored, path = _open_npz(
        path, required=("__format__", "__config__", "__n_stages__", "__filter_threshold__")
    )
    n_stages = int(stored["__n_stages__"])
    base_config = _config_from_blob(str(stored["__config__"]), path)
    config = MultiStageConfig(
        n_stages=n_stages,
        gcn=base_config,
        train=TrainConfig(),
        filter_threshold=float(stored["__filter_threshold__"]),
    )
    cascade = MultiStageGCN(config)
    if "__decision_threshold__" in stored.files:
        cascade.decision_threshold = float(stored["__decision_threshold__"])
    cascade.stages = []
    for k in range(n_stages):
        try:
            key = f"stage{k}/__config__"
            if key not in stored.files:
                raise CheckpointCorruptError(
                    f"cascade stage {k} config missing from {path.name}", path=path
                )
            stage_config = _config_from_blob(str(stored[key]), path)
            model = GCN(stage_config)
            prefix = f"stage{k}/param/"
            state = {
                key[len(prefix):]: stored[key]
                for key in stored.files
                if key.startswith(prefix)
            }
            _load_state(model, state, path, f"cascade stage {k}")
        except CheckpointCorruptError:
            if strict:
                raise
            warnings.warn(
                f"dropping cascade stages {k}..{n_stages - 1} of {path.name}: "
                f"stage {k} failed validation",
                ResourceWarning,
                stacklevel=2,
            )
            break
        cascade.stages.append(model)
    if not cascade.stages:
        raise CheckpointCorruptError(
            f"cascade {path.name} has no loadable stages", path=path
        )
    return cascade


def load_model(path: str | Path, strict: bool = True) -> GCN | MultiStageGCN:
    """Load whatever :func:`save_gcn` or :func:`save_cascade` wrote.

    The one place that tells the two formats apart: a file carrying
    ``__n_stages__`` is a cascade (``strict`` as in :func:`load_cascade`),
    anything else a single GCN.  Raises like the loader it picks.
    """
    stored, path = _open_npz(path, required=("__format__", "__config__"))
    if "__n_stages__" in stored.files:
        return load_cascade(path, strict=strict)
    return load_gcn(path)
