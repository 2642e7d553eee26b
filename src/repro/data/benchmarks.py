"""The B1-B4 benchmark registry (Table 1's designs, at configurable scale).

The paper evaluates on four proprietary ~1.4 M-cell industrial designs.
This registry generates four synthetic designs with the same statistical
shape (see :mod:`repro.circuit.generator`), sized by the ``REPRO_SCALE``
environment variable: scale 1.0 gives ~3 k-node designs that keep the whole
experiment suite CPU-affordable; ``REPRO_SCALE=500`` approximates the
paper's node counts.

Labelling (the expensive exact-observability analysis) is cached on disk
keyed by the design and label configuration, so repeated experiment runs
pay for it once.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.circuit.generator import GeneratorConfig, generate_design
from repro.circuit.netlist import Netlist
from repro.testability.labels import LabelConfig, LabelResult, label_nodes

__all__ = [
    "DesignSpec",
    "BENCHMARK_SPECS",
    "benchmark_scale",
    "generate_benchmark",
    "load_benchmark",
    "benchmark_names",
    "default_cache_dir",
]

#: Base gate count per design at scale 1.0.
_BASE_GATES = 2500


@dataclass(frozen=True)
class DesignSpec:
    """Recipe for one benchmark design."""

    name: str
    base_gates: int
    seed: int

    def n_gates(self, scale: float) -> int:
        return max(200, int(self.base_gates * scale))


BENCHMARK_SPECS: dict[str, DesignSpec] = {
    "B1": DesignSpec("B1", _BASE_GATES, seed=101),
    "B2": DesignSpec("B2", int(_BASE_GATES * 1.05), seed=202),
    "B3": DesignSpec("B3", int(_BASE_GATES * 1.02), seed=303),
    "B4": DesignSpec("B4", _BASE_GATES, seed=404),
}


def benchmark_names() -> list[str]:
    return list(BENCHMARK_SPECS)


def benchmark_scale() -> float:
    """Design size multiplier from the ``REPRO_SCALE`` env var (default 1)."""
    return float(os.environ.get("REPRO_SCALE", "1.0"))


def default_cache_dir() -> Path:
    """Label cache directory (``REPRO_CACHE`` env var overrides)."""
    env = os.environ.get("REPRO_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-gcn-test"


def generate_benchmark(name: str, scale: float | None = None) -> Netlist:
    """Deterministically generate benchmark ``name`` (no labelling)."""
    spec = BENCHMARK_SPECS[name]
    if scale is None:
        scale = benchmark_scale()
    config = GeneratorConfig()
    netlist = generate_design(
        spec.n_gates(scale), seed=spec.seed, name=name, config=config
    )
    return netlist


def _cache_key(name: str, scale: float, config: LabelConfig) -> str:
    blob = (
        f"{name}|{scale}|{config.n_patterns}|{config.threshold}|"
        f"{config.seed}|v1"
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def load_benchmark(
    name: str,
    scale: float | None = None,
    label_config: LabelConfig | None = None,
    cache: bool = True,
) -> tuple[Netlist, LabelResult]:
    """Generate benchmark ``name`` and its labels, using the disk cache."""
    if scale is None:
        scale = benchmark_scale()
    label_config = label_config or LabelConfig()
    netlist = generate_benchmark(name, scale)

    cache_path = None
    if cache:
        cache_dir = default_cache_dir()
        cache_dir.mkdir(parents=True, exist_ok=True)
        cache_path = cache_dir / f"{_cache_key(name, scale, label_config)}.npz"
        if cache_path.exists():
            stored = np.load(cache_path)
            if stored["labels"].shape[0] == netlist.num_nodes:
                return netlist, LabelResult(
                    labels=stored["labels"],
                    observed_count=stored["observed_count"],
                    n_patterns=int(stored["n_patterns"]),
                )

    result = label_nodes(netlist, label_config)
    if cache_path is not None:
        np.savez_compressed(
            cache_path,
            labels=result.labels,
            observed_count=result.observed_count,
            n_patterns=result.n_patterns,
        )
    return netlist, result
