"""Figure 10: inference runtime, recursive [GraphSAGE-style] vs ours.

Sweeps industrial-shaped graphs (hub nets included — they are what makes
neighbourhood expansion explode) from 10^3 to 10^6 nodes.

* **Ours**: the whole-graph sparse-matrix path (Equation (3)), fp32 as on
  the paper's GPUs.
* **Recursive [12]**: per-node neighbourhood-expansion recursion without
  cross-path sharing, i.e. the duplicated computations the paper
  attributes to the released baseline.  Its full-graph cost at size ``n``
  is projected as ``n x`` (per-node cost measured on a random node
  sample); the paper itself reports the 10^6 datapoint as ">1 hour", so a
  projection is how that figure is produced in practice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.circuit.generator import generate_design
from repro.config import ExecutionConfig
from repro.core.embedding import RecursiveEmbedder
from repro.core.graphdata import GraphData
from repro.core.inference import FastInference
from repro.core.model import GCN
from repro.experiments.common import default_gcn_config, full_mode
from repro.obs.trace import span
from repro.utils.tables import format_table
from repro.utils.timing import time_call

__all__ = ["ScalabilityResult", "run_scalability", "format_scalability"]


@dataclass
class ScalabilityResult:
    """Runtime series for both inference schemes."""

    sizes: list[int] = field(default_factory=list)
    fast_seconds: list[float] = field(default_factory=list)
    recursive_seconds: list[float] = field(default_factory=list)
    recursive_measured: list[bool] = field(default_factory=list)

    def speedups(self) -> list[float]:
        return [
            r / f if f > 0 else float("inf")
            for r, f in zip(self.recursive_seconds, self.fast_seconds)
        ]

    def rows(self) -> list[list]:
        rows = []
        for i, n in enumerate(self.sizes):
            marker = "" if self.recursive_measured[i] else " (projected)"
            rows.append(
                [
                    n,
                    f"{self.recursive_seconds[i]:.3g}{marker}",
                    f"{self.fast_seconds[i]:.3g}",
                    f"{self.speedups()[i]:.3g}x",
                ]
            )
        return rows


def default_sizes() -> list[int]:
    if full_mode():
        return [1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000]
    return [1_000, 3_000, 10_000, 30_000, 100_000]


def run_scalability(
    sizes: list[int] | None = None,
    recursive_exhaustive_cutoff: int = 3_000,
    recursive_sample: int = 100,
    seed: int = 0,
) -> ScalabilityResult:
    """Measure full-graph inference time for both schemes at each size.

    Below ``recursive_exhaustive_cutoff`` the recursive scheme is run on
    every node (a true measurement); above it, on a random sample whose
    mean per-node cost is projected to the full graph.
    """
    sizes = sizes or default_sizes()
    weights = GCN(default_gcn_config(seed=seed)).layer_weights()
    result = ScalabilityResult()
    rng = np.random.default_rng(seed)

    for n in sizes:
        with span("figure10.size", requested_nodes=n):
            with span("figure10.generate"):
                netlist = generate_design(n, seed=seed)
                graph = GraphData.from_netlist(netlist)
            engine = FastInference(
                weights, execution=ExecutionConfig(dtype="float32")
            )
            with span("figure10.fast_inference", nodes=graph.num_nodes):
                # min-of-3: single-core boxes time noisily
                fast_time, _ = time_call(engine.logits, graph, repeat=3)

            embedder = RecursiveEmbedder(weights, graph, memoize=False)
            n_nodes = graph.num_nodes
            exhaustive = n_nodes <= recursive_exhaustive_cutoff
            if exhaustive:
                sample = np.arange(n_nodes)
            else:
                sample = rng.choice(n_nodes, size=recursive_sample, replace=False)
            with span(
                "figure10.recursive", nodes=n_nodes, sample=len(sample)
            ):
                start = time.perf_counter()
                embedder.logits(sample)
                sampled_time = time.perf_counter() - start
            recursive_time = sampled_time * (n_nodes / len(sample))

            result.sizes.append(n_nodes)
            result.fast_seconds.append(fast_time)
            result.recursive_seconds.append(recursive_time)
            result.recursive_measured.append(exhaustive)
    return result


def format_scalability(result: ScalabilityResult) -> str:
    return format_table(
        ["#Nodes", "Recursive [12] (s)", "Ours (s)", "Speedup"],
        result.rows(),
        title="Figure 10: inference runtime vs graph size",
    )
