"""Sharded-inference benchmark: single-process vs boundary-exchange shards.

Scores a ladder of synthetic designs through the plain ``FastInference``
chain and through ``ShardedInference`` (its slab rounds on the
in-process executor and, on multi-core hosts or under ``--force-pool``,
on the fork pool) and
writes ``results/BENCH_sharded_inference.json`` with nodes/sec,
wall-clock, speedups over the single-process baseline, partition quality
(cut edges, imbalance) and the boundary-exchange volume per tier.  Every
tier partitions into a fixed four shards so the exchange-fraction gate
measures the same quantity run over run.

``exchange_fraction`` counts the frontier rows each shard reads from its
peers per layer as a fraction of all nodes.  Since the whole-graph pass
is itself row-blocked, in-process sharding is no cache-blocking win over
it: its speedup reads below 1× and what the tier measures is the
exchange's overhead.

On top of the three relative tiers there is a million-gate sweep tier
(``10**6 * REPRO_SCALE`` gates) exercising the partitioner and exchange
compiler at paper scale; a float64 bit-identity check against
``FastInference`` runs on every tier.

Run directly (``make bench-sharded``); it is not a pytest-benchmark
module — the acceptance numbers come from wall-clock over a fixed
workload, not statistical micro-timing.

Flags: ``--force-pool`` measures the fork-pool tier even on single-core
hosts (with two timesharing workers — honest, if unflattering, numbers);
``--gate-exchange X`` exits non-zero when the sweep tier's exchange
fraction reaches ``X`` (CI passes 0.10; the small relative tiers are
reported but not gated — a few-hundred-gate design cannot have a thin
boundary, and the locality claim is about scale).

Environment knobs: ``REPRO_SCALE`` scales every tier, ``REPRO_RESULTS``
redirects the output directory, ``REPRO_BENCH_REPEATS`` (default 3) sets
best-of-N timing.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from repro.config import ExecutionConfig
from repro.core.graphdata import GraphData
from repro.core.inference import FastInference
from repro.core.model import GCN, GCNConfig
from repro.data.benchmarks import benchmark_scale, generate_design
from repro.experiments.common import write_result
from repro.graph import ShardedInference

#: tier gate counts as fractions of the default benchmark design size
_TIERS = (0.15, 0.6, 1.0)
_BASE_GATES = 20_000
#: the paper-scale sweep tier: a million gates at REPRO_SCALE=1
_SWEEP_GATES = 1_000_000
_SEED = 13
#: every tier partitions into this many shards so the exchange gate
#: tracks one configuration across runs
_N_SHARDS = 4


def _best_of(fn, repeats: int):
    elapsed = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        elapsed.append(time.perf_counter() - t0)
    return min(elapsed), result


def _score_tier(n_gates: int, repeats: int, weights, force_pool: bool) -> dict:
    netlist = generate_design(n_gates, seed=_SEED)
    graph = GraphData.from_netlist(netlist)
    single = FastInference(weights)

    # Warm the CSR caches so both engines amortise the same conversion.
    graph.pred.to_scipy()
    graph.succ.to_scipy()

    t_single, reference = _best_of(lambda: single.logits(graph), repeats)

    row = {
        "gates": graph.num_nodes,
        "shards": _N_SHARDS,
        "single_seconds": t_single,
        "single_nodes_per_second": graph.num_nodes / t_single,
        "bit_identical": True,
    }

    modes = [("sharded_inprocess", ExecutionConfig(shards=_N_SHARDS, workers=1))]
    if (os.cpu_count() or 1) > 1:
        modes.append(
            ("sharded_pool", ExecutionConfig(shards=_N_SHARDS, workers=None))
        )
    elif force_pool:
        modes.append(
            ("sharded_pool", ExecutionConfig(shards=_N_SHARDS, workers=2))
        )
    else:
        row["sharded_pool_seconds"] = None
        row["sharded_pool_speedup"] = None
        row["sharded_pool_skipped"] = "single-core host (use --force-pool)"
    partition = exchange = None
    for label, execution in modes:
        with ShardedInference(weights, execution) as engine:
            engine.logits(graph)  # warm the partition plan before timing
            t, logits = _best_of(lambda: engine.logits(graph), repeats)
            plan = engine.plan_for(graph)
            partition, exchange = plan.partition, plan.exchange
        row[f"{label}_seconds"] = t
        row[f"{label}_nodes_per_second"] = graph.num_nodes / t
        row[f"{label}_speedup"] = t_single / t
        row["bit_identical"] &= bool(np.array_equal(reference, logits))
    row["imbalance"] = partition.imbalance
    row["cut_edges"] = exchange.cut_edges
    row["exchange_rows_per_layer"] = exchange.exchange_rows
    row["exchange_fraction"] = exchange.exchange_fraction
    return row


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--force-pool",
        action="store_true",
        help="measure the fork-pool tier even on a single-core host",
    )
    parser.add_argument(
        "--gate-exchange",
        type=float,
        default=None,
        metavar="FRACTION",
        help="exit 1 if the sweep tier's exchange_fraction reaches this",
    )
    args = parser.parse_args(argv)

    scale = benchmark_scale()
    repeats = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
    model = GCN(GCNConfig(seed=3))
    rng = np.random.default_rng(5)
    for p in model.parameters():
        p.data = p.data + rng.normal(scale=0.05, size=p.data.shape)
    weights = model.layer_weights()

    tiers = []
    ladder = [(f, max(200, int(_BASE_GATES * f * scale))) for f in _TIERS]
    ladder.append(("sweep_1e6", max(200, int(_SWEEP_GATES * scale))))
    for tier, n_gates in ladder:
        row = _score_tier(n_gates, repeats, weights, args.force_pool)
        row["tier"] = tier
        tiers.append(row)
        speedups = ", ".join(
            f"{mode}={row[f'{mode}_speedup']:.2f}x"
            for mode in ("sharded_inprocess", "sharded_pool")
            if row.get(f"{mode}_speedup")
        )
        print(
            f"tier={tier} gates={row['gates']} shards={row['shards']} "
            f"single={row['single_seconds']:.3f}s {speedups} "
            f"exchange={row['exchange_fraction']:.4f} "
            f"identical={row['bit_identical']}"
        )
    default_tier = tiers[len(_TIERS) - 1]
    sweep_tier = tiers[-1]
    gate_exchange = sweep_tier["exchange_fraction"]
    payload = {
        "scale": scale,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "shards": _N_SHARDS,
        "tiers": tiers,
        "default_scale_inprocess_speedup": default_tier[
            "sharded_inprocess_speedup"
        ],
        "default_scale_pool_speedup": default_tier.get("sharded_pool_speedup"),
        "sweep_gates": sweep_tier["gates"],
        "sweep_inprocess_speedup": sweep_tier["sharded_inprocess_speedup"],
        "sweep_exchange_fraction": gate_exchange,
        "all_bit_identical": all(t["bit_identical"] for t in tiers),
    }
    path = write_result("BENCH_sharded_inference", payload)
    print(f"wrote {path}")
    if args.gate_exchange is not None and gate_exchange >= args.gate_exchange:
        print(
            f"FAIL: sweep-tier exchange_fraction {gate_exchange:.4f} >= "
            f"gate {args.gate_exchange:.4f}"
        )
        sys.exit(1)
    return payload


if __name__ == "__main__":
    main()
