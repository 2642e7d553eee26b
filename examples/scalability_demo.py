#!/usr/bin/env python
"""Scalability demo: sparse-matrix inference vs per-node recursion.

Reproduces a slice of Figure 10 interactively: builds graphs of growing
size, runs the paper's whole-graph sparse-matrix inference (Equation (3))
and the GraphSAGE-style neighbourhood-expansion recursion, and prints the
widening gap.  Also demonstrates the incremental COO update (inserting an
observation point and re-running inference without rebuilding anything)
and the partitioned multi-core engine, which matches the single-shard
fast path bit for bit at float64.

    python examples/scalability_demo.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.api import (
    GCN,
    ExecutionConfig,
    FastInference,
    IncrementalDesign,
    RecursiveEmbedder,
    ShardedInference,
    build_graph,
    default_gcn_config,
    generate_design,
)


def main() -> None:
    weights = GCN(default_gcn_config()).layer_weights()

    print("size      recursive/node   matrix/node   speedup")
    for n_gates in (1_000, 5_000, 20_000):
        netlist = generate_design(n_gates, seed=3)
        graph = build_graph(netlist)
        engine = FastInference(weights, execution=ExecutionConfig(dtype="float32"))

        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            engine.logits(graph)
            best = min(best, time.perf_counter() - start)
        fast_per_node = best / graph.num_nodes

        embedder = RecursiveEmbedder(weights, graph, memoize=False)
        rng = np.random.default_rng(0)
        sample = rng.choice(graph.num_nodes, size=80, replace=False)
        start = time.perf_counter()
        embedder.logits(sample)
        rec_per_node = (time.perf_counter() - start) / len(sample)

        print(
            f"{graph.num_nodes:>7}   {rec_per_node * 1e6:>10.1f} us   "
            f"{fast_per_node * 1e6:>9.2f} us   {rec_per_node / fast_per_node:>6.0f}x"
        )

    print(
        "\npartitioned inference "
        "(locality-aware shards + per-layer boundary exchange):"
    )
    netlist = generate_design(20_000, seed=3)
    graph = build_graph(netlist)
    single = FastInference(weights).logits(graph)
    with ShardedInference(
        weights, ExecutionConfig(backend="sharded", shards=4, workers=1)
    ) as sharded:
        shard_logits = sharded.logits(graph)
    identical = np.array_equal(single, shard_logits)
    print(
        f"  4 shards over {graph.num_nodes} nodes: bit-identical to the "
        f"single-shard fast path: {identical}"
    )

    print("\nincremental OP insertion (the COO append of Section 3.4):")
    design = IncrementalDesign(generate_design(20_000, seed=3))
    engine = FastInference(weights, execution=ExecutionConfig(dtype="float32"))
    engine.logits(design.graph)  # warm CSR cache

    start = time.perf_counter()
    design.insert_op(123)
    update_time = time.perf_counter() - start
    start = time.perf_counter()
    engine.logits(design.graph)
    infer_time = time.perf_counter() - start
    print(
        f"  graph update after one OP: {update_time * 1e3:.2f} ms "
        f"(touched only the fan-in cone); re-inference: {infer_time * 1e3:.1f} ms"
    )


if __name__ == "__main__":
    main()
