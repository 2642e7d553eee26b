#!/usr/bin/env python
"""Quickstart: train a GCN to spot difficult-to-observe nodes.

Walks the paper's core loop on one small synthetic design through the
stable :mod:`repro.api` facade:

1. generate an industrial-shaped netlist;
2. label every node difficult/easy-to-observe with the exact
   random-pattern observability analysis (the commercial-DFT substitute);
3. build the graph view (COO adjacency + ``[LL, C0, C1, O]`` attributes);
4. train the GCN on a balanced node sample (``api.train``);
5. score the whole design (``api.score``) and inspect accuracy/F1.

Runs in well under a minute on a laptop:

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.api import (
    GCNConfig,
    LabelConfig,
    TrainConfig,
    balanced_indices,
    build_graph,
    confusion,
    explain_node,
    generate_design,
    label_nodes,
    score,
    train,
)


def main() -> None:
    # 1. A ~1.3k-node synthetic design with realistic testability shape.
    netlist = generate_design(1200, seed=7)
    print(f"design: {netlist}")

    # 2. Ground-truth labels: nodes observed by <1% of 256 random patterns.
    labels = label_nodes(netlist, LabelConfig(n_patterns=256, threshold=0.01))
    print(
        f"labels: {labels.n_positive} difficult-to-observe / "
        f"{len(labels.labels)} nodes ({labels.positive_rate:.2%})"
    )

    # 3. Graph view: predecessor/successor sparse adjacency + SCOAP attributes.
    graph = build_graph(netlist, labels=labels.labels)
    print(f"adjacency sparsity: {1 - graph.pred.nnz / graph.num_nodes ** 2:.4%}")

    # 4. Train on a balanced subset (all positives + equal negatives).
    balanced = graph.subset(balanced_indices(labels.labels, seed=0))
    trained = train(
        [balanced],
        config=TrainConfig(epochs=150, weight_decay=1e-4, eval_every=30, verbose=True),
        gcn=GCNConfig(),  # paper architecture: D=3, K=(32,64,128)
    )

    # 5. Score the whole design through the sparse fast path.
    result = score(trained.model, graph)
    cm = confusion(labels.labels, result.labels)
    print(
        f"\nfull-design confusion: tp={cm.tp} fp={cm.fp} tn={cm.tn} fn={cm.fn}"
        f"\nprecision={cm.precision:.3f} recall={cm.recall:.3f} f1={cm.f1:.3f}"
    )
    hard = np.flatnonzero(result.labels == 1)[:10]
    print(f"first predicted-difficult nodes: {hard.tolist()}")

    # 6. Why was the first one flagged? Gradient attribution over its
    #    D-hop neighbourhood (see repro.core.explain).
    if len(hard):
        attribution = explain_node(trained.model, graph, int(hard[0]))
        print("\nattribution for the first flagged node:")
        print(attribution.summary(netlist))


if __name__ == "__main__":
    main()
