"""Ablations of design choices the paper motivates but does not sweep.

* **Aggregator weights** — learned, asymmetric w_pr/w_su vs frozen
  symmetric weights (tests the value of distinguishing fanin from fanout,
  Equation (1)).
* **Sparse vs dense adjacency** — the memory/runtime argument of
  Section 3.4.1.
* **Labelling pattern count** — stability of the difficult-to-observe
  ground truth as the random-pattern budget grows.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.inference import FastInference, head_forward, layer_forward
from repro.core.model import GCN
from repro.core.trainer import Trainer, masked_accuracy
from repro.data.dataset import BenchmarkDataset
from repro.data.splits import balanced_indices
from repro.experiments.common import default_gcn_config, default_train_config

__all__ = [
    "run_aggregator_ablation",
    "run_aggregator_family_ablation",
    "run_adjacency_ablation",
    "run_label_stability_ablation",
    "run_transductive_ablation",
    "run_test_cost_extension",
]


def run_aggregator_ablation(
    suite: dict[str, BenchmarkDataset], test_name: str = "B4", seed: int = 0
) -> list[list]:
    """Learned w_pr/w_su vs frozen symmetric aggregation weights."""
    train_names = [n for n in sorted(suite) if n != test_name]
    train_graphs = [
        suite[n].graph.subset(balanced_indices(suite[n].labels.labels, seed=seed))
        for n in train_names
    ]
    test_graph = suite[test_name].graph.subset(
        balanced_indices(suite[test_name].labels.labels, seed=seed)
    )

    from repro.data.benchmarks import benchmark_scale
    from repro.experiments.common import fit_gcn_cached

    rows = []
    for label, freeze in [("learned w_pr/w_su", False), ("frozen symmetric", True)]:
        def factory():
            model = GCN(default_gcn_config(seed=seed))
            if freeze:
                model.aggregator.w_pr.requires_grad = False
                model.aggregator.w_su.requires_grad = False
            return model

        model, _ = fit_gcn_cached(
            train_graphs,
            default_gcn_config(seed=seed),
            default_train_config(),
            scale=benchmark_scale(),
            tag=f"agg-{'frozen' if freeze else 'learned'}-bal{seed}",
            model_factory=factory,
        )
        acc = masked_accuracy(model, [test_graph])
        rows.append(
            [
                label,
                round(acc, 3),
                round(float(model.aggregator.w_pr.data), 3),
                round(float(model.aggregator.w_su.data), 3),
            ]
        )
    return rows


def run_adjacency_ablation(
    suite: dict[str, BenchmarkDataset], test_name: str = "B1", repeats: int = 5
) -> list[list]:
    """Sparse-CSR inference vs dense-matrix inference (Section 3.4.1)."""
    graph = suite[test_name].graph
    weights = GCN(default_gcn_config()).layer_weights()
    engine = FastInference(weights)

    start = time.perf_counter()
    for _ in range(repeats):
        engine.logits(graph)
    sparse_time = (time.perf_counter() - start) / repeats

    pred_dense = graph.pred.to_dense()
    succ_dense = graph.succ.to_dense()

    def dense_logits():
        h = graph.attributes
        for d in range(weights.depth):
            h = layer_forward(weights, d, h, pred_dense, succ_dense, h)
        return head_forward(weights, h)

    start = time.perf_counter()
    for _ in range(repeats):
        dense = dense_logits()
    dense_time = (time.perf_counter() - start) / repeats
    assert np.allclose(dense, engine.logits(graph), atol=1e-8)

    n = graph.num_nodes
    sparse_bytes = sum(
        csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
        for csr in (graph.pred.to_scipy(), graph.succ.to_scipy())
    )
    dense_bytes = 2 * n * n * 8
    return [
        ["sparse CSR", f"{sparse_time * 1e3:.2f} ms", f"{sparse_bytes / 1e6:.2f} MB"],
        ["dense", f"{dense_time * 1e3:.2f} ms", f"{dense_bytes / 1e6:.2f} MB"],
    ]


def run_aggregator_family_ablation(
    suite: dict[str, BenchmarkDataset], test_name: str = "B4", seed: int = 0
) -> list[list]:
    """Sum (paper) vs mean vs max-pool aggregation: accuracy and runtime.

    "By selecting the aggregators properly ... the GCN model is scalable"
    — the sum keeps inference a pure matmul; max-pool does not.  This
    ablation measures both the quality and the inference-cost sides.
    """
    from repro.core.aggregators import MaxPoolAggregator, MeanAggregator

    train_names = [n for n in sorted(suite) if n != test_name]
    train_graphs = [
        suite[n].graph.subset(balanced_indices(suite[n].labels.labels, seed=seed))
        for n in train_names
    ]
    test_graph = suite[test_name].graph.subset(
        balanced_indices(suite[test_name].labels.labels, seed=seed)
    )
    rows = []
    for label, make in [
        ("sum (paper)", lambda: None),
        ("mean", MeanAggregator),
        ("max-pool", MaxPoolAggregator),
    ]:
        aggregator = make() if make is not None else None
        model = GCN(default_gcn_config(seed=seed), aggregator=aggregator)
        Trainer(model, default_train_config()).fit(train_graphs)
        acc = masked_accuracy(model, [test_graph])
        start = time.perf_counter()
        from repro.nn.tensor import no_grad

        with no_grad():
            model(suite[test_name].graph)
        infer = time.perf_counter() - start
        rows.append([label, round(acc, 3), f"{infer * 1e3:.1f} ms"])
    return rows


def run_transductive_ablation(
    suite: dict[str, BenchmarkDataset], seed: int = 0
) -> list[list]:
    """Inductive GCN vs transductive node2vec across designs (Section 2.1).

    Both models train with design B-last held out.  node2vec embeddings are
    refit per design (they must be — no shared space exists), so the
    classifier trained on one design's space transfers no knowledge; the
    GCN's learned aggregation functions transfer wholesale.
    """
    from repro.baselines import LogisticRegression, Node2Vec, Node2VecConfig
    from repro.metrics import accuracy

    names = sorted(suite)
    train_name, test_name = names[0], names[-1]
    train_ds, test_ds = suite[train_name], suite[test_name]
    train_idx = balanced_indices(train_ds.labels.labels, seed=seed)
    test_idx = balanced_indices(test_ds.labels.labels, seed=seed)

    # Transductive: per-graph embeddings + LR.
    n2v_cfg = Node2VecConfig(dim=32)
    emb_train = Node2Vec(n2v_cfg, seed=seed).fit(train_ds.netlist).transform()
    emb_test = Node2Vec(n2v_cfg, seed=seed).fit(test_ds.netlist).transform()
    clf = LogisticRegression(epochs=400, lr=0.5)
    clf.fit(emb_train[train_idx], train_ds.labels.labels[train_idx])
    half = len(train_idx) // 2
    clf_within = LogisticRegression(epochs=400, lr=0.5)
    clf_within.fit(emb_train[train_idx[:half]], train_ds.labels.labels[train_idx[:half]])
    n2v_within = accuracy(
        train_ds.labels.labels[train_idx[half:]],
        clf_within.predict(emb_train[train_idx[half:]]),
    )
    n2v_across = accuracy(
        test_ds.labels.labels[test_idx], clf.predict(emb_test[test_idx])
    )

    # Inductive: the GCN trained on the first design, applied to the last.
    model = GCN(default_gcn_config(seed=seed))
    Trainer(model, default_train_config()).fit(
        [train_ds.graph.subset(train_idx)]
    )
    gcn_across = accuracy(
        test_ds.labels.labels[test_idx], model.predict(test_ds.graph)[test_idx]
    )
    return [
        ["node2vec + LR (within fitted design)", round(n2v_within, 3)],
        ["node2vec + LR (unseen design)", round(n2v_across, 3)],
        ["GCN (unseen design)", round(gcn_across, 3)],
    ]


def run_test_cost_extension(
    suite: dict[str, BenchmarkDataset], scale: float, design: str = "B1"
) -> list[list]:
    """Extension: translate Table 3's OP counts into scan test costs.

    Runs both OPI flows on one design and reports scan-chain length, test
    cycles and DFT area overhead — the silicon costs the paper's
    "11 % fewer OPs" headline buys down.
    """
    from repro.atpg.generate import AtpgConfig, run_atpg
    from repro.atpg.faults import collapse_faults
    from repro.dft import evaluate_test_cost
    from repro.experiments.common import (
        default_multistage_config,
        fit_cascade_cached,
    )
    from repro.flow.baseline import BaselineOpiConfig, run_baseline_opi
    from repro.flow.insertion import OpiConfig, run_gcn_opi

    names = sorted(suite)
    train_names = [n for n in names if n != design]
    cascade = fit_cascade_cached(
        [suite[n].graph for n in train_names], default_multistage_config(), scale
    )
    netlist = suite[design].netlist
    faults = collapse_faults(netlist)[:1500]
    atpg_config = AtpgConfig(max_random_patterns=1024, max_backtracks=30, seed=0)

    rows = []
    for label, flow_result in [
        (
            "GCN flow",
            run_gcn_opi(netlist, cascade.predict, OpiConfig(max_iterations=12)),
        ),
        (
            "baseline flow",
            run_baseline_opi(netlist, BaselineOpiConfig(detect_threshold=0.01)),
        ),
    ]:
        atpg = run_atpg(flow_result.netlist, faults=faults, config=atpg_config)
        cost = evaluate_test_cost(
            flow_result.netlist, atpg.pattern_count, n_chains=4
        )
        rows.append(
            [
                label,
                flow_result.n_ops,
                atpg.pattern_count,
                f"{atpg.fault_coverage:.2%}",
                cost.max_chain_length,
                cost.test_cycles,
                f"{cost.area_overhead:.2%}",
            ]
        )
    return rows


def run_label_stability_ablation(
    suite: dict[str, BenchmarkDataset],
    test_name: str = "B1",
    budgets: tuple[int, ...] = (64, 128, 256, 512),
) -> list[list]:
    """Label churn as the random-pattern budget grows (vs the largest)."""
    from repro.testability.labels import LabelConfig, label_nodes

    netlist = suite[test_name].netlist
    reference = label_nodes(
        netlist, LabelConfig(n_patterns=max(budgets), threshold=0.01)
    ).labels
    rows = []
    for budget in budgets:
        labels = label_nodes(
            netlist, LabelConfig(n_patterns=budget, threshold=0.01)
        ).labels
        agreement = float((labels == reference).mean())
        rows.append([budget, int(labels.sum()), round(agreement, 4)])
    return rows
