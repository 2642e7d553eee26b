"""Unblocked reference implementations of the inference kernel.

These are the definitions the row-blocked kernel in
``repro.core.inference`` replaced, kept as oracles: the narrow product as
the Python k-loop that *defines* its sequential-sum contract, and Equation
(1) / the FC head over a whole row set at once (every n × K intermediate
materialised, CSR rows sliced by scipy).  The production kernel must equal
them bit for bit at every block size.
"""

from __future__ import annotations

import numpy as np


def sequential_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` as ``((0 + a[:, 0]·b[0]) + a[:, 1]·b[1]) + …``: every
    product rounded, then added left to right."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    for k in range(a.shape[1]):
        out += a[:, k : k + 1] * b[k]
    return out


def row_stable_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, n = a.shape[0], b.shape[1]
    if n < 4:
        return sequential_matmul(a, b)
    if m == 1:
        a = np.concatenate([a, np.zeros((3, a.shape[1]), dtype=a.dtype)], axis=0)
        return (a @ b)[:m]
    return a @ b


def layer_forward(weights, d, own_prev, pred_rows, succ_rows, prev) -> np.ndarray:
    aggregated = (
        own_prev
        + weights.w_pr * (pred_rows @ prev)
        + weights.w_su * (succ_rows @ prev)
    )
    out = row_stable_matmul(aggregated, weights.encoder_weights[d])
    bias = weights.encoder_biases[d]
    if bias is not None:
        out += bias
    np.maximum(out, 0.0, out=out)
    return out


def head_forward(weights, h: np.ndarray) -> np.ndarray:
    last = len(weights.fc_weights) - 1
    for i, (weight, bias) in enumerate(zip(weights.fc_weights, weights.fc_biases)):
        h = row_stable_matmul(h, weight)
        if bias is not None:
            h += bias
        if i < last:
            np.maximum(h, 0.0, out=h)
    return h


def embeddings(weights, graph, pred=None, succ=None) -> list[np.ndarray]:
    """Every layer's output for the whole graph, layer 1 first (``pred`` /
    ``succ`` default to the graph's CSR; pass dense arrays for the
    ablation's chain)."""
    pred = graph.pred.to_scipy() if pred is None else pred
    succ = graph.succ.to_scipy() if succ is None else succ
    layers, h = [], graph.attributes
    for d in range(weights.depth):
        h = layer_forward(weights, d, h, pred, succ, h)
        layers.append(h)
    return layers


def logits(weights, graph, pred=None, succ=None) -> np.ndarray:
    return head_forward(weights, embeddings(weights, graph, pred, succ)[-1])
