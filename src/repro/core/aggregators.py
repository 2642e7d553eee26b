"""Alternative neighbourhood aggregators.

The paper motivates its weighted-sum aggregator with "by selecting the
aggregators properly ... the GCN model is scalable": the sum is a pure
sparse matmul.  This module provides the standard alternatives from the
GraphSAGE family so the choice can be ablated:

* :class:`SumAggregator` (re-exported) — the paper's Equation (1);
* :class:`MeanAggregator` — degree-normalised neighbourhood mean, the
  classic GCN/GraphSAGE-mean rule, still one sparse matmul (with
  pre-normalised adjacency rows);
* :class:`MaxPoolAggregator` — GraphSAGE-pool: an elementwise max over a
  learned projection of the neighbours.  Max cannot be written as a matmul,
  which is precisely why the paper's scalability argument rejects it; it is
  implemented here (dense, segment-max) to make that cost measurable.

All three share the call signature of
:meth:`repro.core.model.SumAggregator.forward` and can be dropped into
:class:`repro.core.model.GCN` via ``GCN(config, aggregator=...)``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.graphdata import GraphData
from repro.core.model import SumAggregator
from repro.nn.layers import Linear, Module, Parameter
from repro.nn.sparse import COOMatrix
from repro.nn.tensor import Tensor, spmm

__all__ = ["SumAggregator", "MeanAggregator", "MaxPoolAggregator"]


def _row_normalised(matrix: COOMatrix) -> COOMatrix:
    """Copy of ``matrix`` with each row scaled to sum to 1 (0 rows stay 0)."""
    csr = matrix.to_scipy()
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(csr.indptr))
    sums = np.bincount(rows, weights=csr.data, minlength=matrix.shape[0])
    scale = np.ones_like(sums)
    nonzero = sums != 0
    scale[nonzero] = 1.0 / sums[nonzero]
    data = csr.data * scale[rows]
    return COOMatrix(
        matrix.shape, csr=sp.csr_matrix((data, csr.indices, csr.indptr), shape=matrix.shape)
    )


class MeanAggregator(Module):
    """Weighted mean over predecessors and successors.

    ``g(v) = e(v) + w_pr * mean_pred + w_su * mean_succ`` — the same
    matmul shape as the sum rule, so it keeps the fast-inference property.
    Row normalisation is cached per adjacency object.
    """

    def __init__(self, w_pr_init: float = 0.5, w_su_init: float = 0.5) -> None:
        super().__init__()
        self.w_pr = Parameter(np.array(w_pr_init), name="w_pr")
        self.w_su = Parameter(np.array(w_su_init), name="w_su")
        self._cache: dict[int, COOMatrix] = {}

    def _normalised(self, matrix: COOMatrix) -> COOMatrix:
        key = id(matrix)
        hit = self._cache.get(key)
        if hit is None or hit.shape != matrix.shape:
            hit = _row_normalised(matrix)
            self._cache[key] = hit
        return hit

    def forward(self, embeddings: Tensor, graph: GraphData) -> Tensor:
        pred = self._normalised(graph.pred)
        succ = self._normalised(graph.succ)
        return (
            embeddings
            + self.w_pr * spmm(pred, embeddings)
            + self.w_su * spmm(succ, embeddings)
        )


class MaxPoolAggregator(Module):
    """GraphSAGE-pool: elementwise max over projected neighbour features.

    ``g(v) = e(v) + w_pr * max_{u in PR(v)} relu(W_p e(u))
                  + w_su * max_{u in SU(v)} relu(W_p e(u))``

    The segment-max has no matmul form; the implementation materialises
    per-edge rows, which is the scalability cost the paper avoids.  The
    pool projection is lazily sized to the embedding width of each layer.
    """

    def __init__(self, w_pr_init: float = 0.5, w_su_init: float = 0.5, seed: int = 0):
        super().__init__()
        self.w_pr = Parameter(np.array(w_pr_init), name="w_pr")
        self.w_su = Parameter(np.array(w_su_init), name="w_su")
        self.pools: dict[int, Linear] = {}
        self._seed = seed

    def prepare(self, widths: tuple[int, ...]) -> None:
        """Materialise pool projections ahead of optimiser construction.

        :class:`repro.core.model.GCN` calls this with the embedding widths
        its layers will aggregate, so every parameter exists before
        ``parameters()`` is first consumed.
        """
        for width in widths:
            self._pool_layer(width)

    def _pool_layer(self, width: int) -> Linear:
        layer = self.pools.get(width)
        if layer is None:
            layer = Linear(width, width, rng=self._seed + width)
            self.pools[width] = layer
        return layer

    def forward(self, embeddings: Tensor, graph: GraphData) -> Tensor:
        width = embeddings.shape[1]
        projected = self._pool_layer(width)(embeddings).relu()
        pooled_pred = _segment_max(projected, graph.pred)
        pooled_succ = _segment_max(projected, graph.succ)
        return embeddings + self.w_pr * pooled_pred + self.w_su * pooled_succ


def _segment_max(features: Tensor, adjacency: COOMatrix) -> Tensor:
    """Per-row max over ``features[cols]`` of each row's stored entries.

    Rows without neighbours yield zeros.  Gradient flows to the argmax
    entries (ties broken towards the lowest column).
    """
    csr = adjacency.to_scipy()
    n, width = adjacency.shape[0], features.shape[1]
    counts = np.diff(csr.indptr)
    rows = np.repeat(np.arange(n), counts)
    cols = csr.indices
    data = features.data
    out = np.full((n, width), -np.inf)
    np.maximum.at(out, rows, data[cols])
    out[counts == 0] = 0.0

    from repro.nn.tensor import is_grad_enabled

    if not (is_grad_enabled() and (features.requires_grad or features._parents)):
        return Tensor(out)

    result = Tensor(out, requires_grad=True, _parents=(features,))

    # Record argmax edges for the backward scatter.
    argmax = np.full((n, width), -1, dtype=np.int64)
    for k in range(len(rows)):
        r, c = rows[k], cols[k]
        better = data[c] >= out[r] - 1e-300
        hit = (argmax[r] == -1) & (data[c] == out[r])
        argmax[r][hit & better] = c

    def _backward(grad: np.ndarray) -> None:
        gin = np.zeros_like(data)
        valid = argmax >= 0
        r_idx, col_idx = np.nonzero(valid)
        np.add.at(gin, (argmax[valid], col_idx), grad[r_idx, col_idx])
        result._accumulate(features, gin)

    result._backward = _backward
    return result
