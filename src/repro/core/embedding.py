"""Per-node recursive embedding computation (Algorithm 1).

This is the *baseline* inference scheme of Figure 10: the embedding of each
target node is computed by recursively expanding its ``D``-hop
neighbourhood, the way the released GraphSAGE implementation evaluates.
Neighbourhoods of different targets overlap, so the same intermediate
embeddings are recomputed over and over — the duplicated work the paper's
matrix formulation eliminates.

Memoisation is deliberately scoped *per target node* (a fresh cache for
every node, shared nothing across nodes) to reproduce that cost model
honestly: within one target's expansion the recursion is a DAG walk, but
across the graph the work is ``O(sum of D-hop neighbourhood sizes)`` rather
than ``O(D * E)``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.graphdata import GraphData
from repro.core.model import GCNWeights
from repro.nn.sparse import COOMatrix

__all__ = ["RecursiveEmbedder"]


class RecursiveEmbedder:
    """Algorithm-1 evaluation of a trained GCN, one node at a time.

    ``memoize`` controls how faithful the baseline is to the released
    neighbourhood-expansion inference the paper benchmarks against:

    * ``memoize=False`` (the Figure-10 baseline): the recursion expands a
      computation *tree* — a node reached along two different paths is
      recomputed, exactly the "duplicated computations" the paper's matrix
      formulation eliminates.  Cost per target is the product of
      neighbourhood branching factors, which explodes near hub nets.
    * ``memoize=True``: duplicates are shared *within* one target's
      expansion (a DAG walk), but never across targets.  This is the
      charitable per-node evaluation; still asymptotically worse than the
      matrix path by the neighbourhood-overlap factor.
    """

    def __init__(
        self, weights: GCNWeights, graph: GraphData, memoize: bool = True
    ) -> None:
        self.weights = weights
        self.graph = graph
        self.memoize = memoize
        self._pred_lists = _row_lists(graph.pred)
        self._succ_lists = _row_lists(graph.succ)

    # ------------------------------------------------------------------ #
    def embed_node(self, node: int) -> np.ndarray:
        """Final embedding ``e_D(node)`` via neighbourhood expansion."""
        cache: dict[tuple[int, int], np.ndarray] | None = (
            {} if self.memoize else None
        )
        return self._embed(node, self.weights.depth, cache)

    def _embed(
        self,
        node: int,
        depth: int,
        cache: dict[tuple[int, int], np.ndarray] | None,
    ) -> np.ndarray:
        if cache is not None:
            hit = cache.get((node, depth))
            if hit is not None:
                return hit
        if depth == 0:
            value = self.graph.attributes[node]
        else:
            w = self.weights
            aggregated = self._embed(node, depth - 1, cache).copy()
            for u in self._pred_lists[node]:
                aggregated = aggregated + w.w_pr * self._embed(u, depth - 1, cache)
            for u in self._succ_lists[node]:
                aggregated = aggregated + w.w_su * self._embed(u, depth - 1, cache)
            value = aggregated @ w.encoder_weights[depth - 1]
            bias = w.encoder_biases[depth - 1]
            if bias is not None:
                value = value + bias
            np.maximum(value, 0.0, out=value)
        if cache is not None:
            cache[(node, depth)] = value
        return value

    # ------------------------------------------------------------------ #
    def embed_nodes(self, nodes: Sequence[int]) -> np.ndarray:
        """Embeddings for ``nodes``, each computed independently."""
        return np.stack([self.embed_node(int(v)) for v in nodes])

    def logits(self, nodes: Sequence[int]) -> np.ndarray:
        """Classifier logits for ``nodes`` under the recursive scheme."""
        h = self.embed_nodes(nodes)
        last = len(self.weights.fc_weights) - 1
        for i, (weight, bias) in enumerate(
            zip(self.weights.fc_weights, self.weights.fc_biases)
        ):
            h = h @ weight
            if bias is not None:
                h += bias
            if i < last:
                np.maximum(h, 0.0, out=h)
        return h


def _row_lists(matrix: COOMatrix) -> list[list[int]]:
    """Per-row neighbour lists of ``matrix``, each column listed as often
    as its entry counts (a pin read twice is two neighbours)."""
    csr = matrix.to_scipy()
    repeats = csr.data.astype(np.int64)
    neighbours = np.repeat(csr.indices, repeats).tolist()
    bounds = np.concatenate([[0], np.cumsum(repeats)])[csr.indptr].tolist()
    return [neighbours[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
