"""Incremental GCN inference under graph edits.

The iterative OPI flow re-runs inference after every insertion round, but
an inserted observation point only perturbs attributes inside one fan-in
cone; embeddings elsewhere are bit-identical.  A GCN embedding at node
``v`` depends on ``v``'s D-hop neighbourhood, so after editing node set
``C`` only ``N_D(C)`` can change — and layer ``d`` values change exactly on
``N_d(C)``.

:class:`IncrementalInference` caches the per-layer embedding matrices of
the last full run and, on update, re-evaluates each layer only on its
affected row set — the shared :func:`~repro.core.inference.layer_forward`
kernel on ``prev[affected]`` / ``pred[affected]`` / ``succ[affected]`` —
then patches the cache, so its float64 logits are bit-identical to a
whole-graph :class:`~repro.core.inference.FastInference` pass (asserted
with ``np.array_equal`` in the test-suite).
"""

from __future__ import annotations

import numpy as np

from repro.core.graphdata import GraphData
from repro.core.inference import check_finite, head_forward, layer_forward
from repro.core.model import GCNWeights
from repro.obs.metrics import get_registry
from repro.obs.trace import span

__all__ = ["IncrementalInference"]


def _obs():
    reg = get_registry()
    return (
        reg.counter(
            "repro_inference_incremental_updates_total",
            "region-limited re-inference passes",
        ),
        reg.counter(
            "repro_inference_incremental_rows_total",
            "embedding rows recomputed by incremental updates",
        ),
    )


class IncrementalInference:
    """Region-limited re-inference for a trained (sum-aggregation) GCN."""

    def __init__(self, weights: GCNWeights, graph: GraphData) -> None:
        self.weights = weights
        self.graph = graph
        self._layers: list[np.ndarray] = []
        self._logits: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    def full_pass(self) -> np.ndarray:
        """Run whole-graph inference and (re)build the layer cache."""
        with span("inference.full_pass", nodes=self.graph.num_nodes):
            return self._full_pass()

    def _full_pass(self) -> np.ndarray:
        pred = self.graph.pred.to_scipy()
        succ = self.graph.succ.to_scipy()
        h = np.array(self.graph.attributes, dtype=np.float64, copy=True)
        layers = [h]
        for d in range(self.weights.depth):
            h = layer_forward(self.weights, d, h, pred, succ, h)
            layers.append(h)
        logits = head_forward(self.weights, h)
        check_finite(logits, self.graph.name, "logits")
        self._layers = layers
        self._logits = logits
        return logits

    # ------------------------------------------------------------------ #
    @property
    def logits(self) -> np.ndarray:
        if self._logits is None:
            raise RuntimeError("run full_pass() before reading logits")
        return self._logits

    def predict(self) -> np.ndarray:
        return np.argmax(self.logits, axis=1)

    def _grow_cache(self, n_new: int) -> None:
        """Extend cached matrices with zero rows for appended nodes."""
        grown = []
        for layer in self._layers:
            pad = np.zeros((n_new, layer.shape[1]))
            grown.append(np.vstack([layer, pad]))
        self._layers = grown
        if self._logits is not None:
            self._logits = np.vstack(
                [self._logits, np.zeros((n_new, self._logits.shape[1]))]
            )

    def update(self, changed_nodes) -> np.ndarray:
        """Refresh the cache after attribute/structure edits.

        ``changed_nodes``: nodes whose attributes changed or that gained
        or lost edges (for an OP insertion: the target plus every node the
        incremental SCOAP relaxation touched, plus the new OBS node).
        Newly appended nodes are detected from the graph size.  Returns the
        set of rows whose logits changed (the affected region).
        """
        if self._logits is None:
            raise RuntimeError("run full_pass() before update()")
        changed_nodes = list(changed_nodes)
        with span("inference.incremental_update", changed=len(changed_nodes)):
            affected = self._update(changed_nodes)
        updates, rows = _obs()
        updates.inc()
        rows.inc(len(affected))
        return affected

    def _update(self, changed_nodes) -> np.ndarray:
        n = self.graph.num_nodes
        n_cached = self._layers[0].shape[0]
        if n > n_cached:
            self._grow_cache(n - n_cached)
        changed = set(int(v) for v in changed_nodes)
        changed.update(range(n_cached, n))
        pred = self.graph.pred.to_scipy()
        succ = self.graph.succ.to_scipy()

        # Layer 0: refresh attribute rows.
        affected = np.array(sorted(changed), dtype=np.int64)
        self._layers[0][affected] = self.graph.attributes[affected]

        for d in range(self.weights.depth):
            affected = _expand(affected, pred, succ)
            prev = self._layers[d]
            self._layers[d + 1][affected] = layer_forward(
                self.weights, d, prev[affected], pred[affected],
                succ[affected], prev,
            )

        rows = head_forward(self.weights, self._layers[-1][affected])
        check_finite(rows, self.graph.name, "logits")
        self._logits[affected] = rows
        return affected


def _expand(nodes: np.ndarray, pred, succ) -> np.ndarray:
    """One-hop closure of ``nodes`` over both edge directions.

    A node's layer-d value depends on its own and its neighbours' layer-
    (d-1) values, so the affected set grows by the *reverse* neighbourhood:
    everyone who aggregates FROM a changed node.  With ``pred``/``succ``
    being transposes of each other, the union of their reverse images is
    the union of their forward images over the pair.
    """
    marker = np.zeros(pred.shape[0], dtype=bool)
    marker[nodes] = True
    # rows that reference a changed column in pred: pred @ marker != 0
    hit_pred = (pred @ marker.astype(np.float64)) != 0
    hit_succ = (succ @ marker.astype(np.float64)) != 0
    marker |= hit_pred | hit_succ
    return np.flatnonzero(marker)
