"""The flow's predictor contract: a stateful scorer over an edited graph.

The Figure 7 loop re-scores the design after every tentative insertion,
but an inserted observation point only perturbs attributes inside one
fan-in cone, and a GCN label at node ``v`` depends on ``v``'s D-hop
neighbourhood only.  A black-box ``GraphData -> labels`` callable cannot
be told what changed, so the flows talk to a :class:`Scorer` instead:

* ``bind(graph)`` — one whole-graph pass; the scorer keeps what it needs
  to re-score less than everything next time;
* ``rescore(changed_rows)`` — the caller edited ``graph`` in place and
  names the rows whose attributes or adjacency changed (rows appended
  since the last call are found from the graph's size); returns the
  labels, patched in place, and an undo token;
* ``rollback(token)`` — restore the state before that ``rescore``, LIFO,
  paired with :meth:`repro.flow.modify.IncrementalDesign.rollback`.

:class:`IncrementalScorer` is the one implementation that uses the
locality: it caches every layer's output and, per ``rescore``, runs the
shared :func:`~repro.core.inference.layer_forward` kernel on the d-hop
closure of the changed rows only, so its float64 logits stay
``np.array_equal`` to a whole-graph
:class:`~repro.core.inference.FastInference` pass.
:class:`WholeGraphScorer` adapts everything else — a plain callable, a
cascade's ``predict`` — by re-predicting the whole graph.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Protocol

import numpy as np

from repro.circuit.structure import counts_to_ptr, expand_rows
from repro.core.graphdata import GraphData
from repro.core.inference import check_finite, head_forward, layer_forward
from repro.core.model import GCNWeights
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.utils.rowstore import RowStore

__all__ = [
    "Predictor",
    "Scorer",
    "IncrementalScorer",
    "WholeGraphScorer",
    "as_scorer",
]

#: the stateless contract: a 0/1 array over the nodes of a graph
Predictor = Callable[[GraphData], np.ndarray]


class Scorer(Protocol):
    """Labels of one graph, kept current while the caller edits it."""

    def bind(self, graph: GraphData) -> np.ndarray:
        """Score all of ``graph`` and follow it from now on; the labels."""

    def rescore(self, changed_rows: Sequence[int]) -> tuple[np.ndarray, object]:
        """Labels after an in-place edit of the bound graph, and an undo
        token.  The array is only valid until the next call."""

    def rollback(self, token: object) -> None:
        """Undo the latest ``rescore`` not yet rolled back."""


def as_scorer(predictor: "Predictor | Scorer") -> Scorer:
    """``predictor`` itself if it is a scorer, else the whole-graph adapter."""
    if hasattr(predictor, "rescore"):
        return predictor
    return WholeGraphScorer(predictor)


class WholeGraphScorer:
    """Adapter for a plain ``GraphData -> labels`` callable: every
    ``rescore`` is a whole-graph call, and with no state besides the graph
    there is nothing to roll back."""

    def __init__(self, predictor: Predictor) -> None:
        self.predictor = predictor
        self._graph: GraphData | None = None

    def bind(self, graph: GraphData) -> np.ndarray:
        self._graph = graph
        return np.asarray(self.predictor(graph))

    def rescore(self, changed_rows: Sequence[int]) -> tuple[np.ndarray, object]:
        return self.bind(self._graph), None

    def rollback(self, token: object) -> None:
        pass


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


class IncrementalScorer:
    """Region-limited re-scoring for a trained (sum-aggregation) GCN.

    A layer-``d`` value depends on its node's d-hop neighbourhood, so
    after an edit only the D-hop closure of the changed rows can score
    differently.  ``rescore`` recomputes exactly those rows of every
    cached layer — :func:`~repro.core.inference.layer_forward` on one row
    block of the graph's live CSR, shared by all layers: rows of it that
    an inner layer did not need come out as the bits they already held —
    then the head on them, and patches the caches.  The token holds the
    overwritten rows.  After a
    :class:`~repro.resilience.errors.NumericalError` the caches are
    part-patched: bind again before further use.
    """

    def __init__(self, weights: GCNWeights) -> None:
        self.weights = weights
        self._graph: GraphData | None = None
        self._n = 0
        #: outputs of layers 1..D, then logits, then labels, row-growable
        #: (layer 0 is ``graph.attributes``, which the caller keeps current)
        self._stores: list[RowStore] = []

    def bind(self, graph: GraphData) -> np.ndarray:
        with span("opi.full_pass", nodes=graph.num_nodes):
            pred = graph.pred.to_scipy()
            succ = graph.succ.to_scipy()
            h = graph.attributes
            blocks = []
            for d in range(self.weights.depth):
                h = layer_forward(self.weights, d, h, pred, succ, h)
                blocks.append(h)
            logits = head_forward(self.weights, h)
            check_finite(logits, graph.name, "logits")
        blocks += [logits, np.argmax(logits, axis=1)]
        self._graph = graph
        self._n = graph.num_nodes
        self._stores = [RowStore(block) for block in blocks]
        return self._stores[-1].rows(self._n)

    @property
    def logits(self) -> np.ndarray:
        """Float64 logits of the bound graph as of the latest call."""
        return self._stores[-2].rows(self._n)

    def rescore(self, changed_rows: Sequence[int]) -> tuple[np.ndarray, object]:
        graph, weights = self._graph, self.weights
        n = graph.num_nodes
        rows = np.union1d(changed_rows, np.arange(self._n, n)).astype(np.int64)
        with span("opi.incremental_update", changed=len(rows)):
            pred = graph.pred.to_scipy()
            succ = graph.succ.to_scipy()
            for _ in range(weights.depth):
                # ``pred`` and ``succ`` are transposes of each other, so
                # the rows that aggregate FROM a row are the columns its
                # own two adjacency rows name.
                reached = [
                    csr.indices[expand_rows(csr.indptr, rows)[0]]
                    for csr in (pred, succ)
                ]
                rows = np.union1d(rows, np.concatenate(reached))
            pred_rows, succ_rows = _row_block(pred, rows), _row_block(succ, rows)
            caches = [store.rows(n) for store in self._stores]
            overwritten = []

            def patch(cache: np.ndarray, block: np.ndarray) -> None:
                overwritten.append(cache[rows])
                cache[rows] = block

            prev = graph.attributes
            for d in range(weights.depth):
                patch(
                    caches[d],
                    layer_forward(
                        weights, d, prev[rows], pred_rows, succ_rows, prev
                    ),
                )
                prev = caches[d]
            logits = head_forward(weights, prev[rows])
            check_finite(logits, graph.name, "logits")
            patch(caches[-2], logits)
            patch(caches[-1], np.argmax(logits, axis=1))
        token = (self._n, n, rows, overwritten)
        self._n = n
        updates, scored = _obs()
        updates.inc()
        scored.inc(len(rows))
        return caches[-1], token

    def rollback(self, token: object) -> None:
        self._n, n_patched, rows, overwritten = token
        for store, block in zip(self._stores, overwritten):
            # Rows the undone edit appended sit past ``_n`` again; writing
            # their stale values back too is harmless.
            store.rows(n_patched)[rows] = block


def _row_block(csr, rows: np.ndarray):
    """``csr[rows]`` without scipy's fancy-indexing overhead."""
    take, counts = expand_rows(csr.indptr, rows)
    return type(csr)(
        (csr.data[take], csr.indices[take], counts_to_ptr(counts)),
        shape=(len(rows), csr.shape[1]),
    )
