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
  paired with :meth:`repro.flow.modify.IncrementalDesign.rollback`;
* ``what_if(previews)`` — what each of several alternative insertions
  (:meth:`repro.flow.modify.IncrementalDesign.preview_op`) would do to
  the labels, each against the graph as it stands, nothing kept.

:class:`IncrementalScorer` is the one implementation that uses the
locality: it caches every layer's output and runs the shared
:func:`~repro.core.inference.layer_forward` kernel on the d-hop closure
of the changed rows only — of one edit per ``rescore``, of a whole chunk
of candidates stacked into one row block per ``what_if`` — so its float64
logits stay ``np.array_equal`` to a whole-graph
:class:`~repro.core.inference.FastInference` pass.
:class:`WholeGraphScorer` adapts everything else — a plain callable, a
cascade's ``predict`` — by re-predicting the whole graph.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Protocol

import numpy as np

from repro.circuit.structure import counts_to_ptr, expand_rows
from repro.core import inference
from repro.core.graphdata import GraphData
from repro.core.inference import check_finite, head_forward, layer_forward
from repro.core.model import GCNWeights
from repro.flow.modify import OpPreview
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
#: per preview: graph rows whose label may change, and their new labels
WhatIf = list[tuple[np.ndarray, np.ndarray]]


class Scorer(Protocol):
    """Labels of one graph, kept current while the caller edits it."""

    def bind(self, graph: GraphData) -> np.ndarray:
        """Score all of ``graph`` and follow it from now on; the labels."""

    def rescore(self, changed_rows: Sequence[int]) -> tuple[np.ndarray, object]:
        """Labels after an in-place edit of the bound graph, and an undo
        token.  The array is only valid until the next call."""

    def rollback(self, token: object) -> None:
        """Undo the latest ``rescore`` not yet rolled back."""

    def what_if(self, previews: Sequence[OpPreview]) -> WhatIf:
        """What each preview's insertion would do to the labels of the
        bound graph (as last scored); graph and scorer stay as they are."""


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

    def what_if(self, previews: Sequence[OpPreview]) -> WhatIf:
        rows = np.arange(self._graph.num_nodes)
        results = []
        for preview in previews:
            undo = preview.design.tentative_insert(preview.target)
            try:
                results.append((rows, self.bind(self._graph)[: len(rows)]))
            finally:
                undo()
        return results


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
    :class:`~repro.resilience.errors.NumericalError` from ``rescore`` the
    caches are part-patched: bind again before further use.

    ``what_if`` patches nothing (an error from it leaves the scorer as it
    was): the closures of many alternative edits are stacked into one row
    block whose columns are the graph's rows, then the stacked rows, and
    whose layer inputs sit behind the cached rows of the same stores.
    """

    def __init__(self, weights: GCNWeights) -> None:
        self.weights = weights
        self._graph: GraphData | None = None
        self._n = 0
        #: inputs of layers 0..D (the attributes as last scored, then each
        #: layer's output), then logits, then labels, row-growable
        self._stores: list[RowStore] = []

    def bind(self, graph: GraphData) -> np.ndarray:
        with span("opi.full_pass", nodes=graph.num_nodes):
            pred = graph.pred.to_scipy()
            succ = graph.succ.to_scipy()
            blocks = [graph.attributes]
            for d in range(self.weights.depth):
                h = blocks[-1]
                blocks.append(layer_forward(self.weights, d, h, pred, succ, h))
            logits = head_forward(self.weights, blocks[-1])
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
            rows = _closure(
                rows, n, weights.depth, [(c.indptr, c) for c in (pred, succ)]
            )
            pred_rows, succ_rows = _row_block(pred, rows), _row_block(succ, rows)
            caches = [store.rows(n) for store in self._stores]
            overwritten = []

            def patch(cache: np.ndarray, block: np.ndarray) -> None:
                overwritten.append(cache[rows])
                cache[rows] = block

            block = graph.attributes[rows]
            for d in range(weights.depth):
                patch(caches[d], block)
                block = layer_forward(
                    weights, d, block, pred_rows, succ_rows, caches[d]
                )
            patch(caches[-3], block)
            logits = head_forward(weights, block)
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

    def what_if(self, previews: Sequence[OpPreview]) -> WhatIf:
        n = self._n
        if self._graph.num_nodes != n:
            raise ValueError("what_if needs the graph as it was last scored")
        if not previews:
            return []
        # A candidate's rows are 0..n, row n its would-be OBS cell (an
        # empty row of the live CSRs until the stacked blocks wire it),
        # and ``candidate * (n + 1) + row`` keys one stacked row.
        adjacency = [
            (np.append(csr.indptr, csr.indptr[-1]), csr)
            for csr in (self._graph.pred.to_scipy(), self._graph.succ.to_scipy())
        ]
        held = np.arange(len(previews) + 1) * (n + 1)
        keys = np.concatenate(
            [h + np.append(p.rows, p.target) for h, p in zip(held, previews)]
        )
        keys = _closure(keys, n + 1, self.weights.depth, adjacency)
        starts = np.searchsorted(keys, held)
        # A chunk is the candidates whose rows start in one window of
        # WHAT_IF_ROWS stacked rows.
        window = starts[:-1] // inference.WHAT_IF_ROWS
        cuts = [*np.flatnonzero(np.diff(window, prepend=-1)), len(previews)]
        labels = []
        for lo, hi in zip(cuts, cuts[1:]):
            chunk = keys[starts[lo] : starts[hi]]
            with span("opi.what_if", candidates=hi - lo, rows=len(chunk)):
                logits = self._stacked_logits(
                    previews[lo:hi], held[lo:hi], chunk, adjacency
                )
            labels.append(np.argmax(logits, axis=1))
        updates, scored = _obs()
        updates.inc(len(previews))
        scored.inc(len(keys))
        rows, labels = keys % (n + 1), np.concatenate(labels)
        return [(rows[a:b], labels[a:b]) for a, b in zip(starts, starts[1:])]

    def _stacked_logits(self, previews, held, keys, adjacency) -> np.ndarray:
        """Logits of the stacked rows ``keys``, which hold the closures of
        ``previews`` (``held[i]`` the first key of preview ``i``'s rows).
        Stacked row ``j`` is column ``n + j`` of the blocks."""
        weights, n = self.weights, self._n
        m = len(keys)
        owner, row = np.divmod(keys, n + 1)
        target_at = np.searchsorted(keys, held + [p.target for p in previews])
        obs_at = np.searchsorted(keys, held + n)

        def block(ptr, csr, at, new_cols):
            """``csr[row]``, entries in stored order, each column that the
            row's candidate holds a copy of pointed at the copy; rows
            ``at`` get one more entry, last — where the live CSR puts an
            appended edge.  (Cached and stacked columns in two products
            would sum a row in another order.)"""
            take, counts = expand_rows(ptr, row)
            cols = csr.indices[take]
            wanted = owner.repeat(counts) * (n + 1) + cols
            copy = np.minimum(np.searchsorted(keys, wanted), m - 1)
            cols = np.where(keys[copy] == wanted, n + copy, cols)
            ends = counts.cumsum()[at]
            counts[at] += 1
            data = np.insert(csr.data[take], ends, 1.0)
            cols = np.insert(cols, ends, n + new_cols)
            return type(csr)((data, cols, counts_to_ptr(counts)), shape=(m, n + m))

        pred_rows = block(*adjacency[0], obs_at, target_at)
        succ_rows = block(*adjacency[1], target_at, obs_at)
        # Stacked layer inputs go behind the cached rows of the same
        # store: one array per layer, no copy of the cache.  (An OBS row
        # gathers scratch here; its preview's attributes overwrite it.)
        prev = self._stores[0].rows(n + m)
        prev[n:] = prev[row]
        changed = np.concatenate([h + p.rows for h, p in zip(held, previews)])
        prev[n + np.searchsorted(keys, changed)] = np.concatenate(
            [p.attributes for p in previews]
        )
        for d in range(weights.depth):
            out = layer_forward(
                weights, d, prev[n:], pred_rows, succ_rows, prev, with_head=True
            )
            if d + 1 < weights.depth:
                prev = self._stores[d + 1].rows(n + m)
                prev[n:] = out
        check_finite(out, self._graph.name, "logits")
        return out


def _closure(keys: np.ndarray, width: int, depth: int, adjacency) -> np.ndarray:
    """``keys`` (``owner * width + row``) and everything within ``depth``
    hops of them in their owner's copy of the graph, ascending.
    ``adjacency`` is ``(row bounds, CSR)`` of ``pred`` and ``succ``: they
    are transposes, so the rows that aggregate FROM a row are the columns
    its own two adjacency rows name."""
    for _ in range(depth):
        owner, row = np.divmod(keys, width)
        reached = [keys]
        for ptr, csr in adjacency:
            take, counts = expand_rows(ptr, row)
            reached.append(owner.repeat(counts) * width + csr.indices[take])
        keys = np.unique(np.concatenate(reached))
    return keys


def _row_block(csr, rows: np.ndarray):
    """``csr[rows]`` without scipy's fancy-indexing overhead."""
    take, counts = expand_rows(csr.indptr, rows)
    return type(csr)(
        (csr.data[take], csr.indices[take], counts_to_ptr(counts)),
        shape=(len(rows), csr.shape[1]),
    )
