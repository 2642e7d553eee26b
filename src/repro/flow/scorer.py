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
* ``what_if(previews, within)`` — what each of several alternative
  insertions (:meth:`repro.flow.modify.IncrementalDesign.preview_ops`)
  would do to the labels the caller will read (``within``, per preview),
  each against the graph as it stands, nothing kept.

:class:`IncrementalScorer` is the one implementation that uses the
locality: it caches every layer's output and runs the shared
:func:`~repro.core.inference.layer_forward` kernel on the d-hop closure
of the changed rows only — of one edit per ``rescore``, of a whole chunk
of candidates stacked into one row block per layer per ``what_if``, and
there only as far as the labels asked for reach back — so its float64
logits stay ``np.array_equal`` to a whole-graph
:class:`~repro.core.inference.FastInference` pass.  Its row blocks are
plain CSR records (:class:`_CsrRows`): no scipy matrix is built per call.
:class:`WholeGraphScorer` adapts everything else — a plain callable, a
cascade's ``predict`` — by re-predicting the whole graph, with each
preview committed and rolled back in turn.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import NamedTuple, Protocol

import numpy as np

from repro.circuit.structure import counts_to_ptr, expand_rows, sorted_unique
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
#: per preview: the (distinct) graph rows whose labels the caller will read
Within = Sequence[np.ndarray] | None


class Scorer(Protocol):
    """Labels of one graph, kept current while the caller edits it."""

    def bind(self, graph: GraphData) -> np.ndarray:
        """Score all of ``graph`` and follow it from now on; the labels."""

    def rescore(self, changed_rows: Sequence[int]) -> tuple[np.ndarray, object]:
        """Labels after an in-place edit of the bound graph, and an undo
        token.  The array is only valid until the next call."""

    def rollback(self, token: object) -> None:
        """Undo the latest ``rescore`` not yet rolled back."""

    def what_if(
        self, previews: Sequence[OpPreview], within: Within = None
    ) -> WhatIf:
        """What each preview's insertion would do to the labels of the
        bound graph (as last scored), on the rows ``within`` names for it
        (``None``: wherever a label can change); graph and scorer stay as
        they are."""


def as_scorer(predictor: "Predictor | Scorer") -> Scorer:
    """``predictor`` itself if it is a scorer, else the whole-graph adapter."""
    if hasattr(predictor, "rescore"):
        return predictor
    return WholeGraphScorer(predictor)


class WholeGraphScorer:
    """Adapter for a plain ``GraphData -> labels`` callable: every
    ``rescore`` is a whole-graph call, and with no state besides the graph
    there is nothing to roll back.  ``what_if`` commits each preview
    itself, calls the predictor, and rolls the design back."""

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

    def what_if(
        self, previews: Sequence[OpPreview], within: Within = None
    ) -> WhatIf:
        if within is None:
            within = [np.arange(self._graph.num_nodes)] * len(previews)
        results = []
        for preview, rows in zip(previews, within):
            design = preview.design
            _, checkpoint = design.insert_ops([preview])
            try:
                results.append((rows, self.bind(self._graph)[rows]))
            finally:
                design.rollback(checkpoint)
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
            "rows whose logits incremental updates recomputed "
            "(rescore: its closure; what_if: the rows asked for that can change)",
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
    was) and computes only what the labels asked for read: with
    ``changed[0]`` an edit's moved rows, target and OBS row and
    ``changed[d + 1]`` one hop more, ``need[D] = changed[D] ∩ within`` and
    ``need[d] = N[need[d + 1]] ∩ changed[d]`` (``N``: a row and its
    ``pred`` / ``succ`` columns).  Layer ``d`` runs on the rows
    ``need[d + 1]`` of a whole chunk of alternative edits, stacked into
    one row block whose columns are the graph's rows, then ``need[d]``,
    whose layer inputs sit behind the cached rows of the same store.
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
        blocks += [logits, inference.class_labels(logits)]
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
        rows = sorted_unique(
            np.concatenate(
                [np.asarray(changed_rows, dtype=np.int64), np.arange(self._n, n)]
            )
        )
        with span("opi.incremental_update", changed=len(rows)):
            pred = graph.pred.to_scipy()
            succ = graph.succ.to_scipy()
            adjacency = [(csr.indptr, csr) for csr in (pred, succ)]
            for _ in range(weights.depth):
                rows = _reach(rows, n, adjacency)
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
            patch(caches[-1], inference.class_labels(logits))
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

    def what_if(
        self, previews: Sequence[OpPreview], within: Within = None
    ) -> WhatIf:
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
        target = held[:-1] + [p.target for p in previews]
        moved = [h + p.rows for h, p in zip(held, previews)]
        changed = [sorted_unique(np.concatenate([target, *moved]))]
        for _ in range(self.weights.depth):
            changed.append(_reach(changed[-1], n + 1, adjacency))
        need = [changed.pop()]
        if within is not None:
            asked = np.concatenate([h + rows for h, rows in zip(held, within)])
            need = [np.intersect1d(need[0], asked, assume_unique=True)]
        # The target <-> OBS edge is in no CSR yet: a needed end of it
        # reads the other end, or it would aggregate a scratch row.
        edge = np.concatenate([target, held[:-1] + n])
        other = np.roll(edge, len(previews))
        while changed:
            reach = _reach(
                need[0], n + 1, adjacency, other[_locate(need[0], edge)[1]]
            )
            need.insert(0, reach[_locate(changed.pop(), reach)[1]])
        starts = [np.searchsorted(keys, held) for keys in need]
        # A chunk is the candidates whose kernel rows start in one window
        # of WHAT_IF_ROWS.
        window = sum(starts[1:])[:-1] // inference.WHAT_IF_ROWS
        cuts = [*np.flatnonzero(np.diff(window, prepend=-1)), len(previews)]
        labels = [np.empty(0, dtype=np.int64)]
        for lo, hi in zip(cuts, cuts[1:]):
            chunk = [keys[at[lo] : at[hi]] for keys, at in zip(need, starts)]
            if not len(chunk[-1]):
                continue
            with span(
                "opi.what_if",
                candidates=hi - lo,
                rows=len(chunk[-1]),
                kernel_rows=sum(map(len, chunk[1:])),
            ):
                logits = self._stacked_logits(
                    previews[lo:hi], held[lo:hi], chunk, adjacency
                )
            labels.append(inference.class_labels(logits))
        updates, scored = _obs()
        updates.inc(len(previews))
        scored.inc(len(need[-1]))
        rows, labels, at = need[-1] % (n + 1), np.concatenate(labels), starts[-1]
        return [(rows[a:b], labels[a:b]) for a, b in zip(at, at[1:])]

    def _stacked_logits(self, previews, held, need, adjacency) -> np.ndarray:
        """Logits of the stacked rows ``need[-1]`` of ``previews``
        (``held[i]`` the first key of preview ``i``): layer ``d`` computes
        the rows ``need[d + 1]`` from blocks whose column ``n + j`` is
        stacked row ``j`` of ``need[d]``."""
        weights, n = self.weights, self._n
        target = held + [p.target for p in previews]
        for d in range(weights.depth):
            cols, rows = need[d : d + 2]
            # Stacked layer inputs go behind the cached rows of the same
            # store: one array per layer, no copy of the cache.
            prev = self._stores[d].rows(n + len(cols))
            if d == 0:
                # (An OBS row gathers scratch; its attributes overwrite it.)
                prev[n:] = prev[cols % (n + 1)]
                moved = np.concatenate([h + p.rows for h, p in zip(held, previews)])
                at, read = _locate(cols, moved)
                prev[n + at[read]] = np.concatenate(
                    [p.attributes for p in previews]
                )[read]
            else:
                prev[n:] = out
            at, stacked = _locate(cols, rows)
            out = layer_forward(
                weights,
                d,
                prev[np.where(stacked, n + at, rows % (n + 1))],
                _stacked_block(*adjacency[0], n, rows, cols, held + n, target),
                _stacked_block(*adjacency[1], n, rows, cols, target, held + n),
                prev,
                with_head=True,
            )
        check_finite(out, self._graph.name, "logits")
        return out


def _locate(keys: np.ndarray, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each of ``wanted`` sits in the ascending, non-negative
    ``keys``, and whether it is there at all."""
    at = np.searchsorted(keys, wanted)
    return at, np.append(keys, -1)[at] == wanted


def _stacked_block(ptr, csr, n, rows, cols, tails, heads) -> "_CsrRows":
    """``csr[row]`` for the stacked ``rows``, entries in stored order, each
    column that ``cols`` holds the row's candidate's copy of pointed at
    the copy (column ``n + position``); those of ``tails`` among ``rows``
    get one more entry, last — where the live CSR puts an appended edge —
    on their ``heads`` copy.  (Cached and stacked columns in two products
    would sum a row in another order.)"""
    owner, row = np.divmod(rows, n + 1)
    take, counts = expand_rows(ptr, row)
    columns = csr.indices[take]
    copy, stacked = _locate(cols, owner.repeat(counts) * (n + 1) + columns)
    at, here = _locate(rows, tails)
    counts[at[here]] += 1
    indptr = counts_to_ptr(counts)
    # The extra entries take the last slot of their rows, the stored
    # entries the others, in order.
    last = indptr[at[here] + 1] - 1
    stored = np.ones(indptr[-1], dtype=bool)
    stored[last] = False
    data = np.empty(indptr[-1], dtype=csr.dtype)
    data[stored] = csr.data[take]
    data[last] = 1.0
    indices = np.empty(indptr[-1], dtype=np.int64)
    indices[stored] = np.where(stacked, n + copy, columns)
    indices[last] = n + np.searchsorted(cols, heads[here])
    return _CsrRows(data, indices, indptr, (len(rows), n + len(cols)), csr.dtype)


def _reach(keys: np.ndarray, width: int, adjacency, more=()) -> np.ndarray:
    """``keys`` (``owner * width + row``), everything one hop from them in
    their owner's copy of the graph, and the keys ``more``, ascending.
    ``adjacency`` is ``(row bounds, CSR)`` of ``pred`` and ``succ``: they
    are transposes, so the rows that aggregate FROM a row are the columns
    its own two adjacency rows name."""
    owner, row = np.divmod(keys, width)
    reached = [keys, np.asarray(more, dtype=np.int64)]
    for ptr, csr in adjacency:
        take, counts = expand_rows(ptr, row)
        reached.append(owner.repeat(counts) * width + csr.indices[take])
    return sorted_unique(np.concatenate(reached))


def _row_block(csr, rows: np.ndarray) -> "_CsrRows":
    """``csr[rows]``, without scipy's fancy indexing or constructor."""
    take, counts = expand_rows(csr.indptr, rows)
    indices = csr.indices[take]
    indptr = counts_to_ptr(counts).astype(indices.dtype, copy=False)
    return _CsrRows(
        csr.data[take], indices, indptr, (len(rows), csr.shape[1]), csr.dtype
    )


class _CsrRows(NamedTuple):
    """A block of CSR rows as :func:`~repro.core.inference.layer_forward`
    reads one: the arrays, the shape and the value type.  Built directly,
    because scipy's constructor validates and index-dtype-checks arrays
    the kernel only reads."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]
    dtype: np.dtype
