"""Fast sparse-matrix GCN inference (Section 3.4.1).

The paper's scalability result: instead of evaluating Algorithm 1 node by
node (duplicating shared neighbourhood work), write each aggregation step
as one sparse-matrix product over the whole graph (Equation (2)/(3)) and
the entire network becomes a short chain of matmuls — three orders of
magnitude faster at a million nodes.

This module is the pure-numpy/scipy hot path: no autograd tape, CSR-cached
adjacency, in-place ReLU.  It holds the one inference-side definition of
Equation (1) (:func:`layer_forward`) and of the classifier head
(:func:`head_forward`); the whole-graph pass, a shard round, a
block-diagonal batch, a row-subset patch and the dense ablation are all
calls into them, which is what keeps their float64 logits bit-identical.
Both compute their rows in cache-sized blocks (:data:`BLOCK_ROWS`), so
every caller gets the blocking and none of them can tell.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.sparse._sparsetools import csr_matvecs

from repro.config import ExecutionConfig
from repro.core.graphdata import GraphData
from repro.core.model import GCNWeights
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.resilience.errors import NumericalError

__all__ = [
    "FastInference",
    "row_stable_matmul",
    "layer_forward",
    "head_forward",
    "softmax",
    "check_finite",
]


#: Rows per block of :func:`layer_forward` / :func:`head_forward`.  A
#: block's live buffers (aggregate, product, one temporary: about
#: 3 × rows × 128 × 8 B) have to stay inside a 4 MiB L2 next to the
#: weights; 512–1024 rows measured best from 79 to 215k nodes
#: (EXPERIMENTS.md).  A constant, not a knob: no result depends on it
#: (every row is computed alone) and no caller has a reason to want
#: another value.
BLOCK_ROWS = 512

#: Stacked rows after which :meth:`repro.flow.scorer.IncrementalScorer.what_if`
#: starts another chunk of candidates, so that a chunk's layer blocks
#: stay a few MiB however many candidates an iteration ranks.  A constant
#: for the same reason.
WHAT_IF_ROWS = 1024


def _narrow_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for fewer than four output columns: per row, the
    left-to-right sum over ``k`` of the rounded products
    ``a[i, k] * b[k, j]``, starting from ``+0.0``.

    ``add.reduce`` down the leading axis of a C-contiguous ``(K, m)``
    array adds row ``k`` into an ``m``-wide accumulator for ``k = 0, 1, …``
    — that sequential order, vectorised across rows — provided ``m >= 2``
    (a ``(K, 1)`` operand coalesces to 1-D and is summed pairwise), hence
    the zero column beside a single row.  The reduction starts from the
    first product rather than ``+0.0``, which shows only when every term
    is ``-0.0``: the final ``+ 0.0`` restores that sign.
    """
    m = a.shape[0]
    if m == 1:
        a = np.concatenate([a, np.zeros_like(a)], axis=0)
    a_t = np.ascontiguousarray(a.T, dtype=np.result_type(a, b))
    products = np.empty_like(a_t)
    out_t = np.empty((b.shape[1], a_t.shape[1]), dtype=a_t.dtype)
    for j in range(b.shape[1]):
        np.multiply(a_t, b[:, j : j + 1], out=products)
        np.add.reduce(products, axis=0, out=out_t[j])
    out_t += 0.0
    return np.ascontiguousarray(out_t[:, :m].T)


def row_stable_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` computed so row ``i`` of the result depends only on row
    ``i`` of ``a`` — never on the total row count.

    BLAS gemm is *not* row-stable in general: narrow outputs (fewer than
    four columns) and single-row operands dispatch to kernels whose
    k-accumulation order differs from the blocked path, so the same row
    can round differently depending on the height of the matrix it sits
    in.  Row blocks, shards, batches and row-subset patches all cut the
    node set into pieces of varying height and still promise bit-identical
    float64 logits, so every dense product goes through this helper.

    The contract for a narrow output is the *sequential sum*
    (:func:`_narrow_matmul`; the Python k-loop that defines it is the
    oracle in ``tests/core/reference_kernels.py``).  Zero-padding the
    output up to four columns is not enough, because skinny gemm still
    switches kernels on the row count (observed: ``(3222, 128) @ (128, 2)``
    rounds differently from its 805-row slice even padded).  Single rows
    are zero-padded up to the blocked kernel's minimum height; padding rows
    are exact zeros that never feed back into real outputs.  Which NaN
    (sign, payload) an entry with several NaN terms ends up with is outside
    the contract: x86 keeps the first operand's, and a ufunc's SIMD body
    and scalar tail order their operands differently.
    """
    m, n = a.shape[0], b.shape[1]
    if n < 4:
        # Blocked for direct callers: the (K, m) temporaries of a tall
        # operand would otherwise leave the cache (and take 2 × K × m).
        return _by_blocks(m, lambda lo, hi: _narrow_matmul(a[lo:hi], b))
    if m == 1:
        a = np.concatenate(
            [a, np.zeros((3, a.shape[1]), dtype=a.dtype)], axis=0
        )
        return (a @ b)[:m]
    return a @ b


def _aggregate(adjacency, lo: int, hi: int, prev: np.ndarray) -> np.ndarray:
    """``adjacency[lo:hi] @ prev`` for a CSR (or, in the ablation, dense)
    adjacency, each row summed in stored entry order."""
    if adjacency.shape[1] != prev.shape[0]:
        raise ValueError(
            f"adjacency has {adjacency.shape[1]} columns, layer input "
            f"{prev.shape[0]} rows"
        )
    if isinstance(adjacency, np.ndarray):
        return row_stable_matmul(adjacency[lo:hi], prev)
    # The kernel behind scipy's ``csr @ dense``, handed a window of
    # ``indptr``: building a row-sliced CSR object per block instead cost
    # 12–18 % of the whole pass from 1k to 54k nodes.
    out = np.zeros(
        (hi - lo, prev.shape[1]),
        dtype=np.result_type(adjacency.dtype, prev.dtype),
    )
    csr_matvecs(
        hi - lo, adjacency.shape[1], prev.shape[1],
        adjacency.indptr[lo : hi + 1], adjacency.indices, adjacency.data,
        prev.ravel(), out.ravel(),
    )
    return out


def _head_rows(weights: GCNWeights, h: np.ndarray) -> np.ndarray:
    last = len(weights.fc_weights) - 1
    for i, (weight, bias) in enumerate(
        zip(weights.fc_weights, weights.fc_biases)
    ):
        h = row_stable_matmul(h, weight)
        if bias is not None:
            h += bias
        if i < last:
            np.maximum(h, 0.0, out=h)
    return h


def _by_blocks(n: int, compute) -> np.ndarray:
    """``compute(lo, hi)`` over consecutive :data:`BLOCK_ROWS`-row ranges
    of ``n`` rows, gathered into one array (a lone block *is* the array)."""
    first = compute(0, min(n, BLOCK_ROWS))
    if n <= BLOCK_ROWS:
        return first
    out = np.empty((n, first.shape[1]), dtype=first.dtype)
    out[:BLOCK_ROWS] = first
    for lo in range(BLOCK_ROWS, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        out[lo:hi] = compute(lo, hi)
    return out


def layer_forward(
    weights: GCNWeights,
    d: int,
    own_prev,
    pred_rows,
    succ_rows,
    prev,
    with_head: bool = False,
) -> np.ndarray:
    """Equation (1), layer ``d``, for one row set:
    ``relu((own_prev + w_pr·pred_rows@prev + w_su·succ_rows@prev)·W_d + b_d)``
    — then, when ``with_head`` and ``d`` is the last layer, the FC head on
    those rows.

    ``prev`` holds the layer input for every column ``pred_rows`` /
    ``succ_rows`` reference and ``own_prev`` the rows of it being computed:
    ``prev`` itself for the whole graph, ``prev[owned_pos]`` for a shard,
    ``prev[affected]`` for a row-subset patch.  Each output row depends
    only on its own adjacency rows (summed in stored entry order) and,
    through :func:`row_stable_matmul`, on nothing else — so any row subset
    reproduces the whole-graph rows bit for bit.

    The same row-locality is what the pass's speed rests on: rows are
    computed :data:`BLOCK_ROWS` at a time — aggregate, encode and (fused)
    head per block — so the n × K aggregate, and with ``with_head`` the
    final embedding and the head's intermediates, only ever exist one
    cache-sized block at a time.  The block size is a module constant
    because nothing observable depends on it but the time taken.
    """
    weight, bias = weights.encoder_weights[d], weights.encoder_biases[d]
    with_head = with_head and d == weights.depth - 1

    def block(lo: int, hi: int) -> np.ndarray:
        out = row_stable_matmul(
            own_prev[lo:hi]
            + weights.w_pr * _aggregate(pred_rows, lo, hi, prev)
            + weights.w_su * _aggregate(succ_rows, lo, hi, prev),
            weight,
        )
        if bias is not None:
            out += bias
        np.maximum(out, 0.0, out=out)
        return _head_rows(weights, out) if with_head else out

    return _by_blocks(own_prev.shape[0], block)


def head_forward(weights: GCNWeights, h: np.ndarray) -> np.ndarray:
    """The FC classifier head over final embeddings ``h`` (row-local, and
    blocked like :func:`layer_forward`)."""
    return _by_blocks(
        h.shape[0], lambda lo, hi: _head_rows(weights, h[lo:hi])
    )


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise class probabilities (max-shifted for stability)."""
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    return exp / exp.sum(axis=1, keepdims=True)


def check_finite(values: np.ndarray, graph_name: str, what: str) -> None:
    """Raise :class:`~repro.resilience.errors.NumericalError` if any of
    ``values`` is NaN/inf — corrupt weights or overflowing attributes must
    surface as a typed failure, not propagate garbage scores."""
    if np.isfinite(values).all():
        return
    bad = int((~np.isfinite(values)).any(axis=1).sum())
    raise NumericalError(
        f"{what} for graph {graph_name!r} contain non-finite values "
        f"({bad}/{values.shape[0]} nodes affected)",
        diagnostics={"graph": graph_name, "output": what, "bad_nodes": bad},
    )


def _obs():
    """Inference metrics in the process-default registry (lazy lookup so
    a registry swapped in by tests is honoured)."""
    reg = get_registry()
    return (
        reg.counter(
            "repro_inference_calls_total", "whole-graph fast-inference calls"
        ),
        reg.counter(
            "repro_inference_nodes_total", "nodes scored by fast inference"
        ),
        reg.histogram(
            "repro_inference_seconds", "wall time of one whole-graph logits pass"
        ),
    )


class FastInference:
    """Matrix-form inference engine for a trained GCN.

    ``execution`` selects numerics and backend: ``dtype`` defaults to
    float64 (matching the training tape) — ``float32`` gives
    deployment-style inference, as in the paper's fp32 GPU path — and
    ``backend`` routes large graphs to the partitioned multi-core engine
    (:class:`repro.graph.sharded.ShardedInference`, a subclass that
    overrides only the pass itself) when it resolves to ``sharded``.
    """

    #: name of the backend an engine of this class serves a graph with
    backend = "single"

    def __init__(
        self, weights: GCNWeights, execution: ExecutionConfig | None = None
    ) -> None:
        self.execution = execution or ExecutionConfig()
        self.dtype = self.execution.numpy_dtype()
        # Cast-cached on the weight snapshot (no re-copy per construction).
        self.weights = weights.astype(self.dtype)
        self._sharded = None

    @classmethod
    def from_file(
        cls, path, execution: ExecutionConfig | None = None
    ) -> "FastInference":
        """Build an engine from a model file saved by :func:`~repro.core.
        serialize.save_gcn`.

        Propagates the typed load errors (:class:`FileNotFoundError`,
        :class:`~repro.resilience.errors.CheckpointCorruptError`); use
        :func:`repro.resilience.degrade.load_predictor` when a fallback
        predictor is preferable to failing.
        """
        from repro.core.serialize import load_gcn

        return cls(load_gcn(path).layer_weights(), execution=execution)

    # ------------------------------------------------------------------ #
    def route(self, graph: GraphData) -> "FastInference":
        """The engine that serves ``graph`` under this config — the one
        single-vs-sharded decision; its ``backend`` names the choice."""
        if (
            self.execution.resolve_inference_backend(graph.num_nodes)
            != "sharded"
        ):
            return self
        if self._sharded is None:
            from repro.graph.sharded import ShardedInference

            self._sharded = ShardedInference(
                self.weights, execution=self.execution
            )
        return self._sharded

    def _forward(self, graph: GraphData, with_head: bool) -> np.ndarray:
        """The whole-graph chain: every layer with ``own_prev is prev``,
        the head fused into the last one."""
        with span("inference.csr_cache"):
            pred = graph.pred.to_scipy()
            succ = graph.succ.to_scipy()
        h = graph.attributes
        if self.dtype != np.float64:
            pred = pred.astype(self.dtype)
            succ = succ.astype(self.dtype)
            h = h.astype(self.dtype)
        for d in range(self.weights.depth):
            with span("inference.sparse_matmul", layer=d):
                h = layer_forward(self.weights, d, h, pred, succ, h, with_head)
        return h

    def _observe(self, graph: GraphData, elapsed: float) -> None:
        calls, nodes, seconds = _obs()
        calls.inc()
        nodes.inc(graph.num_nodes)
        seconds.observe(elapsed)

    def embed(self, graph: GraphData) -> np.ndarray:
        """Compute final node embeddings for the whole graph."""
        return self.route(graph)._forward(graph, with_head=False)

    def logits(self, graph: GraphData) -> np.ndarray:
        """Class logits for every node.

        Raises :class:`~repro.resilience.errors.NumericalError` if any
        logit is NaN/inf.
        """
        engine = self.route(graph)
        start = time.perf_counter()
        with span("inference.logits", graph=graph.name, nodes=graph.num_nodes):
            h = engine._forward(graph, with_head=True)
            check_finite(h, graph.name, "logits")
        engine._observe(graph, time.perf_counter() - start)
        return h

    def predict(self, graph: GraphData) -> np.ndarray:
        """Argmax class per node."""
        return np.argmax(self.logits(graph), axis=1)

    def predict_proba(self, graph: GraphData) -> np.ndarray:
        """Softmax probabilities per node."""
        proba = softmax(self.logits(graph))
        check_finite(proba, graph.name, "predict_proba")
        return proba
