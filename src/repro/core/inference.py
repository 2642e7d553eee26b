"""Fast sparse-matrix GCN inference (Section 3.4.1).

The paper's scalability result: instead of evaluating Algorithm 1 node by
node (duplicating shared neighbourhood work), write each aggregation step
as one sparse-matrix product over the whole graph (Equation (2)/(3)) and
the entire network becomes a short chain of matmuls — three orders of
magnitude faster at a million nodes.

This module is the pure-numpy/scipy hot path: no autograd tape, CSR-cached
adjacency, Equation (1) combined and ReLU applied in place.  It holds the
one inference-side definition of Equation (1) (:func:`layer_forward`) and
of the classifier head (:func:`head_forward`); the whole-graph pass, a
shard round, a block-diagonal batch, a row-subset patch and the dense
ablation are all calls into them, which is what keeps their float64
logits bit-identical.
Both compute their rows in cache-sized blocks (:data:`BLOCK_ROWS`), so
every caller gets the blocking and none of them can tell; the whole-graph
pass also splits its blocks between the calling thread and pooled threads
(:func:`_by_blocks`), which no caller can tell either.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.sparse._sparsetools import csr_matvecs

from repro.config import ExecutionConfig, available_cpus, blas_threads
from repro.core.graphdata import GraphData
from repro.core.model import GCNWeights
from repro.exec.executor import thread_pool
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

#: Blocks a row set must have before :func:`_by_blocks` splits it between
#: threads; a smaller one runs serially on the calling thread.  Split ÷
#: serial speed of the whole-graph pass over two threads on two cores, one
#: BLAS thread (EXPERIMENTS.md): 0.94× at 3 blocks (1.1k nodes), 0.81× at
#: 5, 1.11× at 9, 1.40× at 17, 1.43× at 34, 1.61× at 105.  Below the
#: floor a split costs more than it saves.  A constant, not a knob, for
#: the same reason as :data:`BLOCK_ROWS`.
SPLIT_MIN_BLOCKS = 8

#: Stacked rows after which :meth:`repro.flow.scorer.IncrementalScorer.what_if`
#: starts another chunk of candidates, so that a chunk's layer blocks
#: stay a few MiB however many candidates an iteration ranks.  A constant
#: for the same reason.
WHAT_IF_ROWS = 1024

#: Bytes of the ``candidates × nodes`` visited mask after which
#: :func:`repro.flow.modify.walk_fanin_cones` starts another chunk of
#: cones.  A constant for the same reason.
CONE_MASK_BYTES = 16 * 2**20


def _narrow_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for fewer than four output columns: per row, the
    left-to-right sum over ``k`` of the rounded products
    ``a[i, k] * b[k, j]``, starting from ``+0.0``.

    One call of the kernel behind :func:`_aggregate`, with ``b.T`` as
    ``n`` dense CSR rows and ``a.T`` (``K × m``) as its ``m`` vectors:
    step ``k`` of row ``j`` adds ``b[k, j] · a.T[k]`` into a zeroed
    ``m``-wide accumulator — that sequential order, one axpy across all
    rows at a time.
    """
    (m, k), n = a.shape, b.shape[1]
    dtype = np.result_type(a, b)
    out_t = np.zeros((n, m), dtype=dtype)
    csr_matvecs(
        n, k, m, np.arange(n + 1) * k, np.arange(n * k) % k,
        np.ascontiguousarray(b.T, dtype=dtype).ravel(),
        np.ascontiguousarray(a.T, dtype=dtype).ravel(), out_t.ravel(),
    )
    return np.ascontiguousarray(out_t.T)


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
    the contract: x86 keeps the first operand's, and the oracle's ufunc
    orders them differently in its SIMD body and its scalar tail.
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


def _by_blocks(n: int, compute, *, threads: int = 1) -> np.ndarray:
    """``compute(lo, hi)`` over consecutive :data:`BLOCK_ROWS`-row ranges
    of ``n`` rows, gathered into one array (a lone block *is* the array).

    With ``threads > 1`` and at least :data:`SPLIT_MIN_BLOCKS` blocks,
    the blocks are cut into ``threads`` contiguous runs: the calling
    thread computes the first and the pool the others (the numpy / scipy
    calls inside a block release the GIL).  A run still queued when the
    caller is done with its own — the pool busy with another caller's —
    is taken back and computed here.  Every row is computed alone, so the
    result is the same bit for bit at any thread count.  A call made on a
    pool thread runs serially (:func:`repro.exec.executor.thread_pool`
    gives it none): the pool never waits on itself.
    """
    first = compute(0, min(n, BLOCK_ROWS))
    if n <= BLOCK_ROWS:
        return first
    out = np.empty((n, first.shape[1]), dtype=first.dtype)
    out[:BLOCK_ROWS] = first

    def run(lo: int, hi: int) -> None:
        for start in range(lo, hi, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, hi)
            out[start:stop] = compute(start, stop)

    blocks = -(-n // BLOCK_ROWS)
    threads = min(threads, blocks)
    pool = thread_pool() if threads > 1 and blocks >= SPLIT_MIN_BLOCKS else None
    if pool is None:
        run(BLOCK_ROWS, n)
        return out
    bounds = [
        min(n, k * blocks // threads * BLOCK_ROWS) for k in range(threads + 1)
    ]
    runs = list(zip(bounds[1:-1], bounds[2:]))
    futures = [pool.submit(run, lo, hi) for lo, hi in runs]
    try:
        run(BLOCK_ROWS, bounds[1])
        for future, (lo, hi) in zip(futures, runs):
            if future.cancel():
                run(lo, hi)
            else:
                future.result()
    finally:
        # After an error too, no run may still be writing into ``out``.
        for future in futures:
            if not future.cancel():
                future.exception()
    return out


def layer_forward(
    weights: GCNWeights,
    d: int,
    own_prev,
    pred_rows,
    succ_rows,
    prev,
    with_head: bool = False,
    *,
    threads: int = 1,
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
    because nothing observable depends on it but the time taken.  Nor
    does anything depend on ``threads``, the most threads the blocks are
    split between (:func:`_by_blocks`).
    """
    weight, bias = weights.encoder_weights[d], weights.encoder_biases[d]
    with_head = with_head and d == weights.depth - 1

    def block(lo: int, hi: int) -> np.ndarray:
        # own + w_pr·pred + w_su·succ in place, rounded and typed as written.
        x = _aggregate(pred_rows, lo, hi, prev)
        x *= weights.w_pr
        s = _aggregate(succ_rows, lo, hi, prev)
        s *= weights.w_su
        x = x.astype(np.result_type(own_prev, x, s), copy=False)
        x += own_prev[lo:hi]
        x += s
        out = row_stable_matmul(x, weight)
        if bias is not None:
            out += bias
        np.maximum(out, 0.0, out=out)
        return _head_rows(weights, out) if with_head else out

    return _by_blocks(own_prev.shape[0], block, threads=threads)


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

    Every call runs the whole-graph pass: no config and no environment
    variable makes this class partition or fork.  ``execution`` selects
    numerics and threads: ``dtype`` defaults to float64 (matching the
    training tape) — ``float32`` gives deployment-style inference, as in
    the paper's fp32 GPU path.  The partitioned engine is a class of its
    own (:class:`repro.graph.sharded.ShardedInference`, a subclass that
    overrides only the pass itself), built by the code that wants it.
    ``threads`` is the most threads a whole-graph pass splits its row
    blocks between; the serve daemon passes 1 (:mod:`repro.serve.models`
    says why).  None means ``execution.resolved_workers()``, but no more
    than the allowed CPUs ÷ :func:`~repro.config.blas_threads`: two
    threads each calling a two-thread OpenBLAS gemm on two cores made
    the pass at 53.7k nodes 1.4× slower than one thread.
    """

    #: name of the backend an engine of this class serves a graph with
    backend = "single"

    def __init__(
        self,
        weights: GCNWeights,
        execution: ExecutionConfig | None = None,
        *,
        threads: int | None = None,
    ) -> None:
        self.execution = execution or ExecutionConfig()
        self.dtype = self.execution.numpy_dtype()
        # Cast-cached on the weight snapshot (no re-copy per construction).
        self.weights = weights.astype(self.dtype)
        self.threads = threads

    # ------------------------------------------------------------------ #
    def _forward(self, graph: GraphData, with_head: bool) -> np.ndarray:
        """The whole-graph chain: every layer with ``own_prev is prev``,
        the head fused into the last one, each layer's blocks split over
        ``threads`` threads."""
        with span("inference.csr_cache"):
            pred = graph.pred.to_scipy()
            succ = graph.succ.to_scipy()
        h = graph.attributes
        if self.dtype != np.float64:
            pred = pred.astype(self.dtype)
            succ = succ.astype(self.dtype)
            h = h.astype(self.dtype)
        threads = self.threads or min(
            self.execution.resolved_workers(), available_cpus() // blas_threads()
        )
        for d in range(self.weights.depth):
            with span("inference.sparse_matmul", layer=d):
                h = layer_forward(
                    self.weights, d, h, pred, succ, h, with_head,
                    threads=threads,
                )
        return h

    def _observe(self, graph: GraphData, elapsed: float) -> None:
        calls, nodes, seconds = _obs()
        calls.inc()
        nodes.inc(graph.num_nodes)
        seconds.observe(elapsed)

    def embed(self, graph: GraphData) -> np.ndarray:
        """Compute final node embeddings for the whole graph."""
        return self._forward(graph, with_head=False)

    def logits(self, graph: GraphData) -> np.ndarray:
        """Class logits for every node.

        Raises :class:`~repro.resilience.errors.NumericalError` if any
        logit is NaN/inf.
        """
        start = time.perf_counter()
        with span("inference.logits", graph=graph.name, nodes=graph.num_nodes):
            h = self._forward(graph, with_head=True)
            check_finite(h, graph.name, "logits")
        self._observe(graph, time.perf_counter() - start)
        return h

    def predict(self, graph: GraphData) -> np.ndarray:
        """Argmax class per node."""
        return np.argmax(self.logits(graph), axis=1)

    def predict_proba(self, graph: GraphData) -> np.ndarray:
        """Softmax probabilities per node."""
        proba = softmax(self.logits(graph))
        check_finite(proba, graph.name, "predict_proba")
        return proba
