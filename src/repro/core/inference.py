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
(:func:`_by_blocks`), which no caller can tell either.  A block adds each
bias from a pre-broadcast block of copies of it
(:meth:`~repro.core.model.GCNWeights.bias_blocks`, memoised per weight
snapshot), not by a per-row broadcast.

What a score is made of its logits is defined here once, on the two
logit columns: :func:`class_labels` (``l1 > l0``, ties to class 0) and
:func:`difficult_proba` / :func:`softmax`.  ``api.score``, the engine's
``predict`` / ``predict_proba``, the cascade and the OPI flow's scorer
all call them.
"""

from __future__ import annotations

import functools
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
    "class_labels",
    "difficult_proba",
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


@functools.lru_cache(maxsize=64)
def _dense_rows(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``indptr`` and ``indices`` of ``n`` dense CSR rows of ``k`` entries
    (read-only: every :func:`_narrow_matmul` of that shape shares them)."""
    indptr, indices = np.arange(n + 1) * k, np.arange(n * k) % k
    indptr.flags.writeable = indices.flags.writeable = False
    return indptr, indices


def _narrow_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """``out[:] = a @ b`` for fewer than four output columns: per row, the
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
        n, k, m, *_dense_rows(n, k),
        np.ascontiguousarray(b.T, dtype=dtype).ravel(),
        np.ascontiguousarray(a.T, dtype=dtype).ravel(), out_t.ravel(),
    )
    out[:] = out_t.T


def row_stable_matmul(
    a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``a @ b`` computed so row ``i`` of the result depends only on row
    ``i`` of ``a`` — never on the total row count.  With ``out`` (of the
    product's shape and dtype), written there and returned.

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
    if out is None and (n < 4 or m == 1):
        out = np.empty((m, n), dtype=np.result_type(a, b))
    if n < 4:
        # Blocked for direct callers: the (K, m) temporaries of a tall
        # operand would otherwise leave the cache (and take 2 × K × m).
        return _by_blocks(
            out, lambda lo, hi: _narrow_matmul(a[lo:hi], b, out[lo:hi])
        )
    if m == 1:
        a = np.concatenate(
            [a, np.zeros((3, a.shape[1]), dtype=a.dtype)], axis=0
        )
        out[:] = (a @ b)[:m]
        return out
    return a @ b if out is None else np.matmul(a, b, out=out)


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


def _head_rows(
    weights: GCNWeights, h: np.ndarray, biases, out: np.ndarray
) -> None:
    """The FC head on one block of rows, into ``out``; each layer's bias
    is added from its block of ``biases`` (:meth:`GCNWeights.bias_blocks`)."""
    last = len(weights.fc_weights) - 1
    for i, (weight, bias) in enumerate(zip(weights.fc_weights, biases)):
        h = row_stable_matmul(h, weight, out if i == last else None)
        if bias is not None:
            h += bias[: h.shape[0]]
        if i < last:
            np.maximum(h, 0.0, out=h)


def _by_blocks(out: np.ndarray, compute, *, threads: int = 1) -> np.ndarray:
    """``compute(lo, hi)``, which writes rows ``lo:hi`` of ``out``, over
    consecutive :data:`BLOCK_ROWS`-row ranges of its rows; returns ``out``.

    The caller allocates ``out``, so a block writes its rows where they
    end up.  With ``threads > 1`` and at least :data:`SPLIT_MIN_BLOCKS`
    blocks, the pool is handed ``threads - 1`` runs before the calling
    thread starts its own, and every run takes the next block not yet
    taken until none is left (``next`` on the shared range iterator is
    atomic under the GIL; the numpy / scipy calls inside a block release
    it), so a thread that starts late or runs slow takes fewer blocks.
    A run the pool has not started when the caller is done — the pool
    busy with another caller's — is cancelled: its blocks were computed
    here.  Every row is computed alone, so the result is the same bit
    for bit at any thread count.  A call made on a pool thread runs
    serially (:func:`repro.exec.executor.thread_pool` gives it none): the
    pool never waits on itself.
    """
    n = out.shape[0]
    starts = iter(range(0, n, BLOCK_ROWS))

    def run() -> None:
        for start in starts:
            compute(start, min(start + BLOCK_ROWS, n))

    blocks = -(-n // BLOCK_ROWS)
    threads = min(threads, blocks)
    pool = thread_pool() if threads > 1 and blocks >= SPLIT_MIN_BLOCKS else None
    futures = [pool.submit(run) for _ in range(threads - 1)] if pool else []
    try:
        run()
    except BaseException:
        for _ in starts:  # no run takes another block
            pass
        raise
    finally:
        # After an error too, no run may still be writing into ``out``.
        for future in futures:
            if not future.cancel():
                future.exception()
    for future in futures:
        if not future.cancelled():
            future.result()
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
    split between (:func:`_by_blocks`).  Each bias is added from a block
    of :data:`BLOCK_ROWS` copies of it, built once per weight snapshot
    (:meth:`GCNWeights.bias_blocks`): the same sums as the broadcast
    ``out += bias``, as one contiguous add.  The layer's output is
    allocated first, and each block writes its rows into it.
    """
    weight = weights.encoder_weights[d]
    encoder_biases, head_biases = weights.bias_blocks(BLOCK_ROWS)
    bias = encoder_biases[d]
    with_head = with_head and d == weights.depth - 1
    products = [weight, *weights.fc_weights] if with_head else [weight]
    out = np.empty(
        (own_prev.shape[0], products[-1].shape[1]),
        dtype=np.result_type(
            own_prev, prev, pred_rows.dtype, succ_rows.dtype, *products
        ),
    )

    def block(lo: int, hi: int) -> None:
        # own + w_pr·pred + w_su·succ in place, rounded and typed as written.
        x = _aggregate(pred_rows, lo, hi, prev)
        x *= weights.w_pr
        s = _aggregate(succ_rows, lo, hi, prev)
        s *= weights.w_su
        x = x.astype(np.result_type(own_prev, x, s), copy=False)
        x += own_prev[lo:hi]
        x += s
        h = row_stable_matmul(x, weight, None if with_head else out[lo:hi])
        if bias is not None:
            h += bias[: hi - lo]
        np.maximum(h, 0.0, out=h)
        if with_head:
            _head_rows(weights, h, head_biases, out[lo:hi])

    return _by_blocks(out, block, threads=threads)


def head_forward(weights: GCNWeights, h: np.ndarray) -> np.ndarray:
    """The FC classifier head over final embeddings ``h`` (row-local, and
    blocked like :func:`layer_forward`)."""
    biases = weights.bias_blocks(BLOCK_ROWS)[1]
    fc = weights.fc_weights
    out = np.empty((h.shape[0], fc[-1].shape[1]), dtype=np.result_type(h, *fc))
    return _by_blocks(
        out, lambda lo, hi: _head_rows(weights, h[lo:hi], biases, out[lo:hi])
    )


def class_labels(logits: np.ndarray) -> np.ndarray:
    """The class of each node from its two (finite) logits: 1, difficult
    to observe, where ``l1 > l0``; ties go to class 0.  The rounding
    ``argmax(axis=1)`` makes, as one comparison of the two columns."""
    return np.greater(logits[:, 1], logits[:, 0]).astype(np.int64)


def _exp_shifted(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``exp(l0 - m)`` and ``exp(l1 - m)``, ``m`` the larger logit."""
    l0, l1 = logits[:, 0], logits[:, 1]
    top = np.maximum(l0, l1)
    return np.exp(l0 - top), np.exp(l1 - top)


def difficult_proba(logits: np.ndarray) -> np.ndarray:
    """P(difficult) per node, ``e1 / (e0 + e1)`` of :func:`_exp_shifted`:
    column 1 of :func:`softmax`, bit for bit, without its other column."""
    e0, e1 = _exp_shifted(logits)
    return e1 / (e0 + e1)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Both class probabilities per node (max-shifted for stability).

    With :func:`class_labels` and :func:`difficult_proba`, the one definition
    of what a score is made of its logits: every scoring path derives
    labels and probabilities here.  Each is computed on the two logit
    columns, not as a reduction along an axis of length 2 (which numpy
    runs several times slower), and rounds as that reduction does.
    """
    e0, e1 = _exp_shifted(logits)
    total = e0 + e1
    return np.stack([e0 / total, e1 / total], axis=1)


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
        """Class per node (:func:`class_labels`)."""
        return class_labels(self.logits(graph))

    def predict_proba(self, graph: GraphData) -> np.ndarray:
        """Softmax probabilities per node."""
        proba = softmax(self.logits(graph))
        check_finite(proba, graph.name, "predict_proba")
        return proba
