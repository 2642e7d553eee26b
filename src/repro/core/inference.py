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
"""

from __future__ import annotations

import time

import numpy as np

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


def row_stable_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` computed so row ``i`` of the result depends only on row
    ``i`` of ``a`` — never on the total row count.

    BLAS gemm is *not* row-stable in general: narrow outputs (fewer than
    four columns) and single-row operands dispatch to kernels whose
    k-accumulation order differs from the blocked path, so the same row
    can round differently depending on the height of the matrix it sits
    in.  Sharded inference slices the node set into shards of varying
    height and still promises bit-identical float64 logits, so both the
    single-shard and sharded engines route every dense product through
    this helper.  Narrow outputs take an explicit fixed-order
    k-accumulation — zero-padding the output up to four columns is not
    enough, because skinny gemm still switches kernels on the row count
    (observed: ``(3222, 128) @ (128, 2)`` rounds differently from its
    805-row slice even padded).  The explicit loop makes every row an
    independent, identically-ordered sum, at a cost that only the tiny
    final layer pays.  Single rows are zero-padded up to the blocked
    kernel's minimum height; padding rows are exact zeros that never
    feed back into real outputs.
    """
    m, n = a.shape[0], b.shape[1]
    if n < 4:
        out = np.zeros((m, n), dtype=np.result_type(a, b))
        for k in range(a.shape[1]):
            out += a[:, k : k + 1] * b[k]
        return out
    if m == 1:
        a = np.concatenate(
            [a, np.zeros((3, a.shape[1]), dtype=a.dtype)], axis=0
        )
        return (a @ b)[:m]
    return a @ b


def layer_forward(
    weights: GCNWeights, d: int, own_prev, pred_rows, succ_rows, prev
) -> np.ndarray:
    """Equation (1), layer ``d``, for one row set:
    ``relu((own_prev + w_pr·pred_rows@prev + w_su·succ_rows@prev)·W_d + b_d)``.

    ``prev`` holds the layer input for every column ``pred_rows`` /
    ``succ_rows`` reference and ``own_prev`` the rows of it being computed:
    ``prev`` itself for the whole graph, ``prev[owned_pos]`` for a shard,
    ``prev[affected]`` for a row-subset patch.  Each output row depends
    only on its own adjacency rows (stored entry order preserved by CSR
    row slicing) and, through :func:`row_stable_matmul`, on nothing else
    — so any row subset reproduces the whole-graph rows bit for bit.
    """
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


def head_forward(weights: GCNWeights, h: np.ndarray) -> np.ndarray:
    """The FC classifier head over final embeddings ``h`` (row-local)."""
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
        """The whole-graph chain: every layer with ``own_prev is prev``."""
        if with_head:
            # Passed as a temporary: a local here would pin the final
            # embeddings (n × K_D floats) until the whole head returned.
            return head_forward(self.weights, self._forward(graph, False))
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
                h = layer_forward(self.weights, d, h, pred, succ, h)
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
