"""The paper's GCN: weighted-sum aggregators, encoders, FC classifier.

Architecture (Sections 3.2 and 5):

* ``D`` aggregation/encoding layers.  The aggregator is the weighted sum of
  Equation (1): ``g_d(v) = e_{d-1}(v) + w_pr * sum_pred + w_su * sum_succ``,
  with the two scalar weights *learned* and *shared across layers* ("they
  are the same in each step of outer loop").
* Each encoder is a dense projection ``W_d`` followed by ReLU
  (Equation (3)), with hidden widths ``K = (32, 64, 128)`` for ``D = 3``.
* A four-layer FC classifier head with widths ``(64, 64, 128, 2)``.

The forward pass is exactly the matrix formulation the paper accelerates
with sparse matmuls; the per-node recursive formulation (Algorithm 1) lives
in :mod:`repro.core.embedding` as the scalability baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.graphdata import GraphData
from repro.nn.layers import Linear, Module, Parameter, ReLU, Sequential
from repro.nn.tensor import Tensor, spmm
from repro.utils.rng import as_rng

__all__ = ["GCNConfig", "SumAggregator", "GCN"]


@dataclass
class GCNConfig:
    """Hyper-parameters of the GCN (defaults follow the paper)."""

    in_dim: int = 4
    hidden_dims: tuple[int, ...] = (32, 64, 128)  #: K_1..K_D; len == depth D
    fc_dims: tuple[int, ...] = (64, 64, 128)  #: classifier hidden widths
    n_classes: int = 2
    w_pr_init: float = 0.5  #: initial predecessor aggregation weight
    w_su_init: float = 0.5  #: initial successor aggregation weight
    seed: int = 0

    @property
    def depth(self) -> int:
        return len(self.hidden_dims)

    def __post_init__(self) -> None:
        if not self.hidden_dims:
            raise ValueError("hidden_dims must name at least one layer (D >= 1)")
        if any(d < 1 for d in self.hidden_dims) or any(d < 1 for d in self.fc_dims):
            raise ValueError("layer widths must be positive")
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")


class SumAggregator(Module):
    """Equation (1): identity + weighted predecessor/successor sums.

    One instance is shared by every layer so ``w_pr``/``w_su`` are global
    scalars, as in the paper.
    """

    def __init__(self, w_pr_init: float = 0.5, w_su_init: float = 0.5) -> None:
        super().__init__()
        self.w_pr = Parameter(np.array(w_pr_init), name="w_pr")
        self.w_su = Parameter(np.array(w_su_init), name="w_su")

    def forward(self, embeddings: Tensor, graph: GraphData) -> Tensor:
        agg_pred = spmm(graph.pred, embeddings)
        agg_succ = spmm(graph.succ, embeddings)
        return embeddings + self.w_pr * agg_pred + self.w_su * agg_succ


class GCN(Module):
    """Multi-layer GCN node classifier.

    ``aggregator`` defaults to the paper's :class:`SumAggregator`; any
    module with the same ``forward(embeddings, graph)`` signature (see
    :mod:`repro.core.aggregators`) can be substituted for ablations.
    """

    def __init__(
        self, config: GCNConfig | None = None, aggregator: Module | None = None
    ) -> None:
        super().__init__()
        self.config = config or GCNConfig()
        cfg = self.config
        rng = as_rng(cfg.seed)
        self.aggregator = aggregator or SumAggregator(cfg.w_pr_init, cfg.w_su_init)
        dims = (cfg.in_dim,) + tuple(cfg.hidden_dims)
        if hasattr(self.aggregator, "prepare"):
            self.aggregator.prepare(dims[:-1])
        self.encoders = [
            Linear(dims[d], dims[d + 1], rng=rng) for d in range(cfg.depth)
        ]
        head: list[Module] = []
        prev = dims[-1]
        for width in cfg.fc_dims:
            head.append(Linear(prev, width, rng=rng))
            head.append(ReLU())
            prev = width
        head.append(Linear(prev, cfg.n_classes, rng=rng))
        self.classifier = Sequential(*head)

    # ------------------------------------------------------------------ #
    def embed(self, graph: GraphData) -> Tensor:
        """Compute final node embeddings ``E_D`` (Algorithm 1, matrix form)."""
        embeddings = Tensor(graph.attributes)
        for encoder in self.encoders:
            aggregated = self.aggregator(embeddings, graph)
            embeddings = encoder(aggregated).relu()
        return embeddings

    def forward(self, graph: GraphData) -> Tensor:
        """Per-node class logits, shape ``(n_nodes, n_classes)``."""
        return self.classifier(self.embed(graph))

    # ------------------------------------------------------------------ #
    def predict(self, graph: GraphData) -> np.ndarray:
        """Argmax class per node (no tape)."""
        from repro.nn.tensor import no_grad

        with no_grad():
            logits = self.forward(graph)
        return np.argmax(logits.data, axis=1)

    def predict_proba(self, graph: GraphData) -> np.ndarray:
        """Softmax class probabilities per node (no tape)."""
        from repro.nn.functional import _log_softmax_data
        from repro.nn.tensor import no_grad

        with no_grad():
            logits = self.forward(graph)
        return np.exp(_log_softmax_data(logits.data))

    def layer_weights(self) -> "GCNWeights":
        """Export plain-numpy weights for the fast/recursive inference paths.

        Only defined for the paper's sum aggregation — the alternative
        aggregators in :mod:`repro.core.aggregators` have no pure-matmul
        inference form (which is the point of the ablation).
        """
        if type(self.aggregator).__name__ != "SumAggregator":
            raise ValueError(
                "layer_weights() requires the SumAggregator; "
                f"model uses {type(self.aggregator).__name__}"
            )
        return GCNWeights(
            w_pr=float(self.aggregator.w_pr.data),
            w_su=float(self.aggregator.w_su.data),
            encoder_weights=[e.weight.data.copy() for e in self.encoders],
            encoder_biases=[
                e.bias.data.copy() if e.bias is not None else None
                for e in self.encoders
            ],
            fc_weights=[
                m.weight.data.copy()
                for m in self.classifier.modules
                if isinstance(m, Linear)
            ],
            fc_biases=[
                m.bias.data.copy() if m.bias is not None else None
                for m in self.classifier.modules
                if isinstance(m, Linear)
            ],
        )


@dataclass
class GCNWeights:
    """Plain-numpy snapshot of a trained GCN's parameters.

    Consumed by :class:`repro.core.inference.FastInference` (matrix path)
    and :class:`repro.core.embedding.RecursiveEmbedder` (Algorithm-1 path),
    keeping both free of autograd overhead.
    """

    w_pr: float
    w_su: float
    encoder_weights: list[np.ndarray]
    encoder_biases: list[np.ndarray | None] = field(default_factory=list)
    fc_weights: list[np.ndarray] = field(default_factory=list)
    fc_biases: list[np.ndarray | None] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.encoder_weights)

    def astype(self, dtype) -> "GCNWeights":
        """This weight set cast to ``dtype``, cached per target dtype.

        Training stores float64, so ``float64`` returns ``self`` with no
        copy.  Other dtypes are cast once and memoised on this instance —
        serve hot-reloads construct a fresh engine per reload, but engines
        sharing one weight snapshot (e.g. the sharded path's per-call
        plumbing) no longer re-copy every matrix on each construction.
        """
        dtype = np.dtype(dtype)
        if dtype == np.float64:
            return self
        cache = self.__dict__.setdefault("_cast_cache", {})
        cast = cache.get(dtype.name)
        if cast is None:
            import dataclasses

            cast = dataclasses.replace(
                self,
                encoder_weights=[m.astype(dtype) for m in self.encoder_weights],
                encoder_biases=[
                    None if b is None else b.astype(dtype)
                    for b in self.encoder_biases
                ],
                fc_weights=[m.astype(dtype) for m in self.fc_weights],
                fc_biases=[
                    None if b is None else b.astype(dtype)
                    for b in self.fc_biases
                ],
            )
            cache[dtype.name] = cast
        return cast

    def bias_blocks(self, rows: int) -> tuple[list, list]:
        """The encoder and head biases, each as ``rows`` contiguous copies
        (``None`` where a layer has none), for the kernel's block
        epilogue.  Built once per weight snapshot and ``rows``: another
        ``rows`` replaces the memo, so there is one set per cast.
        """
        memo = self.__dict__.get("_bias_blocks")
        if memo is None or memo[0] != rows:

            def tile(bias):
                return None if bias is None else np.tile(bias, (rows, 1))

            memo = (
                rows,
                [tile(b) for b in self.encoder_biases],
                [tile(b) for b in self.fc_biases],
            )
            self.__dict__["_bias_blocks"] = memo
        return memo[1], memo[2]

    def __getstate__(self):
        # The cast cache and the bias blocks are per-process memos, not
        # state: dropping them keeps worker-pool payloads lean and
        # pickles deterministic.
        state = dict(self.__dict__)
        state.pop("_cast_cache", None)
        state.pop("_bias_blocks", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
