"""Deterministic locality-aware edge-cut graph partitioning.

The GCN aggregates over predecessor *and* successor relations, so a shard
can only compute a node's layer-``d`` embedding if it also sees the
layer-``d-1`` embeddings of every in/out neighbour.  Sharded inference
(:mod:`repro.graph.sharded`) satisfies that with **per-layer boundary
exchange** (:mod:`repro.graph.exchange`): each shard computes owned rows
only and swaps cut-edge activations between layers, so partition quality
— the number of cut-adjacent nodes — is what the whole scheme's
performance rides on.

The partitioner works in the netlist's creation order, which for both the
synthetic generator and real synthesis netlists is the locality order
(blocks are emitted one after another, wired mostly within themselves):

1. **Degree-balanced targets** — cut positions that split the
   ``1 + fanin + fanout`` weight evenly across shards.
2. **Min-crossing snap** — each cut is moved to the position with the
   fewest straddling undirected edges within :data:`SEED_SLACK` of its
   balance target, aligning cuts with the thin inter-block interfaces.
3. **Gain refinement** — up to :data:`REFINE_PASSES` deterministic passes
   move boundary nodes to the neighbouring shard holding most of their
   neighbours, while both shards stay within :data:`BALANCE_SLACK` of the
   mean weight.

GROOT-style partition-based processing is how GNN pipelines reach
multi-million-gate designs; unlike coarsening approaches, nothing here is
approximate — boundary exchange preserves exact aggregation semantics,
and :meth:`GraphPartition.validate` asserts the owned sets are an exact
partition of the node set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.core.graphdata import GraphData
from repro.obs.trace import span

__all__ = [
    "PartitionConfig",
    "Shard",
    "GraphPartition",
    "partition_graph",
]


#: how far (fraction of the node count) a cut may move from its balance
#: target while hunting for the minimum edge-crossing point
SEED_SLACK = 0.04
#: per-shard degree-weight tolerance around the mean during refinement
BALANCE_SLACK = 0.10
#: maximum boundary-refinement passes
REFINE_PASSES = 8


@dataclass(frozen=True)
class PartitionConfig:
    """How many shards."""

    #: number of shards (clamped to the node count; >= 1)
    n_shards: int = 2

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")


@dataclass
class Shard:
    """One shard: the nodes it owns.

    The one-hop frontier it reads from its peers lives in the
    :class:`~repro.graph.exchange.BoundaryPlan`.
    """

    index: int
    #: global node ids this shard is responsible for (sorted, exclusive)
    owned: np.ndarray
    #: degree weight of the owned set (balance accounting)
    weight: int = 0

    @property
    def n_owned(self) -> int:
        return len(self.owned)


@dataclass
class GraphPartition:
    """A full partition of one graph, with balance/cut statistics."""

    shards: list[Shard]
    n_nodes: int
    #: pred edges whose driver and sink live in different owned sets
    edge_cut: int = 0
    #: max over shards of (shard weight / mean shard weight); 1.0 = perfect
    imbalance: float = 1.0
    #: distinct (node, remote-adjacent shard) pairs over the node count —
    #: the rows per layer that boundary exchange ships between shards
    frontier_fraction: float = 0.0
    #: per-node owning shard index
    owner: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def validate(self) -> None:
        """Assert the owned sets are an exact partition of the node set.

        Raises :class:`ValueError` on overlap or gaps — the invariant
        sharded inference builds on.
        """
        counts = np.zeros(self.n_nodes, dtype=np.int64)
        for shard in self.shards:
            counts[shard.owned] += 1
        if (counts == 0).any():
            raise ValueError(
                f"{int((counts == 0).sum())} node(s) owned by no shard"
            )
        if (counts > 1).any():
            raise ValueError(
                f"{int((counts > 1).sum())} node(s) owned by multiple shards"
            )


def _balanced_boundaries(weights: np.ndarray, n_shards: int) -> list[np.ndarray]:
    """Split ``range(len(weights))`` into ``n_shards`` contiguous runs of
    near-equal total weight, every run non-empty."""
    n = len(weights)
    cumulative = np.cumsum(weights, dtype=np.float64)
    total = float(cumulative[-1])
    bounds = [0]
    for k in range(1, n_shards):
        target = total * k / n_shards
        cut = int(np.searchsorted(cumulative, target, side="left"))
        # Non-empty runs: each boundary strictly after the previous, while
        # leaving enough nodes for the remaining shards.
        cut = max(cut, bounds[-1] + 1)
        cut = min(cut, n - (n_shards - k))
        bounds.append(cut)
    bounds.append(n)
    return [np.arange(bounds[i], bounds[i + 1]) for i in range(n_shards)]


def _crossing_profile(undirected: sp.csr_matrix) -> np.ndarray:
    """``crossing[i]``: undirected edges straddling a cut before index ``i``.

    An edge ``(u, v)`` with ``u < v`` crosses every cut position
    ``u < i <= v``; a +1/-1 difference array over unique pairs turns the
    whole profile into one cumulative sum.
    """
    n = undirected.shape[0]
    coo = undirected.tocoo()
    mask = coo.row < coo.col  # each symmetric pair once
    lo = coo.row[mask].astype(np.int64)
    hi = coo.col[mask].astype(np.int64)
    diff = np.bincount(lo + 1, minlength=n + 1).astype(np.int64)
    diff -= np.bincount(hi + 1, minlength=n + 1)
    return np.cumsum(diff)[:n]


def _min_crossing_bounds(
    weights: np.ndarray, crossing: np.ndarray, n_shards: int
) -> list[np.ndarray]:
    """Contiguous runs balanced by weight, each cut snapped to the
    minimum-crossing position within :data:`SEED_SLACK` of its target.

    Netlists are emitted block by block, so the crossing profile dips at
    block boundaries; snapping cuts into those dips is what keeps the
    exchanged frontier thin before refinement even starts.
    """
    n = len(weights)
    cumulative = np.cumsum(weights, dtype=np.float64)
    total = float(cumulative[-1])
    half = max(1, int(n * SEED_SLACK))
    bounds = [0]
    for k in range(1, n_shards):
        target = int(np.searchsorted(cumulative, total * k / n_shards))
        floor = bounds[-1] + 1
        ceil = n - (n_shards - k)
        lo = max(floor, target - half)
        hi = min(ceil, target + half)
        if lo > hi:  # window squeezed shut by earlier cuts: keep balance
            cut = min(max(target, floor), ceil)
        else:
            cut = lo + int(np.argmin(crossing[lo : hi + 1]))
        bounds.append(cut)
    bounds.append(n)
    return [np.arange(bounds[i], bounds[i + 1]) for i in range(n_shards)]


def _refine_owner(
    owner: np.ndarray,
    undirected: sp.csr_matrix,
    weights: np.ndarray,
    n_shards: int,
) -> np.ndarray:
    """Deterministic gain-based boundary refinement.

    Each of up to :data:`REFINE_PASSES` passes visits the current boundary
    nodes in id order and moves a node to the neighbouring shard holding
    strictly more of its neighbours, provided both shards stay within
    :data:`BALANCE_SLACK` of the mean degree weight and neither empties.
    Stops early when a pass moves nothing.
    """
    if n_shards < 2:
        return owner
    indptr, indices = undirected.indptr, undirected.indices
    n = len(owner)
    row = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    load = np.zeros(n_shards, dtype=np.float64)
    np.add.at(load, owner, weights)
    counts = np.bincount(owner, minlength=n_shards)
    target = float(weights.sum()) / n_shards
    lo = (1.0 - BALANCE_SLACK) * target
    hi = (1.0 + BALANCE_SLACK) * target
    for _ in range(REFINE_PASSES):
        cross = owner[row] != owner[indices]
        boundary = np.unique(row[cross])
        moved = 0
        for v in boundary:
            nb = indices[indptr[v] : indptr[v + 1]]
            if not len(nb):
                continue
            here = np.bincount(owner[nb], minlength=n_shards)
            a = owner[v]
            b = int(np.argmax(here))
            w = float(weights[v])
            if (
                b != a
                and here[b] > here[a]
                and counts[a] > 1
                and load[a] - w >= lo
                and load[b] + w <= hi
            ):
                owner[v] = b
                load[a] -= w
                load[b] += w
                counts[a] -= 1
                counts[b] += 1
                moved += 1
        if not moved:
            break
    return owner


def partition_graph(
    graph: GraphData, config: PartitionConfig | None = None
) -> GraphPartition:
    """Partition ``graph`` into locality-aware, degree-balanced shards.

    Deterministic: the same graph and config always yield the same
    partition.  Handles every degenerate shape the test suite throws at
    it — single-node graphs, disconnected components, more shards than
    nodes (clamped).
    """
    config = config or PartitionConfig()
    n = graph.num_nodes
    if n == 0:
        return GraphPartition(shards=[], n_nodes=0)
    n_shards = min(config.n_shards, n)
    with span("graph.partition", nodes=n, shards=n_shards):
        pred = graph.pred.to_scipy()
        succ = graph.succ.to_scipy()
        indeg = np.diff(pred.indptr).astype(np.int64)
        outdeg = np.diff(succ.indptr).astype(np.int64)
        weights = 1 + indeg + outdeg
        undirected = ((pred != 0) + (succ != 0)).tocsr()

        # Seed: contiguous id-order blocks (the netlist's locality order),
        # cuts snapped to thin inter-block interfaces; then refine.
        owner = np.empty(n, dtype=np.int64)
        if n_shards > 1:
            crossing = _crossing_profile(undirected)
            runs = _min_crossing_bounds(weights, crossing, n_shards)
            for i, run in enumerate(runs):
                owner[run] = i
            owner = _refine_owner(
                owner, undirected, weights.astype(np.float64), n_shards
            )
        else:
            owner[:] = 0

        shards: list[Shard] = []
        for i in range(n_shards):
            owned = np.flatnonzero(owner == i)
            shards.append(
                Shard(index=i, owned=owned, weight=int(weights[owned].sum()))
            )

        drivers = graph.pred.cols
        sinks = graph.pred.rows
        edge_cut = int((owner[drivers] != owner[sinks]).sum())
        coo = undirected.tocoo()
        cross = owner[coo.row] != owner[coo.col]
        # Distinct (node, remote shard) pairs: the per-layer exchange rows.
        pairs = np.unique(
            coo.col[cross].astype(np.int64) * n_shards + owner[coo.row[cross]]
        )
        frontier_fraction = len(pairs) / n
        shard_weights = np.array([s.weight for s in shards], dtype=np.float64)
        imbalance = (
            float(shard_weights.max() / shard_weights.mean())
            if len(shard_weights)
            else 1.0
        )
    return GraphPartition(
        shards=shards,
        n_nodes=n,
        edge_cut=edge_cut,
        imbalance=imbalance,
        frontier_fraction=frontier_fraction,
        owner=owner,
    )

