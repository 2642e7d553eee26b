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

Mini-batch training still consumes the classic *halo* form (owned nodes
plus a ``halo_hops``-hop borrowed neighbourhood, one hop per aggregation
layer) via :func:`shard_minibatches`; inference passes
``halo_hops=None`` and builds a :class:`~repro.graph.exchange.
BoundaryPlan` instead.

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
from repro.nn.sparse import COOMatrix
from repro.obs.trace import span

__all__ = [
    "PartitionConfig",
    "Shard",
    "GraphPartition",
    "partition_graph",
    "shard_minibatches",
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
    """How many shards, and how deep a halo."""

    #: number of shards (clamped to the node count; >= 1)
    n_shards: int = 2
    #: halo depth in hops — one hop per aggregation layer for exactness.
    #: ``None`` (the default) skips halo construction entirely; consumers
    #: that need halos (mini-batch training) pass the model depth
    #: explicitly, so depth is never silently assumed.
    halo_hops: int | None = None

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.halo_hops is not None and self.halo_hops < 0:
            raise ValueError("halo_hops must be >= 0")


@dataclass
class Shard:
    """One shard: owned nodes plus the halo needed for local aggregation.

    Under boundary exchange the halo is empty and ``nodes == owned``; the
    frontier lives in the :class:`~repro.graph.exchange.BoundaryPlan`.
    """

    index: int
    #: global node ids this shard is responsible for (sorted, exclusive)
    owned: np.ndarray
    #: global node ids borrowed for aggregation only (sorted, disjoint)
    halo: np.ndarray
    #: ``sorted(owned | halo)`` — the local node universe.  Sorted by
    #: global id so local CSR rows keep the global summation order, which
    #: is what makes sharded matmuls bit-identical to whole-graph ones.
    nodes: np.ndarray
    #: positions of ``owned`` within ``nodes``
    local_owned: np.ndarray
    #: degree weight of the owned set (balance accounting)
    weight: int = 0

    @property
    def n_owned(self) -> int:
        return len(self.owned)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


@dataclass
class GraphPartition:
    """A full partition of one graph, with balance/cut statistics."""

    shards: list[Shard]
    n_nodes: int
    halo_hops: int
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

        Raises :class:`ValueError` on overlap, gaps, halo/owned collisions
        or unsorted local universes — the invariants every consumer
        (sharded inference, mini-batch training) builds on.
        """
        counts = np.zeros(self.n_nodes, dtype=np.int64)
        for shard in self.shards:
            counts[shard.owned] += 1
            if len(np.intersect1d(shard.owned, shard.halo)):
                raise ValueError(f"shard {shard.index}: halo overlaps owned")
            if not np.array_equal(
                shard.nodes, np.union1d(shard.owned, shard.halo)
            ):
                raise ValueError(f"shard {shard.index}: nodes != owned | halo")
            if not np.array_equal(
                shard.nodes[shard.local_owned], shard.owned
            ):
                raise ValueError(f"shard {shard.index}: local_owned mismatch")
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


def _halo(
    owned_mask: np.ndarray, undirected: sp.csr_matrix, hops: int
) -> np.ndarray:
    """Global ids within ``hops`` of the owned set, excluding it."""
    seen = owned_mask.copy()
    frontier = owned_mask.astype(np.float64)
    for _ in range(hops):
        frontier = undirected @ frontier
        new = (frontier > 0) & ~seen
        if not new.any():
            break
        seen |= new
        frontier = new.astype(np.float64)
    return np.flatnonzero(seen & ~owned_mask)


def partition_graph(
    graph: GraphData, config: PartitionConfig | None = None
) -> GraphPartition:
    """Partition ``graph`` into locality-aware, degree-balanced shards.

    Deterministic: the same graph and config always yield the same
    partition.  Handles every degenerate shape the test suite throws at
    it — single-node graphs, disconnected components, more shards than
    nodes (clamped), and halos that swallow the whole graph.
    """
    config = config or PartitionConfig()
    halo_hops = config.halo_hops or 0
    n = graph.num_nodes
    if n == 0:
        return GraphPartition(shards=[], n_nodes=0, halo_hops=halo_hops)
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
            if halo_hops:
                owned_mask = np.zeros(n, dtype=bool)
                owned_mask[owned] = True
                halo = _halo(owned_mask, undirected, halo_hops)
            else:
                halo = np.empty(0, dtype=np.int64)
            nodes = np.union1d(owned, halo)
            local_owned = np.searchsorted(nodes, owned)
            shards.append(
                Shard(
                    index=i,
                    owned=owned,
                    halo=halo,
                    nodes=nodes,
                    local_owned=local_owned,
                    weight=int(weights[owned].sum()),
                )
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
        halo_hops=halo_hops,
        edge_cut=edge_cut,
        imbalance=imbalance,
        frontier_fraction=frontier_fraction,
        owner=owner,
    )


def extract_shard_graph(graph: GraphData, shard: Shard) -> GraphData:
    """The shard's local :class:`GraphData` (owned + halo universe).

    Adjacency submatrices are sliced from the *cached whole-graph CSR*, so
    entry values (duplicates already summed) and per-row column order are
    exactly those of full-graph inference — the root of bit-identity.
    ``train_mask`` restricts the loss to owned nodes (intersected with the
    parent's mask), making the result directly usable as a mini-batch.
    """
    nodes = shard.nodes
    pred_sub = graph.pred.to_scipy()[nodes][:, nodes]
    succ_sub = graph.succ.to_scipy()[nodes][:, nodes]
    mask = np.zeros(len(nodes), dtype=bool)
    mask[shard.local_owned] = True
    if graph.train_mask is not None:
        mask &= graph.train_mask[nodes]
    return GraphData(
        pred=COOMatrix.from_scipy(pred_sub),
        succ=COOMatrix.from_scipy(succ_sub),
        attributes=graph.attributes[nodes],
        labels=None if graph.labels is None else graph.labels[nodes],
        name=f"{graph.name}#shard{shard.index}",
        train_mask=mask,
        extras={"shard_index": shard.index, "shard_nodes": nodes},
    )


def shard_minibatches(
    graph: GraphData, n_shards: int, halo_hops: int
) -> list[GraphData]:
    """Split ``graph`` into shard-as-minibatch training graphs.

    Each mini-batch is a halo-correct subgraph: with ``halo_hops`` equal
    to the model depth, the forward pass over a shard reproduces the
    full-graph embeddings of its owned nodes exactly, and the loss mask
    covers each original (masked) node exactly once across the batch set.
    """
    partition = partition_graph(
        graph, PartitionConfig(n_shards=n_shards, halo_hops=halo_hops)
    )
    return [extract_shard_graph(graph, shard) for shard in partition.shards]
