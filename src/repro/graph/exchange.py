"""Per-layer boundary exchange plans for sharded GCN inference.

The scheme:

* each shard *owns* a block of nodes and computes embeddings for owned
  rows only;
* its **frontier** is the one-hop set of foreign neighbours — the only
  rows it has to read but never computes;
* between layers, every shard reads its frontier rows from the
  activations their owners computed the round before.

The frontier is constant across layers (one aggregation hop per layer),
so the whole schedule compiles once per partition into a
:class:`BoundaryPlan`: per shard, the local universe (owned + frontier,
sorted by global id), owned positions and row-sliced adjacency.
``exchange_fraction`` — frontier rows over the node count — is the
scheme's cost metric: the fraction of one layer's activations that
crosses shard boundaries per round.

Bit-identity at float64 is preserved end to end: the local adjacency rows
are the global CSR rows with columns renumbered into the (sorted) local
universe, so every sparse dot sums the same values in the same stored
order as :class:`~repro.core.inference.FastInference`, and a round is the
same :func:`~repro.core.inference.layer_forward` call the whole-graph pass
makes, on the shard's rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.inference import layer_forward
from repro.core.model import GCNWeights
from repro.obs.metrics import get_registry

__all__ = [
    "ShardExchange",
    "BoundaryPlan",
    "compile_boundary_plan",
    "run_shard_round",
]


def exchange_obs():
    """The ``repro_shard_exchange_*`` metric families (get-or-create)."""
    reg = get_registry()
    return (
        reg.counter(
            "repro_shard_exchange_rounds_total",
            "boundary-exchange rounds executed (one per layer per call)",
        ),
        reg.counter(
            "repro_shard_exchange_rows_total",
            "activation rows shipped between shards across all rounds",
        ),
        reg.counter(
            "repro_shard_exchange_bytes_total",
            "activation bytes shipped between shards across all rounds",
        ),
        reg.gauge(
            "repro_shard_exchange_fraction",
            "frontier rows / node count of the most recent sharded call",
        ),
    )


@dataclass
class ShardExchange:
    """One shard's compiled exchange schedule and local adjacency."""

    index: int
    #: global node ids this shard computes (sorted)
    owned: np.ndarray
    #: global node ids read from peers, never computed here (sorted,
    #: disjoint from ``owned``)
    frontier: np.ndarray
    #: ``sorted(owned | frontier)`` — the rows of ``local_prev``
    universe: np.ndarray
    #: positions of ``owned`` within ``universe``
    owned_pos: np.ndarray
    #: adjacency rows of the owned nodes, columns renumbered into
    #: ``universe`` (values and per-row order exactly the global CSR's)
    pred_rows: sp.csr_matrix
    succ_rows: sp.csr_matrix


@dataclass
class BoundaryPlan:
    """The compiled per-layer exchange schedule for one partition."""

    shards: list[ShardExchange]
    n_nodes: int
    #: undirected cut edges (each counted once)
    cut_edges: int = 0
    #: frontier rows over all shards: the rows read across a shard
    #: boundary per round (each has exactly one foreign owner)
    exchange_rows: int = 0
    #: ``exchange_rows / n_nodes`` — the per-round exchange cost
    exchange_fraction: float = 0.0

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def validate(self) -> None:
        """Assert each shard's universe is its owned rows plus a disjoint
        frontier, and ``owned_pos`` finds the owned rows in it."""
        for sh in self.shards:
            if len(np.intersect1d(sh.owned, sh.frontier)):
                raise ValueError(f"shard {sh.index}: frontier overlaps owned")
            if not np.array_equal(
                sh.universe, np.union1d(sh.owned, sh.frontier)
            ):
                raise ValueError(
                    f"shard {sh.index}: universe != owned | frontier"
                )
            if not np.array_equal(sh.universe[sh.owned_pos], sh.owned):
                raise ValueError(f"shard {sh.index}: owned_pos mismatch")


def _renumber_rows(
    matrix: sp.csr_matrix, owned: np.ndarray, universe: np.ndarray
) -> sp.csr_matrix:
    """Owned rows of the global CSR with columns mapped into ``universe``.

    A pure renumbering — data and per-row entry order are untouched, and
    the map is monotone (``universe`` is sorted), so sparse dots against
    local activations sum exactly what the whole-graph dot sums, in the
    same order.  Every referenced column is in ``universe`` by
    construction (the frontier contains all foreign neighbours).
    """
    rows = matrix[owned]
    indices = np.searchsorted(universe, rows.indices)
    return sp.csr_matrix(
        (rows.data, indices, rows.indptr), shape=(len(owned), len(universe))
    )


def compile_boundary_plan(
    pred: sp.csr_matrix,
    succ: sp.csr_matrix,
    owner: np.ndarray,
    n_shards: int,
) -> BoundaryPlan:
    """Compile the exchange schedule for ``owner`` over the global CSRs.

    Aggregation is bidirectional (pred and succ), so the frontier is the
    undirected one-hop neighbourhood: a cut edge in either direction
    makes both endpoints exchange.
    """
    n = int(pred.shape[0])
    undirected = ((pred != 0) + (succ != 0)).tocoo()
    row = undirected.row.astype(np.int64)
    col = undirected.col.astype(np.int64)
    cross = owner[row] != owner[col]
    shards: list[ShardExchange] = []
    for s in range(n_shards):
        owned = np.flatnonzero(owner == s)
        frontier = np.unique(col[cross & (owner[row] == s)])
        universe = np.union1d(owned, frontier)
        owned_pos = np.searchsorted(universe, owned)
        shards.append(
            ShardExchange(
                index=s,
                owned=owned,
                frontier=frontier,
                universe=universe,
                owned_pos=owned_pos,
                pred_rows=_renumber_rows(pred, owned, universe),
                succ_rows=_renumber_rows(succ, owned, universe),
            )
        )
    exchange_rows = sum(len(sh.frontier) for sh in shards)
    return BoundaryPlan(
        shards=shards,
        n_nodes=n,
        cut_edges=int(cross.sum()) // 2,
        exchange_rows=exchange_rows,
        exchange_fraction=exchange_rows / n if n else 0.0,
    )


def run_shard_round(
    weights: GCNWeights,
    shard: ShardExchange,
    local_prev: np.ndarray,
    layer: int,
    with_head: bool,
) -> np.ndarray:
    """One exchange round: layer ``layer`` over one shard's local rows.

    ``local_prev`` holds the layer-``layer`` input embeddings for the
    shard's universe (owned rows computed last round, frontier rows
    received from peers); the return value is the owned rows' output.
    The head is row-local, so the last round fuses it when ``with_head``.
    """
    return layer_forward(
        weights,
        layer,
        local_prev[shard.owned_pos],
        shard.pred_rows,
        shard.succ_rows,
        local_prev,
        with_head,
    )
