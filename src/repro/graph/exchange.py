"""Per-layer boundary exchange plans for sharded GCN inference.

The halo execution model recomputed a ``depth``-hop neighbourhood per
shard — on netlist graphs that neighbourhood is almost the whole design,
so every shard redid nearly all the work.  Boundary exchange replaces it:

* each shard *owns* a block of nodes and computes embeddings for owned
  rows only;
* its **frontier** is the one-hop set of foreign neighbours — the only
  rows it has to read but never computes;
* between layers, shards swap exactly the cut-edge activations: shard
  ``a`` sends the layer-``d`` embeddings of its owned nodes that sit on
  ``b``'s frontier, and receives ``b``'s symmetric slice.

The frontier is constant across layers (one aggregation hop per layer),
so the whole schedule compiles once per partition into a
:class:`BoundaryPlan`: per shard, the local universe (owned + frontier,
sorted by global id), owned/frontier positions, row-sliced adjacency, and
per-peer ``send``/``recv`` index lists.  ``exchange_fraction`` — frontier
rows over the node count — is the scheme's cost metric: the fraction of
one layer's activations that crosses shard boundaries per round.

Bit-identity at float64 is preserved end to end: the local adjacency rows
are the global CSR rows with columns renumbered into the (sorted) local
universe, so every sparse dot sums the same values in the same stored
order as :class:`~repro.core.inference.FastInference`, and a round is the
same :func:`~repro.core.inference.layer_forward` call the whole-graph pass
makes, on the shard's rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    #: ``send[dst]``: positions into ``owned`` of the rows shard ``dst``
    #: needs each round (sorted by global id)
    send: dict[int, np.ndarray] = field(default_factory=dict)
    #: ``recv[src]``: positions into ``universe`` where shard ``src``'s
    #: shipped rows land (sorted by the same global ids as ``src``'s
    #: matching ``send`` list)
    recv: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def n_owned(self) -> int:
        return len(self.owned)

    @property
    def n_local(self) -> int:
        return len(self.universe)


@dataclass
class BoundaryPlan:
    """The compiled per-layer exchange schedule for one partition."""

    shards: list[ShardExchange]
    n_nodes: int
    #: undirected cut edges (each counted once)
    cut_edges: int = 0
    #: sum over ordered shard pairs of rows shipped per round
    exchange_rows: int = 0
    #: ``exchange_rows / n_nodes`` — the per-round exchange cost
    exchange_fraction: float = 0.0

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def validate(self) -> None:
        """Assert the send/recv lists are exact and symmetric.

        Every frontier node of shard ``b`` owned by shard ``a`` must
        appear exactly once in ``a.send[b]`` and land at its position in
        ``b``'s universe via ``b.recv[a]`` — the invariant that makes the
        exchanged rows bit-exact copies of the owner's computed rows.
        """
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
            covered: list[np.ndarray] = []
            for src, pos in sorted(sh.recv.items()):
                src_sh = self.shards[src]
                sent = src_sh.owned[src_sh.send[sh.index]]
                landed = sh.universe[pos]
                if not np.array_equal(sent, landed):
                    raise ValueError(
                        f"send/recv mismatch between shards {src} and "
                        f"{sh.index}"
                    )
                covered.append(landed)
            got = (
                np.sort(np.concatenate(covered))
                if covered
                else np.empty(0, dtype=np.int64)
            )
            if not np.array_equal(got, sh.frontier):
                raise ValueError(
                    f"shard {sh.index}: recv lists do not cover the frontier "
                    f"exactly once"
                )


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
    exchange_rows = 0
    for dst in shards:
        by_owner = owner[dst.frontier]
        for src in range(n_shards):
            ids = dst.frontier[by_owner == src]
            if not len(ids):
                continue
            shards[src].send[dst.index] = np.searchsorted(
                shards[src].owned, ids
            )
            dst.recv[src] = np.searchsorted(dst.universe, ids)
            exchange_rows += len(ids)
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
