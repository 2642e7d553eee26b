"""Incremental netlist/graph modification for OP insertion (Section 4).

Inserting an observation point at node ``v`` means:

* netlist: add an ``OBS`` cell ``p`` with the single fanin ``v``;
* adjacency: grow both COO matrices by one row/column and append the new
  edge — the cheap COO update the paper highlights ("appending 3 tuples");
* attributes: append the paper's fresh-OP row ``[0, 1, 1, 0]`` for ``p``,
  then refresh the observability attribute of the nodes in ``v``'s fan-in
  cone via the incremental SCOAP relaxation.

:class:`IncrementalDesign` owns all three representations and keeps them
consistent; it also supports O(cone) rollback of a tentative insertion.
Every insertion reports the graph rows it touched (``changed_rows`` of its
checkpoint), which is what lets a :class:`~repro.flow.scorer.Scorer`
re-score only their D-hop closure, and the appended edge lands last in its
CSR row, so the adjacency's cached CSR stays alive across insert and
rollback (:mod:`repro.nn.sparse`).

Ranking an iteration's candidates is a fixed number of array sweeps:
:meth:`IncrementalDesign.preview_ops` reports what each insertion would
change, without inserting anything, from one stacked
:func:`~repro.testability.incremental.relax_observability` call (which
:meth:`~IncrementalDesign.insert_op` makes too, for one target), and
:meth:`~IncrementalDesign.fanin_cones` walks every cone not yet memoised
in one stacked level walk, :func:`walk_fanin_cones`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.atpg.cones import invalidate_cone_cache
from repro.circuit.levelize import logic_levels, topological_order
from repro.circuit.netlist import Netlist
from repro.circuit.structure import expand_rows, sorted_unique
from repro.core import inference
from repro.core.attributes import AttributeConfig, OP_ATTRIBUTES, normalize_attributes
from repro.core.graphdata import GraphData
from repro.testability.incremental import relax_observability
from repro.testability.scoap import ScoapResult, compute_scoap, crossing_costs
from repro.utils.rowstore import RowStore

__all__ = ["IncrementalDesign", "OpPreview", "walk_fanin_cones"]


@dataclass
class _Checkpoint:
    """State needed to undo one tentative insertion."""

    n_nodes: int
    pred_nnz: int
    succ_nnz: int
    #: nodes whose CO moved, and their CO before it did
    changed_co: tuple[np.ndarray, np.ndarray]
    #: the attribute rows of those nodes before the move
    previous_rows: np.ndarray
    #: whether the insertion is what made the target an observed node
    target_newly_observed: bool
    #: graph rows whose attributes or adjacency the insertion changed:
    #: the target, the new OBS cell and every node whose CO moved
    changed_rows: list[int]


@dataclass
class OpPreview:
    """What :meth:`IncrementalDesign.insert_op` at ``target`` would change,
    computed without changing anything."""

    design: "IncrementalDesign"
    target: int
    #: nodes whose CO would move (ascending), then the id the OBS cell
    #: would get, and the attribute rows they would have
    rows: np.ndarray
    attributes: np.ndarray


class IncrementalDesign:
    """A netlist plus its GCN view, kept in sync under OP insertion."""

    def __init__(
        self,
        netlist: Netlist,
        attribute_config: AttributeConfig | None = None,
    ) -> None:
        self.netlist = netlist
        self.attribute_config = attribute_config or AttributeConfig()
        order = topological_order(netlist)
        self.levels = logic_levels(netlist, order)
        self.scoap: ScoapResult = compute_scoap(netlist, order)
        self.graph = GraphData.from_netlist(
            netlist, attribute_config=self.attribute_config
        )
        #: observation sites plus OBS cells, kept current under insert and
        #: rollback so that the flow does not rescan the netlist for them
        self.observed: set[int] = set(netlist.observation_sites)
        self.observed.update(netlist.observation_points())
        #: the wiring of the original cells, what crossing each of their
        #: wires costs and their memoised fan-in cones: an OBS cell is a
        #: pure sink and changes no controllability, so no insertion ever
        #: changes any of them
        self._structure = netlist.structure()
        self._crossing = crossing_costs(self._structure, self.scoap.cc0, self.scoap.cc1)
        self._cones: dict[int, np.ndarray] = {}
        #: the paper's attribute row of a fresh OP, squashed like the rest
        self._op_row = normalize_attributes(
            OP_ATTRIBUTES[None, :], self.attribute_config
        )[0]
        # Capacity-doubled backing stores so appends don't copy every time.
        n = self.num_nodes
        self._attr_store = RowStore(self.graph.attributes)
        self.graph.attributes = self._attr_store.rows(n)
        self._scoap_stores = [
            RowStore(column)
            for column in (self.scoap.cc0, self.scoap.cc1, self.scoap.co)
        ]
        self._resize_scoap(n)

    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return self.netlist.num_nodes

    def _attr_rows(self, nodes: np.ndarray, co: np.ndarray) -> np.ndarray:
        """Attribute rows of ``nodes`` (original cells) at observability ``co``."""
        raw = np.stack(
            [
                self.levels[nodes].astype(np.float64),
                self.scoap.cc0[nodes],
                self.scoap.cc1[nodes],
                co,
            ],
            axis=1,
        )
        return normalize_attributes(raw, self.attribute_config)

    def _resize_scoap(self, n: int) -> None:
        scoap = self.scoap
        scoap.cc0, scoap.cc1, scoap.co = (
            store.rows(n) for store in self._scoap_stores
        )

    def _relax(self, targets: Sequence[int]):
        """Nodes whose CO observing each target would move (the OBS cell
        itself is never consulted: an observed node's CO is 0), their new
        CO and attribute rows, and the per-target bounds into them."""
        nodes, co, bounds = relax_observability(
            self._structure, self._crossing, self.scoap.co, targets
        )
        return nodes, co, self._attr_rows(nodes, co), bounds

    # ------------------------------------------------------------------ #
    def preview_ops(self, targets: Sequence[int]) -> list[OpPreview]:
        """What inserting an OP at each of ``targets`` would change, each
        on its own; the design, its graph and the netlist are left exactly
        as they were."""
        targets = [int(t) for t in targets]
        nodes, _, rows, bounds = self._relax(targets)
        # Each preview's OBS row goes behind its moved rows.
        ends = bounds[1:]
        nodes = np.insert(nodes, ends, self.num_nodes)
        rows = np.insert(rows, ends, self._op_row, axis=0)
        at = (bounds + np.arange(len(bounds))).tolist()
        return [
            OpPreview(self, target, nodes[a:b], rows[a:b])
            for target, a, b in zip(targets, at, at[1:])
        ]

    def preview_op(self, target: int) -> OpPreview:
        """:meth:`preview_ops` of one target."""
        return self.preview_ops([target])[0]

    def insert_op(self, target: int) -> tuple[int, _Checkpoint]:
        """Insert an OP at ``target``; returns (new node id, checkpoint)."""
        n_before = self.num_nodes
        pred_nnz, succ_nnz = self.graph.pred.nnz, self.graph.succ.nnz
        # Drop the shared forward-cone index *before* the structure changes
        # so a concurrent reader can never warm it with mixed-generation
        # cones (see repro.atpg.cones).
        invalidate_cone_cache(self.netlist)
        p = self.netlist.insert_observation_point(target)
        n = self.netlist.num_nodes
        self.graph.pred.resize((n, n))
        self.graph.succ.resize((n, n))
        self.graph.pred.append(1.0, p, target)
        self.graph.succ.append(1.0, target, p)

        target_newly_observed = target not in self.observed
        self.observed.update((target, p))

        # SCOAP bookkeeping: grow arrays, seed the OP row, relax the cone.
        self._resize_scoap(n)
        self.scoap.cc0[p] = self.scoap.cc0[target] + 1.0
        self.scoap.cc1[p] = self.scoap.cc1[target] + 1.0
        self.scoap.co[p] = 0.0
        moved, co, rows, _ = self._relax([target])
        previous = self.scoap.co[moved]
        self.scoap.co[moved] = co

        # Attribute refresh: new OP row + every node whose CO moved.
        attributes = self.graph.attributes = self._attr_store.rows(n)
        attributes[p] = self._op_row
        previous_rows = attributes[moved]
        attributes[moved] = rows
        return p, _Checkpoint(
            n_nodes=n_before,
            pred_nnz=pred_nnz,
            succ_nnz=succ_nnz,
            changed_co=(moved, previous),
            previous_rows=previous_rows,
            target_newly_observed=target_newly_observed,
            changed_rows=[target, p, *moved.tolist()],
        )

    def rollback(self, checkpoint: _Checkpoint) -> None:
        """Undo the most recent insertion recorded in ``checkpoint``."""
        n = checkpoint.n_nodes
        invalidate_cone_cache(self.netlist)
        (target,) = self.netlist.fanins(n)
        self.netlist.remove_last_cell()
        self.graph.pred.truncate(checkpoint.pred_nnz, (n, n))
        self.graph.succ.truncate(checkpoint.succ_nnz, (n, n))
        self.observed.discard(n)
        if checkpoint.target_newly_observed:
            self.observed.discard(target)
        self._resize_scoap(n)
        moved, co = checkpoint.changed_co
        self.scoap.co[moved] = co
        self.graph.attributes[moved] = checkpoint.previous_rows
        self.graph.attributes = self._attr_store.rows(n)

    def tentative_insert(self, target: int):
        """Insert an OP, returning a zero-argument undo callable."""
        _, checkpoint = self.insert_op(target)

        def undo() -> None:
            self.rollback(checkpoint)

        return undo

    # ------------------------------------------------------------------ #
    def fanin_cones(self, nodes: Sequence[int]) -> list[np.ndarray]:
        """Fan-in cone of each of ``nodes``, itself included, as ascending
        node ids (used by impact evaluation).  Cones of original cells are
        walked once, together; an OBS cell's is its target's plus itself,
        not memoised, because a rollback frees its id for another target."""
        n = self._structure.num_nodes
        nodes = [int(v) for v in nodes]
        owners = [v if v < n else self.netlist.fanins(v)[0] for v in nodes]
        missing = [v for v in dict.fromkeys(owners) if v not in self._cones]
        fanin = self._structure.fanin_ptr, self._structure.fanin_idx
        self._cones.update(zip(missing, walk_fanin_cones(*fanin, missing)))
        return [
            self._cones[v] if v == owner else np.append(self._cones[owner], v)
            for v, owner in zip(nodes, owners)
        ]

    def fanin_cone(self, node: int, include_self: bool = True) -> np.ndarray:
        """:meth:`fanin_cones` of one node, ``node`` itself left out on
        request."""
        (cone,) = self.fanin_cones([node])
        return cone if include_self else cone[cone != node]


def walk_fanin_cones(
    fanin_ptr: np.ndarray, fanin_idx: np.ndarray, nodes: Sequence[int]
) -> list[np.ndarray]:
    """Fan-in cone of each of ``nodes``, itself included, as ascending ids
    over the fan-in CSR ``(fanin_ptr, fanin_idx)``.

    All cones are walked level by level at once, in a ``cones × nodes``
    visited mask keyed ``cone * n + node``; the cone axis is cut into
    chunks whose mask fits :data:`~repro.core.inference.CONE_MASK_BYTES`.
    """
    n = len(fanin_ptr) - 1
    nodes = np.asarray(nodes, dtype=np.int64)
    per_chunk = max(1, inference.CONE_MASK_BYTES // max(n, 1))
    cones: list[np.ndarray] = []
    for lo in range(0, len(nodes), per_chunk):
        chunk = nodes[lo : lo + per_chunk]
        seen = np.zeros(len(chunk) * n, dtype=bool)
        frontier = np.arange(len(chunk)) * n + chunk
        while len(frontier):
            seen[frontier] = True
            owner, node = np.divmod(frontier, n)
            take, counts = expand_rows(fanin_ptr, node)
            reached = sorted_unique(owner.repeat(counts) * n + fanin_idx[take])
            frontier = reached[~seen[reached]]
        owner, node = np.divmod(np.flatnonzero(seen), n)
        cones += np.split(node, np.searchsorted(owner, np.arange(1, len(chunk))))
    return cones
