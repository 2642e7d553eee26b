"""Incremental netlist/graph modification for OP insertion (Section 4).

Inserting an observation point at node ``v`` means:

* netlist: add an ``OBS`` cell ``p`` with the single fanin ``v``;
* adjacency: grow both COO matrices by one row/column and append the new
  edge — the cheap COO update the paper highlights ("appending 3 tuples");
* attributes: append the paper's fresh-OP row ``[0, 1, 1, 0]`` for ``p``,
  then refresh the observability attribute of the nodes in ``v``'s fan-in
  cone via the incremental SCOAP relaxation.

:class:`IncrementalDesign` owns all three representations and keeps them
consistent; it also supports O(cone) rollback of a tentative insertion,
which the impact evaluator leans on.  Every insertion reports the graph
rows it touched (``changed_rows`` of its checkpoint), which is what lets a
:class:`~repro.flow.scorer.Scorer` re-score only their D-hop closure, and
the appended edge lands last in its CSR row, so the adjacency's cached CSR
stays alive across insert and rollback (:mod:`repro.nn.sparse`).
:meth:`IncrementalDesign.preview_op` reports the same without inserting
anything, which is what lets a scorer rank many candidates in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.atpg.cones import invalidate_cone_cache
from repro.circuit.levelize import logic_levels, topological_order
from repro.circuit.netlist import Netlist
from repro.circuit.structure import expand_rows
from repro.core.attributes import AttributeConfig, OP_ATTRIBUTES, normalize_attributes
from repro.core.graphdata import GraphData
from repro.testability.incremental import refresh_observability
from repro.testability.scoap import ScoapResult, compute_scoap
from repro.utils.rowstore import RowStore

__all__ = ["IncrementalDesign", "OpPreview"]


@dataclass
class _Checkpoint:
    """State needed to undo one tentative insertion."""

    n_nodes: int
    pred_nnz: int
    succ_nnz: int
    changed_co: list[tuple[int, float]]
    #: nodes whose CO moved, and their attribute rows before it did
    attr_rows: tuple[list[int], np.ndarray]
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
    #: nodes whose CO would move, then the id the OBS cell would get, and
    #: the attribute rows they would have
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
        #: rollback so neither the SCOAP relaxation nor the flow rescans
        #: the netlist for them
        self.observed: set[int] = set(netlist.observation_sites)
        self.observed.update(netlist.observation_points())
        #: fan-in wiring of the original cells and their memoised cones: an
        #: OBS cell is a pure sink, so no insertion ever changes either
        structure = netlist.structure()
        self._fanin = (structure.fanin_ptr, structure.fanin_idx)
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

    def _attr_rows(self, nodes: list[int]) -> np.ndarray:
        """Attribute rows of ``nodes`` (original cells) from current SCOAP."""
        raw = np.stack(
            [
                self.levels[nodes].astype(np.float64),
                self.scoap.cc0[nodes],
                self.scoap.cc1[nodes],
                self.scoap.co[nodes],
            ],
            axis=1,
        )
        return normalize_attributes(raw, self.attribute_config)

    def _resize_scoap(self, n: int) -> None:
        scoap = self.scoap
        scoap.cc0, scoap.cc1, scoap.co = (
            store.rows(n) for store in self._scoap_stores
        )

    def _observe(self, target: int):
        """Count ``target`` as observed and relax CO through its fan-in
        cone (the OBS cell itself is never consulted: an observed node's
        CO is 0).  Returns whether that made it observed, the relaxation's
        undo list, the nodes that moved and their new attribute rows."""
        newly_observed = target not in self.observed
        self.observed.add(target)
        changed = refresh_observability(
            self.netlist, self.scoap, [target], self.levels, self.observed
        )
        moved = list(dict(changed))
        return newly_observed, changed, moved, self._attr_rows(moved)

    def _restore_co(self, changed: list[tuple[int, float]]) -> None:
        # In reverse, so repeated relaxations of one node unwind to its
        # original value.
        for v, co in reversed(changed):
            self.scoap.co[v] = co

    # ------------------------------------------------------------------ #
    def preview_op(self, target: int) -> OpPreview:
        """What inserting an OP at ``target`` would change; the design,
        its graph and the netlist are left exactly as they were."""
        newly_observed, changed, moved, rows = self._observe(target)
        self._restore_co(changed)
        if newly_observed:
            self.observed.discard(target)
        rows = np.vstack([rows, self._op_row])
        moved.append(self.num_nodes)
        return OpPreview(self, target, np.array(moved, dtype=np.int64), rows)

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

        self.observed.add(p)

        # SCOAP bookkeeping: grow arrays, seed the OP row, relax the cone.
        self._resize_scoap(n)
        self.scoap.cc0[p] = self.scoap.cc0[target] + 1.0
        self.scoap.cc1[p] = self.scoap.cc1[target] + 1.0
        self.scoap.co[p] = 0.0
        target_newly_observed, changed, moved, rows = self._observe(target)

        # Attribute refresh: new OP row + every node whose CO moved.
        attributes = self.graph.attributes = self._attr_store.rows(n)
        attributes[p] = self._op_row
        before = attributes[moved]
        attributes[moved] = rows
        return p, _Checkpoint(
            n_nodes=n_before,
            pred_nnz=pred_nnz,
            succ_nnz=succ_nnz,
            changed_co=changed,
            attr_rows=(moved, before),
            target_newly_observed=target_newly_observed,
            changed_rows=[target, p, *moved],
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
        self._restore_co(checkpoint.changed_co)
        moved, rows = checkpoint.attr_rows
        self.graph.attributes[moved] = rows
        self.graph.attributes = self._attr_store.rows(n)

    def tentative_insert(self, target: int):
        """Insert an OP, returning a zero-argument undo callable."""
        _, checkpoint = self.insert_op(target)

        def undo() -> None:
            self.rollback(checkpoint)

        return undo

    # ------------------------------------------------------------------ #
    def fanin_cone(self, node: int, include_self: bool = True) -> np.ndarray:
        """Fan-in cone of ``node`` as ascending node ids (used by impact
        evaluation); walked once per original cell, level by level."""
        ptr, idx = self._fanin
        if node >= len(ptr) - 1:
            # An OBS cell, a sink on its target; not memoised, because a
            # rollback frees its id for another target.
            cone = np.append(self.fanin_cone(self.netlist.fanins(node)[0]), node)
        elif (cone := self._cones.get(node)) is None:
            seen = np.zeros(len(ptr) - 1, dtype=bool)
            frontier = np.array([node])
            while len(frontier):
                seen[frontier] = True
                reached = np.unique(idx[expand_rows(ptr, frontier)[0]])
                frontier = reached[~seen[reached]]
            cone = self._cones[node] = np.flatnonzero(seen)
        return cone if include_self else cone[cone != node]
