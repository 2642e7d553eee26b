"""Incremental netlist/graph modification for OP insertion (Section 4).

Inserting an observation point at node ``v`` means:

* netlist: add an ``OBS`` cell ``p`` with the single fanin ``v``;
* adjacency: grow both matrices by one row/column and add the new edge
  as COO triples — the cheap update the paper highlights ("appending 3
  tuples");
* attributes: append the paper's fresh-OP row ``[0, 1, 1, 0]`` for ``p``,
  then refresh the observability attribute of the nodes in ``v``'s fan-in
  cone via the incremental SCOAP relaxation.

:class:`IncrementalDesign` owns all three representations and keeps them
consistent; it also supports O(cone) rollback of a tentative insertion.
Every commit reports the graph rows it touched (``changed_rows`` of its
checkpoint), which is what lets a :class:`~repro.flow.scorer.Scorer`
re-score only their D-hop closure, and every added edge lands last in
its CSR row, so the adjacency's CSR is patched in place on insert, and a
rollback shrinks it back (:mod:`repro.nn.sparse`).

An iteration is a fixed number of array sweeps.  Ranking:
:meth:`IncrementalDesign.preview_ops` reports what each insertion would
change, without inserting anything, from one stacked
:func:`~repro.testability.incremental.relax_observability` call — the
only one the design makes — and :meth:`~IncrementalDesign.fanin_cones`
walks every cone not yet memoised in one stacked level walk,
:func:`walk_fanin_cones`.  Committing: :meth:`IncrementalDesign.insert_ops`
inserts the selected previews in one step, relaxing nothing again.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.circuit.cells import GateType
from repro.circuit.graph import adjacency_pair
from repro.circuit.levelize import logic_levels
from repro.circuit.netlist import Netlist
from repro.circuit.structure import expand_rows, sorted_unique
from repro.core import inference
from repro.core.attributes import (
    AttributeConfig,
    OP_ATTRIBUTES,
    build_attributes,
    normalize_attributes,
)
from repro.core.graphdata import GraphData
from repro.testability.incremental import relax_observability
from repro.testability.scoap import ScoapResult, compute_scoap, crossing_costs
from repro.utils.rowstore import RowStore

__all__ = ["IncrementalDesign", "OpPreview", "walk_fanin_cones"]


@dataclass
class _Checkpoint:
    """State needed to undo one commit of insertions."""

    n_nodes: int
    #: nodes whose CO moved, and their CO before it did
    changed_co: tuple[np.ndarray, np.ndarray]
    #: the attribute rows of those nodes before the move
    previous_rows: np.ndarray
    #: the targets the commit is what made observed nodes
    newly_observed: list[int]
    #: graph rows whose attributes or adjacency the commit changed: the
    #: targets, the new OBS cells and every node whose CO moved
    changed_rows: list[int]
    #: the design state the commit created
    state: int


@dataclass
class OpPreview:
    """What inserting an OP at ``target`` would change, computed without
    changing anything.  :meth:`IncrementalDesign.insert_ops` takes it in
    the design state it was taken in only."""

    design: "IncrementalDesign"
    target: int
    #: nodes whose CO would move (ascending), then the id the OBS cell
    #: would get, the attribute rows they would have and their CO
    rows: np.ndarray
    attributes: np.ndarray
    co: np.ndarray
    #: the design state it was taken in
    state: int


class IncrementalDesign:
    """A netlist plus its GCN view, kept in sync under OP insertion."""

    def __init__(
        self,
        netlist: Netlist,
        attribute_config: AttributeConfig | None = None,
    ) -> None:
        self.netlist = netlist
        self.attribute_config = attribute_config or AttributeConfig()
        self.levels = logic_levels(netlist)
        self.scoap: ScoapResult = compute_scoap(netlist)
        # The graph's attributes from the SCOAP just computed, not a second pass.
        pred, succ = adjacency_pair(netlist)
        attributes = build_attributes(
            netlist, self.scoap, self.levels, self.attribute_config
        )
        self.graph = GraphData(pred, succ, attributes, name=netlist.name)
        #: observation sites plus OBS cells, kept current under insert and
        #: rollback so that the flow does not rescan the netlist for them
        self.observed: set[int] = set(netlist.observed_nodes().tolist())
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
        #: the states on the way to this one: the initial state, then one
        #: fresh id per commit not rolled back (ids are never reused, so a
        #: preview is current exactly while the last entry is its state)
        self._states = [0]
        self._next_state = 1
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

    # ------------------------------------------------------------------ #
    def preview_ops(self, targets: Sequence[int]) -> list[OpPreview]:
        """What inserting an OP at each of ``targets`` would change, each
        on its own; the design, its graph and the netlist are left exactly
        as they were.  The OBS cell itself is never consulted by the
        relaxation: an observed node's CO is 0."""
        targets = [int(t) for t in targets]
        nodes, co, bounds = relax_observability(
            self._structure, self._crossing, self.scoap.co, targets
        )
        rows = self._attr_rows(nodes, co)
        # Each preview's OBS cell goes behind its moved nodes, at CO 0.
        ends = bounds[1:]
        nodes = np.insert(nodes, ends, self.num_nodes)
        rows = np.insert(rows, ends, self._op_row, axis=0)
        co = np.insert(co, ends, 0.0)
        at = (bounds + np.arange(len(bounds))).tolist()
        state = self._states[-1]
        return [
            OpPreview(self, target, nodes[a:b], rows[a:b], co[a:b], state)
            for target, a, b in zip(targets, at, at[1:])
        ]

    def preview_op(self, target: int) -> OpPreview:
        """:meth:`preview_ops` of one target."""
        return self.preview_ops([target])[0]

    def insert_ops(self, previews: Sequence[OpPreview]) -> tuple[list[int], _Checkpoint]:
        """Insert an OP at each preview's target; returns (the new node
        ids, one checkpoint that undoes them all).

        Every preview must have been taken in this design as it stands now
        (or in a state a rollback has returned it to), and no two may name
        the same target: else ``ValueError``, and nothing changes.  The OBS
        cells get ids ``n, n + 1, …`` in preview order, and the design
        ends up as one :meth:`insert_op` per target in that order leaves
        it, bit for bit: CO is the cost of the cheapest path to an
        observed node over wires whose crossing costs read CC only, so
        observing a set of targets gives the elementwise minimum of what
        observing each alone gives — which their previews hold.
        """
        previews = list(previews)
        targets = self._commit_targets(previews)
        n_before = self.num_nodes
        n = n_before + len(targets)
        ids = np.arange(n_before, n)
        pred, succ = self.graph.pred, self.graph.succ
        for target in targets.tolist():
            self.netlist.insert_observation_point(target)
        ones = np.ones(len(targets))
        for matrix, (rows, cols) in ((pred, (ids, targets)), (succ, (targets, ids))):
            matrix.resize((n, n))
            matrix.extend(ones, rows, cols)

        newly_observed = [t for t in targets.tolist() if t not in self.observed]
        self.observed.update(targets.tolist())
        self.observed.update(ids.tolist())

        # Of the CO each preview moves a node to, the least; sorting by
        # (node, CO) puts it first among the node's entries.
        moved = np.concatenate([np.empty(0, np.int64), *(p.rows[:-1] for p in previews)])
        co = np.concatenate([np.empty(0), *(p.co[:-1] for p in previews)])
        order = np.lexsort((co, moved))
        moved, co = moved[order], co[order]
        first = np.ones(len(moved), dtype=bool)
        np.not_equal(moved[1:], moved[:-1], out=first[1:])
        moved, co = moved[first], co[first]

        # SCOAP bookkeeping: grow arrays, seed the OP rows, lower CO.
        self._resize_scoap(n)
        scoap = self.scoap
        scoap.cc0[ids] = scoap.cc0[targets] + 1.0
        scoap.cc1[ids] = scoap.cc1[targets] + 1.0
        scoap.co[ids] = 0.0
        previous = scoap.co[moved]
        scoap.co[moved] = co

        # Attribute refresh: new OP rows + every node whose CO moved.
        attributes = self.graph.attributes = self._attr_store.rows(n)
        attributes[ids] = self._op_row
        previous_rows = attributes[moved]
        attributes[moved] = self._attr_rows(moved, co)

        state = self._next_state
        self._next_state += 1
        self._states.append(state)
        return ids.tolist(), _Checkpoint(
            n_nodes=n_before,
            changed_co=(moved, previous),
            previous_rows=previous_rows,
            newly_observed=newly_observed,
            changed_rows=[*targets.tolist(), *ids.tolist(), *moved.tolist()],
            state=state,
        )

    def _commit_targets(self, previews: list[OpPreview]) -> np.ndarray:
        """The targets of ``previews``, once they are known to be current
        previews of this design at distinct targets that may take an OP."""
        state = self._states[-1]
        types = self._structure.types  # a cell past them is one of our OBS cells
        for preview in previews:
            if preview.design is not self:
                raise ValueError(f"the preview at {preview.target} is of another design")
            if preview.state != state:
                raise ValueError(
                    f"the preview at {preview.target} is stale: the design "
                    "changed after it was taken"
                )
            if preview.target >= len(types) or types[preview.target] == GateType.OBS:
                raise ValueError(f"node {preview.target} is an observation point cell")
        targets = np.array([p.target for p in previews], dtype=np.int64)
        if len(sorted_unique(targets)) < len(targets):
            raise ValueError("two previews name the same target")
        return targets

    def insert_op(self, target: int) -> tuple[int, _Checkpoint]:
        """Insert an OP at ``target``; returns (new node id, checkpoint)."""
        (p,), checkpoint = self.insert_ops(self.preview_ops([target]))
        return p, checkpoint

    def rollback(self, checkpoint: _Checkpoint) -> None:
        """Undo the most recent commit, recorded in ``checkpoint``."""
        if checkpoint.state != self._states[-1]:
            raise ValueError("only the most recent commit can be rolled back")
        n, n_after = checkpoint.n_nodes, self.num_nodes
        for _ in range(n_after - n):
            self.netlist.remove_last_cell()
        # Every entry the commit added has a new OBS cell for its row (in
        # pred) or column (in succ), and no older entry has: shrinking the
        # matrices drops exactly those.
        self.graph.pred.resize((n, n))
        self.graph.succ.resize((n, n))
        self.observed.difference_update(range(n, n_after))
        self.observed.difference_update(checkpoint.newly_observed)
        self._resize_scoap(n)
        moved, co = checkpoint.changed_co
        self.scoap.co[moved] = co
        self.graph.attributes[moved] = checkpoint.previous_rows
        self.graph.attributes = self._attr_store.rows(n)
        self._states.pop()

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
