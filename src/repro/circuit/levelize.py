"""Topological ordering and logic-level computation.

Logic level ``LL`` — the longest combinational path from any source — is the
first component of the paper's four-dimensional node attribute
``[LL, C0, C1, O]``.  Every analysis in the library (simulation, SCOAP,
observability) walks the netlist in the topological order produced here.

One sweep (:func:`levelize`) yields the order, the levels and the level
buckets, and is memoised on the netlist until its next structural
mutation, so validation, attribute construction and SCOAP share it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.cells import SOURCE_TYPES
from repro.circuit.netlist import Netlist
from repro.circuit.structure import NetlistStructure, counts_to_ptr, expand_rows, gate_table

__all__ = [
    "topological_order",
    "logic_levels",
    "levelize",
    "levelize_members",
    "Levelization",
    "CombinationalLoopError",
]

_IS_SOURCE = gate_table(dict.fromkeys(SOURCE_TYPES, 1)).astype(bool)


class CombinationalLoopError(ValueError):
    """Raised when the netlist contains a combinational cycle."""


@dataclass(frozen=True)
class Levelization:
    """Order, levels and level buckets of one netlist version.

    ``order`` is the breadth-first (Kahn, first-in first-out) topological
    order, which visits the netlist level by level:
    ``order[level_ptr[k]:level_ptr[k + 1]]`` are the nodes of level ``k``.
    The arrays are shared with every reader and must not be written to.
    """

    order: np.ndarray
    levels: np.ndarray
    level_ptr: np.ndarray

    @property
    def depth(self) -> int:
        """The highest logic level."""
        return len(self.level_ptr) - 2


def levelize(netlist: Netlist) -> Levelization:
    """Levelize ``netlist`` (memoised per structural version).

    ``DFF`` cells break cycles in the usual full-scan sense: they are sources
    for ordering purposes (their data-input edge is not followed), so a
    sequential loop through a flop is legal while a purely combinational loop
    raises :class:`CombinationalLoopError`.
    """
    return netlist.cached(
        "levelization", lambda: _levelize_frontier(netlist.structure())
    )


def _levelize_frontier(structure: NetlistStructure) -> Levelization:
    """Kahn's algorithm one whole level per step.

    Reproduces the order of the node-by-node algorithm on a first-in
    first-out queue: a node joins the queue when its last fanin is
    dequeued, so the next level is the sinks the current one releases,
    each where the last of its wires stands among the wires leaving the
    current level.
    """
    n = structure.num_nodes
    combinational = ~_IS_SOURCE[structure.types]
    indegree = np.where(combinational, np.diff(structure.fanin_ptr), 0)
    # Wires into sources (DFF data pins) are not followed: drop them once.
    followed = combinational[structure.fanout_idx]
    out_idx = structure.fanout_idx[followed]
    out_ptr = counts_to_ptr(followed)[structure.fanout_ptr]

    levels = np.zeros(n, dtype=np.int64)
    last_wire = np.empty(n, dtype=np.int64)  #: scratch, per released sink
    buckets = []
    frontier = np.flatnonzero(indegree == 0)
    while frontier.size:
        levels[frontier] = len(buckets)
        buckets.append(frontier)
        positions, _ = expand_rows(out_ptr, frontier)
        sinks = out_idx[positions]
        np.subtract.at(indegree, sinks, 1)
        # Only the released sinks need ordering, and wire order is it; one
        # released over several wires is kept at the last (a repeated
        # index keeps the last value assigned).
        released = sinks[indegree[sinks] == 0]
        wire = np.arange(released.size)
        last_wire[released] = wire
        frontier = released[last_wire[released] == wire]
    order = np.concatenate(buckets) if buckets else np.zeros(0, dtype=np.int64)
    if len(order) != n:
        stuck = np.flatnonzero(indegree > 0)
        raise CombinationalLoopError(
            f"combinational loop involving {len(stuck)} nodes (e.g. node {stuck[0]})"
        )
    # A cell-less netlist is one empty level, so that ``depth`` is 0.
    return Levelization(order, levels, counts_to_ptr([len(b) for b in buckets] or [0]))


def levelize_members(members: list[Netlist], union: Netlist) -> Levelization:
    """Levelize ``union`` once and memoise each member's share on the member.

    ``union`` is the block-diagonal union of ``members``, in that order
    (:meth:`Netlist.disjoint_union`).  Each of Kahn's levels of the union
    is the members' own levels concatenated in member order (true of the
    sources, and each next level is what the previous one releases, wire
    by wire), so a member's order is the union's filtered to its id range,
    and its levels are its slice of the union's.  Afterwards
    ``levelize(member)`` is a memo hit equal to the member's own sweep.
    """
    levelization = levelize(union)
    sizes = [member.num_nodes for member in members]
    offsets = counts_to_ptr(sizes)
    owner = np.repeat(np.arange(len(members)), sizes)
    # A stable sort by owner keeps each member's entries in union order.
    order = levelization.order[np.argsort(owner[levelization.order], kind="stable")]
    for member, start, stop in zip(members, offsets[:-1].tolist(), offsets[1:].tolist()):
        levels = levelization.levels[start:stop]
        share = Levelization(
            order[start:stop] - start,
            levels,
            counts_to_ptr(np.bincount(levels, minlength=1)),
        )
        member.cached("levelization", lambda: share)
    return levelization


def topological_order(netlist: Netlist) -> list[int]:
    """Return node ids in topological (fanin-before-fanout) order.

    See :func:`levelize` for how ``DFF`` cells and loops are treated.
    """
    return levelize(netlist).order.tolist()


def logic_levels(netlist: Netlist, order: list[int] | None = None) -> np.ndarray:
    """Return per-node logic level: longest path length from a source.

    Sources (PIs, constants, DFF outputs) are level 0; every other node is
    ``1 + max(level of fanins)``.  ``order`` is accepted for callers that
    already hold one; the levels do not depend on it.
    """
    return levelize(netlist).levels.copy()
