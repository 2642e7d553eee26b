"""The node-by-node SCOAP relaxation, kept as the oracle.

This is how ``CO`` was refreshed after an observation-point insertion
before :func:`repro.testability.incremental.relax_observability` swept
all candidates in stacked frontier waves: a heap of ``(-level, node)``,
one :func:`~tests.testability.reference_scoap.branch_observability` call
per popped node.  It shares with the array relaxation nothing but the
controllability it reads.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.circuit.netlist import Netlist
from repro.testability.scoap import ScoapResult
from tests.testability.reference_scoap import branch_observability


def update_scoap_after_op(
    netlist: Netlist,
    scoap: ScoapResult,
    op_node: int,
    levels: np.ndarray,
) -> ScoapResult:
    """Update ``scoap`` in place after ``OBS`` cell ``op_node`` was added.

    ``levels`` are pre-insertion logic levels; the new OBS cell is appended
    behind its target so only the target's backward cone needs revisiting.
    Returns the same (mutated) :class:`ScoapResult` with arrays grown to the
    new node count.
    """
    n = netlist.num_nodes
    target = netlist.fanins(op_node)[0]
    if len(scoap.cc0) < n:
        grow = n - len(scoap.cc0)
        scoap.cc0 = np.concatenate([scoap.cc0, np.zeros(grow)])
        scoap.cc1 = np.concatenate([scoap.cc1, np.zeros(grow)])
        scoap.co = np.concatenate([scoap.co, np.zeros(grow)])
        scoap.cc0[op_node] = scoap.cc0[target] + 1.0
        scoap.cc1[op_node] = scoap.cc1[target] + 1.0
        scoap.co[op_node] = 0.0
    refresh_observability(netlist, scoap, [target], levels)
    return scoap


def refresh_observability(
    netlist: Netlist,
    scoap: ScoapResult,
    seeds: list[int],
    levels: np.ndarray,
    observed: set[int] | None = None,
) -> list[tuple[int, float]]:
    """Backward relaxation of ``CO`` from ``seeds``.

    Returns ``(node, previous_co)`` for every node whose CO changed.
    ``observed`` is the set of observation sites plus OBS cells; by
    default it is collected by scanning the netlist.

    Processes candidates highest-logic-level first (a node's CO depends only
    on its fanouts, which sit at higher levels), re-queuing fanins whenever a
    node's CO improves.  Only decreases are propagated — adding an OP can
    never worsen observability.
    """
    if observed is None:
        observed = set(netlist.observation_sites)
        observed.update(netlist.observation_points())

    # Cells appended since ``levels`` was computed sit behind all of them.
    appended_level = int(levels.max(initial=0) + 1)

    def level_of(v: int) -> int:
        return int(levels[v]) if v < len(levels) else appended_level

    heap: list[tuple[int, int]] = []
    queued: set[int] = set()
    for s in seeds:
        heapq.heappush(heap, (-level_of(s), s))
        queued.add(s)

    changed: list[tuple[int, float]] = []
    while heap:
        _, v = heapq.heappop(heap)
        queued.discard(v)
        if v in observed:
            new_co = 0.0
        else:
            new_co = branch_observability(netlist, v, scoap.cc0, scoap.cc1, scoap.co)
        if new_co < scoap.co[v] - 1e-12:
            changed.append((v, float(scoap.co[v])))
            scoap.co[v] = new_co
            for u in netlist.fanins(v):
                if u not in queued:
                    heapq.heappush(heap, (-level_of(u), u))
                    queued.add(u)
    return changed
