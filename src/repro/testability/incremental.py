"""Incremental SCOAP update after observation-point insertion.

The paper's iterative OPI flow (Section 4) re-runs GCN inference after each
insertion round, which requires refreshed node attributes.  Recomputing
SCOAP from scratch is O(V + E); inserting an OP only improves observability
inside the fan-in cone of the target, so :func:`relax_observability`
relaxes ``CO`` backwards from the insertion point and touches only the
nodes whose ``CO`` can change.  Controllability is unaffected by adding an
OP (the OP is a pure sink), so ``CC0``/``CC1`` — and with them the cost of
crossing each wire, :func:`~repro.testability.scoap.crossing_costs` — are
reused.

The relaxation answers for many alternative insertions at once, each
against the same ``CO``: the candidate axis is stacked into the keys
``candidate * n + node``, and every frontier wave is a handful of array
calls over all candidates, the way the full pass sweeps one level.  The
node-by-node heap relaxation it replaced is the oracle in
``tests/testability/reference_incremental.py``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.circuit.structure import NetlistStructure, expand_rows, sorted_unique

__all__ = ["relax_observability"]


def relax_observability(
    structure: NetlistStructure,
    crossing: np.ndarray,
    co: np.ndarray,
    targets: Sequence[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``CO`` after observing each of ``targets``, one at a time, from ``co``.

    ``structure`` is the wiring the relaxation walks (inserted OBS cells,
    pure sinks on observed nodes, may be missing from it), ``crossing``
    its :func:`~repro.testability.scoap.crossing_costs` and ``co`` the
    current observability of at least its nodes.  Returns ``(nodes,
    new_co, bounds)``: target ``i`` moves ``nodes[bounds[i]:bounds[i + 1]]``
    (ascending) to those entries of ``new_co``.  Nothing is written.

    A target goes to 0, then waves run over the fan-in CSR: a wave
    recomputes, from their fan-out rows, the fanins of the nodes the last
    wave moved, and keeps the decreases — adding an OP never worsens
    observability.  An observed node has CO 0 already and so never moves.
    Every value is an integer-valued float, so the fixpoint is the full
    pass's result bit for bit.
    """
    n = structure.num_nodes
    targets = np.asarray(targets, dtype=np.int64)
    # Targets already at CO 0 (observed ones, OBS cells) move nothing.
    seeds = np.flatnonzero(co[targets] > 0.0)
    # The overlay: sorted keys ``candidate * n + node`` of moved nodes and
    # their new CO; every other node of a candidate reads ``co``.
    keys = frontier = seeds * n + targets[seeds]
    values = np.zeros(len(keys))
    while len(frontier):
        owner, node = np.divmod(frontier, n)
        take, counts = expand_rows(structure.fanin_ptr, node)
        rows = sorted_unique(owner.repeat(counts) * n + structure.fanin_idx[take])
        owner, node = np.divmod(rows, n)
        take, counts = expand_rows(structure.fanout_ptr, node)
        sink = structure.fanout_idx[take]
        cost = _lookup(keys, values, owner.repeat(counts) * n + sink, co[sink])[0]
        cost += crossing[take]
        # Every row drives the node it was reached from: no empty segment.
        best = np.minimum.reduceat(cost, counts.cumsum() - counts)
        current, at, known = _lookup(keys, values, rows, co[node])
        moved = best < current
        at, known, frontier, best = at[moved], known[moved], rows[moved], best[moved]
        values[at[known]] = best[known]
        keys = np.insert(keys, at[~known], frontier[~known])
        values = np.insert(values, at[~known], best[~known])
    bounds = np.searchsorted(keys, np.arange(len(targets) + 1) * n)
    return keys % n, values, bounds


def _lookup(keys, values, wanted, fallback):
    """``values`` at ``wanted`` among the ascending ``keys``, ``fallback``
    where a key is absent; also where each sits and whether it is there."""
    at = np.searchsorted(keys, wanted)
    known = np.append(keys, -1)[at] == wanted
    return np.where(known, np.append(values, 0.0)[at], fallback), at, known
