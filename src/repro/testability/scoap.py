"""SCOAP testability measures (Goldstein & Thigpen, 1980).

Computes combinational controllability ``CC0``/``CC1`` (forward pass) and
observability ``CO`` (backward pass).  These are the ``[C0, C1, O]``
components of the paper's node attribute vector (Section 3.1); together
with the logic level they are the only per-node features the GCN sees.

Full-scan conventions: a ``DFF`` output is scan-controllable
(``CC0 = CC1 = 1``) and its data input scan-observable (``CO = 0``), the
same treatment DFT tools apply before test-point analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.cells import GateType
from repro.circuit.levelize import levelize, topological_order, uses_level_batches
from repro.circuit.netlist import Netlist
from repro.circuit.structure import counts_to_ptr, expand_rows, gate_table

__all__ = ["ScoapResult", "compute_scoap", "SCOAP_INF"]

#: Cost assigned to uncontrollable/unobservable nets (tie-cell outputs,
#: dangling nodes).  Kept finite so the attribute matrix stays usable.
SCOAP_INF = float(2**20)


@dataclass
class ScoapResult:
    """Per-node SCOAP measures, index-aligned with netlist node ids."""

    cc0: np.ndarray
    cc1: np.ndarray
    co: np.ndarray

    def as_matrix(self) -> np.ndarray:
        """Stack into an ``(n_nodes, 3)`` matrix ``[CC0, CC1, CO]``."""
        return np.stack([self.cc0, self.cc1, self.co], axis=1)


def _xor_controllability(
    terms: list[tuple[float, float]],
) -> tuple[float, float]:
    """DP over input parity: cheapest way to make the XOR 0 (even) or 1 (odd)."""
    even, odd = terms[0]
    for cc0, cc1 in terms[1:]:
        even, odd = min(even + cc0, odd + cc1), min(even + cc1, odd + cc0)
    return even, odd


def compute_scoap(
    netlist: Netlist, order: list[int] | None = None
) -> ScoapResult:
    """Compute SCOAP controllability and observability for every node.

    Small designs are swept node by node in ``order``; from
    :data:`~repro.circuit.levelize.LEVEL_BATCH_MIN_NODES` nodes up the
    sweep runs level by level (:func:`_compute_scoap_batched`), with equal
    results.
    """
    if uses_level_batches(netlist):
        return _compute_scoap_batched(netlist)
    return _compute_scoap_scalar(netlist, order)


def _compute_scoap_scalar(
    netlist: Netlist, order: list[int] | None = None
) -> ScoapResult:
    """The defining node-by-node sweep (and the batched sweep's oracle)."""
    if order is None:
        order = topological_order(netlist)
    n = netlist.num_nodes
    cc0 = np.zeros(n, dtype=np.float64)
    cc1 = np.zeros(n, dtype=np.float64)

    # Forward pass: controllability.
    for v in order:
        t = netlist.gate_type(v)
        if t in (GateType.INPUT, GateType.DFF):
            cc0[v] = cc1[v] = 1.0
            continue
        if t is GateType.CONST0:
            cc0[v], cc1[v] = 1.0, SCOAP_INF
            continue
        if t is GateType.CONST1:
            cc0[v], cc1[v] = SCOAP_INF, 1.0
            continue
        fanins = netlist.fanins(v)
        f0 = [cc0[u] for u in fanins]
        f1 = [cc1[u] for u in fanins]
        if t in (GateType.BUF, GateType.OBS):
            cc0[v], cc1[v] = f0[0] + 1.0, f1[0] + 1.0
        elif t is GateType.NOT:
            cc0[v], cc1[v] = f1[0] + 1.0, f0[0] + 1.0
        elif t is GateType.AND:
            cc0[v], cc1[v] = min(f0) + 1.0, sum(f1) + 1.0
        elif t is GateType.NAND:
            cc0[v], cc1[v] = sum(f1) + 1.0, min(f0) + 1.0
        elif t is GateType.OR:
            cc0[v], cc1[v] = sum(f0) + 1.0, min(f1) + 1.0
        elif t is GateType.NOR:
            cc0[v], cc1[v] = min(f1) + 1.0, sum(f0) + 1.0
        elif t in (GateType.XOR, GateType.XNOR):
            even, odd = _xor_controllability(list(zip(f0, f1)))
            if t is GateType.XOR:
                cc0[v], cc1[v] = even + 1.0, odd + 1.0
            else:
                cc0[v], cc1[v] = odd + 1.0, even + 1.0
        else:  # pragma: no cover - exhaustive over GateType
            raise ValueError(f"unhandled gate type {t!r}")
        cc0[v] = min(cc0[v], SCOAP_INF)
        cc1[v] = min(cc1[v], SCOAP_INF)

    co = observability_pass(netlist, cc0, cc1, order)
    return ScoapResult(cc0=cc0, cc1=cc1, co=co)


def observability_pass(
    netlist: Netlist,
    cc0: np.ndarray,
    cc1: np.ndarray,
    order: list[int] | None = None,
    co_init: np.ndarray | None = None,
) -> np.ndarray:
    """Backward observability pass given controllabilities.

    ``co_init`` allows the incremental updater to seed known values;
    otherwise observation sites start at 0 and everything else at INF.
    """
    if order is None:
        order = topological_order(netlist)
    n = netlist.num_nodes
    if co_init is None:
        co = np.full(n, SCOAP_INF, dtype=np.float64)
    else:
        co = co_init.copy()
    for site in netlist.observation_sites:
        co[site] = 0.0
    for p in netlist.observation_points():
        co[p] = 0.0

    for v in reversed(order):
        branch = branch_observability(netlist, v, cc0, cc1, co)
        co[v] = min(co[v], branch)
    return co


def branch_observability(
    netlist: Netlist,
    node: int,
    cc0: np.ndarray,
    cc1: np.ndarray,
    co: np.ndarray,
) -> float:
    """Min over fanout branches of the observability of ``node``.

    The SCOAP rule per branch through gate ``g``: the gate's own CO plus the
    cost of setting every side input to its non-controlling value, plus one.
    """
    best = SCOAP_INF
    for g in netlist.fanouts(node):
        t = netlist.gate_type(g)
        if t in (GateType.DFF, GateType.OBS):
            return 0.0  # scan-captured directly
        base = co[g] + 1.0
        if t in (GateType.BUF, GateType.NOT):
            cost = base
        elif t in (GateType.AND, GateType.NAND):
            cost = base + sum(cc1[u] for u in netlist.fanins(g) if u != node)
        elif t in (GateType.OR, GateType.NOR):
            cost = base + sum(cc0[u] for u in netlist.fanins(g) if u != node)
        elif t in (GateType.XOR, GateType.XNOR):
            cost = base + sum(
                min(cc0[u], cc1[u]) for u in netlist.fanins(g) if u != node
            )
        else:  # pragma: no cover - sources have no fanin edges
            raise ValueError(f"unhandled fanout gate type {t!r}")
        best = min(best, cost)
    return min(best, SCOAP_INF)


# --------------------------------------------------------------------- #
# Level-batched sweep
# --------------------------------------------------------------------- #
_T = GateType
_PARITY = gate_table({_T.XOR: 1, _T.XNOR: 1})
#: Every other gate is an AND or an OR with optional output inversion
#: (``BUF``/``OBS`` a one-input AND, ``NOT`` a one-input NAND): one output
#: is ``min`` over one controllability of the fanins, the other ``sum``
#: over the opposite one.  ``_MIN_IN`` is the fanin column (0 = CC0) the
#: ``min`` reads, ``_MIN_OUT`` the output column it lands in.  For parity
#: gates ``_MIN_OUT`` is where the even-parity cost lands.
_MIN_IN = gate_table({_T.OR: 1, _T.NOR: 1})
_MIN_OUT = gate_table({_T.NOT: 1, _T.NAND: 1, _T.OR: 1, _T.XNOR: 1})
#: Column of ``[CC0, CC1, min(CC0, CC1), 0]`` that a side input of the gate
#: must be set to for a fault effect to pass.
_SIDE = gate_table(
    {_T.OR: 0, _T.NOR: 0, _T.AND: 1, _T.NAND: 1, _T.XOR: 2, _T.XNOR: 2}, default=3
)


def _level_groups(keys: np.ndarray, n_groups: int, ptr: np.ndarray, rows: np.ndarray):
    """Schedule ``rows`` (sorted by ``keys`` in ``range(n_groups)``) group by group.

    Returns the concatenated CSR content positions of the rows, the
    first-entry offset of every row *within its group's slice* (what
    ``ufunc.reduceat`` wants), and per-group row and entry bounds as lists.
    """
    positions, counts = expand_rows(ptr, rows)
    entry_ptr = counts_to_ptr(counts)
    row_bounds = np.searchsorted(keys, np.arange(n_groups + 1))
    entry_bounds = entry_ptr[row_bounds]
    local_starts = entry_ptr[:-1] - np.repeat(entry_bounds[:-1], np.diff(row_bounds))
    return positions, counts, local_starts, row_bounds.tolist(), entry_bounds.tolist()


def _compute_scoap_batched(netlist: Netlist) -> ScoapResult:
    """SCOAP level by level over the array view.

    Every value is an integer-valued float far below 2**53, so sums are
    exact in any order and the result equals the scalar sweep bit for bit.
    """
    structure = netlist.structure()
    levelization = levelize(netlist)
    types, levels = structure.types, levelization.levels
    n, depth = structure.num_nodes, levelization.depth

    # ---- controllability: levels 1..depth, ascending ------------------- #
    cc = np.ones((n, 2), dtype=np.float64)
    cc[types == GateType.CONST0, 1] = SCOAP_INF
    cc[types == GateType.CONST1, 0] = SCOAP_INF
    flat = cc.reshape(-1)

    gates = levelization.order[levelization.level_ptr[1]:]
    keys = 2 * (levels[gates] - 1) + _PARITY[types[gates]]
    by_family = np.argsort(keys, kind="stable")
    gates, keys = gates[by_family], keys[by_family]
    positions, pins, starts, row_at, pin_at = _level_groups(
        keys, 2 * depth, structure.fanin_ptr, gates
    )
    gate_types = types[gates]
    min_in = 2 * structure.fanin_idx[positions] + np.repeat(_MIN_IN[gate_types], pins)
    sum_in = min_in ^ 1
    min_out = 2 * gates + _MIN_OUT[gate_types]
    sum_out = min_out ^ 1
    for group in range(2 * depth):
        g0, g1 = row_at[group], row_at[group + 1]
        if g0 == g1:
            continue
        p0, p1 = pin_at[group], pin_at[group + 1]
        first = starts[g0:g1]
        a = flat.take(min_in[p0:p1])
        b = flat.take(sum_in[p0:p1])
        if group % 2 == 0:
            low = np.minimum.reduceat(a, first)
            high = np.add.reduceat(b, first)
        else:
            # Parity gates, a = CC0 and b = CC1 of every pin.  The cheapest
            # assignment sets each pin to its cheaper value; if that has
            # the wrong parity, the pin that is cheapest to flip flips.
            # Equal to the pin-by-pin dynamic programme of the scalar sweep.
            delta = b - a
            cheapest = np.add.reduceat(a + np.minimum(delta, 0.0), first)
            ones_odd = np.add.reduceat(delta < 0.0, first, dtype=np.int64) % 2 == 1
            flip = np.minimum.reduceat(np.abs(delta), first)
            low = cheapest + np.where(ones_odd, flip, 0.0)  # even parity
            high = cheapest + np.where(ones_odd, 0.0, flip)  # odd parity
        flat[min_out[g0:g1]] = np.minimum(low + 1.0, SCOAP_INF)
        flat[sum_out[g0:g1]] = np.minimum(high + 1.0, SCOAP_INF)
    cc0, cc1 = cc[:, 0].copy(), cc[:, 1].copy()

    # ---- observability: levels depth..0, descending -------------------- #
    co = np.full(n, SCOAP_INF, dtype=np.float64)
    co[structure.scan_captured()] = 0.0
    co[types == GateType.OBS] = 0.0
    co[np.array(netlist.primary_outputs, dtype=np.int64)] = 0.0

    # Cost of crossing each driven pin: 1 + the gate's side inputs, taken as
    # the sum over all its pins minus every pin the driver itself holds.
    side_cost = np.stack([cc0, cc1, np.minimum(cc0, cc1), np.zeros(n)], axis=1).reshape(-1)
    side = _SIDE[types]
    pin_sink = structure.pin_sinks()
    all_pins = np.bincount(
        pin_sink, weights=side_cost[4 * structure.fanin_idx + side[pin_sink]], minlength=n
    )
    driver, sink = structure.pin_drivers(), structure.fanout_idx
    _, wire, held = np.unique(driver * n + sink, return_inverse=True, return_counts=True)
    crossing = 1.0 + all_pins[sink] - held[wire] * side_cost[4 * driver + side[sink]]

    drivers = levelization.order[::-1]
    drivers = drivers[np.diff(structure.fanout_ptr)[drivers] > 0]
    positions, _, starts, row_at, pin_at = _level_groups(
        depth - levels[drivers], depth + 1, structure.fanout_ptr, drivers
    )
    sink, crossing = sink[positions], crossing[positions]
    for group in range(depth + 1):
        g0, g1 = row_at[group], row_at[group + 1]
        if g0 == g1:
            continue
        p0, p1 = pin_at[group], pin_at[group + 1]
        cost = co.take(sink[p0:p1])
        cost += crossing[p0:p1]
        nodes = drivers[g0:g1]
        co[nodes] = np.minimum(co.take(nodes), np.minimum.reduceat(cost, starts[g0:g1]))
    return ScoapResult(cc0=cc0, cc1=cc1, co=co)
