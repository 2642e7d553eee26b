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
from repro.circuit.levelize import levelize
from repro.circuit.netlist import Netlist
from repro.circuit.structure import NetlistStructure, counts_to_ptr, expand_rows, gate_table

__all__ = ["ScoapResult", "compute_scoap", "crossing_costs", "SCOAP_INF"]

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


def crossing_costs(
    structure: NetlistStructure, cc0: np.ndarray, cc1: np.ndarray
) -> np.ndarray:
    """What a fault effect pays to cross each driven pin, aligned with
    ``structure.fanout_idx``: a driver's CO through that pin is the sink's
    CO plus this.

    It is 1 plus the cost of the gate's side inputs, taken as the sum over
    all its pins minus every pin the driver itself holds.  It reads
    controllability only, which an inserted observation point never
    changes, so one array serves a design's whole OPI flow.
    """
    n = structure.num_nodes
    side_cost = np.stack([cc0, cc1, np.minimum(cc0, cc1), np.zeros(n)], axis=1).reshape(-1)
    side = _SIDE[structure.types]
    pin_sink = structure.pin_sinks()
    all_pins = np.bincount(
        pin_sink, weights=side_cost[4 * structure.fanin_idx + side[pin_sink]], minlength=n
    )
    driver, sink = structure.pin_drivers(), structure.fanout_idx
    wire = driver * n + sink
    if (wire[1:] > wire[:-1]).all():  # each fan-out row ascending: no pin held twice
        held = 1.0
    else:
        _, at, count = np.unique(wire, return_inverse=True, return_counts=True)
        held = count[at]
    return 1.0 + all_pins[sink] - held * side_cost[4 * driver + side[sink]]


def compute_scoap(
    netlist: Netlist, order: list[int] | None = None
) -> ScoapResult:
    """Compute SCOAP controllability and observability for every node,
    level by level over the array view.

    Every value is an integer-valued float far below 2**53, so sums are
    exact in any order.  ``order`` is accepted for callers that already
    hold a topological order; the sweep reads :func:`levelize`'s.
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
            # Equal to a pin-by-pin dynamic programme over input parity.
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

    sink, crossing = structure.fanout_idx, crossing_costs(structure, cc0, cc1)
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
