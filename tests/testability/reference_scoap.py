"""The node-by-node SCOAP sweep, kept as the oracle.

This is how SCOAP was computed for small designs before every design went
through the level-by-level array sweep of
:func:`repro.testability.scoap.compute_scoap`: the forward pass one node at
a time in topological order, the backward pass one
:func:`branch_observability` call per node in reverse.  It shares with the
array sweep nothing but :class:`~repro.testability.scoap.ScoapResult` and
:data:`~repro.testability.scoap.SCOAP_INF`.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.cells import GateType
from repro.circuit.netlist import Netlist
from repro.testability.scoap import SCOAP_INF, ScoapResult
from tests.circuit.reference_frontend import topological_order


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
    """The defining node-by-node sweep."""
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
) -> np.ndarray:
    """Backward observability pass given controllabilities: observation
    sites start at 0 and everything else at INF."""
    if order is None:
        order = topological_order(netlist)
    co = np.full(netlist.num_nodes, SCOAP_INF, dtype=np.float64)
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

