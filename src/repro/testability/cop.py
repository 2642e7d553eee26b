"""COP: controllability/observability program (probabilistic testability).

Computes, under the independence assumption, the probability each net is 1
(``signal probability``) and the probability a change on the net propagates
to an observation site (``observability``).  COP is the classic measure
driving simulation-free test-point insertion heuristics; the baseline
"industrial tool" flow in :mod:`repro.flow.baseline` ranks candidate
locations by COP-estimated detection gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.cells import GateType
from repro.circuit.levelize import topological_order
from repro.circuit.netlist import Netlist

__all__ = ["CopResult", "compute_cop"]


@dataclass
class CopResult:
    """Per-node COP measures, index-aligned with node ids."""

    p1: np.ndarray  #: probability the net is 1 under random inputs
    obs: np.ndarray  #: probability a fault effect on the net is observed

    def detection_probability(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node (sa0, sa1) detection probabilities.

        sa0 is detected when the net is 1 and observed; sa1 when 0 and
        observed — the quantities random-pattern coverage models use.
        """
        return self.p1 * self.obs, (1.0 - self.p1) * self.obs


def compute_cop(netlist: Netlist, order: list[int] | None = None) -> CopResult:
    """Compute COP signal and observation probabilities for every node."""
    if order is None:
        order = topological_order(netlist)
    structure = netlist.structure()
    types = list(map(GateType, structure.types.tolist()))
    in_ptr, drivers = structure.fanin_ptr.tolist(), structure.fanin_idx.tolist()
    out_ptr, sinks = structure.fanout_ptr.tolist(), structure.fanout_idx.tolist()
    n = structure.num_nodes
    p1 = np.zeros(n, dtype=np.float64)

    for v in order:
        t = types[v]
        if t in (GateType.INPUT, GateType.DFF):
            p1[v] = 0.5
            continue
        if t is GateType.CONST0:
            p1[v] = 0.0
            continue
        if t is GateType.CONST1:
            p1[v] = 1.0
            continue
        probs = [p1[u] for u in drivers[in_ptr[v]:in_ptr[v + 1]]]
        if t in (GateType.BUF, GateType.OBS):
            p1[v] = probs[0]
        elif t is GateType.NOT:
            p1[v] = 1.0 - probs[0]
        elif t in (GateType.AND, GateType.NAND):
            value = float(np.prod(probs))
            p1[v] = 1.0 - value if t is GateType.NAND else value
        elif t in (GateType.OR, GateType.NOR):
            value = 1.0 - float(np.prod([1.0 - p for p in probs]))
            p1[v] = 1.0 - value if t is GateType.NOR else value
        elif t in (GateType.XOR, GateType.XNOR):
            value = probs[0]
            for p in probs[1:]:
                value = value * (1.0 - p) + p * (1.0 - value)
            p1[v] = 1.0 - value if t is GateType.XNOR else value
        else:  # pragma: no cover - exhaustive over GateType
            raise ValueError(f"unhandled gate type {t!r}")

    obs = np.zeros(n, dtype=np.float64)
    observed = set(netlist.observed_nodes().tolist())
    for site in observed:
        obs[site] = 1.0

    for v in reversed(order):
        if v in observed:
            continue
        miss = 1.0
        for g in sinks[out_ptr[v]:out_ptr[v + 1]]:
            t = types[g]
            if t in (GateType.DFF, GateType.OBS):
                miss = 0.0
                break
            base = obs[g]
            side = [u for u in drivers[in_ptr[g]:in_ptr[g + 1]] if u != v]
            if t in (GateType.BUF, GateType.NOT):
                branch = base
            elif t in (GateType.AND, GateType.NAND):
                branch = base * float(np.prod([p1[u] for u in side]))
            elif t in (GateType.OR, GateType.NOR):
                branch = base * float(np.prod([1.0 - p1[u] for u in side]))
            elif t in (GateType.XOR, GateType.XNOR):
                branch = base
            else:  # pragma: no cover
                raise ValueError(f"unhandled fanout gate type {t!r}")
            miss *= 1.0 - branch
        obs[v] = 1.0 - miss
    return CopResult(p1=p1, obs=obs)
