"""Test application time and silicon-overhead cost models.

Two costs bound any test-point-insertion decision (the trade-offs
Section 2.2 of the paper surveys):

* **Test time** — for a full-scan design, applying P patterns through
  chains of maximum length L costs ``(P + 1) * L + P`` shift/capture
  cycles (pipelined scan: the next pattern shifts in while the previous
  response shifts out).
* **Area** — every OP adds a scan flop + response XOR; every CP adds a
  test flop + injection gate.  Costs are counted in NAND2-gate
  equivalents (GE) against the functional design's GE total.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.cells import GateType
from repro.circuit.netlist import Netlist
from repro.dft.scan import ScanChains, build_scan_chains

__all__ = ["TestCost", "gate_equivalents", "evaluate_test_cost"]

#: NAND2-equivalent area of each primitive (typical standard-cell ratios).
_GE = {
    GateType.INPUT: 0.0,
    GateType.BUF: 0.7,
    GateType.NOT: 0.5,
    GateType.AND: 1.3,
    GateType.NAND: 1.0,
    GateType.OR: 1.3,
    GateType.NOR: 1.0,
    GateType.XOR: 2.3,
    GateType.XNOR: 2.3,
    GateType.CONST0: 0.0,
    GateType.CONST1: 0.0,
    GateType.DFF: 6.0,
    GateType.OBS: 7.0,  # scan flop + response-compaction XOR
}


@dataclass
class TestCost:
    """Aggregate test cost of one netlist + pattern set."""

    __test__ = False  # Test*-named dataclass, not a pytest test class

    n_patterns: int
    n_chains: int
    max_chain_length: int
    test_cycles: int
    functional_ge: float
    dft_ge: float

    @property
    def area_overhead(self) -> float:
        """DFT area as a fraction of functional area."""
        if self.functional_ge == 0:
            return 0.0
        return self.dft_ge / self.functional_ge


def gate_equivalents(netlist: Netlist) -> tuple[float, float]:
    """Return ``(functional_ge, dft_ge)`` for ``netlist``.

    OBS cells and CP infrastructure (nets named ``cp_*``) count as DFT;
    everything else is functional.
    """
    types = netlist.structure().types
    names = netlist._given_names()
    is_cp = np.array([bool(name) and name.startswith("cp_") for name in names], dtype=bool)
    cost = np.array([_GE[t] for t in GateType])[types]
    cost[is_cp & (types == GateType.INPUT)] = 6.0  # CP enables: tester-side test flops
    is_dft = is_cp | (types == GateType.OBS)
    # Running sums in node order (np.sum's pairwise rounding would differ).
    functional, dft = (np.cumsum(np.append(0.0, cost[m]))[-1] for m in (~is_dft, is_dft))
    return float(functional), float(dft)


def evaluate_test_cost(
    netlist: Netlist,
    n_patterns: int,
    n_chains: int = 1,
    chains: ScanChains | None = None,
) -> TestCost:
    """Compute the scan test time and area overhead for a pattern count."""
    if n_patterns < 0:
        raise ValueError("n_patterns must be non-negative")
    if chains is None:
        chains = build_scan_chains(netlist, n_chains)
    length = chains.max_length
    cycles = (n_patterns + 1) * length + n_patterns if n_patterns else 0
    functional, dft = gate_equivalents(netlist)
    return TestCost(
        n_patterns=n_patterns,
        n_chains=len(chains.chains),
        max_chain_length=length,
        test_cycles=cycles,
        functional_ge=functional,
        dft_ge=dft,
    )
