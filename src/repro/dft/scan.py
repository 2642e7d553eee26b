"""Scan-chain construction.

Observation points are scan cells: every OP (and every functional flop)
must be stitched into a scan chain, and the longest chain sets the
per-pattern shift time.  Test-point-insertion papers trade OP count
against exactly this cost, so the library models it.

Chains are balanced by round-robin assignment over a deterministic cell
order (placement-aware ordering is out of scope without physical data).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.circuit.cells import GateType
from repro.circuit.netlist import Netlist

__all__ = ["ScanChains", "build_scan_chains"]


@dataclass
class ScanChains:
    """A partition of a design's scan cells into shift chains."""

    chains: list[list[int]] = field(default_factory=list)

    @property
    def n_cells(self) -> int:
        return sum(len(c) for c in self.chains)

    @property
    def max_length(self) -> int:
        return max((len(c) for c in self.chains), default=0)

    def chain_of(self, cell: int) -> int:
        """Index of the chain containing ``cell``; raises if absent."""
        for i, chain in enumerate(self.chains):
            if cell in chain:
                return i
        raise ValueError(f"cell {cell} is not in any scan chain")


def scan_cells(netlist: Netlist) -> list[int]:
    """All cells that occupy a scan-chain slot: DFFs and OBS points."""
    types = netlist.structure().types
    return np.flatnonzero((types == GateType.DFF) | (types == GateType.OBS)).tolist()


def build_scan_chains(netlist: Netlist, n_chains: int = 1) -> ScanChains:
    """Partition the design's scan cells into ``n_chains`` balanced chains."""
    if n_chains < 1:
        raise ValueError("n_chains must be >= 1")
    cells = scan_cells(netlist)
    chains: list[list[int]] = [[] for _ in range(n_chains)]
    for i, cell in enumerate(cells):
        chains[i % n_chains].append(cell)
    return ScanChains(chains=[c for c in chains if c] or [[]])
