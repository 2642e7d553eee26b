"""Netlist structural statistics.

Summaries used to validate that generated designs match the paper's
benchmark shape (Table 1) and to characterise arbitrary input netlists:
gate mix, fanout distribution, logic-depth profile, sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.circuit.cells import GateType
from repro.circuit.levelize import logic_levels
from repro.circuit.netlist import Netlist

__all__ = ["NetlistStats", "compute_stats"]


@dataclass
class NetlistStats:
    """Aggregate structural statistics of one netlist."""

    n_nodes: int
    n_edges: int
    n_inputs: int
    n_outputs: int
    n_flops: int
    n_observation_points: int
    edge_node_ratio: float
    sparsity: float
    max_logic_level: int
    mean_logic_level: float
    max_fanout: int
    fanout_p99: float
    gate_mix: dict[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"nodes={self.n_nodes} edges={self.n_edges} "
            f"(e/n={self.edge_node_ratio:.2f}, sparsity={self.sparsity:.4%})",
            f"PIs={self.n_inputs} POs={self.n_outputs} DFFs={self.n_flops} "
            f"OPs={self.n_observation_points}",
            f"logic depth: max={self.max_logic_level} "
            f"mean={self.mean_logic_level:.1f}",
            f"fanout: max={self.max_fanout} p99={self.fanout_p99:.0f}",
            "gate mix: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.gate_mix.items())),
        ]
        return "\n".join(lines)


def compute_stats(netlist: Netlist) -> NetlistStats:
    """Compute :class:`NetlistStats` for ``netlist``."""
    levels = logic_levels(netlist)
    structure = netlist.structure()
    fanouts = np.diff(structure.fanout_ptr)
    n = netlist.num_nodes
    return NetlistStats(
        n_nodes=n,
        n_edges=netlist.num_edges,
        n_inputs=len(netlist.primary_inputs),
        n_outputs=len(netlist.primary_outputs),
        n_flops=int(np.count_nonzero(structure.types == GateType.DFF)),
        n_observation_points=len(netlist.observation_points()),
        edge_node_ratio=netlist.num_edges / n if n else 0.0,
        sparsity=1.0 - netlist.num_edges / (n * n) if n else 1.0,
        max_logic_level=int(levels.max(initial=0)),
        mean_logic_level=float(levels.mean()) if n else 0.0,
        max_fanout=int(fanouts.max(initial=0)),
        fanout_p99=float(np.percentile(fanouts, 99)) if n else 0.0,
        gate_mix=netlist.type_counts(),
    )
