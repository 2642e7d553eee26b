"""Single-stuck-at fault model and equivalence collapsing.

The fault universe is stuck-at-0/1 on every cell output (plus primary
inputs), the standard collapsed starting point: input faults of a gate are
equivalent or dominant to output faults of its drivers for the fanout-free
case, and the checkpoint theorem keeps output+branch faults sufficient for
coverage accounting.  Structural equivalence collapsing then merges faults
across inverter/buffer chains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.cells import GateType
from repro.circuit.netlist import Netlist

__all__ = ["Fault", "full_fault_list", "collapse_faults"]


@dataclass(frozen=True, order=True)
class Fault:
    """A single stuck-at fault on the output net of ``node``."""

    node: int
    stuck_value: int  #: 0 or 1

    def __post_init__(self) -> None:
        if self.stuck_value not in (0, 1):
            raise ValueError("stuck_value must be 0 or 1")

    def __str__(self) -> str:
        return f"n{self.node}/sa{self.stuck_value}"


def full_fault_list(netlist: Netlist, include_observation_cells: bool = False) -> list[Fault]:
    """Both stuck-at faults on every cell output.

    ``OBS`` cells are test infrastructure, excluded by default so inserting
    observation points does not inflate the fault universe being graded.
    """
    kept = include_observation_cells | (netlist.structure().types != GateType.OBS)
    return [Fault(v, value) for v in np.flatnonzero(kept).tolist() for value in (0, 1)]


def collapse_faults(netlist: Netlist, faults: list[Fault] | None = None) -> list[Fault]:
    """Equivalence-collapse ``faults`` (the full fault list by default)
    across BUF/NOT chains.

    A fault on a buffer output is equivalent to the same fault on its input
    net; on an inverter output, to the opposite fault on its input.  Each
    equivalence class is represented by its most-upstream member, in the
    order of its first member in ``faults``.  For single-fanout nets the
    gate-output/gate-input equivalences (AND output sa0 = any input sa0,
    etc.) are intentionally *not* folded: we only model output faults, so
    those classes are already collapsed.
    """
    structure = netlist.structure()
    types, head = structure.types, np.arange(structure.num_nodes)
    if faults is None:
        sites = np.flatnonzero(types != GateType.OBS)
        nodes, values = np.repeat(sites, 2), np.tile([0, 1], len(sites))
    else:
        nodes = np.array([f.node for f in faults], dtype=np.int64)
        values = np.array([f.stuck_value for f in faults], dtype=np.int64)
    # One step up per BUF/NOT whose driver has no other fan-out (a NOT
    # flips the stuck value), then jump pointers to each chain's head; the
    # round cap only bites on a BUF/NOT loop, which has none.
    chain = np.flatnonzero((types == GateType.BUF) | (types == GateType.NOT))
    driver = structure.fanin_idx[structure.fanin_ptr[chain]]
    single = np.diff(structure.fanout_ptr)[driver] == 1
    chain, driver = chain[single], driver[single]
    head[chain] = driver
    flips = np.zeros_like(head)
    flips[chain] = types[chain] == GateType.NOT
    for _ in range(len(head).bit_length()):  # 2**rounds > any chain's length
        if np.array_equal(head[head], head):
            break
        flips ^= flips[head]
        head = head[head]
    keys = 2 * head[nodes] + (values ^ flips[nodes])
    keys = keys[np.sort(np.unique(keys, return_index=True)[1])].tolist()
    return [Fault(key >> 1, key & 1) for key in keys]
