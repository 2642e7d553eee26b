"""Cell-by-cell fault collapsing: the oracle for ``collapse_faults``.

Each fault walks up its BUF/NOT chain one gate at a time through the
per-node accessors, and the representatives are kept in order of first
appearance.
"""

from repro.atpg.faults import Fault, full_fault_list
from repro.circuit import GateType, Netlist


def collapse_faults(netlist: Netlist, faults: list[Fault] | None = None) -> list[Fault]:
    if faults is None:
        faults = full_fault_list(netlist)

    def representative(fault: Fault) -> Fault:
        node, value = fault.node, fault.stuck_value
        while True:
            t = netlist.gate_type(node)
            if t is GateType.BUF and len(netlist.fanouts(netlist.fanins(node)[0])) == 1:
                node = netlist.fanins(node)[0]
            elif t is GateType.NOT and len(netlist.fanouts(netlist.fanins(node)[0])) == 1:
                node = netlist.fanins(node)[0]
                value = 1 - value
            else:
                return Fault(node, value)

    seen: set[Fault] = set()
    collapsed: list[Fault] = []
    for fault in faults:
        rep = representative(fault)
        if rep not in seen:
            seen.add(rep)
            collapsed.append(rep)
    return collapsed
