"""Structural netlist validation.

Run before expensive analyses so malformed inputs fail with a precise
message rather than a deep traceback from the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.circuit.cells import GateType, is_source
from repro.circuit.levelize import CombinationalLoopError, levelize
from repro.circuit.netlist import Netlist
from repro.resilience.errors import ReproError

__all__ = ["ValidationReport", "validate_netlist", "NetlistValidationError"]


class NetlistValidationError(ReproError, ValueError):
    """Raised by :func:`validate_netlist` in strict mode.

    Part of the :class:`~repro.resilience.errors.ReproError` hierarchy (a
    structurally broken netlist is bad *input*, like a parse error), while
    still subclassing ``ValueError`` for pre-existing ``except`` clauses.
    """


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_netlist`.

    ``errors`` are structural violations that make analyses meaningless;
    ``warnings`` are suspicious but analysable conditions (e.g. dangling
    internal nodes, which synthesis tools would have swept).
    """

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_netlist(netlist: Netlist, strict: bool = False) -> ValidationReport:
    """Check ``netlist`` for structural problems.

    Checks: combinational loops, observability of the design (at least one
    observation site), dangling non-observed sinks, unreachable observed
    nodes, and fanin self-loops.

    When ``strict`` is true, any error raises :class:`NetlistValidationError`.
    """
    report = ValidationReport()

    if netlist.num_nodes == 0:
        report.errors.append("netlist is empty")
    else:
        try:
            levelize(netlist)  # memoised: the analyses that follow reuse it
        except CombinationalLoopError as exc:
            report.errors.append(str(exc))

        structure = netlist.structure()
        types, pin_sink = structure.types, structure.pin_sinks()
        for v in np.unique(pin_sink[pin_sink == structure.fanin_idx]).tolist():
            report.errors.append(f"node {v} feeds itself combinationally")

        observed = np.zeros(netlist.num_nodes, dtype=bool)
        observed[np.array(netlist.primary_outputs, dtype=np.int64)] = True
        observed[structure.scan_captured()] = True
        if not observed.any():
            report.errors.append("design has no observation sites (no POs/DFFs)")

        unused = np.diff(structure.fanout_ptr) == 0
        for v in np.flatnonzero(unused & ~observed & (types != GateType.OBS)).tolist():
            t = GateType(types[v])
            kind = "source" if is_source(t) else "gate"
            report.warnings.append(f"dangling {kind} {v} ({t.name}) is never observed")

    if strict and report.errors:
        raise NetlistValidationError("; ".join(report.errors))
    return report
