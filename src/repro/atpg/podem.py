"""PODEM deterministic test-pattern generation.

Classic PODEM (Goel, 1981): decisions are made only on primary inputs, the
implication step is full three-valued (0/1/X) simulation of the good and
faulty machines, objectives come from fault activation and the D-frontier,
and a backtrace maps each objective to a PI assignment.

Three-valued logic uses the two-plane encoding 0=(0,0), 1=(1,1), X=(0,1)
under which AND/OR/NOT are plane-wise bitwise ops, so the implication step
reuses the levelised schedule of :class:`repro.atpg.simulator.LogicSimulator`
with vectorised numpy evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.atpg.faults import Fault
from repro.atpg.simulator import LogicSimulator
from repro.circuit.cells import GateType, controlling_value, inversion_parity
from repro.circuit.netlist import Netlist
from repro.circuit.structure import expand_rows

__all__ = ["Podem", "PodemResult", "TestCube", "ThreeValuedSimulator"]

VAL_X = 2  #: scalar representation of the unknown value


@dataclass
class TestCube:
    """A partially specified test pattern over the netlist's sources.

    ``values[i]`` is 0, 1 or :data:`VAL_X` for source ``i`` (the order of
    ``netlist.sources``).
    """

    __test__ = False  # Test*-named dataclass, not a pytest test class

    values: np.ndarray

    def specified_count(self) -> int:
        return int((self.values != VAL_X).sum())

    def compatible(self, other: "TestCube") -> bool:
        """Two cubes merge when no source is assigned opposite values."""
        a, b = self.values, other.values
        clash = (a != VAL_X) & (b != VAL_X) & (a != b)
        return not bool(clash.any())

    def merge(self, other: "TestCube") -> "TestCube":
        merged = self.values.copy()
        take = merged == VAL_X
        merged[take] = other.values[take]
        return TestCube(merged)

    def fill_random(self, rng: np.random.Generator) -> np.ndarray:
        """Fully specify the cube by filling X positions randomly."""
        out = self.values.copy()
        xs = out == VAL_X
        out[xs] = rng.integers(0, 2, size=int(xs.sum()))
        return out.astype(np.uint8)


@dataclass
class PodemResult:
    """Outcome of one PODEM run."""

    status: str  #: "detected", "untestable" or "aborted"
    cube: TestCube | None = None
    backtracks: int = 0


class ThreeValuedSimulator:
    """Levelised 0/1/X simulator over the two-plane encoding."""

    def __init__(self, simulator: LogicSimulator) -> None:
        self.sim = simulator
        self.netlist = simulator.netlist
        self.n = simulator.netlist.num_nodes

    def run(
        self,
        source_values: np.ndarray,
        fault: Fault | None = None,
    ) -> np.ndarray:
        """Simulate; returns scalar values in {0, 1, X} per node.

        ``source_values`` holds 0/1/X per source.  When ``fault`` is given
        the fault node's output is forced to its stuck value (the faulty
        machine).
        """
        a = np.zeros(self.n, dtype=bool)  # plane: "value is definitely 1"
        b = np.zeros(self.n, dtype=bool)  # plane: "value could be 1"
        src = self.sim.source_ids
        vals = np.asarray(source_values)
        a[src] = vals == 1
        b[src] = (vals == 1) | (vals == VAL_X)
        if fault is not None and fault.node in set(int(s) for s in src):
            stuck = bool(fault.stuck_value)
            a[fault.node] = stuck
            b[fault.node] = stuck
        for gate_type, arity, out_idx, fanin_idx in self.sim._schedule:
            ga, gb = _eval_group_3v(gate_type, arity, fanin_idx, a, b)
            a[out_idx] = ga
            b[out_idx] = gb
            if fault is not None and fault.node in out_idx:
                stuck = bool(fault.stuck_value)
                a[fault.node] = stuck
                b[fault.node] = stuck
        out = np.full(self.n, VAL_X, dtype=np.uint8)
        out[a & b] = 1
        out[~a & ~b] = 0
        return out


def _eval_group_3v(
    gate_type: GateType,
    arity: int,
    fanin_idx: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    n = fanin_idx.shape[0]
    if gate_type is GateType.CONST0:
        return np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    if gate_type is GateType.CONST1:
        return np.ones(n, dtype=bool), np.ones(n, dtype=bool)
    fa = a[fanin_idx]  # (n, arity)
    fb = b[fanin_idx]
    if gate_type in (GateType.BUF, GateType.OBS, GateType.DFF):
        return fa[:, 0], fb[:, 0]
    if gate_type is GateType.NOT:
        return ~fb[:, 0], ~fa[:, 0]
    if gate_type in (GateType.AND, GateType.NAND):
        ra, rb = fa.all(axis=1), fb.all(axis=1)
        return (~rb, ~ra) if gate_type is GateType.NAND else (ra, rb)
    if gate_type in (GateType.OR, GateType.NOR):
        ra, rb = fa.any(axis=1), fb.any(axis=1)
        return (~rb, ~ra) if gate_type is GateType.NOR else (ra, rb)
    if gate_type in (GateType.XOR, GateType.XNOR):
        ra, rb = fa[:, 0].copy(), fb[:, 0].copy()
        for k in range(1, arity):
            ua, ub = fa[:, k], fb[:, k]
            # r XOR u = (r AND NOT u) OR (NOT r AND u)
            ta, tb = ra & ~ub, rb & ~ua
            sa, sb = ~rb & ua, ~ra & ub
            ra, rb = ta | sa, tb | sb
        return (~rb, ~ra) if gate_type is GateType.XNOR else (ra, rb)
    raise ValueError(f"cannot evaluate gate type {gate_type!r}")


class Podem:
    """PODEM engine bound to one netlist.

    ``controllability`` (optional SCOAP ``(cc0, cc1)`` arrays) guides the
    backtrace towards easy-to-set inputs, the standard cost heuristic.
    """

    def __init__(
        self,
        netlist: Netlist,
        max_backtracks: int = 100,
        controllability: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        self.netlist = netlist
        self.simulator = LogicSimulator(netlist)
        self.sim3 = ThreeValuedSimulator(self.simulator)
        self.max_backtracks = max_backtracks
        self._observed = netlist.observed_nodes()
        self._source_pos = {
            int(v): i for i, v in enumerate(self.simulator.source_ids)
        }
        self._cc = controllability
        structure = netlist.structure()
        self._gate_types = list(map(GateType, structure.types.tolist()))
        self._fanin_rows = structure.fanin_ptr.tolist(), structure.fanin_idx.tolist()
        self._fanout_csr = structure.fanout_ptr, structure.fanout_idx

    # ------------------------------------------------------------------ #
    def generate(self, fault: Fault) -> PodemResult:
        """Try to generate a test cube detecting ``fault``."""
        n_sources = len(self.simulator.source_ids)
        assignment = np.full(n_sources, VAL_X, dtype=np.uint8)
        # decision stack: (source position, value, already flipped?)
        decisions: list[list[int]] = []
        backtracks = 0

        while True:
            good = self.sim3.run(assignment)
            faulty = self.sim3.run(assignment, fault=fault)
            if self._detected(good, faulty):
                return PodemResult("detected", TestCube(assignment.copy()), backtracks)

            objective = self._objective(fault, good, faulty)
            if objective is None:
                # Conflict: undo the most recent unflipped decision.
                flipped = False
                while decisions:
                    pos, value, tried = decisions[-1]
                    if tried:
                        decisions.pop()
                        assignment[pos] = VAL_X
                        continue
                    decisions[-1] = [pos, 1 - value, 1]
                    assignment[pos] = 1 - value
                    backtracks += 1
                    flipped = True
                    break
                if not flipped:
                    return PodemResult("untestable", None, backtracks)
                if backtracks > self.max_backtracks:
                    return PodemResult("aborted", None, backtracks)
                continue

            pos, value = objective
            assignment[pos] = value
            decisions.append([pos, value, 0])

    # ------------------------------------------------------------------ #
    def _detected(self, good: np.ndarray, faulty: np.ndarray) -> bool:
        good, faulty = good[self._observed], faulty[self._observed]
        return bool(((good != VAL_X) & (faulty != VAL_X) & (good != faulty)).any())

    def _objective(
        self, fault: Fault, good: np.ndarray, faulty: np.ndarray
    ) -> tuple[int, int] | None:
        """Choose a PI assignment via activation/propagation objectives."""
        site = fault.node
        if good[site] == VAL_X:
            return self._backtrace(site, 1 - fault.stuck_value, good)
        if good[site] == fault.stuck_value:
            return None  # activation impossible under current assignment
        frontier = self._d_frontier(good, faulty)
        ptr, drivers = self._fanin_rows
        for gate in frontier:
            control = controlling_value(self._gate_types[gate])
            noncontrol = 1 - control if control is not None else 0
            for u in drivers[ptr[gate] : ptr[gate + 1]]:
                if good[u] == VAL_X:
                    target = self._backtrace(u, noncontrol, good)
                    if target is not None:
                        return target
        return None

    def _d_frontier(self, good: np.ndarray, faulty: np.ndarray) -> list[int]:
        """Gates with a fault effect on an input and an undetermined output.

        The output is "undetermined" when *either* machine still shows X:
        once both machines have defined (and equal) outputs, no further
        assignment can push the effect through that gate.
        """
        effect = np.flatnonzero((good != faulty) & (good != VAL_X) & (faulty != VAL_X))
        ptr, sinks = self._fanout_csr
        sinks = sinks[expand_rows(ptr, effect)[0]]
        sinks = sinks[(good[sinks] == VAL_X) | (faulty[sinks] == VAL_X)]
        # Closest-to-outputs first (shorter propagation); gates on one level
        # keep the order of the set of sinks met in effect-row order.
        levels = self.simulator.levels
        return sorted(set(sinks.tolist()), key=lambda g: -levels[g])

    def _backtrace(
        self, node: int, value: int, good: np.ndarray
    ) -> tuple[int, int] | None:
        """Map objective (node <- value) to an unassigned-source assignment."""
        ptr, drivers = self._fanin_rows
        guard = 0
        while guard <= len(self._gate_types):
            guard += 1
            if node in self._source_pos:
                if good[node] != VAL_X:
                    return None  # source already assigned; objective stale
                return self._source_pos[node], value
            gate_type = self._gate_types[node]
            value ^= inversion_parity(gate_type)
            x_inputs = [u for u in drivers[ptr[node] : ptr[node + 1]] if good[u] == VAL_X]
            if not x_inputs:
                return None
            node = self._pick_input(gate_type, x_inputs, value)
        return None

    def _pick_input(
        self, gate_type: GateType, x_inputs: list[int], value: int
    ) -> int:
        """Backtrace input choice: hardest for all-inputs goals, easiest otherwise."""
        if self._cc is None or len(x_inputs) == 1:
            return x_inputs[0]
        cc0, cc1 = self._cc
        cost = cc1 if value == 1 else cc0
        control = controlling_value(gate_type)
        # Setting the controlling value on one input: pick the cheapest.
        # Setting the non-controlling value on all inputs: pick the dearest
        # first (fail fast), the classic PODEM heuristic.
        if control is not None and value == control:
            return min(x_inputs, key=lambda u: cost[u])
        return max(x_inputs, key=lambda u: cost[u])
