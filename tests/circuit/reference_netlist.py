"""The netlist as per-cell Python lists: the reference for its columns.

:class:`ReferenceNetlist` is ``Netlist``'s mutation logic as it was while
the netlist kept one list per cell (a gate type, a fan-in row, a fan-out
row and a name each), with its per-node accessors and ``structure()``.
Fan-out rows are in the order the mutations left them: a sink appended
when wired, removed where it stood.  :meth:`ReferenceNetlist.to_netlist`
hands the same cells to a real :class:`Netlist`, fan-out order included,
so whole-netlist accessors can be asked of it.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain

import numpy as np

from repro.circuit.cells import GateType
from repro.circuit.netlist import Netlist
from repro.circuit.structure import NetlistStructure, counts_to_ptr


def rows_to_csr(rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """``(ptr, idx)`` of a list of integer rows."""
    ptr = counts_to_ptr(np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)))
    idx = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(ptr[-1]))
    return ptr, idx


def csr_to_rows(ptr: np.ndarray, idx: np.ndarray) -> list[list[int]]:
    """The inverse of :func:`rows_to_csr`: one fresh list per row."""
    flat = idx.tolist()
    bounds = ptr.tolist()
    return list(map(flat.__getitem__, map(slice, bounds[:-1], bounds[1:])))


class ReferenceNetlist:
    """A netlist kept as per-cell lists, mutated cell by cell."""

    def __init__(self, name: str = "design") -> None:
        self.name = name
        self._types: list[GateType] = []
        self._fanins: list[list[int]] = []
        self._fanouts: list[list[int]] = []
        self._names: list[str | None] = []
        self._name_to_id: dict[str, int] = {}
        self._po_marks: set[int] = set()
        self._version = 0

    @classmethod
    def of(cls, netlist: Netlist) -> "ReferenceNetlist":
        """The cells of ``netlist``, read through its per-node accessors."""
        ref = cls(netlist.name)
        ref._types = [netlist.gate_type(v) for v in netlist.nodes()]
        ref._fanins = [netlist.fanins(v) for v in netlist.nodes()]
        ref._fanouts = [netlist.fanouts(v) for v in netlist.nodes()]
        ref._names = [netlist.given_name(v) for v in netlist.nodes()]
        ref._name_to_id = {n: v for v, n in enumerate(ref._names) if n is not None}
        ref._po_marks = set(netlist.primary_outputs)
        ref._version = netlist.mutation_count
        return ref

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_cell(
        self, gate_type: GateType, fanins: Sequence[int] = (), name: str | None = None
    ) -> int:
        gate_type = GateType(gate_type)
        fanins = list(fanins)
        Netlist._check_arity(gate_type, fanins)
        for u in fanins:
            if not 0 <= u < len(self._types):
                raise ValueError(f"fanin id {u} does not exist")
        if name is not None and name in self._name_to_id:
            raise ValueError(f"duplicate cell name {name!r}")
        node = len(self._types)
        self._version += 1
        self._types.append(gate_type)
        self._fanins.append(fanins)
        self._fanouts.append([])
        for u in fanins:
            self._fanouts[u].append(node)
        if name is not None:
            self._name_to_id[name] = node
        self._names.append(name)
        return node

    def add_input(self, name: str | None = None) -> int:
        return self.add_cell(GateType.INPUT, (), name)

    def add_flop(self, name: str | None = None) -> int:
        node = self.add_cell(GateType.INPUT, (), name)
        self._types[node] = GateType.DFF
        self._fanins[node].append(node)
        self._fanouts[node].append(node)
        return node

    def remove_last_cell(self) -> None:
        if not self._types or self._fanouts[-1]:
            raise ValueError("the newest cell is missing or still drives a pin")
        node = len(self._types) - 1
        self._version += 1
        self._types.pop()
        self._fanouts.pop()
        for driver in self._fanins.pop():
            sinks = self._fanouts[driver]
            if sinks[-1] == node:
                sinks.pop()
            else:
                sinks.remove(node)
        name = self._names.pop()
        if name is not None:
            del self._name_to_id[name]
        self._po_marks.discard(node)

    def mark_output(self, node: int) -> None:
        self._validate_node(node)
        if node not in self._po_marks:
            self._version += 1
        self._po_marks.add(node)

    def _validate_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node id {node} does not exist")

    # ------------------------------------------------------------------ #
    # Mutation used by the flows
    # ------------------------------------------------------------------ #
    def insert_observation_point(self, target: int, name: str | None = None) -> int:
        self._validate_node(target)
        if self._types[target] is GateType.OBS:
            raise ValueError("target is already an observation point cell")
        if name is None:
            name = f"op_{target}_{len(self._types)}"
        return self.add_cell(GateType.OBS, (target,), name)

    def replace_fanin(self, sink: int, old_driver: int, new_driver: int) -> None:
        self._validate_node(sink)
        self._validate_node(new_driver)
        fanins = self._fanins[sink]
        try:
            pin = fanins.index(old_driver)
        except ValueError:
            raise ValueError(f"node {old_driver} does not drive node {sink}") from None
        fanins[pin] = new_driver
        self._version += 1
        self._fanouts[old_driver].remove(sink)
        self._fanouts[new_driver].append(sink)

    def insert_control_point(
        self, target: int, control_to: int, name: str | None = None
    ) -> tuple[int, int]:
        self._validate_node(target)
        if control_to not in (0, 1):
            raise ValueError("control_to must be 0 or 1")
        if self._types[target] is GateType.OBS:
            raise ValueError("cannot place a control point on an OBS cell")
        base = name or f"cp_{target}_{len(self._types)}"
        control = self.add_cell(GateType.INPUT, (), f"{base}_en")
        sinks = list(self._fanouts[target])
        if control_to == 1:
            gate = self.add_cell(GateType.OR, (target, control), base)
        else:
            inv = self.add_cell(GateType.NOT, (control,), f"{base}_n")
            gate = self.add_cell(GateType.AND, (target, inv), base)
        for sink in sinks:
            while target in self._fanins[sink]:
                self.replace_fanin(sink, target, gate)
        if target in self._po_marks:
            self._po_marks.discard(target)
            self._po_marks.add(gate)
        return control, gate

    def copy(self, name: str | None = None) -> "ReferenceNetlist":
        dup = ReferenceNetlist(name if name is not None else self.name)
        dup._types = list(self._types)
        dup._fanins = [list(f) for f in self._fanins]
        dup._fanouts = [list(f) for f in self._fanouts]
        dup._names = list(self._names)
        dup._name_to_id = dict(self._name_to_id)
        dup._po_marks = set(self._po_marks)
        dup._version = self._version
        return dup

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return len(self._types)

    @property
    def num_edges(self) -> int:
        return sum(map(len, self._fanins))

    @property
    def mutation_count(self) -> int:
        return self._version

    @property
    def primary_outputs(self) -> list[int]:
        return sorted(self._po_marks)

    def nodes(self) -> range:
        return range(self.num_nodes)

    def is_output(self, node: int) -> bool:
        return node in self._po_marks

    def gate_type(self, node: int) -> GateType:
        return self._types[node]

    def fanins(self, node: int) -> list[int]:
        return self._fanins[node]

    def fanouts(self, node: int) -> list[int]:
        return self._fanouts[node]

    def given_name(self, node: int) -> str | None:
        return self._names[node]

    def cell_name(self, node: int) -> str:
        explicit = self._names[node]
        return explicit if explicit is not None else f"n{node}"

    def find(self, name: str) -> int:
        return self._name_to_id[name]

    def structure(self) -> NetlistStructure:
        """The lists as arrays, fan-out rows in list order."""
        types = np.fromiter(self._types, dtype=np.int64, count=len(self._types))
        return NetlistStructure(types, *rows_to_csr(self._fanins), *rows_to_csr(self._fanouts))

    def to_netlist(self) -> Netlist:
        """A :class:`Netlist` of these cells, names and marks, whose
        ``structure()`` keeps this one's fan-out order until it mutates
        (its ``mutation_count`` is a parsed netlist's: one per cell and
        per output mark)."""
        return Netlist.from_structure(
            self.name, self.structure(), list(self._names), self._po_marks
        )
