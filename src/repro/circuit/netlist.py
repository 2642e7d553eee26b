"""Gate-level netlist container.

A :class:`Netlist` is a directed graph whose nodes are cells and whose edges
are wires, exactly the representation the paper feeds to the GCN.  Cells
are appended (and only the newest one is ever dropped again), which matches
how the observation-point-insertion flow mutates a design and keeps node
ids stable across insertions — a property the incremental adjacency update
in :mod:`repro.flow.modify` relies on.

A netlist is stored once, as columns: a gate-type code per cell, the fan-in
rows in CSR form, the cell names and the output marks.  Adding a cell
appends to the columns, which grow by doubling; rewiring a pin writes it in
place.  The parsers' arrays become the columns as they are, without a
copy.  :meth:`Netlist.structure` adds the fan-out CSR once per structural
mutation; every whole-netlist query and analysis reads it, and the
per-node accessors (``fanins(v)``, ``fanouts(v)``, ``gate_type(v)``) read
the same arrays.  Arrays once handed out are never written to: the columns
are copied before the first write after that.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

import numpy as np

from repro.circuit.cells import GateType
from repro.circuit.structure import NetlistStructure, gate_table

__all__ = ["Netlist"]

_GATE_TYPES = tuple(GateType)  #: indexable by type code (codes are 0..len-1)
_T = GateType
#: pins a gate must have: none, exactly one, or (coded 2) two or more
_PIN_RULE = gate_table(
    {**dict.fromkeys((_T.INPUT, _T.CONST0, _T.CONST1), 0),
     **dict.fromkeys((_T.BUF, _T.NOT, _T.DFF, _T.OBS), 1)},
    default=2,
)


def _copied(column: np.ndarray, used: int, size: int) -> np.ndarray:
    """A fresh array of ``size`` entries that starts with ``column[:used]``."""
    fresh = np.empty(size, dtype=column.dtype)
    fresh[:used] = column[:used]
    return fresh


class Netlist:
    """A mutable gate-level netlist.

    Nodes are dense integer ids assigned in creation order.  Primary outputs
    are an explicit marking (any node, internal or not, may be observed).
    In full-scan designs the data input of every ``DFF`` is a pseudo primary
    output and the ``DFF`` output is a pseudo primary input; the accessor
    properties fold both conventions in so downstream analyses never need to
    special-case sequential cells.
    """

    def __init__(self, name: str = "design") -> None:
        self.name = name
        #: the cell count; the columns below may hold room past it
        self._n = 0
        self._types = np.zeros(0, dtype=np.int64)  #: gate-type code per cell
        self._fanin_ptr = np.zeros(1, dtype=np.int64)  #: fan-in row bounds
        self._fanin_idx = np.zeros(0, dtype=np.int64)  #: driver of every pin
        #: whether arrays handed out (a structure, a copy's columns, a
        #: parser's arrays) may alias the columns: the next write copies them
        self._shared = False
        self._names: list[str | None] = []
        self._name_to_id: dict[str, int] | None = None  #: built on first use
        self._po_marks: set[int] = set()
        #: at least the largest cell id a pin of an earlier row names (a
        #: parsed flop's data input, a late-wired flop, a rewired net), -1
        #: if none: a bound, read only by :meth:`remove_last_cell`, so
        #: that a cell no earlier row can name needs no scan of every pin
        self._forward_max = -1
        #: monotonically increasing structural-mutation counter; guards the
        #: derived values memoised by :meth:`cached`.
        self._version: int = 0
        self._cache: dict[str, object] = {}
        self._cache_version: int = 0

    @classmethod
    def from_structure(
        cls,
        name: str,
        structure: NetlistStructure,
        names: list[str | None],
        outputs: Iterable[int],
    ) -> "Netlist":
        """Bulk-build a netlist from its array view and name table.

        The caller vouches for what :meth:`add_cell` would have checked
        (arities, fanin ids in range, unique names, fan-out rows matching
        the fan-in rows) and leaves both arguments alone afterwards:
        ``structure``'s fan-in arrays become the columns, uncopied, and
        ``structure`` the memoised view.
        """
        netlist = cls(name)
        netlist._n = structure.num_nodes
        netlist._types = structure.types
        netlist._fanin_ptr, netlist._fanin_idx = structure.fanin_ptr, structure.fanin_idx
        netlist._shared = True
        netlist._names = names
        netlist._po_marks = set(outputs)
        netlist._forward_max = netlist._n - 1  # any row may name any cell
        # One mutation per cell and per output mark, as if built cell by cell.
        netlist._version = len(names) + len(netlist._po_marks)
        netlist._cache = {"structure": structure}
        netlist._cache_version = netlist._version
        return netlist

    @classmethod
    def disjoint_union(cls, members: Sequence["Netlist"]) -> "Netlist":
        """One netlist holding ``members`` side by side, in that order.

        Member ``i``'s node ``v`` is node ``v + offset`` of the union, where
        ``offset`` is the node count of the members before it; no wire
        crosses between members, so the union's adjacency is block
        diagonal.  Cells are unnamed, and the members are left alone.
        """
        structure = NetlistStructure.concatenate([m.structure() for m in members])
        offset, outputs = 0, []
        for member in members:
            outputs.extend(v + offset for v in member._po_marks)
            offset += member.num_nodes
        return cls.from_structure("union", structure, [None] * offset, outputs)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_cell(
        self,
        gate_type: GateType,
        fanins: Sequence[int] = (),
        name: str | None = None,
    ) -> int:
        """Append a cell and return its node id.

        Raises ``ValueError`` on arity violations, dangling fanin ids or a
        duplicate name, and then leaves the netlist as it was.
        """
        gate_type = GateType(gate_type)
        fanins = list(fanins)
        self._check_arity(gate_type, fanins)
        for u in fanins:
            if not 0 <= u < self._n:
                raise ValueError(f"fanin id {u} does not exist")
        return self._append(gate_type, fanins, name)

    def add_input(self, name: str | None = None) -> int:
        """Append a primary input."""
        return self.add_cell(GateType.INPUT, (), name)

    def add_flop(self, name: str | None = None) -> int:
        """Append a ``DFF`` that captures its own output; return its id.

        For builders that meet a flop before its data cone exists: wire the
        real driver later with ``replace_fanin(flop, flop, driver)``.
        """
        return self._append(GateType.DFF, [self._n], name)

    def _append(self, gate_type: GateType, fanins: list[int], name: str | None) -> int:
        """Append one cell whose type and fanins are known to be legal."""
        if name is not None and name in self._index():
            raise ValueError(f"duplicate cell name {name!r}")
        node, start = self._n, self._num_pins()
        end = start + len(fanins)
        self._writable(node + 1, end)
        self._types[node] = gate_type
        self._fanin_idx[start:end] = fanins
        self._fanin_ptr[node + 1] = end
        self._n = node + 1
        self._names.append(name)
        if name is not None:
            self._name_to_id[name] = node
        self._version += 1
        return node

    def remove_last_cell(self) -> None:
        """Drop the newest cell, which must drive nothing (undoes ``add_cell``)."""
        node = self._n - 1
        # Its own row, and the earlier rows only if one of them may name it.
        first = self._fanin_ptr[0 if node <= self._forward_max else node]
        if node < 0 or (self._fanin_idx[first : self._num_pins()] == node).any():
            raise ValueError("the newest cell is missing or still drives a pin")
        self._n = node
        self._forward_max = min(self._forward_max, node - 1)
        name = self._names.pop()
        if name is not None and self._name_to_id is not None:
            del self._name_to_id[name]
        self._po_marks.discard(node)
        self._version += 1

    def mark_output(self, node: int) -> None:
        """Mark ``node`` as a primary output (idempotent)."""
        self._validate_node(node)
        if node in self._po_marks:
            return
        current = self._cache_version == self._version
        structure = self._cache.get("structure") if current else None
        self._po_marks.add(node)
        self._version += 1
        if structure is not None:  # the wiring it shows is unchanged
            self._cache, self._cache_version = {"structure": structure}, self._version

    def _writable(self, cells: int, pins: int) -> None:
        """Make the columns this netlist's own, with room for ``cells``
        cells and ``pins`` pins: they are copied if shared or too short,
        to at least twice what is used (appends cost amortised O(1)).
        ``_fanin_ptr`` always has one entry more than ``_types``."""
        n, m = self._n, self._num_pins()
        if self._shared or cells > len(self._types):
            room = max(cells, 2 * n, 16)
            self._types = _copied(self._types, n, room)
            self._fanin_ptr = _copied(self._fanin_ptr, n + 1, room + 1)
        if self._shared or pins > len(self._fanin_idx):
            self._fanin_idx = _copied(self._fanin_idx, m, max(pins, 2 * m, 16))
        self._shared = False

    def _index(self) -> dict[str, int]:
        """Node id by given name, built on first use and kept up to date."""
        if self._name_to_id is None:
            self._name_to_id = dict(zip(self._names, range(self._n)))
            self._name_to_id.pop(None, None)
        return self._name_to_id

    @staticmethod
    def _check_arity(gate_type: GateType, fanins: Sequence[int]) -> None:
        n = len(fanins)
        if gate_type in (GateType.INPUT, GateType.CONST0, GateType.CONST1):
            if n != 0:
                raise ValueError(f"{gate_type.name} takes no fanins, got {n}")
        elif gate_type in (GateType.BUF, GateType.NOT, GateType.DFF, GateType.OBS):
            if n != 1:
                raise ValueError(f"{gate_type.name} takes 1 fanin, got {n}")
        else:
            if n < 2:
                raise ValueError(f"{gate_type.name} takes >=2 fanins, got {n}")

    @staticmethod
    def _arity_ok(types: np.ndarray, pin_counts: np.ndarray) -> np.ndarray:
        """Per cell, whether :meth:`_check_arity` accepts its pin count."""
        rule = _PIN_RULE[types]
        return np.where(rule == 2, pin_counts >= 2, pin_counts == rule)

    def _validate_node(self, node: int) -> None:
        if not 0 <= node < self._n:
            raise ValueError(f"node id {node} does not exist")

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._n

    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return self._num_pins()

    def _num_pins(self) -> int:
        return int(self._fanin_ptr[self._n])

    def gate_type(self, node: int) -> GateType:
        return _GATE_TYPES[self._types[range(self._n)[node]]]

    def fanins(self, node: int) -> list[int]:
        v = range(self._n)[node]
        ptr = self._fanin_ptr
        return self._fanin_idx[ptr[v]:ptr[v + 1]].tolist()

    def fanouts(self, node: int) -> list[int]:
        v = range(self._n)[node]
        structure = self.structure()
        ptr = structure.fanout_ptr
        return structure.fanout_idx[ptr[v]:ptr[v + 1]].tolist()

    def given_name(self, node: int) -> str | None:
        """The name ``node`` was created with, if any (for rebuilding it elsewhere)."""
        return self._names[node]

    def _given_names(self) -> list[str | None]:
        """Every cell's :meth:`given_name` (the column itself: not to be written)."""
        return self._names

    def cell_name(self, node: int) -> str:
        explicit = self._names[node]
        return explicit if explicit is not None else f"n{node}"

    def find(self, name: str) -> int:
        """Return the node id carrying ``name``; raise ``KeyError`` if absent."""
        return self._index()[name]

    def nodes(self) -> range:
        return range(self.num_nodes)

    def iter_edges(self) -> Iterable[tuple[int, int]]:
        """Yield directed edges ``(driver, sink)``, by sink and pin order."""
        structure = self.structure()
        return zip(structure.fanin_idx.tolist(), structure.pin_sinks().tolist())

    @property
    def primary_inputs(self) -> list[int]:
        """Primary inputs proper (``INPUT`` cells only)."""
        return np.flatnonzero(self.structure().types == GateType.INPUT).tolist()

    @property
    def sources(self) -> list[int]:
        """Assignable value sources for simulation: PIs and DFF outputs.

        Tie cells (``CONST0``/``CONST1``) are sources for ordering purposes
        but carry fixed values, so they are not listed here.
        """
        types = self.structure().types
        return np.flatnonzero((types == GateType.INPUT) | (types == GateType.DFF)).tolist()

    @property
    def primary_outputs(self) -> list[int]:
        """Explicitly marked primary outputs."""
        return sorted(self._po_marks)

    @property
    def observation_sites(self) -> list[int]:
        """All observed nodes: POs, DFF data inputs and OBS fanins.

        These are the nodes whose values the tester sees; fault effects must
        reach one of them to be detected.
        """
        return sorted(self._po_marks.union(self.structure().scan_captured().tolist()))

    def observation_points(self) -> list[int]:
        """Return ids of inserted ``OBS`` cells."""
        return np.flatnonzero(self.structure().types == GateType.OBS).tolist()

    def observed_nodes(self) -> np.ndarray:
        """The observation sites plus the ``OBS`` cells (a scan cell's own
        output is captured directly), sorted, as ``int64``: every node at
        which a test sees a fault effect or a flipped value."""
        obs_cells = np.flatnonzero(self.structure().types == GateType.OBS)
        return np.union1d(np.array(self.observation_sites, dtype=np.int64), obs_cells)

    def is_output(self, node: int) -> bool:
        return node in self._po_marks

    # ------------------------------------------------------------------ #
    # Structural identity
    # ------------------------------------------------------------------ #
    @property
    def mutation_count(self) -> int:
        """Number of structural mutations applied so far (cache guard)."""
        return self._version

    def note_external_mutation(self) -> None:
        """Count one mutation, dropping every :meth:`cached` value (for code
        that changed something a memoised value depends on)."""
        self._version += 1

    def cached(self, key: str, build: Callable[[], object]):
        """``build()``, memoised until the next structural mutation."""
        if self._cache_version != self._version:
            self._cache = {}
            self._cache_version = self._version
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = build()
            return value

    def structure(self) -> NetlistStructure:
        """The array view of the current wiring (see :mod:`repro.circuit.structure`)."""
        return self.cached("structure", self._build_structure)

    def _build_structure(self) -> NetlistStructure:
        n = self._n
        self._shared = True  # the view holds slices of the columns
        return NetlistStructure.from_fanins(
            self._types[:n], self._fanin_ptr[: n + 1], self._fanin_idx[: self._num_pins()]
        )

    # ------------------------------------------------------------------ #
    # Mutation used by the OPI flow
    # ------------------------------------------------------------------ #
    def insert_observation_point(self, target: int, name: str | None = None) -> int:
        """Attach an ``OBS`` scan cell to ``target``; return the new node id.

        This is the netlist-level counterpart of the paper's "add node ``p``
        and edge ``v -> p``" graph update.
        """
        self._validate_node(target)
        if self._types[target] == GateType.OBS:
            raise ValueError("target is already an observation point cell")
        if name is None:
            name = f"op_{target}_{self._n}"
        return self.add_cell(GateType.OBS, (target,), name)

    def replace_fanin(self, sink: int, old_driver: int, new_driver: int) -> None:
        """Rewire one fanin pin of ``sink`` from ``old_driver`` to ``new_driver``.

        Replaces the *first* occurrence (duplicate pins are rewired one at
        a time).  Used by control-point insertion, which splices a gate
        into an existing net.
        """
        self._validate_node(sink)
        self._validate_node(new_driver)
        try:
            pin = self.fanins(sink).index(old_driver)
        except ValueError:
            raise ValueError(
                f"node {old_driver} does not drive node {sink}"
            ) from None
        self._writable(self._n, self._num_pins())
        self._fanin_idx[self._fanin_ptr[sink] + pin] = new_driver
        if new_driver > sink:
            self._forward_max = max(self._forward_max, new_driver)
        self._version += 1

    def insert_control_point(
        self, target: int, control_to: int, name: str | None = None
    ) -> tuple[int, int]:
        """Insert a test control point on the output net of ``target``.

        ``control_to=1`` adds an OR-type CP (test input forces the net to
        1), ``control_to=0`` an AND-type CP with an inverted enable (test
        input forces 0; enable high = normal operation).  All existing
        fanouts of ``target`` are rewired to the CP gate.  Returns
        ``(control_input, cp_gate)``.
        """
        self._validate_node(target)
        if control_to not in (0, 1):
            raise ValueError("control_to must be 0 or 1")
        if self._types[target] == GateType.OBS:
            raise ValueError("cannot place a control point on an OBS cell")
        base = name or f"cp_{target}_{self._n}"
        pins = np.flatnonzero(self._fanin_idx[: self._num_pins()] == target)
        control = self.add_cell(GateType.INPUT, (), f"{base}_en")
        if control_to == 1:
            gate = self.add_cell(GateType.OR, (target, control), base)
        else:
            inv = self.add_cell(GateType.NOT, (control,), f"{base}_n")
            gate = self.add_cell(GateType.AND, (target, inv), base)
        # Every pin ``target`` drove before the CP existed, one mutation each.
        self._writable(self._n, self._num_pins())
        self._fanin_idx[pins] = gate
        if len(pins):
            self._forward_max = max(self._forward_max, gate)
        self._version += len(pins)
        if target in self._po_marks:
            self._po_marks.discard(target)
            self._po_marks.add(gate)
        return control, gate

    # ------------------------------------------------------------------ #
    # Copy / summary
    # ------------------------------------------------------------------ #
    def copy(self, name: str | None = None) -> "Netlist":
        """Deep-copy the netlist (names and output marks included).

        The columns are shared until either side writes (which copies them).
        """
        dup = Netlist(name if name is not None else self.name)
        dup._n = self._n
        dup._types, dup._fanin_ptr, dup._fanin_idx = self._types, self._fanin_ptr, self._fanin_idx
        self._shared = dup._shared = True
        dup._names = list(self._names)
        if self._name_to_id is not None:
            dup._name_to_id = dict(self._name_to_id)
        dup._po_marks = set(self._po_marks)
        dup._forward_max = self._forward_max
        dup._version = self._version
        dup._cache = dict(self._cache)
        dup._cache_version = self._cache_version
        return dup

    def type_counts(self) -> dict[str, int]:
        """Histogram of gate types by name, in order of first appearance."""
        types = self.structure().types
        first = np.sort(np.unique(types, return_index=True)[1])
        counts = np.bincount(types, minlength=len(_GATE_TYPES))
        return {_GATE_TYPES[t].name: int(counts[t]) for t in types[first].tolist()}

    def __repr__(self) -> str:
        return (
            f"Netlist(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, pis={len(self.primary_inputs)}, "
            f"pos={len(self._po_marks)})"
        )
