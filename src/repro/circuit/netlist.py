"""Gate-level netlist container.

A :class:`Netlist` is a directed graph whose nodes are cells and whose edges
are wires, exactly the representation the paper feeds to the GCN.  Cells
are appended (and only the newest one is ever dropped again), which matches
how the observation-point-insertion flow mutates a design and keeps node
ids stable across insertions — a property the incremental COO update in
:mod:`repro.flow.modify` relies on.

Per-cell Python lists serve mutation and the per-node accessors
(``fanins(v)``, ``fanouts(v)``, ``gate_type(v)``); every whole-netlist
query and analysis reads the arrays of :meth:`Netlist.structure`.  A
netlist loaded in bulk (:meth:`Netlist.from_structure`, what the parsers
call) starts out as those arrays and builds the lists only when a mutation
or a per-node accessor asks for them; loading, scoring, labelling and
fault collapsing never do.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

import numpy as np

from repro.circuit.cells import GateType
from repro.circuit.structure import NetlistStructure, csr_to_rows, gate_table, rows_to_csr

__all__ = ["Netlist"]

_GATE_TYPES = tuple(GateType)  #: indexable by type code (codes are 0..len-1)
_T = GateType
#: pins a gate must have: none, exactly one, or (coded 2) two or more
_PIN_RULE = gate_table(
    {**dict.fromkeys((_T.INPUT, _T.CONST0, _T.CONST1), 0),
     **dict.fromkeys((_T.BUF, _T.NOT, _T.DFF, _T.OBS), 1)},
    default=2,
)
_PER_CELL = ("_types", "_fanins", "_fanouts", "_names", "_name_to_id")


class _BuiltOnFirstUse:
    """A per-cell container of :class:`Netlist`, as seen from the class.

    A netlist in array form has no such instance attribute, so the lookup
    lands here, the lists are built and from then on shadow this
    descriptor.  (Not ``__getattr__``: a class that defines it loses the
    interpreter's attribute fast paths on every instance, 8 % on the
    cell-by-cell sweeps.)
    """

    def __init__(self, name: str) -> None:
        self._name = name

    def __get__(self, netlist, owner=None):
        if netlist is None:
            return self
        netlist._build_lists()
        return getattr(netlist, self._name)


class Netlist:
    """A mutable gate-level netlist.

    Nodes are dense integer ids assigned in creation order.  Primary outputs
    are an explicit marking (any node, internal or not, may be observed).
    In full-scan designs the data input of every ``DFF`` is a pseudo primary
    output and the ``DFF`` output is a pseudo primary input; the accessor
    properties fold both conventions in so downstream analyses never need to
    special-case sequential cells.
    """

    _types, _fanins, _fanouts, _names, _name_to_id = map(_BuiltOnFirstUse, _PER_CELL)

    def __init__(self, name: str = "design") -> None:
        self.name = name
        self._types: list[GateType] = []
        self._fanins: list[list[int]] = []
        self._fanouts: list[list[int]] = []
        self._names: list[str | None] = []
        self._name_to_id: dict[str, int] = {}
        #: ``(structure, names)`` while the containers above are still to
        #: be built from it, else ``None``
        self._loaded: tuple[NetlistStructure, list[str | None]] | None = None
        self._po_marks: set[int] = set()
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
        the fan-in rows) and leaves both arguments alone afterwards;
        ``structure`` becomes the memoised view.  No per-cell object is
        built until something asks for one.
        """
        netlist = cls(name)
        for attr in _PER_CELL:
            delattr(netlist, attr)
        netlist._loaded = (structure, names)
        netlist._po_marks = set(outputs)
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

    def _build_lists(self) -> None:
        """Leave array form: build the per-cell containers from ``_loaded``.

        Not for two threads to trigger at once on one netlist.
        """
        structure, names = self._loaded
        self._types = list(map(_GATE_TYPES.__getitem__, structure.types.tolist()))
        self._fanins = csr_to_rows(structure.fanin_ptr, structure.fanin_idx)
        self._fanouts = csr_to_rows(structure.fanout_ptr, structure.fanout_idx)
        self._names = list(names)
        self._name_to_id = dict(zip(names, range(len(names))))
        self._name_to_id.pop(None, None)
        self._loaded = None

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

        Raises ``ValueError`` on arity violations or dangling fanin ids.
        """
        gate_type = GateType(gate_type)
        fanins = list(fanins)
        self._check_arity(gate_type, fanins)
        for u in fanins:
            if not 0 <= u < len(self._types):
                raise ValueError(f"fanin id {u} does not exist")
        node = len(self._types)
        self._version += 1
        self._types.append(gate_type)
        self._fanins.append(fanins)
        self._fanouts.append([])
        for u in fanins:
            self._fanouts[u].append(node)
        if name is not None:
            if name in self._name_to_id:
                raise ValueError(f"duplicate cell name {name!r}")
            self._name_to_id[name] = node
        self._names.append(name)
        return node

    def add_input(self, name: str | None = None) -> int:
        """Append a primary input."""
        return self.add_cell(GateType.INPUT, (), name)

    def add_flop(self, name: str | None = None) -> int:
        """Append a ``DFF`` that captures its own output; return its id.

        For builders that meet a flop before its data cone exists: wire the
        real driver later with ``replace_fanin(flop, flop, driver)``.
        """
        node = self.add_cell(GateType.INPUT, (), name)
        self._types[node] = GateType.DFF
        self._fanins[node].append(node)
        self._fanouts[node].append(node)
        return node

    def remove_last_cell(self) -> None:
        """Drop the newest cell, which must drive nothing (undoes ``add_cell``)."""
        if not self._types or self._fanouts[-1]:
            raise ValueError("the newest cell is missing or still drives a pin")
        node = len(self._types) - 1
        self._version += 1
        self._types.pop()
        self._fanouts.pop()
        for driver in self._fanins.pop():
            sinks = self._fanouts[driver]
            # Last in its drivers' rows unless a rewire reordered them.
            if sinks[-1] == node:
                sinks.pop()
            else:
                sinks.remove(node)
        name = self._names.pop()
        if name is not None:
            del self._name_to_id[name]
        self._po_marks.discard(node)

    def mark_output(self, node: int) -> None:
        """Mark ``node`` as a primary output (idempotent)."""
        self._validate_node(node)
        if node not in self._po_marks:
            self._version += 1
        self._po_marks.add(node)

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
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node id {node} does not exist")

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.num_nodes

    @property
    def num_nodes(self) -> int:
        if self._loaded is not None:
            return self._loaded[0].num_nodes
        return len(self._types)

    @property
    def num_edges(self) -> int:
        return len(self.structure().fanin_idx)

    def gate_type(self, node: int) -> GateType:
        return self._types[node]

    def fanins(self, node: int) -> list[int]:
        return self._fanins[node]

    def fanouts(self, node: int) -> list[int]:
        return self._fanouts[node]

    def given_name(self, node: int) -> str | None:
        """The name ``node`` was created with, if any (for rebuilding it elsewhere)."""
        return self._names[node]

    def _given_names(self) -> list[str | None]:
        """Every cell's :meth:`given_name`, in array form as in list form."""
        return self._loaded[1] if self._loaded is not None else self._names

    def cell_name(self, node: int) -> str:
        explicit = self._names[node]
        return explicit if explicit is not None else f"n{node}"

    def find(self, name: str) -> int:
        """Return the node id carrying ``name``; raise ``KeyError`` if absent."""
        return self._name_to_id[name]

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
        """Invalidate cached structural state after out-of-band edits.

        Code that writes to the private lists directly (tests building
        illegal netlists do) must call this so :meth:`structure` and every
        other :meth:`cached` value never serve content that has since changed.
        """
        if self._loaded is not None:
            self._build_lists()  # the lists are the authority from here on
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
        if self._loaded is not None:
            return self._loaded[0]
        fanin_ptr, fanin_idx = rows_to_csr(self._fanins)
        fanout_ptr, fanout_idx = rows_to_csr(self._fanouts)
        types = np.fromiter(self._types, dtype=np.int64, count=len(self._types))
        return NetlistStructure(types, fanin_ptr, fanin_idx, fanout_ptr, fanout_idx)

    # ------------------------------------------------------------------ #
    # Mutation used by the OPI flow
    # ------------------------------------------------------------------ #
    def insert_observation_point(self, target: int, name: str | None = None) -> int:
        """Attach an ``OBS`` scan cell to ``target``; return the new node id.

        This is the netlist-level counterpart of the paper's "add node ``p``
        and edge ``v -> p``" graph update.
        """
        self._validate_node(target)
        if self._types[target] is GateType.OBS:
            raise ValueError("target is already an observation point cell")
        if name is None:
            name = f"op_{target}_{len(self._types)}"
        return self.add_cell(GateType.OBS, (target,), name)

    def replace_fanin(self, sink: int, old_driver: int, new_driver: int) -> None:
        """Rewire one fanin pin of ``sink`` from ``old_driver`` to ``new_driver``.

        Replaces the *first* occurrence (duplicate pins are rewired one at
        a time).  Used by control-point insertion, which splices a gate
        into an existing net.
        """
        self._validate_node(sink)
        self._validate_node(new_driver)
        fanins = self._fanins[sink]
        try:
            pin = fanins.index(old_driver)
        except ValueError:
            raise ValueError(
                f"node {old_driver} does not drive node {sink}"
            ) from None
        fanins[pin] = new_driver
        self._version += 1
        self._fanouts[old_driver].remove(sink)
        self._fanouts[new_driver].append(sink)

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

    # ------------------------------------------------------------------ #
    # Copy / summary
    # ------------------------------------------------------------------ #
    def copy(self, name: str | None = None) -> "Netlist":
        """Deep-copy the netlist (names and output marks included)."""
        name = name if name is not None else self.name
        if self._loaded is not None:  # arrays and name table are shared, never written
            dup = Netlist.from_structure(name, *self._loaded, self._po_marks)
        else:
            dup = Netlist(name)
            dup._types = list(self._types)
            dup._fanins = [list(f) for f in self._fanins]
            dup._fanouts = [list(f) for f in self._fanouts]
            dup._names = list(self._names)
            dup._po_marks = set(self._po_marks)
            dup._name_to_id = dict(self._name_to_id)
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
