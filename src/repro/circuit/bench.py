"""ISCAS-85/89 ``.bench`` netlist reader and writer.

The ``.bench`` format is the lingua franca of the open testability
benchmarks (c432, s27, ...).  Supporting it lets the library run on the same
public netlists the follow-on literature evaluates on, alongside the
synthetic industrial-shaped designs from :mod:`repro.circuit.generator`.
"""

from __future__ import annotations

import gc
import io
import re
from contextlib import contextmanager
from itertools import chain, compress, count, repeat
from operator import not_
from pathlib import Path

import numpy as np

from repro.circuit.cells import GateType
from repro.circuit.netlist import Netlist
from repro.circuit.structure import NetlistStructure, counts_to_ptr, expand_rows, gate_table
from repro.resilience.errors import NetlistFormatError

__all__ = ["parse_bench", "load_bench", "write_bench", "dump_bench", "BenchParseError"]


class BenchParseError(NetlistFormatError):
    """Raised on malformed ``.bench`` input, with a line number.

    Subclasses :class:`NetlistFormatError` (and transitively
    ``ValueError``), so format-agnostic callers catch one type.
    """


_GATE_NAMES = {
    "AND": GateType.AND,
    "NAND": GateType.NAND,
    "OR": GateType.OR,
    "NOR": GateType.NOR,
    "XOR": GateType.XOR,
    "XNOR": GateType.XNOR,
    "NOT": GateType.NOT,
    "INV": GateType.NOT,
    "BUF": GateType.BUF,
    "BUFF": GateType.BUF,
    "DFF": GateType.DFF,
}

_TYPE_TO_BENCH = {
    GateType.AND: "AND",
    GateType.NAND: "NAND",
    GateType.OR: "OR",
    GateType.NOR: "NOR",
    GateType.XOR: "XOR",
    GateType.XNOR: "XNOR",
    GateType.NOT: "NOT",
    GateType.BUF: "BUFF",
    GateType.DFF: "DFF",
    GateType.OBS: "BUFF",
}

#: One line of a ``.bench`` file.  Matches every line exactly once, blank
#: and comment-only ones included, so the n-th match is line n.  Groups:
#: INPUT/OUTPUT keyword and its signal; assigned signal, gate name and pin
#: text; or whatever else the line holds (a syntax error).  ``[^\S\n]`` is
#: "whitespace within the line".
_LINE_RE = re.compile(
    r"^[^\S\n]*(?:"
    r"(?i:(INPUT|OUTPUT))[^\S\n]*\(([^)#\n]+)\)"
    r"|([^=\s#]+)[^\S\n]*=[^\S\n]*(\w+)[^\S\n]*\(([^)#\n]*)\)"
    r"|([^\s#][^#\n]*)"
    r")?[^\S\n]*(?:#[^\n]*)?$",
    re.MULTILINE,
)

_DFF = int(GateType.DFF)
_T = GateType
_MULTI_INPUT = gate_table(
    dict.fromkeys((_T.AND, _T.NAND, _T.OR, _T.NOR, _T.XOR, _T.XNOR), 1)
).astype(bool)


@contextmanager
def _collector_paused():
    """Hold off the cyclic garbage collector while a netlist is built.

    Parsing allocates several container objects per gate and none of them
    is part of a cycle, but every few hundred allocations count towards a
    collection that walks the growing heap: 0.40 s against 0.25 s for one
    50k-gate parse.  Only the thread that found the collector enabled
    re-enables it, so overlapping parses cannot leave it off.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def parse_bench(text: str, name: str = "bench") -> Netlist:
    """Parse ``.bench`` text into a :class:`Netlist`.

    Signals may be used before definition (the format permits any line
    order): inputs are numbered first, in declaration order, then gates in
    dependency order — the order a depth-first walk from each assignment
    in turn finishes them, a ``DFF`` being numbered *before* its data cone
    so that sequential loops close.  A file already listed that way (every
    writer's output is) is recognised by one array comparison; otherwise
    :func:`_dependency_order` walks it.  The netlist is then built in bulk
    from arrays rather than cell by cell.
    """
    with _collector_paused():
        return _parse(text, name)


def _parse(text: str, name: str) -> Netlist:
    # Three steps, each a function so that its temporaries (the larger part
    # of a parse's memory) are gone before the next one allocates.
    return _build(name, *_number(*_tokenise(text)))


def _tokenise(text: str):
    """Text -> declared inputs and outputs, and one column per gate field.

    ``pins`` is flat, ``arity[g]`` of its entries belonging to gate ``g``.
    Raises on the first malformed line or redefined signal.
    """
    # splitlines() knows more line boundaries than the pattern's ``$``.
    rows = _LINE_RE.findall("\n".join(text.splitlines()))
    keywords, io_signals, signals, gate_names, pin_texts, junk = zip(*rows)

    io_signals = list(map(str.strip, compress(io_signals, keywords)))
    is_input = list(map("INPUT".__eq__, map(str.upper, filter(None, keywords))))
    inputs = list(compress(io_signals, is_input))
    outputs = list(compress(io_signals, map(not_, is_input)))

    gate_lines = list(compress(count(1), gate_names))
    signals = list(compress(signals, gate_names))
    codes = list(map(_GATE_NAMES.get, map(str.upper, filter(None, gate_names))))
    pin_lists = list(map(str.split, compress(pin_texts, gate_names), repeat(",")))
    pins = list(map(str.strip, chain.from_iterable(pin_lists)))
    if "" in pins:  # empty pins are dropped: ``AND(a,,b)`` has two
        pin_lists = [[p for p in map(str.strip, row) if p] for row in pin_lists]
        pins = list(chain.from_iterable(pin_lists))

    if (
        any(junk)
        or None in codes
        or len(set(signals)) != len(signals)
        or not set(inputs).isdisjoint(signals)
    ):
        _raise_line_error(rows, inputs)
    if len(set(inputs)) != len(inputs):
        _raise_duplicate(inputs)
    return inputs, outputs, signals, gate_lines, codes, list(map(len, pin_lists)), pins


def _number(inputs, outputs, signals, gate_lines, codes, arity, pins):
    """Resolve signal names and decide every signal's node id.

    Signals are indexed by declaration here — inputs, then gates in line
    order; inputs own no pins.  Returns the names, type codes, pin CSR
    (``pin_ptr``, ``drivers``) in that indexing, ``node_of`` (declaration
    index -> node id), ``wired`` (see :func:`_dependency_order`) and the
    declaration indices of the outputs.
    """
    n_inputs = len(inputs)
    names = inputs + signals
    n = len(names)
    declared = dict(zip(names, range(n)))
    drivers = list(map(declared.get, pins))
    marks = list(map(declared.get, outputs))

    types = np.zeros(n, dtype=np.int64)
    types[n_inputs:] = codes
    arity = np.array(arity, dtype=np.int64)
    pin_ptr = np.concatenate((np.zeros(n_inputs, dtype=np.int64), counts_to_ptr(arity)))
    listed_in_order = None not in drivers and bool(
        np.where(_MULTI_INPUT[types[n_inputs:]], arity >= 2, arity == 1).all()
    )
    if listed_in_order:
        drivers = np.array(drivers, dtype=np.int64)
        sinks = np.repeat(np.arange(n), np.diff(pin_ptr))
        flop_loop = (drivers == sinks) & (types[sinks] == _DFF)
        listed_in_order = bool(((drivers < sinks) | flop_loop).all())
    if listed_in_order:
        node_of = np.arange(n)
        wired = np.arange(n_inputs, n)
    else:
        node_of, wired = _dependency_order(
            n_inputs, types.tolist(), pin_ptr.tolist(), drivers, pins, gate_lines
        )
        node_of = np.array(node_of, dtype=np.int64)
        wired = np.array(wired, dtype=np.int64)
        drivers = np.array(drivers, dtype=np.int64)
    if None in marks:
        raise BenchParseError(f"output {outputs[marks.index(None)]!r} is never driven")
    return names, types, pin_ptr, drivers, node_of, wired, np.array(marks, dtype=np.int64)


def _build(name, names, types, pin_ptr, drivers, node_of, wired, marks) -> Netlist:
    """Renumber the declaration-indexed arrays and bulk-build the netlist.

    Rows of the fan-in CSR go in node order; rows of the fan-out CSR list
    sinks in the order their pins were wired.
    """
    n = len(names)
    declared_as = np.argsort(node_of)
    positions, counts = expand_rows(pin_ptr, declared_as)
    fanin_ptr = counts_to_ptr(counts)
    fanin_idx = node_of[drivers[positions]]
    positions, counts = expand_rows(pin_ptr, wired)
    wire_driver = node_of[drivers[positions]]
    by_driver = np.argsort(wire_driver, kind="stable")
    fanout_ptr = counts_to_ptr(np.bincount(wire_driver, minlength=n))
    fanout_idx = np.repeat(node_of[wired], counts)[by_driver]
    structure = NetlistStructure(
        types[declared_as], fanin_ptr, fanin_idx, fanout_ptr, fanout_idx
    )
    return Netlist.from_structure(
        name,
        structure,
        list(map(names.__getitem__, declared_as.tolist())),
        node_of[marks].tolist(),
    )


def _raise_line_error(rows: list[tuple[str, ...]], inputs: list[str]) -> None:
    """Report the first line that is malformed or redefines a signal."""
    defined = set(inputs)
    for lineno, (_, _, signal, gate, _, junk) in enumerate(rows, start=1):
        if junk:
            raise BenchParseError(f"line {lineno}: cannot parse {junk.rstrip()!r}")
        if gate:
            if gate.upper() not in _GATE_NAMES:
                raise BenchParseError(f"line {lineno}: unknown gate {gate.upper()!r}")
            if signal in defined:
                raise BenchParseError(f"line {lineno}: signal {signal!r} redefined")
            defined.add(signal)
    raise AssertionError("no offending line found")  # pragma: no cover


def _raise_duplicate(inputs: list[str]) -> None:
    seen: set[str] = set()
    for signal in inputs:
        if signal in seen:
            raise BenchParseError(f"input {signal!r} declared twice")
        seen.add(signal)


def _dependency_order(
    n_inputs: int,
    types: list[int],
    pin_ptr: list[int],
    drivers: list[int | None],
    pins: list[str],
    gate_lines: list[int],
) -> tuple[list[int], list[int]]:
    """Number the gates of a file listed in any order, and check its pins.

    A depth-first walk from each assignment in line order, on an explicit
    stack (chains run thousands deep).  Returns ``node_of`` (declaration
    index -> node id) and ``wired``, the gates in the order their pins
    join their drivers' fan-out lists: a gate when its fanins are done, a
    ``DFF`` when its data cone is — later than its number says.
    """
    n = len(types)
    node_of = list(range(n_inputs)) + [-1] * (n - n_inputs)
    wired: list[int] = []
    open_gates = bytearray(n)
    stack: list[int] = []
    cursors: list[int] = []  #: next pin to look at, per stack entry
    next_id = n_inputs

    def number(gate: int) -> None:
        nonlocal next_id
        first, last = pin_ptr[gate], pin_ptr[gate + 1]
        try:
            Netlist._check_arity(GateType(types[gate]), pins[first:last])
        except ValueError as exc:
            raise BenchParseError(f"line {gate_lines[gate - n_inputs]}: {exc}") from exc
        node_of[gate] = next_id
        next_id += 1

    def enter(gate: int) -> None:
        open_gates[gate] = 1
        if types[gate] == _DFF:
            number(gate)
        stack.append(gate)
        cursors.append(pin_ptr[gate])

    for root in range(n_inputs, n):
        if node_of[root] >= 0:
            continue
        enter(root)
        while stack:
            gate, cursor = stack[-1], cursors[-1]
            if cursor < pin_ptr[gate + 1]:
                cursors[-1] = cursor + 1
                driver = drivers[cursor]
                if driver is None:
                    raise BenchParseError(f"signal {pins[cursor]!r} used but never defined")
                if node_of[driver] >= 0:
                    continue
                if open_gates[driver]:
                    raise BenchParseError(f"combinational loop through {pins[cursor]!r}")
                enter(driver)
            else:
                stack.pop()
                cursors.pop()
                if types[gate] != _DFF:
                    number(gate)
                wired.append(gate)
                open_gates[gate] = 0
    return node_of, wired


def load_bench(path: str | Path) -> Netlist:
    """Read a ``.bench`` file from ``path``."""
    path = Path(path)
    return parse_bench(path.read_text(), name=path.stem)


def write_bench(netlist: Netlist, stream: io.TextIOBase) -> None:
    """Write ``netlist`` to ``stream`` in ``.bench`` syntax.

    ``OBS`` cells are emitted as buffers that are also declared ``OUTPUT``,
    which is the standard way observation points materialise in a scan
    netlist export.
    """
    stream.write(f"# {netlist.name}: {netlist.num_nodes} cells\n")
    for v in netlist.primary_inputs:
        stream.write(f"INPUT({netlist.cell_name(v)})\n")
    for v in netlist.primary_outputs:
        stream.write(f"OUTPUT({netlist.cell_name(v)})\n")
    for v in netlist.observation_points():
        stream.write(f"OUTPUT({netlist.cell_name(v)})\n")
    # ``.bench`` has no tie cells; constants become XOR/XNOR of any input
    # with itself, the standard encoding.
    tie_driver = None
    if any(
        netlist.gate_type(v) in (GateType.CONST0, GateType.CONST1)
        for v in netlist.nodes()
    ):
        pis = netlist.primary_inputs
        if not pis:
            raise ValueError(
                "cannot export constants to .bench without a primary input"
            )
        tie_driver = netlist.cell_name(pis[0])
    for v in netlist.nodes():
        gate_type = netlist.gate_type(v)
        if gate_type is GateType.INPUT:
            continue
        if gate_type is GateType.CONST0:
            stream.write(f"{netlist.cell_name(v)} = XOR({tie_driver}, {tie_driver})\n")
            continue
        if gate_type is GateType.CONST1:
            stream.write(f"{netlist.cell_name(v)} = XNOR({tie_driver}, {tie_driver})\n")
            continue
        args = ", ".join(netlist.cell_name(u) for u in netlist.fanins(v))
        stream.write(f"{netlist.cell_name(v)} = {_TYPE_TO_BENCH[gate_type]}({args})\n")


def dump_bench(netlist: Netlist, path: str | Path) -> None:
    """Write ``netlist`` to a ``.bench`` file at ``path``."""
    with open(path, "w") as fh:
        write_bench(netlist, fh)
