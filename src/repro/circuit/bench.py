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
from itertools import chain, compress, count, islice, repeat
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

#: the same as plain integers, which fill an array four times faster
_GATE_CODES = {name: int(gate_type) for name, gate_type in _GATE_NAMES.items()}

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
#: where ``str.splitlines`` ends a line and the pattern's ``$`` does not
_OTHER_LINE_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"

_DFF = int(GateType.DFF)
_T = GateType
#: pins a gate must have: none, exactly one, or (coded 2) two or more
_PIN_RULE = gate_table(
    {**dict.fromkeys((_T.INPUT, _T.CONST0, _T.CONST1), 0),
     **dict.fromkeys((_T.BUF, _T.NOT, _T.DFF, _T.OBS), 1)},
    default=2,
)


def parse_bench(text: str, name: str = "bench") -> Netlist:
    """Parse ``.bench`` text into a :class:`Netlist`.

    Signals may be used before definition (the format permits any line
    order).  Node ids: inputs first, in declaration order, then gates in
    the order a depth-first walk from each assignment in turn, in line
    order, finishes them — a ``DFF`` counting as a source, finished the
    moment it is met and its data pin not followed, so that sequential
    loops (ISCAS-89) close.  Hence a file whose combinational gates all
    follow their drivers keeps declaration order, wherever its flops'
    data comes from, and ``parse(write(netlist))`` keeps every id of a
    netlist numbered that way.  Fan-out lists hold sinks in ascending id.

    The text goes straight to arrays (:class:`NetlistStructure` plus a
    name table); the netlist builds per-cell lists only if asked.
    """

    def fail(message: str, gate: int | None = None):
        if gate is not None:
            line = next(islice(compress(count(1), gate_names), gate, None))
            message = f"line {line}: {message}"
        raise BenchParseError(message)

    # The cyclic collector is held off meanwhile.  Parsing allocates a few
    # strings and tuples per gate and none of them is part of a cycle, but
    # every few hundred allocations count towards a collection that walks
    # the growing heap: 0.40 s against 0.25 s for one 50k-gate parse.  Only
    # the thread that found the collector enabled re-enables it, so
    # overlapping parses cannot leave it off.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        *columns, gate_names = _tokenise(text)
        return _build(name, *_number(*columns, fail))
    finally:
        if was_enabled:
            gc.enable()


def _tokenise(text: str):
    """Text -> the arguments of :func:`_number`, and the gate-name column.

    The column has one entry per line (empty off gate lines) and is what
    turns a gate's index back into a line number.  Raises on the first
    malformed line or redefined signal.
    """
    if any(map(text.__contains__, _OTHER_LINE_BREAKS)):
        text = "\n".join(text.splitlines())
    rows = _LINE_RE.findall(text)
    keywords, io_signals, signals, gate_names, pin_texts, junk = zip(*rows)

    io_signals = list(map(str.strip, compress(io_signals, keywords)))
    is_input = list(map("INPUT".__eq__, map(str.upper, filter(None, keywords))))
    inputs = list(compress(io_signals, is_input))
    outputs = list(compress(io_signals, map(not_, is_input)))

    signals = list(compress(signals, gate_names))
    codes = list(map(_GATE_CODES.get, filter(None, gate_names)))
    if None in codes:  # or not spelt in capitals
        codes = list(map(_GATE_CODES.get, map(str.upper, filter(None, gate_names))))
    pin_texts = list(compress(pin_texts, gate_names))
    # One split for the whole file.  Writers put ", " between pins: with
    # the blank gone first, strip() hands most pins back as they are.
    pins = list(map(str.strip, ",".join(pin_texts).replace(", ", ",").split(",")))
    arity = np.fromiter(map(str.count, pin_texts, repeat(",")), np.int64, len(pin_texts)) + 1
    if "" in pins:  # empty pins are dropped: ``AND(a,,b)`` has two, ``DFF()`` none
        pin_lists = [[p for p in map(str.strip, row.split(",")) if p] for row in pin_texts]
        pins = list(chain.from_iterable(pin_lists))
        arity = list(map(len, pin_lists))

    names = inputs + signals
    declared = dict(zip(names, range(len(names))))
    if any(junk) or None in codes or len(declared) != len(names):
        _raise_line_error(rows, inputs)
    return declared, len(inputs), outputs, codes, arity, pins, gate_names


def _number(declared, n_inputs, outputs, codes, arity, pins, fail):
    """Resolve signal names and decide every signal's node id.

    Shared with the Verilog reader.  ``declared`` maps each signal to its
    declaration index — the inputs, then the gates in statement order, of
    which ``codes`` and ``arity`` hold the type code and pin count and
    ``pins`` the driving signals, flat.  ``fail(message, gate=None)``
    raises the front end's error, locating gate ``gate`` when given.
    Returns the names, type codes, pin CSR (``pin_ptr``, ``drivers``) in
    declaration indexing, ``node_of`` (declaration index -> node id, or
    ``None`` when they are equal) and the declaration indices of the
    outputs.
    """
    names = list(declared)
    n = len(names)
    drivers = list(map(declared.get, pins))
    if None in drivers:
        drivers = [-1 if d is None else d for d in drivers]
    drivers = np.fromiter(drivers, np.int64, len(drivers))
    marks = np.array([declared.get(o, -1) for o in outputs], dtype=np.int64)

    types, pin_counts = np.zeros((2, n), dtype=np.int64)  # inputs: code 0, no pins
    types[n_inputs:] = codes
    pin_counts[n_inputs:] = arity
    pin_ptr = counts_to_ptr(pin_counts)
    rule = _PIN_RULE[types]
    arity_ok = np.where(rule == 2, pin_counts >= 2, pin_counts == rule)
    sinks = np.repeat(np.arange(n), pin_counts)
    # Nothing to reorder when every combinational gate follows its drivers.
    node_of = None
    in_order = (drivers >= 0) & ((drivers < sinks) | (types[sinks] == _DFF))
    if not (arity_ok.all() and in_order.all()):
        as_lists = (a.tolist() for a in (types, arity_ok, pin_ptr, drivers))
        node_of = _dependency_order(n_inputs, *as_lists, pins, fail)
    if (marks < 0).any():
        fail(f"output {outputs[int(np.argmin(marks))]!r} is never driven")
    return names, types, pin_ptr, drivers, node_of, marks


def _build(name, names, types, pin_ptr, drivers, node_of, marks) -> Netlist:
    """Renumber the declaration-indexed arrays and hand them to a netlist."""
    if node_of is not None:
        declared_as = np.empty_like(node_of)
        declared_as[node_of] = np.arange(len(node_of))
        positions, counts = expand_rows(pin_ptr, declared_as)
        types, pin_ptr = types[declared_as], counts_to_ptr(counts)
        drivers, marks = node_of[drivers[positions]], node_of[marks]
        names = list(map(names.__getitem__, declared_as.tolist()))
    structure = NetlistStructure.from_fanins(types, pin_ptr, drivers)
    return Netlist.from_structure(name, structure, names, marks.tolist())


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
    seen: set[str] = set()
    for signal in inputs:
        if signal in seen:
            raise BenchParseError(f"input {signal!r} declared twice")
        seen.add(signal)


def _dependency_order(n_inputs, types, arity_ok, pin_ptr, drivers, pins, fail) -> np.ndarray:
    """Number the gates of a file listed in any order, and check its pins.

    The walk of :func:`parse_bench`'s numbering rule, on an explicit stack
    (chains run thousands deep), over :func:`_number`'s arrays as lists.
    Returns ``node_of``: declaration index -> node id.
    """
    n = len(types)
    node_of = list(range(n_inputs)) + [-1] * (n - n_inputs)
    open_gates = bytearray(n)
    stack: list[int] = []
    cursors: list[int] = []  #: next pin to look at, per stack entry
    next_id = n_inputs

    def enter(gate: int) -> None:
        open_gates[gate] = 1
        stack.append(gate)
        # A flop's data pin is checked below, not followed.
        cursors.append(pin_ptr[gate + 1 if types[gate] == _DFF else gate])

    for root in range(n_inputs, n):
        if node_of[root] >= 0:
            continue
        enter(root)
        while stack:
            gate, cursor = stack[-1], cursors[-1]
            last = pin_ptr[gate + 1]
            if cursor < last:
                cursors[-1] = cursor + 1
                driver = drivers[cursor]
                if driver < 0:
                    fail(f"signal {pins[cursor]!r} used but never defined")
                if node_of[driver] >= 0:
                    continue
                if open_gates[driver]:
                    fail(f"combinational loop through {pins[cursor]!r}")
                enter(driver)
                continue
            stack.pop()
            cursors.pop()
            open_gates[gate] = 0
            if not arity_ok[gate]:
                try:
                    Netlist._check_arity(GateType(types[gate]), pins[pin_ptr[gate]:last])
                except ValueError as exc:
                    fail(str(exc), gate - n_inputs)
            if types[gate] == _DFF and drivers[last - 1] < 0:
                fail(f"signal {pins[last - 1]!r} used but never defined")
            node_of[gate] = next_id
            next_id += 1
    return np.array(node_of, dtype=np.int64)


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
