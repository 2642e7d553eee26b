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
from operator import contains, not_
from pathlib import Path

import numpy as np

from repro.circuit.cells import GateType
from repro.circuit.netlist import Netlist
from repro.circuit.structure import NetlistStructure, counts_to_ptr, expand_rows
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
    GateType.CONST0: "XOR",  # of a primary input with itself
    GateType.CONST1: "XNOR",
}
#: what follows a gate's name on its line, by type code
_LINE_HEADS = np.array(
    [f" = {_TYPE_TO_BENCH.get(t, '')}(" for t in GateType], dtype=object
)
#: what follows a pin: another pin, or (at index 1) the end of the line
_PIN_ENDS = np.array([", ", ")\n"], dtype=object)

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
    name table), which the netlist keeps as its columns.
    """

    def fail(message: str, gate: int | None = None):
        if gate is not None:
            line = next(islice(compress(count(1), gate_lines), gate, None))
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
        *columns, gate_lines = _tokenise(text)
        return _build(name, *_number(*columns, fail))
    finally:
        if was_enabled:
            gc.enable()


def _tokenise(text: str):
    """Text -> the arguments of :func:`_number`, and a gate-line mask.

    The mask has one entry per line (true on gate lines) and is what turns
    a gate's index back into a line number.  Raises on the first malformed
    line or redefined signal.

    A text whose every line has a shape :func:`write_bench` emits is cut
    as whole columns (:func:`_canonical_columns`); any other text is read
    by ``_LINE_RE``, one match per line (:func:`_regex_columns`).
    """
    if any(map(text.__contains__, _OTHER_LINE_BREAKS)):
        text = "\n".join(text.splitlines())
    rows = None
    columns = _canonical_columns(text.split("\n"))
    if columns is None:
        rows = _LINE_RE.findall(text)
        columns = _regex_columns(rows)
    is_gate, inputs, outputs, signals, codes, tails = columns

    inputs = list(map(str.strip, inputs))
    outputs = list(map(str.strip, outputs))
    # One split for the whole file.  Writers put ", " between pins: with
    # the blank gone first, most pins need no strip().
    tail_text = "\n".join(tails)
    pin_text = tail_text.replace(")\n", ",")[:-1].replace(", ", ",")
    pins = pin_text.split(",")
    if " " in pin_text or not pin_text.isprintable():  # maybe whitespace to strip
        pins = list(map(str.strip, pins))
    # A tail's one ")" ends it: a gate's arity is 1 + the commas before it.
    chars = np.frombuffer(tail_text.encode("utf-8", "surrogatepass"), np.uint8)
    commas = np.flatnonzero(chars == ord(",")).searchsorted(np.flatnonzero(chars == ord(")")))
    arity = commas + 1
    arity[1:] -= commas[:-1]
    if "" in pins:  # empty pins are dropped: ``AND(a,,b)`` has two, ``DFF()`` none
        pin_lists = [[p for p in map(str.strip, tail[:-1].split(",")) if p] for tail in tails]
        pins = list(chain.from_iterable(pin_lists))
        arity = list(map(len, pin_lists))

    names = inputs + signals
    declared = dict(zip(names, range(len(names))))
    junk = rows is not None and any(row[5] for row in rows)
    if junk or None in codes or len(declared) != len(names):
        _raise_line_error(rows or _LINE_RE.findall(text), inputs)
    return declared, len(inputs), outputs, codes, arity, pins, is_gate


_IO_HEADS = ("INPUT(", "OUTPUT(")
#: characters that a canonical gate line's signal does not hold
_NAME_BREAKS = " =#()"


def _canonical_columns(lines: list[str]):
    """Cut ``lines`` into columns, or return ``None`` if one is not canonical.

    Canonical lines are the shapes :func:`write_bench` emits:
    ``name = KIND(pins)`` with one blank either side of ``=``, a printable
    name free of ``_NAME_BREAKS`` and ``KIND`` in capitals; ``INPUT(x)`` or
    ``OUTPUT(x)`` with ``x`` not empty; a blank or a comment line.  No
    ``#`` after the start, one ``(`` and one ``)`` on a gate line and one
    ``)`` on an I/O line, each ``)`` ending its line.  On such lines the
    columns equal the groups ``_LINE_RE`` reads.

    Returns the gate-line mask, the INPUT and OUTPUT signals (unstripped),
    and per gate line its signal, its type code and its pin text followed
    by ``)``.  Each check runs once on a whole column: a separator counted
    as often as there are lines, where every line holds at least one, is
    held exactly once by each.
    """
    is_gate = list(map(contains, lines, repeat(" = ")))
    other = list(compress(lines, map(not_, is_gate)))
    is_io = list(map(str.startswith, other, repeat(_IO_HEADS)))
    if not all(not line or line[0] == "#" for line in compress(other, map(not_, is_io))):
        return None
    io = list(compress(other, is_io))
    io_text = "\n".join(io) + "\n"
    if not (io_text.count(")") == io_text.count(")\n") == len(io)) or "()\n" in io_text or "#" in io_text:
        return None
    is_input = list(map(str.startswith, io, repeat("I")))
    inputs = [line[6:-1] for line in compress(io, is_input)]
    outputs = [line[7:-1] for line in compress(io, map(not_, is_input))]

    n = is_gate.count(True)
    if not n:
        return is_gate, inputs, outputs, [], [], []
    gate_text = "\n".join(compress(lines, is_gate)) + "\n"
    # Each gate line holds " = ", so n of them in all is one per line; and
    # n of ")" followed by "\n" is one ")" per line, at its end.
    if not (gate_text.count(" = ") == gate_text.count("(") == n) or "#" in gate_text:
        return None
    if not (gate_text.count(")") == gate_text.count(")\n") == n):
        return None
    halves = gate_text[:-1].replace(" = ", "\n").split("\n")
    signals = halves[0::2]
    signal_text = "".join(signals)
    if not all(signals) or not signal_text.isprintable():
        return None
    if any(map(signal_text.__contains__, _NAME_BREAKS)):
        return None
    # So every "(" is right of its line's " = ".  Two pieces a rest, if each
    # has one "(": the first rest with k != 1 of them ends in a piece that
    # holds ")" and, unless k is odd, lands on a gate name, which cannot;
    # odd k alone, with n "(" over n rests, is k = 1 on every line.
    pieces = "\n".join(halves[1::2]).replace("(", "\n").split("\n")
    codes = list(map(_GATE_CODES.get, pieces[0::2]))
    if None in codes:
        return None
    return is_gate, inputs, outputs, signals, codes, pieces[1::2]


def _regex_columns(rows: list[tuple[str, ...]]):
    """:func:`_canonical_columns` from ``_LINE_RE`` matches, one per line."""
    keywords, io_signals, signals, gate_names, pin_texts, _ = zip(*rows)
    io_signals = list(compress(io_signals, keywords))
    is_input = list(map("INPUT".__eq__, map(str.upper, filter(None, keywords))))
    inputs = list(compress(io_signals, is_input))
    outputs = list(compress(io_signals, map(not_, is_input)))
    signals = list(compress(signals, gate_names))
    codes = list(map(_GATE_CODES.get, map(str.upper, filter(None, gate_names))))
    tails = list(map("{})".format, compress(pin_texts, gate_names)))
    return gate_names, inputs, outputs, signals, codes, tails


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
    drivers = np.fromiter(map(declared.get, pins, repeat(-1)), np.int64, len(pins))
    marks = np.fromiter(map(declared.get, outputs, repeat(-1)), np.int64, len(outputs))

    types, pin_counts = np.zeros((2, n), dtype=np.int64)  # inputs: code 0, no pins
    types[n_inputs:] = codes
    pin_counts[n_inputs:] = arity
    pin_ptr = counts_to_ptr(pin_counts)
    arity_ok = Netlist._arity_ok(types, pin_counts)
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
    """Read a ``.bench`` file from ``path`` (UTF-8, a leading byte-order mark dropped)."""
    path = Path(path)
    return parse_bench(path.read_text(encoding="utf-8-sig"), name=path.stem)


def write_bench(netlist: Netlist, stream: io.TextIOBase) -> None:
    """Write ``netlist`` to ``stream`` in ``.bench`` syntax.

    ``OBS`` cells are emitted as buffers that are also declared ``OUTPUT``,
    which is the standard way observation points materialise in a scan
    netlist export.  The lines are built as columns over
    ``netlist.structure()`` and written at once.
    """
    structure = netlist.structure()
    types, ptr = structure.types, structure.fanin_ptr
    labels = _cell_names(netlist._given_names())
    inputs = np.flatnonzero(types == GateType.INPUT)
    gates = np.flatnonzero(types != GateType.INPUT)
    # ``.bench`` has no tie cells; constants become XOR/XNOR of any input
    # with itself, the standard encoding.
    ties = (types[gates] == GateType.CONST0) | (types[gates] == GateType.CONST1)
    pin_counts = np.diff(ptr)[gates]
    pin_counts[ties] = 2
    pin_ptr = counts_to_ptr(pin_counts)
    drivers = np.empty(pin_ptr[-1], dtype=np.int64)
    tie_pins = np.repeat(ties, pin_counts)
    drivers[~tie_pins] = structure.fanin_idx[expand_rows(ptr, gates[~ties])[0]]
    if ties.any():
        if not len(inputs):
            raise ValueError("cannot export constants to .bench without a primary input")
        drivers[tie_pins] = inputs[0]

    # Gate lines, flat: each gate's ``name = KIND(``, then its pins, each
    # followed by ", " or, the last, by ")\n".
    heads = labels[gates] + _LINE_HEADS[types[gates]]
    heads[pin_counts == 0] += ")\n"
    row_ends = np.zeros(len(drivers), dtype=np.intp)
    row_ends[pin_ptr[1:][pin_counts > 0] - 1] = 1
    pins = labels[drivers] + _PIN_ENDS[row_ends]
    tokens = np.empty(len(gates) + len(pins), dtype=object)
    is_head = np.zeros(len(tokens), dtype=bool)
    is_head[pin_ptr[:-1] + np.arange(len(gates))] = True
    tokens[is_head] = heads
    tokens[~is_head] = pins

    observed = netlist.primary_outputs + np.flatnonzero(types == GateType.OBS).tolist()
    stream.write(
        "".join(
            chain(
                [f"# {netlist.name}: {netlist.num_nodes} cells\n"],
                map("INPUT({})\n".format, labels[inputs].tolist()),
                map("OUTPUT({})\n".format, labels[observed].tolist()),
                tokens.tolist(),
            )
        )
    )


def _cell_names(given: list[str | None]) -> np.ndarray:
    """``Netlist.cell_name`` of every node, as an object array."""
    return np.array(
        [f"n{v}" if name is None else name for v, name in enumerate(given)], dtype=object
    )


def dump_bench(netlist: Netlist, path: str | Path) -> None:
    """Write ``netlist`` to a ``.bench`` file at ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        write_bench(netlist, fh)
