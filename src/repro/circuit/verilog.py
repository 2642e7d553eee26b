"""Structural (gate-level) Verilog reader and writer.

Supports the netlist subset that synthesis tools emit and test tooling
consumes: one module of scalar nets, primitive gate instantiations
(``and``/``or``/``nand``/``nor``/``xor``/``xnor``/``not``/``buf`` with the
output as the first terminal), ``dff`` instances (``dff name (q, d);``),
simple alias assigns (``assign a = b;``), and ``1'b0``/``1'b1`` constants.
Vectors, behavioural blocks and hierarchies are out of scope — flatten
first.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.circuit.bench import _build, _number
from repro.circuit.cells import GateType
from repro.circuit.netlist import Netlist
from repro.resilience.errors import NetlistFormatError

__all__ = ["parse_verilog", "load_verilog", "write_verilog", "dump_verilog",
           "VerilogParseError"]


class VerilogParseError(NetlistFormatError):
    """Raised on unsupported or malformed Verilog input.

    Subclasses :class:`NetlistFormatError` (and transitively
    ``ValueError``), so format-agnostic callers catch one type.
    """


_PRIMITIVES = {
    "and": GateType.AND,
    "nand": GateType.NAND,
    "or": GateType.OR,
    "nor": GateType.NOR,
    "xor": GateType.XOR,
    "xnor": GateType.XNOR,
    "not": GateType.NOT,
    "buf": GateType.BUF,
    "dff": GateType.DFF,
}

_TYPE_TO_PRIMITIVE = {v: k for k, v in _PRIMITIVES.items()}
_TYPE_TO_PRIMITIVE[GateType.OBS] = "buf"
_CONSTANTS = {
    **dict.fromkeys(("1'b0", "1'h0"), int(GateType.CONST0)),
    **dict.fromkeys(("1'b1", "1'h1"), int(GateType.CONST1)),
}

_MODULE_RE = re.compile(
    r"module\s+(?P<name>\w+)\s*(?:\((?P<ports>[^)]*)\))?\s*;", re.DOTALL
)
_STATEMENT_RE = re.compile(r"(?P<stmt>[^;]+);")
_INSTANCE_RE = re.compile(
    r"^(?P<prim>\w+)\s+(?:(?P<inst>[\w$]+)\s+)?\((?P<terms>[^)]*)\)$",
    re.DOTALL,
)


def _strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.DOTALL)
    text = re.sub(r"//[^\n]*", " ", text)
    return text


def parse_verilog(text: str, name: str | None = None) -> Netlist:
    """Parse structural Verilog into a :class:`Netlist`.

    Nodes are numbered by the rule of :func:`repro.circuit.bench.parse_bench`,
    with instances and assigns in statement order as the gates.
    """
    text = _strip_comments(text)
    module = _MODULE_RE.search(text)
    if not module:
        raise VerilogParseError("no module declaration found")
    body_start = module.end()
    end = text.find("endmodule", body_start)
    if end < 0:
        raise VerilogParseError("missing endmodule")
    body = text[body_start:end]

    inputs: list[str] = []
    outputs: list[str] = []
    #: one entry per driven net, in statement order: net, type code, terminals
    gates: list[tuple[str, int, list[str]]] = []

    for match in _STATEMENT_RE.finditer(body):
        stmt = " ".join(match.group("stmt").split())
        if not stmt:
            continue
        keyword = stmt.split(None, 1)[0]
        if keyword in ("input", "output", "wire"):
            _, _, rest = stmt.partition(" ")
            nets = [n.strip() for n in rest.split(",") if n.strip()]
            for net in nets:
                if not re.fullmatch(r"[\w$\\]+", net):
                    raise VerilogParseError(
                        f"unsupported net declaration {net!r} "
                        "(vectors are not supported)"
                    )
            if keyword == "input":
                inputs.extend(nets)
            elif keyword == "output":
                outputs.extend(nets)
            continue
        if keyword == "assign":
            rhs_match = re.fullmatch(r"assign\s+([\w$\\]+)\s*=\s*([\w$\\']+)", stmt)
            if not rhs_match:
                raise VerilogParseError(
                    f"only alias assigns are supported: {stmt!r}"
                )
            gates.append((rhs_match.group(1), int(GateType.BUF), [rhs_match.group(2)]))
            continue
        instance = _INSTANCE_RE.match(stmt)
        if not instance or instance.group("prim") not in _PRIMITIVES:
            raise VerilogParseError(f"unsupported statement {stmt!r}")
        terms = [t.strip() for t in instance.group("terms").split(",")]
        if len(terms) < 2:
            raise VerilogParseError(f"instance needs >=2 terminals: {stmt!r}")
        gates.append((terms[0], int(_PRIMITIVES[instance.group("prim")]), terms[1:]))

    declared: dict = {}
    for net in inputs:
        if net in declared:
            raise VerilogParseError(f"input {net!r} declared twice")
        declared[net] = len(declared)
    for net, _, _ in gates:
        if net in declared:
            raise VerilogParseError(f"net {net!r} has multiple drivers")
        declared[net] = len(declared)
    # Every use of a constant is a tie cell of its own: an unnamed gate
    # declared after the rest under a key no net can have.
    pins = [pin for _, _, terms in gates for pin in terms]
    ties = [(index, _CONSTANTS[pin]) for index, pin in enumerate(pins) if pin in _CONSTANTS]
    for index, code in ties:
        pins[index] = (index, code)
        declared[pins[index]] = len(declared)

    def fail(message: str, gate: int | None = None):
        if gate is not None:
            message = f"net {gates[gate][0]!r}: {message}"
        raise VerilogParseError(message)

    codes = [code for _, code, _ in gates] + [code for _, code in ties]
    arity = [len(terms) for _, _, terms in gates] + [0] * len(ties)
    names, *arrays = _number(declared, len(inputs), outputs, codes, arity, pins, fail)
    names[len(names) - len(ties):] = [None] * len(ties)
    return _build(name or module.group("name"), names, *arrays)


def load_verilog(path: str | Path) -> Netlist:
    """Read a structural Verilog file."""
    path = Path(path)
    return parse_verilog(path.read_text(), name=path.stem)


def write_verilog(netlist: Netlist, stream) -> None:
    """Emit ``netlist`` as one structural Verilog module.

    ``OBS`` cells become buffers driving dedicated output ports, the same
    convention as the ``.bench`` exporter.
    """
    def net(v: int) -> str:
        return netlist.cell_name(v)

    pis = [net(v) for v in netlist.primary_inputs]
    pos = [net(v) for v in netlist.primary_outputs]
    pos += [net(v) for v in netlist.observation_points()]
    ports = pis + pos
    stream.write(f"module {netlist.name} ({', '.join(ports)});\n")
    if pis:
        stream.write(f"  input {', '.join(pis)};\n")
    if pos:
        stream.write(f"  output {', '.join(pos)};\n")
    wires = [
        net(v)
        for v in netlist.nodes()
        if netlist.gate_type(v) is not GateType.INPUT
        and net(v) not in set(pos)
    ]
    if wires:
        stream.write(f"  wire {', '.join(wires)};\n")
    for v in netlist.nodes():
        gate_type = netlist.gate_type(v)
        if gate_type is GateType.INPUT:
            continue
        if gate_type is GateType.CONST0:
            stream.write(f"  assign {net(v)} = 1'b0;\n")
            continue
        if gate_type is GateType.CONST1:
            stream.write(f"  assign {net(v)} = 1'b1;\n")
            continue
        primitive = _TYPE_TO_PRIMITIVE[gate_type]
        terms = ", ".join([net(v)] + [net(u) for u in netlist.fanins(v)])
        stream.write(f"  {primitive} g{v} ({terms});\n")
    stream.write("endmodule\n")


def dump_verilog(netlist: Netlist, path: str | Path) -> None:
    """Write ``netlist`` to a Verilog file at ``path``."""
    with open(path, "w") as fh:
        write_verilog(netlist, fh)
