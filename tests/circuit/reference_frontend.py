"""Node-by-node reference implementations of the array front end.

These are the loops the array pipeline replaced, kept as oracles:
``parse_bench`` as it was (recursive builder, one ``add_cell`` per gate),
Kahn's algorithm on a deque, levels as ``1 + max(fanin levels)``, and the
double loop over pins.  The node-by-node SCOAP sweep still lives in
``repro.testability.scoap`` (it serves small designs), so it needs no copy.
"""

from __future__ import annotations

import re
from collections import deque

import numpy as np

from repro.circuit.bench import _GATE_NAMES, BenchParseError
from repro.circuit.cells import GateType, is_source
from repro.circuit.levelize import CombinationalLoopError
from repro.circuit.netlist import Netlist

_ASSIGN_RE = re.compile(r"^(?P<lhs>[^=\s]+)\s*=\s*(?P<gate>\w+)\s*\((?P<args>[^)]*)\)$")
_IO_RE = re.compile(r"^(?P<kind>INPUT|OUTPUT)\s*\((?P<name>[^)]+)\)$", re.IGNORECASE)


def parse_bench(text: str, name: str = "bench") -> Netlist:
    """The parser before the array front end, its known bugs included.

    ``q = DFF()`` raises ``IndexError``, a second ``DFF`` pin is dropped, an
    assignment to a declared ``INPUT`` is discarded, a deep reversed chain
    raises ``RecursionError``, and a flop's data cone is walked the moment
    the flop is met: a sequential loop entered through one of its gates
    (ISCAS-89 s27) is reported as combinational, and where the cone is
    listed after other gates its nodes are numbered before theirs.
    """
    inputs: list[str] = []
    outputs: list[str] = []
    gates: dict[str, tuple[GateType, list[str], int]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        io_match = _IO_RE.match(line)
        if io_match:
            target = inputs if io_match["kind"].upper() == "INPUT" else outputs
            target.append(io_match["name"].strip())
            continue
        assign = _ASSIGN_RE.match(line)
        if not assign:
            raise BenchParseError(f"line {lineno}: cannot parse {line!r}")
        gate_name = assign["gate"].upper()
        if gate_name not in _GATE_NAMES:
            raise BenchParseError(f"line {lineno}: unknown gate {gate_name!r}")
        args = [a.strip() for a in assign["args"].split(",") if a.strip()]
        signal = assign["lhs"].strip()
        if signal in gates:
            raise BenchParseError(f"line {lineno}: signal {signal!r} redefined")
        gates[signal] = (_GATE_NAMES[gate_name], args, lineno)

    netlist = Netlist(name)
    ids: dict[str, int] = {}
    for sig in inputs:
        if sig in ids:
            raise BenchParseError(f"input {sig!r} declared twice")
        ids[sig] = netlist.add_input(sig)

    building: set[str] = set()

    def build(signal: str) -> int:
        if signal in ids:
            return ids[signal]
        if signal not in gates:
            raise BenchParseError(f"signal {signal!r} used but never defined")
        if signal in building:
            raise BenchParseError(f"combinational loop through {signal!r}")
        building.add(signal)
        gate_type, args, lineno = gates[signal]
        if gate_type is GateType.DFF:
            node = netlist.add_cell(GateType.INPUT, (), signal)
            netlist._types[node] = GateType.DFF
            ids[signal] = node
            data = build(args[0])
            netlist._fanins[node] = [data]
            netlist._fanouts[data].append(node)
        else:
            fanin_ids = [build(a) for a in args]
            try:
                ids[signal] = netlist.add_cell(gate_type, fanin_ids, signal)
            except ValueError as exc:
                raise BenchParseError(f"line {lineno}: {exc}") from exc
        building.discard(signal)
        return ids[signal]

    for sig in gates:
        build(sig)
    for sig in outputs:
        if sig not in ids:
            raise BenchParseError(f"output {sig!r} is never driven")
        netlist.mark_output(ids[sig])
    return netlist


def topological_order(netlist: Netlist) -> list[int]:
    n = netlist.num_nodes
    indegree = [
        0 if is_source(netlist.gate_type(v)) else len(netlist.fanins(v))
        for v in netlist.nodes()
    ]
    queue = deque(v for v in netlist.nodes() if indegree[v] == 0)
    order: list[int] = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in netlist.fanouts(v):
            if is_source(netlist.gate_type(w)):
                continue
            indegree[w] -= 1
            if indegree[w] == 0:
                queue.append(w)
    if len(order) != n:
        stuck = [v for v in netlist.nodes() if indegree[v] > 0]
        raise CombinationalLoopError(
            f"combinational loop involving {len(stuck)} nodes "
            f"(e.g. node {stuck[0]})"
        )
    return order


def logic_levels(netlist: Netlist) -> np.ndarray:
    levels = np.zeros(netlist.num_nodes, dtype=np.int64)
    for v in topological_order(netlist):
        if not is_source(netlist.gate_type(v)):
            levels[v] = 1 + max(levels[u] for u in netlist.fanins(v))
    return levels


def edge_arrays(netlist: Netlist) -> tuple[np.ndarray, np.ndarray]:
    drivers, sinks = [], []
    for sink in netlist.nodes():
        for driver in netlist.fanins(sink):
            drivers.append(driver)
            sinks.append(sink)
    return np.array(drivers, dtype=np.int64), np.array(sinks, dtype=np.int64)


# --------------------------------------------------------------------- #
# Parser equivalence
# --------------------------------------------------------------------- #
def same_netlist(a: Netlist, b: Netlist) -> bool:
    return (
        a._types == b._types
        and a._fanins == b._fanins
        and a._fanouts == b._fanouts
        and a._names == b._names
        and a._po_marks == b._po_marks
        and a._name_to_id == b._name_to_id
    )


def same_by_name(a: Netlist, b: Netlist) -> bool:
    """Equal up to node numbering and the order within fan-out lists."""

    def view(netlist: Netlist):
        name = netlist.cell_name
        return {
            name(v): (
                netlist.gate_type(v),
                [name(u) for u in netlist.fanins(v)],
                sorted(name(w) for w in netlist.fanouts(v)),
                netlist.is_output(v),
            )
            for v in netlist.nodes()
        }

    return a.num_nodes == b.num_nodes and view(a) == view(b)


#: messages of the two checks the reference lacks (a ``DFF`` with no or two
#: pins, an assignment to a declared ``INPUT``)
_STRICTER = re.compile(r"DFF takes 1 fanin|redefined")
_HAS_FLOP = re.compile(r"=\s*DFF\b", re.IGNORECASE)


def checked_parse_bench(text: str, name: str = "bench") -> Netlist:
    """``repro.circuit.bench.parse_bench``, cross-checked against the reference.

    Returns or raises exactly what the real parser does, after asserting
    that the reference agrees: the same netlist lists, or the same error
    type and message.  Where the reference has a known bug (see its
    docstring) the real parser must raise a typed error or succeed.  With a
    ``DFF`` in the text the two walk in different orders: netlists are then
    equal by name, either may meet a different error first, and a loop only
    the reference sees must run through a flop.
    """
    from repro.circuit.bench import parse_bench as real_parse_bench

    try:
        result = real_parse_bench(text, name)
    except BenchParseError as exc:
        result = exc
    try:
        expected = parse_bench(text, name)
    except BenchParseError as exc:
        expected = exc
    except (IndexError, RecursionError):
        expected = None
    has_flop = bool(_HAS_FLOP.search(text))
    if isinstance(result, BenchParseError):
        same = type(expected) is type(result) and (has_flop or str(expected) == str(result))
        assert same or expected is None or _STRICTER.search(str(result)), (
            f"parser raised {result!r}, reference gave {expected!r}"
        )
        raise result
    if has_flop and isinstance(expected, BenchParseError):
        assert "combinational loop" in str(expected), f"reference raised {expected!r}"
        topological_order(result)  # raises if the loop was combinational after all
    elif expected is not None:
        assert isinstance(expected, Netlist), f"reference raised {expected!r}"
        assert same_netlist(result, expected) or (has_flop and same_by_name(result, expected))
    return result


# --------------------------------------------------------------------- #
# Designs for the equivalence suites
# --------------------------------------------------------------------- #
_GATES = (
    GateType.BUF, GateType.NOT, GateType.AND, GateType.NAND,
    GateType.OR, GateType.NOR, GateType.XOR, GateType.XNOR,
)


def random_netlist(seed: int, n_gates: int) -> Netlist:
    """A random design exercising what ``generate_design`` never emits.

    Pins repeat on one gate, tie cells feed logic, flops close feedback
    loops (rewired with ``replace_fanin``, so fan-out lists are not in sink
    order), OBS cells hang off internal nets, and some gates dangle.
    """
    rng = np.random.default_rng(seed)
    netlist = Netlist(f"random{seed}")
    for _ in range(int(rng.integers(1, 5))):
        netlist.add_input()
    if rng.random() < 0.5:
        netlist.add_cell(GateType.CONST0)
        netlist.add_cell(GateType.CONST1)
    flops = [
        netlist.add_cell(GateType.DFF, (int(rng.integers(netlist.num_nodes)),))
        for _ in range(int(rng.integers(0, 4)))
    ]
    for _ in range(n_gates):
        gate = _GATES[int(rng.integers(len(_GATES)))]
        arity = 1 if gate in (GateType.BUF, GateType.NOT) else int(rng.integers(2, 6))
        recent = max(0, netlist.num_nodes - 12)  # keeps designs deep, not flat
        pins = rng.integers(recent if rng.random() < 0.7 else 0, netlist.num_nodes, size=arity)
        netlist.add_cell(gate, pins.tolist())
    for flop in flops:
        (old,) = netlist.fanins(flop)
        netlist.replace_fanin(flop, old, int(rng.integers(netlist.num_nodes)))
    for _ in range(int(rng.integers(0, 3))):
        target = int(rng.integers(netlist.num_nodes))
        if netlist.gate_type(target) is not GateType.OBS:
            netlist.insert_observation_point(target)
    for node in rng.integers(netlist.num_nodes, size=int(rng.integers(1, 4))).tolist():
        netlist.mark_output(node)
    return netlist


def hand_built_designs() -> dict[str, Netlist]:
    """Small designs, one per corner the sweeps must get right."""
    designs: dict[str, Netlist] = {}

    nl = designs["duplicate_pins"] = Netlist("duplicate_pins")
    a, b = nl.add_input("a"), nl.add_input("b")
    g = nl.add_cell(GateType.AND, (a, a, b))
    h = nl.add_cell(GateType.XOR, (g, g, b))
    k = nl.add_cell(GateType.NOR, (h, h, h))
    nl.mark_output(k)

    nl = designs["flop_loop"] = Netlist("flop_loop")
    a = nl.add_input("a")
    d = nl.add_cell(GateType.DFF, (a,))
    g = nl.add_cell(GateType.NAND, (a, d))
    h = nl.add_cell(GateType.NOT, (g,))
    nl.replace_fanin(d, a, h)  # h -> d -> g -> h, through the flop
    self_loop = nl.add_cell(GateType.DFF, (a,))
    nl.replace_fanin(self_loop, a, self_loop)
    nl.mark_output(g)

    nl = designs["observation_cells"] = Netlist("observation_cells")
    a, b = nl.add_input("a"), nl.add_input("b")
    g = nl.add_cell(GateType.AND, (a, b))
    h = nl.add_cell(GateType.OR, (g, b))
    deep = nl.add_cell(GateType.XNOR, (h, a))
    nl.mark_output(deep)
    nl.insert_observation_point(g)
    nl.insert_observation_point(h)
    nl.insert_observation_point(h)  # two cells on one net

    nl = designs["tie_cells"] = Netlist("tie_cells")
    a = nl.add_input("a")
    zero, one = nl.add_cell(GateType.CONST0), nl.add_cell(GateType.CONST1)
    g = nl.add_cell(GateType.AND, (a, one))
    h = nl.add_cell(GateType.OR, (g, zero))
    x = nl.add_cell(GateType.XOR, (zero, one, a))
    nl.mark_output(h)
    nl.mark_output(x)

    nl = designs["wide_parity"] = Netlist("wide_parity")
    pis = [nl.add_input() for _ in range(3)]
    cheap0 = nl.add_cell(GateType.AND, pis)  # CC0 2, CC1 4
    cheap1 = nl.add_cell(GateType.OR, pis)  # CC0 4, CC1 2
    x3 = nl.add_cell(GateType.XOR, (cheap0, cheap1, pis[0]))
    x4 = nl.add_cell(GateType.XNOR, (cheap0, cheap0, cheap1, x3))
    x5 = nl.add_cell(GateType.XOR, (cheap1, cheap1, cheap1, x4, cheap0))
    nl.mark_output(x5)

    nl = designs["dangling"] = Netlist("dangling")
    a, b = nl.add_input("a"), nl.add_input("b")
    nl.add_input("unused")
    g = nl.add_cell(GateType.AND, (a, b))
    nl.add_cell(GateType.NOT, (g,))  # drives nothing, observed nowhere
    nl.mark_output(g)

    nl = designs["saturation"] = Netlist("saturation")
    a = nl.add_input("a")
    zero, one = nl.add_cell(GateType.CONST0), nl.add_cell(GateType.CONST1)
    stuck = nl.add_cell(GateType.AND, (zero, zero, a))  # CC1 = 2 INF + 2, clamped
    also = nl.add_cell(GateType.NOR, (one, one))  # CC1 = INF + 1 twice over
    top = nl.add_cell(GateType.XOR, (stuck, also))
    side = nl.add_cell(GateType.AND, (top, stuck, a))  # side input cost INF: CO clamps
    nl.mark_output(side)
    return designs
