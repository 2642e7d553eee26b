"""Netlist cleanup transforms: constant propagation and dead-logic sweep.

Synthesis netlists are clean, but generated/edited ones (and aggressive
test-point experiments) can leave constant nets and unobservable logic
behind.  These passes bring a netlist back to the canonical form analyses
expect:

* :func:`propagate_constants` — evaluates gates whose inputs are tie
  cells, rewiring fanouts to ``CONST0``/``CONST1`` until a fixpoint;
* :func:`sweep_dead_logic` — drops every cell that cannot reach an
  observation site (such logic has no testability meaning at all);
* :func:`simplify` — both, returning a fresh compact netlist plus the
  old→new node map.

Transforms never mutate their input; they build a new netlist, because
node ids are load-bearing everywhere else in the library.
"""

from __future__ import annotations

from repro.circuit.cells import GateType, controlling_value
from repro.circuit.levelize import topological_order
from repro.circuit.netlist import Netlist

__all__ = ["propagate_constants", "sweep_dead_logic", "simplify"]

_UNKNOWN = -1


def _constant_values(netlist: Netlist) -> dict[int, int]:
    """Forward constant analysis: node -> 0/1 for provably constant nets."""
    value: dict[int, int] = {}
    for v in topological_order(netlist):
        t = netlist.gate_type(v)
        if t is GateType.CONST0:
            value[v] = 0
            continue
        if t is GateType.CONST1:
            value[v] = 1
            continue
        if t in (GateType.INPUT, GateType.DFF):
            continue
        fanins = netlist.fanins(v)
        known = [value.get(u, _UNKNOWN) for u in fanins]
        if t in (GateType.BUF, GateType.OBS):
            if known[0] != _UNKNOWN:
                value[v] = known[0]
            continue
        if t is GateType.NOT:
            if known[0] != _UNKNOWN:
                value[v] = 1 - known[0]
            continue
        control = controlling_value(t)
        if control is not None:
            inverted = t in (GateType.NAND, GateType.NOR)
            if control in known:
                value[v] = (1 - control) if inverted else control
            elif all(k != _UNKNOWN for k in known):
                out = 1 - control
                value[v] = (1 - out) if inverted else out
            continue
        if t in (GateType.XOR, GateType.XNOR):
            if all(k != _UNKNOWN for k in known):
                parity = sum(known) % 2
                value[v] = 1 - parity if t is GateType.XNOR else parity
    return value


def _reachable_to_observation(netlist: Netlist) -> set[int]:
    """Nodes with a (combinational) path to an observation site."""
    live: set[int] = set(netlist.observation_sites)
    live.update(netlist.observation_points())
    # DFF and OBS cells themselves keep their fanin cones alive.
    for v in netlist.nodes():
        if netlist.gate_type(v) in (GateType.DFF, GateType.OBS):
            live.add(v)
    stack = list(live)
    while stack:
        v = stack.pop()
        for u in netlist.fanins(v):
            if u not in live:
                live.add(u)
                stack.append(u)
    return live


def propagate_constants(netlist: Netlist) -> tuple[Netlist, dict[int, int]]:
    """Rebuild ``netlist`` with provably constant gates replaced by ties.

    Returns ``(new_netlist, node_map)`` where ``node_map[old] = new``.
    Primary inputs and flops always survive (their values are external).
    """
    constants = _constant_values(netlist)
    out = Netlist(netlist.name)
    node_map: dict[int, int] = {}
    tie_cache: dict[int, int] = {}

    def tie(bit: int) -> int:
        if bit not in tie_cache:
            tie_cache[bit] = out.add_cell(
                GateType.CONST1 if bit else GateType.CONST0, ()
            )
        return tie_cache[bit]

    for v in topological_order(netlist):
        t = netlist.gate_type(v)
        name = netlist.given_name(v)
        if t is GateType.INPUT:
            node_map[v] = out.add_input(name)
            continue
        if t is GateType.DFF:
            node_map[v] = out.add_flop(name)
            continue
        if v in constants and t not in (GateType.CONST0, GateType.CONST1):
            node_map[v] = tie(constants[v])
            continue
        if t is GateType.CONST0:
            node_map[v] = tie(0)
            continue
        if t is GateType.CONST1:
            node_map[v] = tie(1)
            continue
        fanins = [node_map[u] for u in netlist.fanins(v)]
        node_map[v] = out.add_cell(t, fanins, name)

    _wire_flops(netlist, out, node_map)
    for po in netlist.primary_outputs:
        out.mark_output(node_map[po])
    return out, node_map


def _wire_flops(netlist: Netlist, out: Netlist, node_map: dict[int, int]) -> None:
    """Connect the data pins of ``out``'s flops now every driver exists."""
    for v in netlist.nodes():
        if netlist.gate_type(v) is GateType.DFF and v in node_map:
            new = node_map[v]
            out.replace_fanin(new, new, node_map[netlist.fanins(v)[0]])


def sweep_dead_logic(netlist: Netlist) -> tuple[Netlist, dict[int, int]]:
    """Rebuild ``netlist`` without cells that reach no observation site."""
    live = _reachable_to_observation(netlist)
    out = Netlist(netlist.name)
    node_map: dict[int, int] = {}
    for v in topological_order(netlist):
        t = netlist.gate_type(v)
        if t is GateType.INPUT:
            node_map[v] = out.add_input(netlist.given_name(v))
            continue
        if v not in live:
            continue
        if t is GateType.DFF:
            node_map[v] = out.add_flop(netlist.given_name(v))
            continue
        fanins = [node_map[u] for u in netlist.fanins(v)]
        node_map[v] = out.add_cell(t, fanins, netlist.given_name(v))
    _wire_flops(netlist, out, node_map)
    for po in netlist.primary_outputs:
        if po in node_map:
            out.mark_output(node_map[po])
    return out, node_map


def simplify(netlist: Netlist) -> tuple[Netlist, dict[int, int]]:
    """Constant propagation followed by dead-logic sweep."""
    folded, map1 = propagate_constants(netlist)
    swept, map2 = sweep_dead_logic(folded)
    combined = {
        old: map2[new] for old, new in map1.items() if new in map2
    }
    return swept, combined
