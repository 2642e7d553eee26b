"""The serial fault-simulation oracle: one Python gate evaluation per cone node.

Every fault (or flipped stem) is injected on its own and only its forward
cone is resimulated, gate by gate, over a sparse overlay of the good
values.  This is the executable specification the fault-axis engine in
:mod:`repro.atpg.ppsfp` — in process or pooled — must match bit for bit.
The cones come from its own depth-first walk (:func:`forward_cone`), not
from the engine's frontier sweep.  Each walk also returns how many cone nodes it evaluated: the interpreter
work the engine's vectorised group evaluations replace.
"""

from __future__ import annotations

import numpy as np

from repro.atpg.fault_sim import FaultSimResult
from repro.atpg.faults import Fault
from repro.atpg.simulator import LogicSimulator, tail_mask
from repro.circuit import GateType
from repro.circuit.cells import controlling_value

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


class _ConeValues:
    """Sparse overlay of faulty values on top of the good-value matrix."""

    __slots__ = ("base", "over")

    def __init__(self, base: np.ndarray) -> None:
        self.base = base
        self.over: dict[int, np.ndarray] = {}

    def get(self, node: int) -> np.ndarray:
        hit = self.over.get(node)
        return hit if hit is not None else self.base[node]

    def set(self, node: int, words: np.ndarray) -> None:
        self.over[node] = words


def _eval_with_overrides(sim: LogicSimulator, node: int, vals: _ConeValues) -> np.ndarray:
    gate_type = sim.netlist.gate_type(node)
    fanins = sim.netlist.fanins(node)
    if gate_type in (GateType.BUF, GateType.OBS, GateType.DFF):
        return vals.get(fanins[0]).copy()
    if gate_type is GateType.NOT:
        return ~vals.get(fanins[0])
    if gate_type in (GateType.AND, GateType.NAND):
        out = vals.get(fanins[0]).copy()
        for u in fanins[1:]:
            out &= vals.get(u)
        return ~out if gate_type is GateType.NAND else out
    if gate_type in (GateType.OR, GateType.NOR):
        out = vals.get(fanins[0]).copy()
        for u in fanins[1:]:
            out |= vals.get(u)
        return ~out if gate_type is GateType.NOR else out
    if gate_type in (GateType.XOR, GateType.XNOR):
        out = vals.get(fanins[0]).copy()
        for u in fanins[1:]:
            out ^= vals.get(u)
        return ~out if gate_type is GateType.XNOR else out
    raise ValueError(f"cannot resimulate gate type {gate_type!r}")


def _observed(netlist) -> set[int]:
    """What the fault simulator compares: sites plus scan-cell outputs."""
    return set(netlist.observation_sites) | set(netlist.observation_points())


def forward_cone(netlist, levels, node: int) -> list[int]:
    """Nodes strictly downstream of ``node``, a depth-first walk over
    fan-outs that stops at ``DFF`` cells, sorted by ``(levels, id)``."""
    seen, stack, cone = {node}, [node], []
    while stack:
        for w in netlist.fanouts(stack.pop()):
            if w not in seen and netlist.gate_type(w) is not GateType.DFF:
                seen.add(w)
                cone.append(w)
                stack.append(w)
    cone.sort(key=lambda v: (levels[v], v))
    return cone


def _cone_diff(sim, cones, site, inject, values, observed) -> tuple[np.ndarray, int]:
    """XOR of faulty and good values over the observed nodes strictly
    inside ``site``'s forward cone, with ``inject`` forced at ``site``.
    ``cones`` memoises the walks of one call."""
    faulty = _ConeValues(values)
    faulty.set(site, inject)
    diff = np.zeros(values.shape[1], dtype=np.uint64)
    cone = cones.get(site)
    if cone is None:
        cone = cones[site] = forward_cone(sim.netlist, sim.levels, site)
    for v in cone:
        new = _eval_with_overrides(sim, v, faulty)
        faulty.set(v, new)
        if v in observed:
            diff |= new ^ values[v]
    return diff, len(cone)


def _detection_mask(sim, cones, observed, fault: Fault, values) -> tuple[np.ndarray, int]:
    n_words = values.shape[1]
    stuck = np.full(n_words, _ONES if fault.stuck_value else 0, dtype=np.uint64)
    activated = values[fault.node] ^ stuck
    if not activated.any():
        return np.zeros(n_words, dtype=np.uint64), 0
    diff, evals = _cone_diff(sim, cones, fault.node, stuck, values, observed)
    if fault.node in observed:
        diff |= activated
    return diff & activated, evals


def detection_masks(netlist, faults: list[Fault], values) -> tuple[np.ndarray, int]:
    """``(masks, cone-node evals)``; row ``i`` of ``masks`` has bit ``p``
    set iff pattern ``p`` activates ``faults[i]`` and propagates it to an
    observation site."""
    sim = LogicSimulator(netlist)
    observed = _observed(netlist)
    cones: dict[int, list[int]] = {}
    masks = np.zeros((len(faults), values.shape[1]), dtype=np.uint64)
    evals = 0
    for i, fault in enumerate(faults):
        masks[i], n = _detection_mask(sim, cones, observed, fault, values)
        evals += n
    return masks, evals


def simulate_batch(
    netlist, faults: list[Fault], source_words, n_patterns: int | None = None
) -> tuple[FaultSimResult, int]:
    """``(result, cone-node evals)`` for one packed pattern batch."""
    values = LogicSimulator(netlist).simulate(source_words)
    if n_patterns is None:
        n_patterns = source_words.shape[1] * 64
    masks, evals = detection_masks(netlist, faults, values)
    masks &= tail_mask(n_patterns)
    result = FaultSimResult()
    for fault, mask in zip(faults, masks):
        if mask.any():
            result.detected.append(fault)
            first_word = int(np.flatnonzero(mask)[0])
            word = int(mask[first_word])
            result.detecting_pattern[fault] = (
                first_word * 64 + (word & -word).bit_length() - 1
            )
    return result, evals


def fault_coverage(netlist, faults: list[Fault], pattern_batches):
    """``(coverage, undetected)`` with fault dropping between batches."""
    remaining = list(faults)
    if not remaining:
        return 1.0, []
    for batch in pattern_batches:
        if not remaining:
            break
        result, _ = simulate_batch(netlist, remaining, batch)
        dropped = set(result.detected)
        remaining = [f for f in remaining if f not in dropped]
    return 1.0 - len(remaining) / len(faults), remaining


def _sensitisation(netlist, gate: int, through: int, values) -> np.ndarray:
    """Patterns under which ``gate`` passes a change on its one pin driven
    by ``through``: every other pin at the non-controlling value (gates
    with no controlling value always pass it)."""
    control = controlling_value(netlist.gate_type(gate))
    mask = np.full(values.shape[1], _ONES, dtype=np.uint64)
    for u in netlist.fanins(gate):
        if control is not None and u != through:
            mask &= ~values[u] if control == 1 else values[u]
    return mask


def observability_masks(netlist, values) -> np.ndarray:
    """Exact observability masks, each fanout stem resolved by its own
    flip-and-resimulate walk, observed at the observation sites."""
    sim = LogicSimulator(netlist)
    observed = _observed(netlist)
    sites = set(netlist.observation_sites)
    obs = np.zeros((netlist.num_nodes, values.shape[1]), dtype=np.uint64)
    obs[sorted(observed)] = _ONES
    for v in reversed(sim.order):
        if v in observed:
            continue
        fanouts = [
            w for w in netlist.fanouts(v)
            if netlist.gate_type(w) is not GateType.DFF
        ]
        if len(fanouts) == 1:
            g = fanouts[0]
            obs[v] = obs[g] & _sensitisation(netlist, g, v, values)
        elif fanouts:
            obs[v], _ = _cone_diff(sim, {}, v, ~values[v], values, sites)
    return obs
