"""Cell-by-cell reference implementations of the design generators.

These are ``generate_design`` and ``generate_random_dag`` as they were
before the generator collected its cells as arrays: one ``add_cell`` per
gate, ``Generator.choice(p=...)`` for the gate type, a per-node sweep for
the fan-out-free nodes.  Kept as the oracle the array generator must match
draw for draw and byte for byte (``tests/circuit/test_generator.py``).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.circuit.cells import GateType
from repro.circuit.generator import GeneratorConfig
from repro.circuit.netlist import Netlist
from repro.utils.rng import as_rng

_TWO_INPUT_TYPES = (
    GateType.NAND,
    GateType.NOR,
    GateType.AND,
    GateType.OR,
    GateType.XOR,
    GateType.XNOR,
)
_TWO_INPUT_WEIGHTS = np.array([0.30, 0.18, 0.18, 0.16, 0.10, 0.08])


def _pick_gate_type(rng: np.random.Generator, n_fanin: int) -> GateType:
    if n_fanin == 1:
        return GateType.NOT if rng.random() < 0.75 else GateType.BUF
    return _TWO_INPUT_TYPES[
        rng.choice(len(_TWO_INPUT_TYPES), p=_TWO_INPUT_WEIGHTS / _TWO_INPUT_WEIGHTS.sum())
    ]


def generate_design(
    n_gates: int = 2000,
    seed: int | np.random.Generator | None = 0,
    name: str | None = None,
    config: GeneratorConfig | None = None,
) -> Netlist:
    """Generate an industrial-shaped combinational (full-scan) netlist.

    ``n_gates`` counts non-source cells; the returned netlist additionally
    contains its primary inputs.  All fanout-free nodes are marked as
    primary outputs, as a synthesis sweep would guarantee.
    """
    config = dataclasses.replace(config or GeneratorConfig(), n_gates=n_gates)
    if config.n_gates < 4:
        raise ValueError("n_gates must be at least 4")
    rng = as_rng(seed)
    netlist = Netlist(name or f"synth{config.n_gates}")

    n_inputs = config.n_inputs or max(16, config.n_gates // 40)
    pis = [netlist.add_input(f"pi{i}") for i in range(n_inputs)]

    hubs: list[int] = list(rng.choice(pis, size=min(4, len(pis)), replace=False))
    inter_block: list[int] = []  # outputs exported by finished blocks
    remaining = config.n_gates

    block_index = 0
    while remaining > 0:
        block_gates = int(min(remaining, config.block_size))
        remaining -= block_gates
        block_index += 1

        # Block inputs: a thin interface sampled from a window of the PI
        # space (blocks sweeping the design see overlapping, drifting
        # windows, the way placed partitions share nearby top-level pins)
        # plus a sample of recently exported block outputs.
        done_frac = (config.n_gates - remaining - block_gates) / max(1, config.n_gates)
        candidates = _pick_block_interface(rng, pis, block_gates, done_frac, config)
        if inter_block:
            recent = (
                inter_block[-config.import_window :]
                if config.import_window
                else inter_block
            )
            take = min(len(recent), max(4, block_gates // 20))
            candidates += list(rng.choice(recent, size=take, replace=False))

        # Build the block level by level so its logic depth is bounded:
        # deep random AND/OR cascades would make most of the design
        # unobservable, which real (engineered) logic is not.
        depth = int(rng.integers(config.min_block_depth, config.max_block_depth + 1))
        per_level = max(2, block_gates // depth)
        level_pools: list[list[int]] = [candidates]
        created: list[int] = []
        budget = block_gates
        while budget > 0:
            width = min(budget, per_level)
            budget -= width
            pool: list[int] = []
            for back in range(1, min(config.level_reach, len(level_pools)) + 1):
                pool.extend(level_pools[-back])
            this_level: list[int] = []
            for _ in range(width):
                r = rng.random()
                if r < config.inverter_fraction:
                    n_fanin = 1
                elif r < config.inverter_fraction + config.three_input_fraction:
                    n_fanin = 3
                else:
                    n_fanin = 2
                fanins = _draw_fanins(rng, pool, hubs, n_fanin, config)
                if n_fanin <= 2:
                    gate_type = _pick_gate_type(rng, n_fanin)
                else:
                    gate_type = rng.choice(
                        [GateType.AND, GateType.OR, GateType.NAND, GateType.NOR]
                    )
                node = netlist.add_cell(GateType(gate_type), fanins)
                this_level.append(node)
                created.append(node)
                if rng.random() < config.hub_fraction:
                    hubs.append(node)
            level_pools.append(this_level)

        # Export the block's fanout-free frontier, gating a share of it
        # behind wide enables to create observability shadows.
        frontier = [v for v in created if not netlist.fanouts(v)]
        exported = _gate_block_outputs(netlist, rng, frontier, created, config)
        inter_block.extend(exported)
        if len(inter_block) > 4 * config.block_size:
            # Keep the newest exports so import locality survives trimming.
            inter_block = inter_block[-2 * config.block_size :]

    _register_outputs(netlist, rng, config)
    return netlist


def _pick_block_interface(
    rng: np.random.Generator,
    pis: list[int],
    block_gates: int,
    done_frac: float,
    config: GeneratorConfig,
) -> list[int]:
    """Sample the thin PI interface a block is wired to.

    Real SoC partitions connect to a limited set of nearby top-level pins,
    not to every primary input; the window drifts across the PI space as
    blocks are emitted so neighbouring blocks share interface nets while
    distant blocks touch disjoint ones.  ``pi_interface=0`` restores the
    legacy all-PIs pool.
    """
    take = config.pi_interface
    if take is None:
        take = max(12, block_gates // 10)
    if not take or len(pis) <= take:
        return list(pis)
    width = max(take, int(len(pis) * config.pi_window_fraction))
    center = int(round(done_frac * (len(pis) - 1)))
    lo = max(0, min(center - width // 2, len(pis) - width))
    window = pis[lo : lo + width]
    return [int(v) for v in rng.choice(window, size=min(take, len(window)), replace=False)]


def _draw_hub(rng: np.random.Generator, hubs: list[int], config: GeneratorConfig) -> int:
    """Pick a hub fanin, favouring recently promoted (nearby) hubs.

    A small share of picks still comes from the full hub list so a few
    enable/select-like nets stay genuinely global, as in real designs.
    """
    if len(hubs) > config.hub_window and rng.random() >= config.hub_global_prob:
        pool = hubs[-config.hub_window :]
    else:
        pool = hubs
    return int(pool[rng.integers(0, len(pool))])


def _draw_fanins(
    rng: np.random.Generator,
    pool: list[int],
    hubs: list[int],
    n_fanin: int,
    config: GeneratorConfig,
) -> list[int]:
    """Draw distinct fanins from the recent-level pool plus hub nets."""
    chosen: list[int] = []
    attempts = 0
    while len(chosen) < n_fanin and attempts < 50:
        attempts += 1
        if hubs and rng.random() < config.hub_pick_prob:
            candidate = _draw_hub(rng, hubs, config)
        else:
            candidate = int(pool[rng.integers(0, len(pool))])
        if candidate not in chosen:
            chosen.append(candidate)
    while len(chosen) < n_fanin:  # tiny pools may force duplicates elsewhere
        candidate = int(pool[rng.integers(0, len(pool))])
        if candidate not in chosen or len(pool) < n_fanin:
            chosen.append(candidate)
    return chosen[:n_fanin]


def _gate_block_outputs(
    netlist: Netlist,
    rng: np.random.Generator,
    frontier: list[int],
    created: list[int],
    config: GeneratorConfig,
) -> list[int]:
    """Funnel part of the block frontier through low-probability enables."""
    exported: list[int] = []
    for v in frontier:
        if created and rng.random() < config.gated_output_fraction:
            width = int(rng.integers(2, config.gating_depth + 1))
            terms = [v] + [
                int(created[rng.integers(0, len(created))]) for _ in range(width)
            ]
            terms = list(dict.fromkeys(terms))
            if len(terms) >= 2:
                gate = GateType.AND if rng.random() < 0.5 else GateType.NOR
                v = netlist.add_cell(gate, terms)
        exported.append(v)
    return exported


def _register_outputs(
    netlist: Netlist, rng: np.random.Generator, config: GeneratorConfig
) -> None:
    """Mark every fanout-free node observed, optionally through a DFF."""
    for v in list(netlist.nodes()):
        if netlist.fanouts(v) or netlist.is_output(v):
            continue
        if netlist.gate_type(v) is GateType.INPUT:
            continue  # unused PI is legal
        if config.dff_fraction and rng.random() < config.dff_fraction:
            netlist.add_cell(GateType.DFF, (v,))
        else:
            netlist.mark_output(v)


def generate_random_dag(
    n_nodes: int,
    seed: int | np.random.Generator | None = 0,
    avg_fanin: float = 1.5,
) -> Netlist:
    """Generate a plain random DAG netlist (used by scalability sweeps).

    Unlike :func:`generate_design` this makes no attempt at realistic
    testability structure; it exists to produce graphs of an exact size with
    the paper's edge/node ratio for the Figure-10 runtime sweep.
    """
    rng = as_rng(seed)
    netlist = Netlist(f"dag{n_nodes}")
    n_inputs = max(8, n_nodes // 100)
    for i in range(min(n_inputs, n_nodes)):
        netlist.add_input(f"pi{i}")
    p_single = max(0.0, min(1.0, 2.0 - avg_fanin))
    while netlist.num_nodes < n_nodes:
        n = netlist.num_nodes
        n_fanin = 1 if rng.random() < p_single else 2
        lo = max(0, n - 100)
        fanins = list({int(rng.integers(lo, n)) for _ in range(n_fanin)})
        gate_type = GateType.NOT if len(fanins) == 1 else GateType.NAND
        netlist.add_cell(gate_type, fanins)
    for v in netlist.nodes():
        if not netlist.fanouts(v) and netlist.gate_type(v) is not GateType.INPUT:
            netlist.mark_output(v)
    return netlist
