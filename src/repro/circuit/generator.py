"""Synthetic industrial-shaped netlist generation.

The paper evaluates on four proprietary 12 nm designs (~1.4 M cells,
edge/node ratio ~1.5, ~0.65 % difficult-to-observe nodes).  This module
generates netlists with the same statistical shape at any scale:

* modular structure — gates are grouped into blocks wired mostly locally,
  with a thin inter-block interface, the way SoC partitions look;
* logic-depth distribution — blocks build deep cones with reconvergent
  fanout, so random-pattern observability decays with depth;
* fanout skew — a few hub nets (enable/select-like) fan out widely;
* gating — some block outputs are funnelled through wide AND/OR gates with
  low-probability side conditions, producing the observability shadows that
  make test-point insertion worthwhile in real designs.

The generator is the substitution documented in DESIGN.md for the paper's
industrial benchmarks; everything downstream (labels, training, OPI flow)
consumes only the graph and its SCOAP attributes, so matching the shape of
those statistics preserves the experiments' character.

A design is a pure function of ``(n_gates, seed, config)``, down to the
bytes of its ``.bench`` text.  The cells are collected as arrays and become
a netlist in one :meth:`Netlist.from_structure`, numbered as
``Netlist.add_cell`` would have numbered them; the hypothesis property in
``tests/circuit/test_generator.py`` holds every design to the cell-by-cell
oracle in ``tests/circuit/reference_generator.py``, and
``scripts/check_design_digest.py`` holds the benchmark's designs to those
of another commit.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.circuit.cells import GateType
from repro.circuit.netlist import Netlist
from repro.circuit.structure import NetlistStructure, counts_to_ptr
from repro.resilience.errors import ConfigError
from repro.utils.rng import as_rng

__all__ = ["GeneratorConfig", "generate_design", "generate_random_dag"]

_TWO_INPUT_TYPES = (
    GateType.NAND,
    GateType.NOR,
    GateType.AND,
    GateType.OR,
    GateType.XOR,
    GateType.XNOR,
)
_TWO_INPUT_WEIGHTS = np.array([0.30, 0.18, 0.18, 0.16, 0.10, 0.08])
_THREE_INPUT_TYPES = (GateType.AND, GateType.OR, GateType.NAND, GateType.NOR)


def _choice_cdf(weights: np.ndarray) -> list[float]:
    """The table ``Generator.choice(p=weights / weights.sum())`` searches.

    ``choice`` normalises the cumulative sum, draws one ``random()`` and
    takes ``searchsorted(side="right")``, so ``bisect_right(cdf,
    rng.random())`` draws the same index from the same stream, without
    ``choice``'s per-call argument checks.
    """
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


_TWO_INPUT_CDF = _choice_cdf(_TWO_INPUT_WEIGHTS)


@dataclass
class GeneratorConfig:
    """Knobs controlling the shape of a generated design.

    Defaults reproduce the paper's edge/node ratio (~1.5) and sparsity
    (> 99.95 %).  Its positive-label rate they do not: see
    :class:`~repro.testability.labels.LabelConfig`.
    """

    n_gates: int = 2000
    n_inputs: int | None = None  #: default: ``max(16, n_gates // 40)``
    block_size: int = 400  #: gates per module block
    min_block_depth: int = 6  #: shallowest per-block logic depth target
    max_block_depth: int = 14  #: deepest per-block logic depth target
    inverter_fraction: float = 0.25  #: share of 1-input cells (NOT/BUF)
    three_input_fraction: float = 0.05  #: share of 3-input cells
    level_reach: int = 3  #: how many earlier levels fanins are drawn from
    hub_fraction: float = 0.01  #: share of nodes promoted to high-fanout hubs
    hub_pick_prob: float = 0.08  #: probability a fanin is drawn from a hub
    gating_depth: int = 3  #: width of low-probability enable cones
    gated_output_fraction: float = 0.15  #: share of block outputs gated
    dff_fraction: float = 0.0  #: share of block outputs registered
    pi_interface: int | None = None  #: PIs sampled per block (None: auto; 0: all)
    pi_window_fraction: float = 0.12  #: PI-space window a block's interface spans
    import_window: int = 240  #: imports are drawn from this many newest exports
    hub_window: int = 12  #: hub picks favour this many most recent hubs
    hub_global_prob: float = 0.1  #: share of hub picks from the full hub list


class _Cells:
    """Cells appended in node-id order: named inputs first, then gates.

    Holds what :meth:`Netlist.add_cell` would have stored, as flat lists
    (type codes, pin counts, the drivers of every pin), and checks all of
    it at once in :meth:`netlist`.
    """

    def __init__(self) -> None:
        self.types: list[int] = []
        self.pin_counts: list[int] = []
        self.drivers: list[int] = []
        self.input_names: list[str] = []

    def add_input(self, name: str) -> int:
        self.input_names.append(name)
        return self.add(GateType.INPUT, ())

    def add(self, gate_type: int, fanins) -> int:
        node = len(self.types)
        self.types.append(gate_type)
        self.pin_counts.append(len(fanins))
        self.drivers.extend(fanins)
        return node

    def fanout_free(self) -> np.ndarray:
        """Ids of the gates (not inputs) that drive nothing, ascending."""
        types = np.array(self.types, dtype=np.int64)
        fanouts = np.bincount(np.array(self.drivers, dtype=np.int64), minlength=len(types))
        return np.flatnonzero((fanouts == 0) & (types != GateType.INPUT))

    def netlist(self, name: str, outputs: np.ndarray) -> Netlist:
        """The netlist of these cells, ``outputs`` marked.

        Raises ``ValueError`` where ``add_cell`` would have: a pin count
        the gate type forbids, or a fanin that is not an earlier cell.
        """
        types = np.array(self.types, dtype=np.int64)
        pin_counts = np.array(self.pin_counts, dtype=np.int64)
        fanin_ptr = counts_to_ptr(pin_counts)
        fanin_idx = np.array(self.drivers, dtype=np.int64)
        bad = np.flatnonzero(~Netlist._arity_ok(types, pin_counts))
        if len(bad):
            v = int(bad[0])
            Netlist._check_arity(GateType(types[v]), self.drivers[fanin_ptr[v]:fanin_ptr[v + 1]])
        sinks = np.repeat(np.arange(len(types)), pin_counts)
        dangling = (fanin_idx < 0) | (fanin_idx >= sinks)
        if dangling.any():
            raise ValueError(f"fanin id {fanin_idx[np.argmax(dangling)]} does not exist")
        structure = NetlistStructure.from_fanins(types, fanin_ptr, fanin_idx)
        names = self.input_names + [None] * (len(types) - len(self.input_names))
        return Netlist.from_structure(name, structure, names, outputs.tolist())


def generate_design(
    n_gates: int = 2000,
    seed: int | np.random.Generator | None = 0,
    name: str | None = None,
    config: GeneratorConfig | None = None,
) -> Netlist:
    """Generate an industrial-shaped combinational (full-scan) netlist.

    ``n_gates`` counts non-source cells; the returned netlist additionally
    contains its primary inputs.  All fanout-free nodes are marked as
    primary outputs, as a synthesis sweep would guarantee.  ``config`` is
    read, never written: its ``n_gates`` gives way to the argument.
    """
    config = dataclasses.replace(config or GeneratorConfig(), n_gates=n_gates)
    if config.n_gates < 4:
        raise ConfigError(f"n_gates must be at least 4, got {config.n_gates}")
    rng = as_rng(seed)
    random, integers = rng.random, rng.integers
    cells = _Cells()

    n_inputs = config.n_inputs or max(16, config.n_gates // 40)
    pis = [cells.add_input(f"pi{i}") for i in range(n_inputs)]

    hubs: list[int] = list(rng.choice(pis, size=min(4, len(pis)), replace=False))
    inter_block: list[int] = []  # outputs exported by finished blocks
    remaining = config.n_gates
    one_input = config.inverter_fraction
    one_or_three = config.inverter_fraction + config.three_input_fraction

    while remaining > 0:
        block_gates = int(min(remaining, config.block_size))
        remaining -= block_gates

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
        depth = int(integers(config.min_block_depth, config.max_block_depth + 1))
        per_level = max(2, block_gates // depth)
        level_pools: list[list[int]] = [candidates]
        first_pin = len(cells.drivers)
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
                r = random()
                n_fanin = 1 if r < one_input else 3 if r < one_or_three else 2
                fanins = _draw_fanins(rng, pool, hubs, n_fanin, config)
                if n_fanin == 1:
                    gate_type = GateType.NOT if random() < 0.75 else GateType.BUF
                elif n_fanin == 2:
                    gate_type = _TWO_INPUT_TYPES[bisect_right(_TWO_INPUT_CDF, random())]
                else:
                    gate_type = _THREE_INPUT_TYPES[integers(0, 4)]
                node = cells.add(gate_type, fanins)
                this_level.append(node)
                created.append(node)
                if random() < config.hub_fraction:
                    hubs.append(node)
            level_pools.append(this_level)

        # Export the block's fanout-free frontier, gating a share of it
        # behind wide enables to create observability shadows.  Only this
        # block's gates can drive its cells so far.
        driving = set(cells.drivers[first_pin:])
        frontier = [v for v in created if v not in driving]
        exported = _gate_block_outputs(cells, rng, frontier, created, config)
        inter_block.extend(exported)
        if len(inter_block) > 4 * config.block_size:
            # Keep the newest exports so import locality survives trimming.
            inter_block = inter_block[-2 * config.block_size :]

    # Mark every fanout-free gate observed, optionally through a DFF (an
    # unused PI is legal).
    sinks = cells.fanout_free()
    if config.dff_fraction:
        registered = rng.random(len(sinks)) < config.dff_fraction
        for v in sinks[registered].tolist():
            cells.add(GateType.DFF, (v,))
        sinks = sinks[~registered]
    return cells.netlist(name or f"synth{config.n_gates}", sinks)


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
    cells: _Cells,
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
                v = cells.add(gate, terms)
        exported.append(v)
    return exported


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
    cells = _Cells()
    n_inputs = max(8, n_nodes // 100)
    for i in range(min(n_inputs, n_nodes)):
        cells.add_input(f"pi{i}")
    p_single = max(0.0, min(1.0, 2.0 - avg_fanin))
    for n in range(len(cells.types), n_nodes):
        n_fanin = 1 if rng.random() < p_single else 2
        lo = max(0, n - 100)
        fanins = list({int(rng.integers(lo, n)) for _ in range(n_fanin)})
        cells.add(GateType.NOT if len(fanins) == 1 else GateType.NAND, fanins)
    return cells.netlist(f"dag{n_nodes}", cells.fanout_free())
