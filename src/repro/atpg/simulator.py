"""Bit-parallel gate-level logic simulation.

Packs 64 test patterns per machine word and evaluates the netlist once per
word-batch, level by level, with vectorised numpy ops inside each
(level, gate-type, arity) group.  This is the workhorse under fault
simulation, observability analysis and data-set labelling.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.circuit.cells import GateType
from repro.circuit.levelize import logic_levels, topological_order
from repro.circuit.netlist import Netlist
from repro.circuit.structure import (
    NetlistStructure,
    counts_to_ptr,
    expand_rows,
    sorted_unique,
)

__all__ = ["LogicSimulator", "pack_patterns", "unpack_values", "random_pattern_words"]

WORD_BITS = 64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
#: gate type by code (a tuple lookup is cheaper than ``GateType(code)``)
_GATE_TYPES = tuple(GateType)


def pack_patterns(patterns: np.ndarray) -> np.ndarray:
    """Pack a ``(n_patterns, n_signals)`` 0/1 array into ``(n_signals, W)`` words.

    Pattern ``p`` occupies bit ``p % 64`` of word ``p // 64``.  The whole
    transpose is a single ``np.packbits`` call (little-endian bit order
    matches the word layout byte for byte), not a per-pattern Python loop.
    """
    patterns = np.asarray(patterns)
    if patterns.ndim != 2:
        raise ValueError("patterns must be 2-D (n_patterns, n_signals)")
    n_patterns, n_signals = patterns.shape
    n_words = (n_patterns + WORD_BITS - 1) // WORD_BITS
    bits = np.zeros((n_signals, n_words * WORD_BITS), dtype=np.uint8)
    bits[:, :n_patterns] = (patterns != 0).T
    packed = np.packbits(bits, axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64, copy=False)


def unpack_values(words: np.ndarray, n_patterns: int) -> np.ndarray:
    """Inverse of :func:`pack_patterns`: ``(n_signals, W)`` -> ``(n_patterns, n_signals)``."""
    n_signals, n_words = words.shape
    if n_patterns > n_words * WORD_BITS:
        raise ValueError(
            f"{n_patterns} patterns do not fit in {n_words} packed words"
        )
    byts = np.ascontiguousarray(words.astype("<u8", copy=False)).view(np.uint8)
    bits = np.unpackbits(
        byts.reshape(n_signals, n_words * 8), axis=1, bitorder="little"
    )
    return np.ascontiguousarray(bits[:, :n_patterns].T)


def random_pattern_words(
    n_signals: int, n_words: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw uniformly random packed patterns, shape ``(n_signals, n_words)``."""
    return rng.integers(0, 2**64, size=(n_signals, n_words), dtype=np.uint64)


def tail_mask(n_patterns: int) -> np.ndarray:
    """Per-word masks zeroing the unused bits of the final word."""
    n_words = (n_patterns + WORD_BITS - 1) // WORD_BITS
    masks = np.full(n_words, _ALL_ONES, dtype=np.uint64)
    tail = n_patterns % WORD_BITS
    if tail:
        masks[-1] = (np.uint64(1) << np.uint64(tail)) - np.uint64(1)
    return masks


def popcount_words(words: np.ndarray) -> int:
    """Total number of set bits in a word array."""
    return int(np.bitwise_count(words.astype(np.uint64)).sum())


class GatePlan(NamedTuple):
    """Gates grouped for vectorised evaluation (see :func:`gate_plan`)."""

    nodes: np.ndarray  #: the planned nodes, group after group
    fanins: np.ndarray  #: their fan-ins in pin order, flattened in ``nodes`` order
    bounds: np.ndarray  #: ``(n_groups + 1,)`` group bounds into ``nodes``
    types: np.ndarray  #: each group's gate-type code
    arities: np.ndarray  #: each group's fan-in count

    def groups(self, fanins: np.ndarray | None = None):
        """Yield ``(gate_type, arity, lo, hi, table)`` for each group in order.

        ``table`` is the ``(hi - lo, arity)`` view of the group's share of
        ``fanins``: the plan's own by default, or any array laid out like
        it (the same fan-ins translated to local rows, say).
        """
        fanins = self.fanins if fanins is None else fanins
        bounds = self.bounds.tolist()
        starts = counts_to_ptr(np.diff(self.bounds) * self.arities).tolist()
        for g, (code, arity) in enumerate(zip(self.types.tolist(), self.arities.tolist())):
            lo, hi = bounds[g], bounds[g + 1]
            table = fanins[starts[g] : starts[g + 1]].reshape(hi - lo, arity)
            yield _GATE_TYPES[code], arity, lo, hi, table


def gate_plan(structure: NetlistStructure, levels: np.ndarray, nodes) -> GatePlan:
    """Group ``nodes`` by (level, gate type, arity), lowest level first.

    One ``lexsort`` orders the nodes, ids ascending inside a group, and
    one gather takes every fan-in from the structure's CSR.  A gate's
    fan-ins sit at lower levels, so evaluating the groups in order reads
    each planned node only after its own group has written it.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    ptr = structure.fanin_ptr
    level = levels[nodes]
    types = structure.types[nodes]
    arity = ptr[nodes + 1] - ptr[nodes]
    order = np.lexsort((nodes, arity, types, level))
    nodes, level, types, arity = nodes[order], level[order], types[order], arity[order]
    first = np.ones(len(nodes), dtype=bool)
    first[1:] = (
        (level[1:] != level[:-1]) | (types[1:] != types[:-1]) | (arity[1:] != arity[:-1])
    )
    starts = np.flatnonzero(first)
    fanins = structure.fanin_idx[expand_rows(ptr, nodes)[0]]
    return GatePlan(nodes, fanins, np.append(starts, len(nodes)), types[starts], arity[starts])


class LogicSimulator:
    """Levelised bit-parallel simulator for a fixed netlist.

    The constructor compiles a schedule: every node but the sources
    (``INPUT`` and ``DFF``) as one :func:`gate_plan`, so :meth:`simulate`
    runs a handful of vectorised numpy ops per (level, gate type, arity)
    group instead of a Python loop over gates.  A per-gate evaluation path
    (:meth:`eval_node`) is exposed for cone resimulation.
    """

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self.order = topological_order(netlist)
        self.levels = logic_levels(netlist, self.order)
        structure = self._structure = netlist.structure()
        is_source = (structure.types == GateType.INPUT) | (structure.types == GateType.DFF)
        self.source_ids = np.flatnonzero(is_source)
        plan = gate_plan(structure, self.levels, np.flatnonzero(~is_source))
        #: ``(gate_type, arity, out_idx, fanin_idx)`` per group, in plan order
        self._schedule = [
            (gate_type, arity, plan.nodes[lo:hi], table)
            for gate_type, arity, lo, hi, table in plan.groups()
        ]

    # ------------------------------------------------------------------ #
    @property
    def n_sources(self) -> int:
        return len(self.source_ids)

    def random_source_words(
        self, n_words: int, rng: np.random.Generator
    ) -> np.ndarray:
        return random_pattern_words(self.n_sources, n_words, rng)

    def simulate(self, source_words: np.ndarray) -> np.ndarray:
        """Simulate the whole netlist.

        ``source_words`` has shape ``(n_sources, W)`` in the order of
        ``netlist.sources``; returns packed values ``(n_nodes, W)``.
        """
        source_words = np.asarray(source_words, dtype=np.uint64)
        if source_words.ndim != 2 or source_words.shape[0] != self.n_sources:
            raise ValueError(
                f"expected ({self.n_sources}, W) source words, "
                f"got {source_words.shape}"
            )
        n_words = source_words.shape[1]
        values = np.zeros((self.netlist.num_nodes, n_words), dtype=np.uint64)
        values[self.source_ids] = source_words
        for gate_type, arity, out_idx, fanin_idx in self._schedule:
            values[out_idx] = eval_gate_group(gate_type, arity, fanin_idx, values)
        return values

    def eval_node(self, node: int, values: np.ndarray) -> np.ndarray:
        """Evaluate one gate against the rows of ``values`` (cone resim)."""
        structure = self._structure
        gate_type = _GATE_TYPES[structure.types[node]]
        if gate_type in (GateType.INPUT, GateType.DFF):
            return values[node]
        ptr = structure.fanin_ptr
        idx = structure.fanin_idx[None, ptr[node] : ptr[node + 1]]
        return eval_gate_group(gate_type, idx.shape[1], idx, values)[0]

    def forward_union(self, sites) -> np.ndarray:
        """Union of the forward cones of ``sites``, sorted by (level, id).

        A node is in ``v``'s cone when a path of one or more wires leads
        there from ``v`` without entering a ``DFF`` (its value is captured),
        so a site inside another site's cone is in the union.  One frontier
        sweep over the fan-out CSR covers every site at once.
        """
        structure = self.netlist.structure()
        ptr, idx = structure.fanout_ptr, structure.fanout_idx
        stop = structure.types == GateType.DFF
        seen = np.zeros(structure.num_nodes, dtype=bool)
        frontier = np.asarray(sites, dtype=np.int64)
        reached = [np.empty(0, dtype=np.int64)]
        while len(frontier):
            sinks = idx[expand_rows(ptr, frontier)[0]]
            frontier = sorted_unique(sinks[~(stop[sinks] | seen[sinks])])
            seen[frontier] = True
            reached.append(frontier)
        cone = np.concatenate(reached)
        return cone[np.lexsort((cone, self.levels[cone]))]

    def forward_cone(self, node: int) -> list[int]:
        """Nodes strictly downstream of ``node`` (combinationally), topo-sorted."""
        return self.forward_union([node]).tolist()


def eval_gate_group(
    gate_type: GateType, arity: int, fanin_rows: np.ndarray, vals: np.ndarray
) -> np.ndarray:
    """Evaluate one (gate type, arity) group against the rows of ``vals``.

    ``fanin_rows`` is ``(m, arity)`` row indices into ``vals``, whose
    trailing shape is free: ``(W,)`` words for a simulation, ``(F, W)``
    for every fault of a fault-axis call.  Returns ``(m,) +
    vals.shape[1:]``.  Every case is an exact bitwise function of the
    operands, so how gates are grouped cannot change a value.
    """
    m = fanin_rows.shape[0]
    if gate_type is GateType.CONST0:
        return np.zeros((m,) + vals.shape[1:], dtype=np.uint64)
    if gate_type is GateType.CONST1:
        return np.full((m,) + vals.shape[1:], _ALL_ONES, dtype=np.uint64)
    out = vals[fanin_rows[:, 0]]  # fancy indexing: already a fresh array
    if gate_type in (GateType.BUF, GateType.OBS, GateType.DFF):
        return out
    if gate_type is GateType.NOT:
        np.invert(out, out=out)
        return out
    if gate_type in (GateType.AND, GateType.NAND):
        for k in range(1, arity):
            out &= vals[fanin_rows[:, k]]
        if gate_type is GateType.NAND:
            np.invert(out, out=out)
        return out
    if gate_type in (GateType.OR, GateType.NOR):
        for k in range(1, arity):
            out |= vals[fanin_rows[:, k]]
        if gate_type is GateType.NOR:
            np.invert(out, out=out)
        return out
    if gate_type in (GateType.XOR, GateType.XNOR):
        for k in range(1, arity):
            out ^= vals[fanin_rows[:, k]]
        if gate_type is GateType.XNOR:
            np.invert(out, out=out)
        return out
    raise ValueError(f"cannot evaluate gate type {gate_type!r}")
