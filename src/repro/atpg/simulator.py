"""Bit-parallel gate-level logic simulation.

Packs 64 test patterns per machine word and evaluates the netlist once per
word-batch, level by level, with vectorised numpy ops inside each
(level, gate-type, arity) group.  This is the workhorse under fault
simulation, observability analysis and data-set labelling.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.cells import GateType
from repro.circuit.levelize import logic_levels, topological_order
from repro.circuit.netlist import Netlist
from repro.circuit.structure import expand_rows, sorted_unique

__all__ = ["LogicSimulator", "pack_patterns", "unpack_values", "random_pattern_words"]

WORD_BITS = 64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


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


class LogicSimulator:
    """Levelised bit-parallel simulator for a fixed netlist.

    The constructor compiles a schedule: nodes grouped by logic level, and
    within each level by (gate type, arity), so :meth:`simulate` runs a
    handful of vectorised numpy ops per level instead of a Python loop over
    gates.  A per-gate evaluation path (:meth:`eval_node`) is exposed for
    the cone-resimulation used by fault simulation.
    """

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self.order = topological_order(netlist)
        self.levels = logic_levels(netlist, self.order)
        self.source_ids = np.array(netlist.sources, dtype=np.int64)
        self._source_pos = {int(v): i for i, v in enumerate(self.source_ids)}
        self._compile_schedule()

    def _compile_schedule(self) -> None:
        netlist = self.netlist
        groups: dict[tuple[int, GateType, int], list[int]] = {}
        for v in netlist.nodes():
            t = netlist.gate_type(v)
            if t in (GateType.INPUT, GateType.DFF):
                continue
            if t in (GateType.CONST0, GateType.CONST1):
                key = (0, t, 0)
            else:
                key = (int(self.levels[v]), t, len(netlist.fanins(v)))
            groups.setdefault(key, []).append(v)
        schedule = []
        for (level, gate_type, arity), nodes in sorted(
            groups.items(), key=lambda item: item[0][0]
        ):
            out_idx = np.array(nodes, dtype=np.int64)
            if arity:
                fanin_idx = np.array(
                    [netlist.fanins(v) for v in nodes], dtype=np.int64
                )
            else:
                fanin_idx = np.empty((len(nodes), 0), dtype=np.int64)
            schedule.append((gate_type, arity, out_idx, fanin_idx))
        self._schedule = schedule

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
            values[out_idx] = _eval_group(gate_type, arity, fanin_idx, values, n_words)
        return values

    def eval_node(self, node: int, values: np.ndarray) -> np.ndarray:
        """Evaluate one gate against the rows of ``values`` (cone resim)."""
        gate_type = self.netlist.gate_type(node)
        fanins = self.netlist.fanins(node)
        n_words = values.shape[1]
        if gate_type in (GateType.INPUT, GateType.DFF):
            return values[node]
        idx = np.array([fanins], dtype=np.int64)
        return _eval_group(gate_type, len(fanins), idx, values, n_words)[0]

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

def _eval_group(
    gate_type: GateType,
    arity: int,
    fanin_idx: np.ndarray,
    values: np.ndarray,
    n_words: int,
) -> np.ndarray:
    """Vectorised evaluation of one (type, arity) gate group."""
    n = fanin_idx.shape[0]
    if gate_type is GateType.CONST0:
        return np.zeros((n, n_words), dtype=np.uint64)
    if gate_type is GateType.CONST1:
        return np.full((n, n_words), _ALL_ONES, dtype=np.uint64)
    operands = values[fanin_idx]  # (n, arity, W)
    if gate_type in (GateType.BUF, GateType.OBS):
        return operands[:, 0]
    if gate_type is GateType.NOT:
        return ~operands[:, 0]
    if gate_type in (GateType.AND, GateType.NAND):
        out = operands[:, 0].copy()
        for k in range(1, arity):
            out &= operands[:, k]
        return ~out if gate_type is GateType.NAND else out
    if gate_type in (GateType.OR, GateType.NOR):
        out = operands[:, 0].copy()
        for k in range(1, arity):
            out |= operands[:, k]
        return ~out if gate_type is GateType.NOR else out
    if gate_type in (GateType.XOR, GateType.XNOR):
        out = operands[:, 0].copy()
        for k in range(1, arity):
            out ^= operands[:, k]
        return ~out if gate_type is GateType.XNOR else out
    raise ValueError(f"cannot evaluate gate type {gate_type!r}")
