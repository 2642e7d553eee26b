"""Exact per-pattern observability analysis.

For a batch of input patterns, computes for every node the set of patterns
(as packed bit-masks) under which a value change at the node would be seen
at some observation site.  This is the ground truth that the dataset
labelling (:mod:`repro.testability.labels`) thresholds into the paper's
difficult-to-observe / easy-to-observe classes — playing the role of the
commercial DFT tool's analysis.

Algorithm: backward critical-path tracing, exact everywhere.

* Observation sites start fully observable.
* Inside fanout-free regions, ``obs(v) = obs(g) & sens(g, v)`` where ``g``
  is the single fanout and ``sens`` is the per-pattern local sensitisation
  condition (side inputs at non-controlling values; XOR always sensitises).
  Every ``sens`` word comes from one gather over the sinks' fan-in rows;
  the products are then assigned a logic level at a time, highest first.
* At fanout stems the branch conditions interact (reconvergence can mask an
  effect that each branch alone would pass), so stems are resolved exactly
  by forward resimulation of the stem's fanout cone with the stem value
  flipped.

The stem-resimulation step is what makes the measure *global*: a node's
observability depends on masking far downstream, information its local
SCOAP attributes do not carry — which is precisely why the paper's GCN has
signal to learn.

All stem resimulations of a call are one fault-axis engine call
(:mod:`repro.atpg.ppsfp`); the one :class:`~repro.config.ExecutionConfig`
the analyzer takes sizes and places that engine's worker pool.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.cells import GateType
from repro.circuit.netlist import Netlist
from repro.circuit.structure import counts_to_ptr, expand_rows, gate_table
from repro.atpg.simulator import LogicSimulator, tail_mask

__all__ = ["ObservabilityAnalyzer", "observability_counts"]

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


class ObservabilityAnalyzer:
    """Per-pattern observability masks for every node of a netlist.

    Every exact stem mask is graded in one fault-axis engine call
    (:class:`~repro.atpg.ppsfp.PpsfpEngine`) before the backward sweep —
    the masks depend only on the good values, never on each other, so
    they can all be computed up front.  ``execution.workers`` and
    ``execution.exec_backend`` size and place that engine's pool; results
    are bit-identical whether it is used or not.
    """

    def __init__(self, netlist: Netlist, *, execution=None) -> None:
        from repro.config import ExecutionConfig

        self.execution = execution or ExecutionConfig()
        self.netlist = netlist
        self.simulator = LogicSimulator(netlist)
        self._engine = None

    def close(self) -> None:
        """Release the stem-grading engine's worker pool, if any."""
        if self._engine is not None:
            self._engine.close()

    def __enter__(self) -> "ObservabilityAnalyzer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def masks(self, source_words: np.ndarray) -> np.ndarray:
        """Return packed observability masks, shape ``(n_nodes, W)``.

        Bit ``p`` of ``masks[v]`` is set iff flipping node ``v`` under
        pattern ``p`` changes the value of at least one observation site.
        """
        values = self.simulator.simulate(source_words)
        return self.masks_from_values(values)

    def masks_from_values(self, values: np.ndarray) -> np.ndarray:
        """Same as :meth:`masks` given precomputed good-circuit values."""
        structure, n = self.netlist.structure(), self.netlist.num_nodes
        obs = np.zeros((n, values.shape[1]), dtype=np.uint64)
        sites = self.netlist.observed_nodes()
        observed = np.zeros(n, dtype=bool)
        observed[sites] = True
        obs[observed] = _ONES

        # Fan-out pins that propagate (a DFF's data pin makes its driver a site).
        pins = np.flatnonzero(structure.types[structure.fanout_idx] != GateType.DFF)
        drivers = structure.pin_drivers()[pins]
        n_pins = np.bincount(drivers, minlength=n)
        stems = np.flatnonzero((n_pins > 1) & ~observed)
        if len(stems):
            if self._engine is None:
                from repro.atpg.ppsfp import PpsfpEngine

                self._engine = PpsfpEngine(self.simulator, sites, self.execution)
            obs[stems] = self._engine.masks(stems, values)

        # A fan-out-free node drives one pin of one sink: it sees what the
        # sink sees while the sink's other pins are non-controlling.
        free = np.flatnonzero((n_pins == 1) & ~observed)
        sink = np.empty(n, dtype=np.int64)
        sink[drivers] = structure.fanout_idx[pins]
        sink = sink[free]
        positions, counts = expand_rows(structure.fanin_ptr, sink)
        side = structure.fanin_idx[positions]
        rule = np.repeat(_SIDE_PIN[structure.types[sink]], counts)
        words = values[side]
        words[rule == 2] = ~words[rule == 2]
        words[(rule == 0) | (side == np.repeat(free, counts))] = _ONES
        sens = np.bitwise_and.reduceat(words, counts_to_ptr(counts)[:-1])
        # Sinks sit at higher levels: assign the highest level first.
        level = self.simulator.levels[free]
        by_level = np.argsort(-level, kind="stable")
        for chunk in np.split(by_level, np.flatnonzero(np.diff(level[by_level])) + 1):
            obs[free[chunk]] = obs[sink[chunk]] & sens[chunk]
        return obs


#: how a sink's other pins pass a change on one pin: 1 = when 1 (AND/NAND),
#: 2 = when 0 (OR/NOR), 0 = always (XOR-class and single-input cells)
_SIDE_PIN = gate_table({GateType.AND: 1, GateType.NAND: 1, GateType.OR: 2, GateType.NOR: 2})


def observability_counts(
    netlist: Netlist,
    n_patterns: int,
    seed: int | np.random.Generator | None = 0,
    *,
    execution=None,
) -> np.ndarray:
    """Count, per node, how many of ``n_patterns`` random patterns observe it.

    Convenience wrapper: draws random patterns, runs the analyzer and
    popcounts the masks (masking tail bits of the last word).
    """
    from repro.utils.rng import as_rng

    rng = as_rng(seed)
    with ObservabilityAnalyzer(netlist, execution=execution) as analyzer:
        n_words = (n_patterns + 63) // 64
        source_words = analyzer.simulator.random_source_words(n_words, rng)
        masks = analyzer.masks(source_words)
    masks = masks & tail_mask(n_patterns)[None, :]
    return np.bitwise_count(masks).sum(axis=1).astype(np.int64)
