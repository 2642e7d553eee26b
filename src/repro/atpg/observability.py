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

from repro.circuit.cells import GateType, controlling_value
from repro.circuit.netlist import Netlist
from repro.atpg.simulator import LogicSimulator, tail_mask

__all__ = ["ObservabilityAnalyzer", "observability_counts"]

_ZERO = np.uint64(0)
_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


class ObservabilityAnalyzer:
    """Per-pattern observability masks for every node of a netlist.

    Every exact stem mask is graded in one fault-axis engine call
    (:class:`~repro.atpg.ppsfp.PpsfpEngine`) before the backward walk —
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
        netlist = self.netlist
        n_words = values.shape[1]
        obs = np.zeros((netlist.num_nodes, n_words), dtype=np.uint64)
        observed = set(netlist.observation_sites)
        # A scan cell's own output is captured directly.
        observed.update(netlist.observation_points())
        obs[sorted(observed)] = _ONES

        def _nondff_fanouts(v: int) -> list[int]:
            return [
                w
                for w in netlist.fanouts(v)
                if netlist.gate_type(w) is not GateType.DFF
            ]

        stems = [
            v
            for v in self.simulator.order
            if v not in observed and len(_nondff_fanouts(v)) > 1
        ]
        stem_masks = self._resolve_stems(stems, values)

        # Reverse topological walk.
        for v in reversed(self.simulator.order):
            if v in observed:
                continue  # directly observed, already all-ones
            fanouts = _nondff_fanouts(v)
            if not fanouts:
                obs[v] = _ZERO
                continue
            if len(fanouts) == 1:
                g = fanouts[0]
                obs[v] = obs[g] & _local_sensitisation(netlist, g, v, values)
            else:
                obs[v] = stem_masks[v]
        return obs

    def _resolve_stems(
        self, stems: list[int], values: np.ndarray
    ) -> dict[int, np.ndarray]:
        """Exact observability mask for every fanout stem at once.

        Each stem's value is flipped and its forward cone resimulated,
        observed at the observation *sites* only: an inserted OBS cell
        exposes its fanin, which is already a site.
        """
        if not stems:
            return {}
        if self._engine is None:
            from repro.atpg.ppsfp import PpsfpEngine

            self._engine = PpsfpEngine(
                self.simulator,
                set(self.netlist.observation_sites),
                self.execution,
            )
        diffs = self._engine.masks(np.array(stems, dtype=np.int64), values)
        return dict(zip(stems, diffs))


def _local_sensitisation(
    netlist: Netlist, gate: int, through_input: int, values: np.ndarray
) -> np.ndarray:
    """Patterns under which ``gate`` passes a change on ``through_input``.

    For AND/NAND the side inputs must all be 1, for OR/NOR all 0; XOR-class
    and single-input gates always sensitise.  A fanin appearing multiple
    times never sensitises through an AND/OR (the double change cancels the
    controlling analysis) — handled by treating duplicate occurrences as
    side inputs, which yields the correct all-zeros for AND(x, x)-style
    degenerate gates and the XOR parity-cancellation case.
    """
    gate_type = netlist.gate_type(gate)
    fanins = netlist.fanins(gate)
    n_words = values.shape[1]
    duplicates = fanins.count(through_input)
    if gate_type in (GateType.XOR, GateType.XNOR):
        if duplicates % 2 == 0:
            return np.zeros(n_words, dtype=np.uint64)
        return np.full(n_words, _ONES, dtype=np.uint64)
    if gate_type in (GateType.BUF, GateType.NOT, GateType.OBS, GateType.DFF):
        return np.full(n_words, _ONES, dtype=np.uint64)
    control = controlling_value(gate_type)
    if control is None:
        raise ValueError(f"unexpected gate type {gate_type!r}")
    if duplicates > 1:
        # e.g. AND(x, x): flipping x flips both inputs; output still flips
        # for AND/OR of identical inputs, but mixed side inputs dominate.
        side = [u for u in fanins if u != through_input]
        if not side:
            return np.full(n_words, _ONES, dtype=np.uint64)
    else:
        side = [u for u in fanins if u != through_input]
    mask = np.full(n_words, _ONES, dtype=np.uint64)
    for u in side:
        word = values[u]
        mask &= ~word if control == 1 else word
    return mask


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
