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

The one :class:`~repro.config.ExecutionConfig` the analyzer takes says
how the stem resimulations run: serially, batched in process, or sharded
over ``workers`` processes on the ``exec_backend`` fabric.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.cells import GateType, controlling_value
from repro.circuit.netlist import Netlist
from repro.atpg.simulator import LogicSimulator, popcount_words, tail_mask

__all__ = ["ObservabilityAnalyzer", "observability_counts"]

_ZERO = np.uint64(0)
_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


class ObservabilityAnalyzer:
    """Per-pattern observability masks for every node of a netlist.

    ``execution.backend`` picks how the exact stem masks are resolved:
    ``serial`` walks each stem's cone gate by gate (the oracle);
    ``batched``/``parallel`` grade every stem in one fault-axis engine
    call (:mod:`repro.atpg.ppsfp`) before the backward walk — the masks
    depend only on the good values, never on each other, so they can all
    be computed up front.  ``execution.workers`` and
    ``execution.exec_backend`` size and place the ``parallel`` engine's
    pool.  Results are bit-identical across backends.
    """

    def __init__(
        self,
        netlist: Netlist,
        exact_stems: bool = True,
        *,
        execution=None,
    ) -> None:
        from repro.config import ExecutionConfig

        self.execution = execution or ExecutionConfig()
        self.netlist = netlist
        self.simulator = LogicSimulator(netlist)
        self.exact_stems = exact_stems
        self.backend = self.execution.backend
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

    def masks_from_values(
        self, values: np.ndarray, backend: str | None = None
    ) -> np.ndarray:
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

        stem_masks: dict[int, np.ndarray] = {}
        if self.exact_stems:
            stems = [
                v
                for v in self.simulator.order
                if v not in observed and len(_nondff_fanouts(v)) > 1
            ]
            stem_masks = self._resolve_stems(stems, values, backend)

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
            elif self.exact_stems:
                obs[v] = stem_masks[v]
            else:
                mask = np.zeros(n_words, dtype=np.uint64)
                for g in fanouts:
                    mask |= obs[g] & _local_sensitisation(netlist, g, v, values)
                obs[v] = mask
        return obs

    def _resolve_stems(
        self, stems: list[int], values: np.ndarray, backend: str | None
    ) -> dict[int, np.ndarray]:
        """Exact observability mask for every fanout stem at once."""
        from repro.atpg.ppsfp import resolve_backend

        n_words = values.shape[1]
        if not stems:
            return {}
        resolved = resolve_backend(
            backend or self.backend,
            len(stems),
            n_words,
            workers=self.execution.resolved_workers(),
        )
        if resolved == "serial":
            return {v: self._stem_mask(v, values) for v in stems}
        if self._engine is None:
            from repro.atpg.ppsfp import PpsfpEngine

            # Stem resolution observes at the observation *sites* only;
            # inserted OBS cells expose their fanin, which is already a
            # site — mirroring :meth:`_stem_mask` exactly.
            self._engine = PpsfpEngine(
                self.simulator,
                set(self.netlist.observation_sites),
                self.execution,
            )
        sites = np.array(stems, dtype=np.int64)
        diffs = self._engine.masks(sites, values, stuck=None, backend=resolved)
        observed = self._engine.observed
        out: dict[int, np.ndarray] = {}
        for i, v in enumerate(stems):
            if not self.simulator.forward_cone(v):
                out[v] = np.zeros(n_words, dtype=np.uint64)
            elif v in observed:
                out[v] = diffs[i] | _ONES
            else:
                out[v] = diffs[i]
        return out

    def _stem_mask(self, stem: int, values: np.ndarray) -> np.ndarray:
        """Exact stem observability by faulty-cone resimulation."""
        netlist = self.netlist
        sim = self.simulator
        cone = sim.forward_cone(stem)
        n_words = values.shape[1]
        if not cone:
            return np.zeros(n_words, dtype=np.uint64)
        faulty = _ConeValues(values)
        faulty.set(stem, ~values[stem])
        diff = np.zeros(n_words, dtype=np.uint64)
        observed = set(netlist.observation_sites)
        for v in cone:
            new = _eval_with_overrides(sim, v, faulty)
            faulty.set(v, new)
            if v in observed:
                diff |= new ^ values[v]
        if stem in observed:
            diff |= _ONES
        return diff


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
    exact_stems: bool = True,
    *,
    execution=None,
) -> np.ndarray:
    """Count, per node, how many of ``n_patterns`` random patterns observe it.

    Convenience wrapper: draws random patterns, runs the analyzer and
    popcounts the masks (masking tail bits of the last word).
    """
    from repro.utils.rng import as_rng

    rng = as_rng(seed)
    with ObservabilityAnalyzer(
        netlist, exact_stems=exact_stems, execution=execution
    ) as analyzer:
        n_words = (n_patterns + 63) // 64
        source_words = analyzer.simulator.random_source_words(n_words, rng)
        masks = analyzer.masks(source_words)
    masks = masks & tail_mask(n_patterns)[None, :]
    return np.bitwise_count(masks).sum(axis=1).astype(np.int64)
