"""Two-phase ATPG driver: random patterns, then PODEM, then compaction.

This is the library's stand-in for the commercial ATPG used in the paper's
Table 3: it grades a netlist's testability as (fault coverage, pattern
count), the two metrics the observation-point-insertion flows compete on.

Flow:

1. *Random phase* — batches of 64 random patterns are fault-simulated with
   fault dropping until a batch detects fewer than ``min_batch_yield`` new
   faults (random-resistance sets in) or ``max_random_patterns`` is hit.
2. *Deterministic phase* — PODEM targets each remaining fault; every
   generated cube is random-filled and fault-simulated against the whole
   remaining list so one pattern usually kills several faults.
3. *Compaction* — static cube merging (compatible cubes share a pattern)
   followed by reverse-order fault simulation: patterns that detect no
   fault every other kept pattern misses are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.atpg.faults import Fault, collapse_faults
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.podem import Podem, TestCube
from repro.atpg.simulator import pack_patterns, unpack_values
from repro.circuit.netlist import Netlist
from repro.config import check_config, integer_problems
from repro.utils.rng import as_rng

__all__ = ["AtpgConfig", "AtpgResult", "run_atpg"]


@dataclass
class AtpgConfig:
    """Tuning knobs for :func:`run_atpg`."""

    max_random_patterns: int = 2048
    min_batch_yield: int = 1  #: stop random phase below this many new detects
    random_stall_batches: int = 2  #: consecutive low-yield batches tolerated
    max_backtracks: int = 50
    compaction: bool = True
    seed: int | None = 0
    #: worker count and fabric backend for fault simulation; results are
    #: bit-identical, only speed differs
    execution: "ExecutionConfig | None" = None

    def __post_init__(self) -> None:
        check_config(
            "ATPG config",
            integer_problems("max_random_patterns", self.max_random_patterns, 0)
            + integer_problems("max_backtracks", self.max_backtracks, 0),
        )


@dataclass
class AtpgResult:
    """Outcome of an ATPG run."""

    patterns: np.ndarray  #: (n_patterns, n_sources) fully-specified 0/1
    fault_coverage: float
    n_faults: int
    detected: int
    untestable: int
    aborted: int
    random_patterns_used: int
    deterministic_patterns: int
    untestable_faults: list[Fault] = field(default_factory=list)
    undetected_faults: list[Fault] = field(default_factory=list)
    log: list[str] = field(default_factory=list)

    @property
    def pattern_count(self) -> int:
        return int(self.patterns.shape[0])


def run_atpg(
    netlist: Netlist,
    faults: list[Fault] | None = None,
    config: AtpgConfig | None = None,
) -> AtpgResult:
    """Generate a test set for ``netlist`` and grade its fault coverage."""
    config = config or AtpgConfig()
    rng = as_rng(config.seed)
    if faults is None:
        faults = collapse_faults(netlist)
    total_faults = len(faults)
    fsim = FaultSimulator(netlist, config.execution)
    n_sources = fsim.simulator.n_sources

    kept_patterns: list[np.ndarray] = []
    remaining = list(faults)
    random_used = 0
    stall = 0

    # ------------------------- random phase --------------------------- #
    while (
        remaining
        and random_used < config.max_random_patterns
        and stall < config.random_stall_batches
    ):
        batch_words = fsim.simulator.random_source_words(1, rng)
        result = fsim.simulate_batch(remaining, batch_words, n_patterns=64)
        if result.detected:
            dropped = set(result.detected)
            remaining = [f for f in remaining if f not in dropped]
            # Keep only the patterns that first-detected something.
            used_bits = sorted({p for p in result.detecting_pattern.values()})
            unpacked = unpack_values(batch_words, 64)
            for bit in used_bits:
                kept_patterns.append(unpacked[bit])
        if len(result.detected) < config.min_batch_yield:
            stall += 1
        else:
            stall = 0
        random_used += 64

    # ---------------------- deterministic phase ----------------------- #
    podem = Podem(netlist, max_backtracks=config.max_backtracks)
    untestable_faults: list[Fault] = []
    aborted = 0
    det_patterns = 0
    cubes: list[TestCube] = []
    queue = list(remaining)
    remaining = []
    while queue:
        fault = queue.pop()
        result = podem.generate(fault)
        if result.status == "untestable":
            untestable_faults.append(fault)
            continue
        if result.status == "aborted" or result.cube is None:
            aborted += 1
            remaining.append(fault)
            continue
        cubes.append(result.cube)
        pattern = result.cube.fill_random(rng)
        det_patterns += 1
        kept_patterns.append(pattern)
        if queue:
            words = pack_patterns(pattern[None, :])
            sim_result = fsim.simulate_batch(queue, words, n_patterns=1)
            if sim_result.detected:
                dropped = set(sim_result.detected)
                queue = [f for f in queue if f not in dropped]

    detectable = total_faults - len(untestable_faults)
    detected = detectable - len(remaining)

    patterns = (
        np.array(kept_patterns, dtype=np.uint8)
        if kept_patterns
        else np.zeros((0, n_sources), dtype=np.uint8)
    )

    # --------------------------- compaction --------------------------- #
    if config.compaction and len(patterns):
        excluded = set(remaining) | set(untestable_faults)
        graded = [f for f in faults if f not in excluded]
        patterns = _reverse_order_compaction(fsim, graded, patterns)

    coverage = detected / detectable if detectable else 1.0
    fsim.close()
    return AtpgResult(
        patterns=patterns,
        fault_coverage=coverage,
        n_faults=total_faults,
        detected=detected,
        untestable=len(untestable_faults),
        aborted=aborted,
        random_patterns_used=random_used,
        deterministic_patterns=det_patterns,
        untestable_faults=untestable_faults,
        undetected_faults=list(remaining),
    )


def _reverse_order_compaction(
    fsim: FaultSimulator, faults: list[Fault], patterns: np.ndarray
) -> np.ndarray:
    """Drop patterns that detect nothing the later-kept patterns miss.

    Simulating in reverse order keeps the (typically high-yield)
    deterministic patterns and sheds early random patterns whose faults are
    covered elsewhere — the standard static compaction pass.
    """
    remaining = list(faults)
    keep: list[int] = []
    for idx in range(patterns.shape[0] - 1, -1, -1):
        if not remaining:
            break
        words = pack_patterns(patterns[idx][None, :])
        result = fsim.simulate_batch(remaining, words, n_patterns=1)
        if result.detected:
            keep.append(idx)
            dropped = set(result.detected)
            remaining = [f for f in remaining if f not in dropped]
    keep.sort()
    return patterns[keep]
