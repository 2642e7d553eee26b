"""Bit-parallel single-fault simulation with fault dropping.

Parallel-pattern single-fault propagation (PPSFP): the good circuit is
simulated once per 64-pattern word batch; each undetected fault is then
injected and only its forward cone resimulated, comparing values at the
observation sites.  Detected faults are dropped from the active list, which
is what makes random-phase ATPG affordable.

Grading runs on :class:`~repro.atpg.ppsfp.PpsfpEngine`, which picks its
path from the input: F faults per call with grouped numpy ops over the
union forward cone, in process, or — for a call grading at least
:data:`~repro.atpg.ppsfp.POOL_MIN_SITES` faults under an
:class:`~repro.config.ExecutionConfig` that allows more than one worker
off the ``inprocess`` fabric — the same engine sharded across the
execution fabric's pool.  Both are bit-identical to the per-fault cone
walk kept as the oracle in ``tests/atpg/reference_faultsim.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.atpg.faults import Fault
from repro.atpg.ppsfp import PpsfpEngine, _inject_rows
from repro.atpg.simulator import LogicSimulator, tail_mask
from repro.circuit.netlist import Netlist
from repro.obs.metrics import get_registry
from repro.obs.trace import span

__all__ = ["FaultSimulator", "FaultSimResult"]


def _obs():
    reg = get_registry()
    return (
        reg.counter(
            "repro_atpg_patterns_simulated_total",
            "patterns graded by the fault simulator",
        ),
        reg.counter(
            "repro_atpg_faults_graded_total", "fault-pattern batch gradings"
        ),
        reg.counter(
            "repro_atpg_faults_detected_total", "faults detected (and dropped)"
        ),
    )


def _rate_gauge():
    return get_registry().gauge(
        "repro_atpg_faults_per_second",
        "fault gradings per wall-clock second, by backend",
        labelnames=("backend",),
    )


@dataclass
class FaultSimResult:
    """Outcome of simulating one pattern batch against a fault list."""

    detected: list[Fault] = field(default_factory=list)
    #: for each detected fault, the index of the first detecting pattern
    detecting_pattern: dict[Fault, int] = field(default_factory=dict)


class FaultSimulator:
    """Fault simulator bound to one netlist.

    ``execution`` sizes and places the grading engine's worker pool
    (``workers``, ``exec_backend``); whether a call uses the pool is the
    engine's decision (:meth:`PpsfpEngine.grading_path`).
    """

    def __init__(
        self, netlist: Netlist, execution: "ExecutionConfig | None" = None
    ) -> None:
        from repro.config import ExecutionConfig

        self.execution = execution or ExecutionConfig()
        self.netlist = netlist
        self.simulator = LogicSimulator(netlist)
        self._observed = netlist.observed_nodes()
        self._is_observed = np.zeros(netlist.num_nodes, dtype=bool)
        self._is_observed[self._observed] = True
        self._engine: PpsfpEngine | None = None

    def good_values(self, source_words: np.ndarray) -> np.ndarray:
        return self.simulator.simulate(source_words)

    @property
    def engine(self) -> PpsfpEngine:
        """The grading engine (created on first use)."""
        if self._engine is None:
            self._engine = PpsfpEngine(
                self.simulator, self._observed, self.execution
            )
        return self._engine

    def close(self) -> None:
        """Release the worker pool, if one was started (idempotent)."""
        if self._engine is not None:
            self._engine.close()

    def __enter__(self) -> "FaultSimulator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def detection_masks(
        self, faults: list[Fault], values: np.ndarray
    ) -> np.ndarray:
        """Detection masks for every fault at once, shape ``(F, W)``.

        Bit ``p`` of row ``i`` is set iff pattern ``p`` detects
        ``faults[i]`` given the good values: it activates the fault (the
        fault-free value at the site differs from the stuck value) and the
        faulty value propagates to an observation site.
        """
        n_words = values.shape[1]
        if not faults:
            return np.zeros((0, n_words), dtype=np.uint64)
        sites = np.array([f.node for f in faults], dtype=np.int64)
        stuck = np.array([f.stuck_value for f in faults], dtype=np.uint8)
        diffs = self.engine.masks(sites, values, stuck)
        # The site itself counts as a propagation target when observed,
        # and a pattern only detects when it activates the fault.
        activated = values[sites] ^ _inject_rows(sites, stuck, values)
        site_observed = self._is_observed[sites]
        diffs[site_observed] |= activated[site_observed]
        diffs &= activated
        return diffs

    def simulate_batch(
        self,
        faults: list[Fault],
        source_words: np.ndarray,
        n_patterns: int | None = None,
    ) -> FaultSimResult:
        """Grade ``faults`` against one packed pattern batch.

        ``n_patterns`` trims unused tail bits of the final word; it must
        be in ``1..64 * W`` for ``W`` packed words.
        """
        n_words = source_words.shape[1]
        if n_patterns is None:
            n_patterns = n_words * 64
        elif not 1 <= n_patterns <= n_words * 64:
            raise ValueError(
                f"n_patterns must be in 1..{n_words * 64} for {n_words} "
                f"packed words, got {n_patterns}"
            )
        trim = tail_mask(n_patterns)
        result = FaultSimResult()
        path = self.engine.grading_path(len(faults))
        started = time.perf_counter()
        with span(
            "atpg.simulate_batch",
            faults=len(faults),
            patterns=n_patterns,
            backend=path,
        ):
            values = self.good_values(source_words)
            masks = self.detection_masks(faults, values)
            masks &= trim
            for i, fault in enumerate(faults):
                mask = masks[i]
                if mask.any():
                    result.detected.append(fault)
                    first_word = int(np.flatnonzero(mask)[0])
                    word = int(mask[first_word])
                    lowest = (word & -word).bit_length() - 1
                    result.detecting_pattern[fault] = first_word * 64 + lowest
        elapsed = time.perf_counter() - started
        patterns, graded, detected = _obs()
        patterns.inc(n_patterns)
        graded.inc(len(faults))
        detected.inc(len(result.detected))
        if faults and elapsed > 0:
            _rate_gauge().labels(backend=path).set(len(faults) / elapsed)
        return result

    def fault_coverage(
        self,
        faults: list[Fault],
        pattern_batches: list[np.ndarray],
    ) -> tuple[float, list[Fault]]:
        """Coverage of ``faults`` by the given batches, with fault dropping.

        Returns ``(coverage, undetected)``.
        """
        remaining = list(faults)
        total = len(faults)
        if total == 0:
            return 1.0, []
        for batch in pattern_batches:
            if not remaining:
                break
            result = self.simulate_batch(remaining, batch)
            dropped = set(result.detected)
            remaining = [f for f in remaining if f not in dropped]
        return 1.0 - len(remaining) / total, remaining
