"""Bit-parallel single-fault simulation with fault dropping.

Parallel-pattern single-fault propagation (PPSFP): the good circuit is
simulated once per 64-pattern word batch; each undetected fault is then
injected and only its forward cone resimulated, comparing values at the
observation sites.  Detected faults are dropped from the active list, which
is what makes random-phase ATPG affordable.

Backends (see :mod:`repro.atpg.ppsfp`):

* ``serial`` — the original per-fault, per-node Python walk.  Kept as the
  executable specification; every other backend must match it bit for bit.
* ``batched`` — fault-axis vectorisation: F faults graded per call with
  grouped numpy ops over the union forward cone.
* ``parallel`` — the batched engine sharded across a process pool with
  the good-value matrix in shared memory.
* ``auto`` (default) — picks for the workload and machine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.atpg.faults import Fault
from repro.atpg.observability import _ConeValues, _eval_with_overrides
from repro.atpg.ppsfp import (
    PpsfpConfig,
    PpsfpEngine,
    _inject_rows,
    resolve_backend,
)
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


def _serial_evals_counter():
    return get_registry().counter(
        "repro_atpg_cone_node_evals_total",
        "per-node cone evaluations in the serial fault-simulation path",
    )


def _rate_gauge():
    return get_registry().gauge(
        "repro_atpg_faults_per_second",
        "fault gradings per wall-clock second, by backend",
        labelnames=("backend",),
    )


_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass
class FaultSimResult:
    """Outcome of simulating one pattern batch against a fault list."""

    detected: list[Fault] = field(default_factory=list)
    #: for each detected fault, the index of the first detecting pattern
    detecting_pattern: dict[Fault, int] = field(default_factory=dict)


class FaultSimulator:
    """Fault simulator bound to one netlist.

    ``execution`` selects the grading engine for :meth:`simulate_batch` /
    :meth:`detection_masks` (backend ``auto`` | ``serial`` | ``batched``
    | ``parallel``, plus the worker count); per-call overrides win.
    :meth:`detection_mask` is always the serial oracle.
    """

    def __init__(
        self,
        netlist: Netlist,
        execution: "ExecutionConfig | None" = None,
        config: PpsfpConfig | None = None,
    ) -> None:
        from repro.config import ExecutionConfig

        self.execution = execution or ExecutionConfig()
        self.netlist = netlist
        self.simulator = LogicSimulator(netlist)
        self.backend = self.execution.backend
        self.config = config or PpsfpConfig()
        if self.execution.workers is not None and config is None:
            self.config.workers = self.execution.workers
        self._observed = set(netlist.observation_sites)
        self._observed.update(netlist.observation_points())
        self._engine: PpsfpEngine | None = None

    def good_values(self, source_words: np.ndarray) -> np.ndarray:
        return self.simulator.simulate(source_words)

    @property
    def engine(self) -> PpsfpEngine:
        """The batched/parallel grading engine (created on first use)."""
        if self._engine is None:
            self._engine = PpsfpEngine(
                self.simulator, self._observed, self.config
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
    def detection_mask(self, fault: Fault, values: np.ndarray) -> np.ndarray:
        """Packed mask of patterns that detect ``fault`` given good values.

        A pattern detects the fault iff (a) it activates it — the fault-free
        value at the site differs from the stuck value — and (b) the faulty
        value propagates to an observation site.  This is the serial oracle:
        one Python-level gate evaluation per cone node.
        """
        n_words = values.shape[1]
        site_value = values[fault.node]
        stuck = np.full(n_words, _ONES if fault.stuck_value else 0, dtype=np.uint64)
        activated = site_value ^ stuck
        if not activated.any():
            return np.zeros(n_words, dtype=np.uint64)

        faulty = _ConeValues(values)
        faulty.set(fault.node, stuck)
        diff = np.zeros(n_words, dtype=np.uint64)
        if fault.node in self._observed:
            diff |= activated
        cone = self.simulator.forward_cone(fault.node)
        for v in cone:
            new = _eval_with_overrides(self.simulator, v, faulty)
            faulty.set(v, new)
            if v in self._observed:
                diff |= new ^ values[v]
        _serial_evals_counter().inc(len(cone))
        return diff & activated

    def detection_masks(
        self,
        faults: list[Fault],
        values: np.ndarray,
        backend: str | None = None,
    ) -> np.ndarray:
        """Detection masks for every fault at once, shape ``(F, W)``.

        Bit-identical across backends: row ``i`` equals
        ``detection_mask(faults[i], values)``.
        """
        n_words = values.shape[1]
        if not faults:
            return np.zeros((0, n_words), dtype=np.uint64)
        resolved = resolve_backend(
            backend or self.backend,
            len(faults),
            n_words,
            workers=self.config.workers,
        )
        if resolved == "serial":
            return np.stack([self.detection_mask(f, values) for f in faults])
        sites = np.array([f.node for f in faults], dtype=np.int64)
        stuck = np.array([f.stuck_value for f in faults], dtype=np.uint8)
        diffs = self.engine.masks(sites, values, stuck, backend=resolved)
        # Same post-processing the serial path applies per fault: the site
        # itself counts as a propagation target when observed, and a
        # pattern only detects when it activates the fault.
        activated = values[sites] ^ _inject_rows(sites, stuck, values)
        site_observed = np.array(
            [f.node in self._observed for f in faults], dtype=bool
        )
        diffs[site_observed] |= activated[site_observed]
        diffs &= activated
        return diffs

    def simulate_batch(
        self,
        faults: list[Fault],
        source_words: np.ndarray,
        n_patterns: int | None = None,
        backend: str | None = None,
    ) -> FaultSimResult:
        """Grade ``faults`` against one packed pattern batch.

        ``n_patterns`` trims unused tail bits of the final word.
        """
        n_words = source_words.shape[1]
        if n_patterns is None:
            n_patterns = n_words * 64
        trim = tail_mask(n_patterns)
        result = FaultSimResult()
        resolved = resolve_backend(
            backend or self.backend,
            len(faults),
            n_words,
            workers=self.config.workers,
        )
        started = time.perf_counter()
        with span(
            "atpg.simulate_batch",
            faults=len(faults),
            patterns=n_patterns,
            backend=resolved,
        ):
            values = self.good_values(source_words)
            masks = self.detection_masks(faults, values, backend=resolved)
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
            _rate_gauge().labels(backend=resolved).set(len(faults) / elapsed)
        return result

    def fault_coverage(
        self,
        faults: list[Fault],
        pattern_batches: list[np.ndarray],
        backend: str | None = None,
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
            result = self.simulate_batch(remaining, batch, backend=backend)
            dropped = set(result.detected)
            remaining = [f for f in remaining if f not in dropped]
        return 1.0 - len(remaining) / total, remaining
