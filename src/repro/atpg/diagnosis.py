"""Effect-cause fault diagnosis from tester fail logs.

Observation points don't just raise coverage — they sharpen *diagnosis*
(the paper cites OP insertion "for diagnosability enhancement", ref [25]).
This module provides the diagnosis substrate: given the pattern set and
the observed pass/fail behaviour of a defective part, rank candidate
stuck-at faults by how well their simulated signatures explain the log.

The signature of a fault is the set of (pattern, observation-site) pairs
it would corrupt; candidates are scored by Jaccard-style match against the
observed failures (exact intersection/union over fail bits), the standard
cause-effect dictionary approach — computed on the fly with the
bit-parallel fault simulator rather than from a precomputed dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import Fault, collapse_faults
from repro.atpg.simulator import LogicSimulator, pack_patterns, tail_mask
from repro.circuit.cells import GateType
from repro.circuit.netlist import Netlist

__all__ = ["FailLog", "DiagnosisCandidate", "diagnose", "simulate_fail_log"]


@dataclass
class FailLog:
    """Observed tester behaviour: per-pattern failing observation sites.

    ``failures[p]`` is the (possibly empty) set of observation-site node
    ids whose captured value mismatched expectation under pattern ``p``.
    """

    n_patterns: int
    failures: dict[int, frozenset[int]] = field(default_factory=dict)

    @property
    def failing_patterns(self) -> list[int]:
        return sorted(p for p, sites in self.failures.items() if sites)

    def fail_bits(self) -> set[tuple[int, int]]:
        return {
            (p, s) for p, sites in self.failures.items() for s in sites
        }


@dataclass
class DiagnosisCandidate:
    """One ranked explanation."""

    fault: Fault
    score: float  #: Jaccard match of predicted vs observed fail bits
    predicted_fails: int
    matched_fails: int


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


def _fault_signature(
    fsim: FaultSimulator,
    fault: Fault,
    values: np.ndarray,
    trim: np.ndarray,
) -> set[tuple[int, int]]:
    """(pattern, site) pairs the fault corrupts under the applied patterns."""
    observed = sorted(fsim._observed)
    n_words = values.shape[1]
    stuck = np.full(
        n_words,
        np.uint64(0xFFFFFFFFFFFFFFFF) if fault.stuck_value else 0,
        dtype=np.uint64,
    )
    activated = (values[fault.node] ^ stuck) & trim
    signature: set[tuple[int, int]] = set()
    if not activated.any():
        return signature
    faulty = _ConeValues(values)
    faulty.set(fault.node, stuck)
    per_site: dict[int, np.ndarray] = {}
    if fault.node in fsim._observed:
        per_site[fault.node] = activated
    for v in fsim.simulator.forward_cone(fault.node):
        new = _eval_with_overrides(fsim.simulator, v, faulty)
        faulty.set(v, new)
        if v in fsim._observed:
            per_site[v] = (new ^ values[v]) & activated & trim
    for site, mask in per_site.items():
        for word_index in np.flatnonzero(mask):
            word = int(mask[word_index])
            while word:
                bit = (word & -word).bit_length() - 1
                signature.add((word_index * 64 + bit, site))
                word &= word - 1
    return signature


def diagnose(
    netlist: Netlist,
    patterns: np.ndarray,
    fail_log: FailLog,
    candidates: list[Fault] | None = None,
    top_k: int = 10,
) -> list[DiagnosisCandidate]:
    """Rank stuck-at candidates explaining ``fail_log`` under ``patterns``.

    Candidates whose signature shares no fail bit with the log score 0 and
    are omitted.  A score of 1.0 means the fault reproduces the log
    exactly (every observed fail predicted, nothing extra).
    """
    if top_k < 1:
        raise ValueError(f"top_k must be at least 1, got {top_k}")
    observed_bits = fail_log.fail_bits()
    if not observed_bits:
        return []
    fsim = FaultSimulator(netlist)
    words = pack_patterns(patterns)
    trim = tail_mask(fail_log.n_patterns)
    values = fsim.good_values(words)
    if candidates is None:
        candidates = collapse_faults(netlist)

    ranked: list[DiagnosisCandidate] = []
    for fault in candidates:
        signature = _fault_signature(fsim, fault, values, trim)
        if not signature:
            continue
        matched = len(signature & observed_bits)
        if matched == 0:
            continue
        union = len(signature | observed_bits)
        ranked.append(
            DiagnosisCandidate(
                fault=fault,
                score=matched / union,
                predicted_fails=len(signature),
                matched_fails=matched,
            )
        )
    ranked.sort(key=lambda c: (-c.score, c.fault))
    return ranked[:top_k]


def simulate_fail_log(
    netlist: Netlist, patterns: np.ndarray, defect: Fault
) -> FailLog:
    """Build the fail log a part carrying ``defect`` would produce.

    Test/demo helper: the inverse problem of :func:`diagnose`.
    """
    fsim = FaultSimulator(netlist)
    words = pack_patterns(patterns)
    n_patterns = patterns.shape[0]
    trim = tail_mask(n_patterns)
    values = fsim.good_values(words)
    signature = _fault_signature(fsim, defect, values, trim)
    failures: dict[int, set[int]] = {}
    for pattern, site in signature:
        failures.setdefault(pattern, set()).add(site)
    return FailLog(
        n_patterns=n_patterns,
        failures={p: frozenset(s) for p, s in failures.items()},
    )
