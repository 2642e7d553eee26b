"""ATPG substrate: simulation, fault grading and test generation.

Substitutes for the commercial ATPG/DFT tooling the paper relies on for
labels (via :mod:`repro.atpg.observability`) and for the Table-3 testability
metrics (via :func:`repro.atpg.generate.run_atpg`).
"""

from repro.atpg.simulator import (
    LogicSimulator,
    pack_patterns,
    random_pattern_words,
    unpack_values,
)
from repro.atpg.ppsfp import BatchedConeEngine, PpsfpEngine
from repro.atpg.observability import ObservabilityAnalyzer, observability_counts
from repro.atpg.faults import Fault, collapse_faults, full_fault_list
from repro.atpg.fault_sim import FaultSimResult, FaultSimulator
from repro.atpg.podem import Podem, PodemResult, TestCube, ThreeValuedSimulator
from repro.atpg.generate import AtpgConfig, AtpgResult, run_atpg

__all__ = [
    "LogicSimulator",
    "pack_patterns",
    "random_pattern_words",
    "unpack_values",
    "BatchedConeEngine",
    "PpsfpEngine",
    "ObservabilityAnalyzer",
    "observability_counts",
    "Fault",
    "collapse_faults",
    "full_fault_list",
    "FaultSimResult",
    "FaultSimulator",
    "Podem",
    "PodemResult",
    "TestCube",
    "ThreeValuedSimulator",
    "AtpgConfig",
    "AtpgResult",
    "run_atpg",
]
