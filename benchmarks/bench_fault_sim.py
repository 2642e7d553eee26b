"""Fault-simulation engine benchmark: serial oracle vs batched vs parallel.

Times the exact same grading workload (collapsed stuck-at fault list, 256
random patterns) three ways on a ladder of design sizes — the serial
oracle in ``tests/atpg/reference_faultsim.py``, the engine in process
(``workers=1``), and the engine on the worker pool (every core, with
``POOL_MIN_SITES`` lowered so every tier pools) — and writes
``results/BENCH_fault_sim.json`` with faults/sec, wall-clock and speedups
over the oracle, plus a bit-identity check per tier.

Run directly (``make bench-faultsim``); it is not a pytest-benchmark
module — the engine's acceptance numbers come from wall-clock over a
fixed workload, not statistical micro-timing.

Environment knobs: ``REPRO_SCALE`` scales every tier, ``REPRO_RESULTS``
redirects the output directory, ``REPRO_BENCH_REPEATS`` (default 3) sets
best-of-N timing.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.atpg import ppsfp
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import collapse_faults
from repro.config import ExecutionConfig
from repro.data.benchmarks import benchmark_scale, generate_design
from repro.experiments.common import write_result

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.atpg import reference_faultsim as reference  # noqa: E402

#: the execution config behind each timed column
_COLUMNS = {"batched": ExecutionConfig(workers=1), "parallel": ExecutionConfig()}

#: tier gate counts as fractions of the default benchmark design size
_TIERS = (0.15, 0.6, 1.0)
_BASE_GATES = 2500
_N_WORDS = 4  # 256 patterns
_SEED = 7


def _best_of(fn, repeats: int):
    elapsed = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        elapsed.append(time.perf_counter() - t0)
    return min(elapsed), result


def _grade_tier(n_gates: int, repeats: int) -> dict:
    netlist = generate_design(n_gates, seed=_SEED)
    faults = collapse_faults(netlist)
    fsim = FaultSimulator(netlist)
    rng = np.random.default_rng(1)
    values = fsim.good_values(fsim.simulator.random_source_words(_N_WORDS, rng))

    t_serial, (oracle, _) = _best_of(
        lambda: reference.detection_masks(netlist, faults, values), repeats
    )
    row = {
        "gates": netlist.num_nodes,
        "faults": len(faults),
        "patterns": _N_WORDS * 64,
        "serial_seconds": t_serial,
        "serial_faults_per_second": len(faults) / t_serial,
        "bit_identical": True,
    }

    backends = ["batched"]
    if (os.cpu_count() or 1) > 1:
        backends.append("parallel")
    else:
        row["parallel_seconds"] = None
        row["parallel_speedup"] = None
        row["parallel_skipped"] = "single-core host"
    pool_min_sites = ppsfp.POOL_MIN_SITES
    for backend in backends:
        engine = FaultSimulator(netlist, _COLUMNS[backend])
        ppsfp.POOL_MIN_SITES = 1
        try:
            t, masks = _best_of(
                lambda: engine.detection_masks(faults, values), repeats
            )
        finally:
            ppsfp.POOL_MIN_SITES = pool_min_sites
            engine.close()
        row[f"{backend}_seconds"] = t
        row[f"{backend}_faults_per_second"] = len(faults) / t
        row[f"{backend}_speedup"] = t_serial / t
        row["bit_identical"] &= bool(np.array_equal(oracle, masks))
    return row


def main() -> dict:
    scale = benchmark_scale()
    repeats = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
    tiers = []
    for fraction in _TIERS:
        n_gates = max(50, int(_BASE_GATES * fraction * scale))
        row = _grade_tier(n_gates, repeats)
        row["tier"] = fraction
        tiers.append(row)
        speedups = ", ".join(
            f"{backend}={row[f'{backend}_speedup']:.1f}x"
            for backend in ("batched", "parallel")
            if row.get(f"{backend}_speedup")
        )
        print(
            f"gates={row['gates']} faults={row['faults']} "
            f"serial={row['serial_seconds']:.3f}s {speedups} "
            f"identical={row['bit_identical']}"
        )
    default_tier = tiers[-1]
    payload = {
        "comment": (
            "serial column: the oracle, walking each fault site's cone once "
            "per call (its own per-call memo, nothing shared across calls)"
        ),
        "scale": scale,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "tiers": tiers,
        "default_scale_batched_speedup": default_tier["batched_speedup"],
        "default_scale_parallel_speedup": default_tier.get("parallel_speedup"),
        "all_bit_identical": all(t["bit_identical"] for t in tiers),
    }
    path = write_result("BENCH_fault_sim", payload)
    print(f"wrote {path}")
    return payload


if __name__ == "__main__":
    main()
