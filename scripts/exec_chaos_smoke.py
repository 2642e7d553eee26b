#!/usr/bin/env python
"""Chaos smoke for the execution fabric: every mode, every recovery path.

Runs the fault-simulation engine through the fork-pool fabric under each
``REPRO_CHAOS`` mode (kill / hang / raise / corrupt) plus a clean
baseline, asserting after every run that:

1. the recovered result is bit-identical to the in-process result;
2. the fabric actually exercised the recovery machinery (retries > 0 for
   every chaos mode; integrity rejections > 0 for ``corrupt``);
3. no ``repro-exec-*`` shared-memory segment is left in ``/dev/shm``.

The fault lists are small, so the script lowers
``repro.atpg.ppsfp.POOL_MIN_SITES`` to 1 once its in-process oracles are
computed: every later fault-simulation call grades on the pool.

Metrics snapshots land in ``$REPRO_RESULTS/exec_chaos_metrics.json``
(default ``results/``) so CI can archive exactly which counters each
chaos mode moved.

Exits non-zero with a one-line FAIL message on the first violated check.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.atpg import ppsfp  # noqa: E402
from repro.atpg.fault_sim import FaultSimulator  # noqa: E402
from repro.atpg.faults import collapse_faults  # noqa: E402
from repro.config import ExecutionConfig  # noqa: E402
from repro.data.benchmarks import generate_design  # noqa: E402
from repro.exec import CHAOS_MODES, leaked_segment_names  # noqa: E402
from repro.obs.metrics import MetricsRegistry, set_registry  # noqa: E402
from repro.resilience.retry import RetryPolicy  # noqa: E402


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def _counter_total(snapshot: dict, name: str) -> float:
    family = snapshot.get(name, {})
    return sum(s["value"] for s in family.get("samples", ()))


def main() -> None:
    netlist = generate_design(200, seed=7)
    faults = collapse_faults(netlist)
    fsim = FaultSimulator(netlist, ExecutionConfig(workers=2))
    fsim.engine.policy = dataclasses.replace(
        fsim.engine.policy,
        retry=RetryPolicy(max_attempts=2, base_delay=0.0),
        worker_timeout=1.0,
    )
    rng = np.random.default_rng(1)
    values = fsim.good_values(fsim.simulator.random_source_words(2, rng))
    oracle = fsim.detection_masks(faults, values)
    ppsfp.POOL_MIN_SITES = 1

    # Longer than the worker timeout: the hung worker is killed at its
    # deadline, not waited for.
    os.environ["REPRO_CHAOS_HANG_S"] = "5"
    report: dict = {}
    for mode in (None, *CHAOS_MODES):
        label = mode or "baseline"
        registry = MetricsRegistry()
        set_registry(registry)
        if mode is None:
            os.environ.pop("REPRO_CHAOS", None)
        else:
            os.environ["REPRO_CHAOS"] = mode
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                masks = fsim.detection_masks(faults, values)
        finally:
            os.environ.pop("REPRO_CHAOS", None)
        if not np.array_equal(masks, oracle):
            fail(f"{label}: recovered masks differ from the serial oracle")
        snapshot = registry.snapshot()
        retries = _counter_total(snapshot, "repro_exec_task_retries_total")
        if mode is not None and retries == 0:
            fail(f"{label}: chaos was enabled but no task retries were counted")
        if mode == "corrupt" and _counter_total(
            snapshot, "repro_exec_integrity_failures_total"
        ) == 0:
            fail("corrupt: no CRC integrity rejections were counted")
        leaked = leaked_segment_names()
        if leaked:
            fail(f"{label}: leaked shared-memory segments: {leaked}")
        report[label] = snapshot
        print(
            f"OK   {label}: bit-identical, retries={int(retries)}, "
            f"no leaked segments"
        )
    fsim.close()

    out_dir = Path(os.environ.get("REPRO_RESULTS", "results"))
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "exec_chaos_metrics.json"
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"PASS: all chaos modes recovered; metrics dumped to {out_path}")


if __name__ == "__main__":
    main()
