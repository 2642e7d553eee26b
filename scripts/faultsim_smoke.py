#!/usr/bin/env python
"""Deterministic perf smoke for the fault-axis fault-simulation engine.

CI cannot assert wall-clock speedups (shared runners jitter), so this
smoke asserts *work* counts instead, which are exact and
machine-independent.  The engine runs in process (``workers=1``) against
the serial oracle in ``tests/atpg/reference_faultsim.py``:

1. oracle and engine produce bit-identical detection masks, detected
   lists and first-detecting patterns on a generated design;
2. the oracle walks N cone nodes one Python gate evaluation at a time,
   while the engine spends only ``repro_atpg_cone_group_evals_total``
   vectorised group evaluations — the ratio bounds the interpreter-loop
   reduction and must clear a conservative floor;
3. the ``repro_atpg_faults_per_second`` gauge is published for the
   in-process path (``backend="batched"``).

Exits non-zero with a one-line FAIL message on the first violated check.
Run from anywhere: ``python scripts/faultsim_smoke.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from repro.atpg.fault_sim import FaultSimulator  # noqa: E402
from repro.atpg.faults import collapse_faults  # noqa: E402
from repro.config import ExecutionConfig  # noqa: E402
from repro.data.benchmarks import generate_design  # noqa: E402
from repro.obs.metrics import MetricsRegistry, set_registry  # noqa: E402
from tests.atpg import reference_faultsim as reference  # noqa: E402

#: serial cone-node evals per batched group eval; the measured ratio on
#: the 800-gate design is ~130, so 20 leaves a 6x slack
_MIN_WORK_RATIO = 20.0


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def main() -> None:
    registry = MetricsRegistry()
    set_registry(registry)  # isolate from anything imported before us
    netlist = generate_design(800, seed=7)
    faults = collapse_faults(netlist)
    fsim = FaultSimulator(netlist, ExecutionConfig(workers=1))
    rng = np.random.default_rng(1)
    words = fsim.simulator.random_source_words(4, rng)
    values = fsim.good_values(words)

    serial, mask_evals = reference.detection_masks(netlist, faults, values)
    batched = fsim.detection_masks(faults, values)
    if not np.array_equal(serial, batched):
        fail("batched detection masks differ from the serial oracle")
    res_serial, batch_evals = reference.simulate_batch(netlist, faults, words)
    res_batched = fsim.simulate_batch(faults, words)
    if res_serial.detected != res_batched.detected:
        fail("batched detected-fault list differs from the serial oracle")
    if res_serial.detecting_pattern != res_batched.detecting_pattern:
        fail("batched detecting-pattern indices differ from the serial oracle")
    print(
        f"OK bit-identical masks and detections for {len(faults)} faults "
        f"({len(res_serial.detected)} detected)"
    )

    node_evals = mask_evals + batch_evals
    group_evals = registry.get("repro_atpg_cone_group_evals_total").value
    if not node_evals:
        fail("serial oracle walked no cone nodes")
    if not group_evals:
        fail("batched path published no group evaluations")
    ratio = node_evals / group_evals
    if ratio < _MIN_WORK_RATIO:
        fail(
            f"work ratio {ratio:.1f} below floor {_MIN_WORK_RATIO} "
            f"({node_evals:.0f} serial cone-node evals vs "
            f"{group_evals:.0f} batched group evals)"
        )
    print(
        f"OK work ratio {ratio:.0f}x "
        f"({node_evals:.0f} cone-node evals -> {group_evals:.0f} group evals)"
    )

    gauge = registry.get("repro_atpg_faults_per_second")
    if gauge is None or gauge.labels(backend="batched").value <= 0:
        fail("faults-per-second gauge missing for backend='batched'")
    print("OK faults-per-second gauge published for the in-process path")
    print("PASS fault-sim smoke")


if __name__ == "__main__":
    main()
