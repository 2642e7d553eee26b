"""Shared plumbing: paths, child environment, the classifier asset, designs, results."""

from __future__ import annotations

import hashlib
import heapq
import io
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from perf import stats

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
SRC = ROOT / "src"
OUT_DIR = PERF_DIR / "out"
ASSET = PERF_DIR / "assets" / "gcn_w15.npz"
ASSET_DIGEST = PERF_DIR / "assets" / "gcn_w15.sha256"

#: one BLAS/OpenMP thread everywhere: the dense products here are <= 128
#: wide, and two BLAS threads on two shared cores made the OPI flow twice
#: as slow and doubled its run-to-run spread
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Serving a page fault in this guest costs 5 to 60 microseconds from one
#: second to the next (0.08 s to 1.02 s of system time for the same 17k
#: faults of one ``offline_50k`` operation), which no CPU probe can see.  So
#: glibc keeps freed memory mapped instead of handing it back and faulting
#: it in again: no mmap for large blocks, no trimming of the heap top.
MALLOC_ENV = {
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(4 << 30),
    "MALLOC_TOP_PAD_": str(64 << 20),
}

#: times set-up is repeated in a run; ``setup_s`` is the median
SETUP_REPEATS = 3

RESCORE_REPS = {"full": 30, "smoke": 3}
RESCORE_MIN_S = 0.02

#: design seeds are ``offset + SEED_STRIDE * seed + index`` so that the
#: pools of neighbouring seeds share no design
SEED_STRIDE = 64


def child_env(results_dir: Path) -> dict[str, str]:
    """Environment of every process the harness starts."""
    env = dict(os.environ)
    for name in THREAD_ENV:
        env[name] = "1"
    env.update(MALLOC_ENV)
    env["REPRO_RESULTS"] = str(results_dir)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


@contextmanager
def scratch_dir():
    """A temporary directory inside the checkout, removed on exit."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def check_asset() -> str:
    """Refuse to run on a classifier other than the committed one."""
    expected = ASSET_DIGEST.read_text().split()[0]
    actual = hashlib.sha256(ASSET.read_bytes()).hexdigest()
    if actual != expected:
        die(
            f"{ASSET.name} has sha256 {actual}, expected {expected}; "
            "the workloads are defined on the committed classifier"
        )
    return actual


def host_fingerprint() -> dict:
    import numpy
    import scipy

    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas_info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name', '')} {blas_info.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas = ""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


# --------------------------------------------------------------------- #
# Designs
# --------------------------------------------------------------------- #
def design_seed(offset: int, seed: int, index: int = 0) -> int:
    return offset + SEED_STRIDE * seed + index


def bench_text(netlist) -> str:
    from repro import api

    stream = io.StringIO()
    api.write_bench(netlist, stream)
    return stream.getvalue()


def make_design(gates: int, seed: int):
    """``(netlist, .bench text)`` of one generated design."""
    from repro import api

    netlist = api.generate_design(gates, seed=seed)
    return netlist, bench_text(netlist)


def isomorphic_copy(netlist, seed: int):
    """The same circuit with its nodes renumbered in a random topological order.

    Used where the amount of work depends on the circuit's structure far
    more than on its size: every seed then does the same work on an input
    the program has not seen before.
    """
    import numpy as np

    from repro import api

    priority = np.random.default_rng(seed).permutation(netlist.num_nodes)
    waiting = [len(netlist.fanins(v)) for v in netlist.nodes()]
    ready = [(priority[v], v) for v in netlist.nodes() if waiting[v] == 0]
    heapq.heapify(ready)
    copy = api.Netlist(netlist.name)
    new_id: dict[int, int] = {}
    while ready:
        _, v = heapq.heappop(ready)
        new_id[v] = copy.add_cell(
            netlist.gate_type(v), [new_id[u] for u in netlist.fanins(v)]
        )
        for sink in netlist.fanouts(v):
            waiting[sink] -= 1
            if waiting[sink] == 0:
                heapq.heappush(ready, (priority[sink], sink))
    for v in netlist.nodes():
        if netlist.is_output(v):
            copy.mark_output(new_id[v])
    return copy


# --------------------------------------------------------------------- #
# Timing
# --------------------------------------------------------------------- #
def measure_setup(outcome: "Outcome", host, prepare, program_setup, teardown=None, repeats=1):
    """Time set-up and report ``setup_s``; return ``(inputs, state)``.

    ``prepare()`` is the harness's own work (generating designs, reference
    answers) and runs once.  ``program_setup(inputs)`` is the program's
    (loading the classifier, spawning the daemon, warming up): it runs
    ``repeats`` times and its median is taken, each earlier state torn
    down, untimed, before the next.  ``setup_s`` is the sum of the two.
    """
    prepared, inputs = host.timed(prepare)
    timings = []
    state = None
    for _ in range(repeats):
        if state is not None and teardown is not None:
            teardown(state)
        timing, state = host.timed(lambda: program_setup(inputs))
        timings.append(timing)
    program_s = stats.median(t.normalised_s for t in timings)
    outcome.put("setup_s", prepared.normalised_s + program_s, "s")
    outcome.notes["setup"] = {
        "prepare_raw_s": prepared.wall_s,
        "program_raw_s": [t.wall_s for t in timings],
        "slowdown": [prepared.slowdown] + [t.slowdown for t in timings],
    }
    return inputs, state


def rescore(outcome: "Outcome", host, weights, graph, size: str) -> None:
    """``rescore_p50_s``: ``api.score`` on a prebuilt graph of the workload's size.

    The paper's Figure 10 quantity.  A sample is at least ``RESCORE_MIN_S``
    long (several calls on a small graph), so that the probes around it
    speak for it.
    """
    from repro import api

    first, _ = host.timed(lambda: api.score(weights, graph))
    calls = max(1, math.ceil(RESCORE_MIN_S / first.wall_s))

    def sample():
        for _ in range(calls):
            api.score(weights, graph)

    timings = [host.timed(sample)[0] for _ in range(RESCORE_REPS[size])]
    outcome.put_timings("rescore_p50_s", timings, "s", scale=1.0 / calls)
    outcome.notes["rescore_calls_per_sample"] = calls


def setup_repeats(trace: bool, size: str) -> int:
    return 1 if trace or size == "smoke" else SETUP_REPEATS


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------- #
@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    samples: dict[str, dict] = field(default_factory=dict)  #: name -> stats.summarize
    notes: dict = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def put_sample(self, name: str, values, unit: str, raw=None) -> None:
        """Report the median of ``values``; keep its quartiles, count and raw median."""
        self.samples[name] = stats.summarize(values)
        if raw is not None:
            self.samples[name]["raw_p50"] = stats.median(raw)
        self.put(name, self.samples[name]["p50"], unit)

    def put_timings(self, name: str, timings, unit: str, scale: float = 1.0) -> None:
        """Median of host-speed-normalised times (see perf/hostspeed.py)."""
        self.put_sample(
            name,
            [t.normalised_s * scale for t in timings],
            unit,
            raw=[t.wall_s * scale for t in timings],
        )

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        self.failures[reason] = self.failures.get(reason, 0) + count

    def to_json(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
            "samples": self.samples,
            "notes": self.notes,
        }


def emit(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))


def die(message: str, code: int = 2):
    print(f"perf: {message}", file=sys.stderr)
    raise SystemExit(code)
