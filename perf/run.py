"""Run the benchmark: one child process per workload, one result per run.

    python3 perf/run.py                       # every workload, end-to-end metrics
    python3 perf/run.py --traced              # every workload, per-layer metrics
    python3 perf/run.py --workload serve_2k --seed 3 --seconds 20 --trace 0
    python3 perf/run.py --smoke               # toy sizes, both modes, < 30 s

Prints one line per metric (``workload metric value unit``) and, last, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exits 0 only if every workload ran and every correctness check passed.
See perf/README.md for what each name means.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perf import common  # noqa: E402

WORKLOADS = ("offline_50k", "serve_2k", "serve_tiny_batch", "opi_flow")
END_TO_END = (
    "setup_s", "wall_p50_s", "rescore_p50_s", "designs_per_s", "latency_p50_ms", "peak_rss_mb",
)
#: a child that has not answered by then is killed; the driver allows 180 s
CHILD_TIMEOUT_S = 170
SMOKE_SECONDS = 1.0


def default_seconds() -> float:
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--out", type=Path, default=None, help="also write the result here")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--size", default="full", choices=("full", "smoke"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.trace = bool(args.trace or args.traced)
    return args


# --------------------------------------------------------------------- #
# Child: one workload, in a process with one BLAS thread
# --------------------------------------------------------------------- #
def run_child(args) -> int:
    import importlib

    (name,) = args.workload
    module = importlib.import_module(
        f"perf.{'serve_workloads' if name.startswith('serve_') else name}"
    )
    outcome = module.run(
        seed=args.seed, seconds=args.seconds, trace=args.trace, size=args.size, name=name
    )
    result = outcome.to_json()
    result["workload"] = name
    result["fail_ratio"] = outcome.failed / max(1, outcome.attempted)
    result["host"] = common.host_fingerprint()
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------- #
# Parent
# --------------------------------------------------------------------- #
def spawn(name: str, trace: bool, args, scratch: Path) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(int(trace)),
        "--size", args.size,
    ]
    # Its own session, so that a stuck child is killed together with the
    # daemon and the worker pool it started.
    process = subprocess.Popen(
        command, env=common.child_env(scratch), cwd=str(ROOT),
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        common.die(f"{name}: no result within {CHILD_TIMEOUT_S} s")
    if process.returncode != 0 or not stdout.strip():
        common.die(f"{name}: child exited with code {process.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["trace"] = trace
    return result


def contract_line(results: list[dict], trace: bool) -> dict:
    """The one JSON object the driver reads: this mode's metrics only."""
    metrics = {}
    for result in results:
        prefix = f"{result['workload']}/" if len(results) > 1 else ""
        for name, metric in result["metrics"].items():
            if (name in END_TO_END) != trace:
                metrics[prefix + name] = metric
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else default_seconds()
    if args.child:
        return run_child(args)
    if not (ROOT / "src" / "repro").is_dir():
        common.die("src/repro not found: the benchmark measures this repository's program")
    digest = common.check_asset()
    if args.smoke:
        args.size = "smoke"
    names = args.workload or list(WORKLOADS)
    modes = (False, True) if args.smoke else (args.trace,)

    jobs = [(name, trace) for trace in modes for name in names]
    with common.scratch_dir() as scratch:
        # Measured runs go one at a time; the smoke run measures nothing
        # and takes two at a time to stay under half a minute.
        with ThreadPoolExecutor(max_workers=2 if args.smoke else 1) as pool:
            results = list(pool.map(lambda job: spawn(*job, args, scratch), jobs))
    for result in results:
        name = result["workload"]
        for metric, body in sorted(result["metrics"].items()):
            print(f"{name} {metric} {body['value']:.6g} {body['unit']}")
        print(f"{name} fail_ratio {result['fail_ratio']:.6g} ratio")
        if result["failures"]:
            print(f"{name} failures {json.dumps(result['failures'])}", file=sys.stderr)

    payload = {
        "seed": args.seed, "seconds": args.seconds, "size": args.size,
        "asset_sha256": digest, "results": results,
    }
    mode = "smoke" if args.smoke else ("traced" if args.trace else "e2e")
    common.emit(common.OUT_DIR / f"result-{mode}.json", payload)
    if args.out is not None:
        common.emit(args.out, payload)
    last = [r for r in results if r["trace"] == modes[-1]]
    line = contract_line(last, modes[-1])
    line["correct"] = all(r["failed"] == 0 for r in results)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
