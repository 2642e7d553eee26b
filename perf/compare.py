"""Compare sets of benchmark runs: ``perf/compare.py BASE OTHER [OTHER ...]``.

Each argument is one side: a result file written by ``run.py --out``, or a
directory of them (one file per run, usually one per seed).  The first
side is the base.  For every workload and end-to-end metric the report
gives each side's median and quartiles over its runs, the ratio of the
medians with its base, and a verdict:

``within``      the other side's median is not worse than the base's by more
                than the metric's bound in ``BENCHMARK.json``
``worse``       it is
``unresolved``  the runs of one side spread (q3 - q1 over the median) wider
                than the bound, so the bound cannot be resolved

``fail_ratio`` has no bound: any rise is ``worse``.  The spread of ``setup_s``
is not judged, as the driver does not judge it: set-up is sampled a few
times per run where operations are sampled by the dozen.  Exits 1 on
``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF_DIR.parent))

from perf import stats  # noqa: E402


def load_bounds(path: Path) -> dict[str, tuple[float, str]]:
    """Metric -> (bound, better) from ``BENCHMARK.json``."""
    spec = json.loads(path.read_text())
    return {m["name"]: (float(m["bound"]), m["better"]) for m in spec["end_to_end"]}


def load_side(path: Path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per run found under ``path``."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"compare: no result files under {path}")
    values: dict[tuple[str, str], list[float]] = {}
    for file in files:
        for result in json.loads(file.read_text())["results"]:
            if result.get("trace"):
                continue
            metrics = dict(result["metrics"], fail_ratio={"value": result["fail_ratio"]})
            for metric, body in metrics.items():
                values.setdefault((result["workload"], metric), []).append(body["value"])
    return values


def verdict(
    base: list[float], other: list[float], bound: float | None, better: str,
    judge_spread: bool = True,
) -> str:
    """``within`` / ``worse`` / ``unresolved`` for one workload and metric."""
    base_median, other_median = stats.median(base), stats.median(other)
    if bound is None:  # fail_ratio
        return "worse" if other_median > base_median else "within"
    for side in (base, other):
        if judge_spread and len(side) >= 2 and stats.spread(side) > bound:
            return "unresolved"
    change = (other_median - base_median) / base_median
    if better == "higher":
        change = -change
    return "worse" if change > bound else "within"


def describe(values: list[float]) -> str:
    q1, q2, q3 = stats.quartiles(values)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def compare(base_path: Path, other_path: Path, bounds) -> list[tuple]:
    base, other = load_side(base_path), load_side(other_path)
    rows = []
    for key in sorted(base):
        workload, metric = key
        if key not in other or (metric not in bounds and metric != "fail_ratio"):
            continue
        bound, better = bounds.get(metric, (None, "lower"))
        base_median = stats.median(base[key])
        ratio = f"{stats.median(other[key]) / base_median:.4f}" if base_median else "n/a"
        rows.append(
            (
                workload, metric, describe(base[key]), describe(other[key]),
                f"{ratio} of {base_median:.5g}",
                verdict(base[key], other[key], bound, better, judge_spread=metric != "setup_s"),
            )
        )
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    bounds = load_bounds(PERF_DIR.parent / "BENCHMARK.json")
    base_path = Path(argv[0])
    worse = False
    for other in argv[1:]:
        print(f"# base {base_path}  vs  {other}")
        print("workload metric base[q1,q3] other[q1,q3] ratio verdict")
        for row in compare(base_path, Path(other), bounds):
            print(" | ".join(row))
            worse = worse or row[-1] == "worse"
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
