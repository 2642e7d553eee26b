"""Run manifests: reproducibility record for every instrumented run.

A manifest pins down what produced a result: the exact config, the git
SHA, the RNG seed, a fingerprint of the input data, and the final metric
snapshot.  It is written atomically to ``results/<run>/manifest.json``
(plus the span tree to ``trace.json``), so experiment outputs are
comparable across PRs.

:class:`RunRecorder` bundles the whole protocol: pick a run id, scope it
onto the logs, open a trace root, and on exit write manifest + trace.
:func:`write_report` reads the two files back as "where did the time go"
(``repro obs-report``).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from repro.obs import logs, trace
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.resilience.atomic import atomic_write_json

__all__ = [
    "git_sha",
    "dataset_fingerprint",
    "RunRecorder",
    "write_report",
]


def git_sha(cwd: str | os.PathLike | None = None) -> str | None:
    """The repo HEAD SHA, or None outside a git checkout.

    ``REPRO_GIT_SHA`` overrides (CI containers often vendor the source
    without ``.git``).
    """
    override = os.environ.get("REPRO_GIT_SHA")
    if override:
        return override
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd or Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def dataset_fingerprint(items) -> dict:
    """Stable fingerprint of the input graphs/netlists of a run.

    ``items`` is any iterable of objects with ``name``/``num_nodes``/
    ``num_edges`` (GraphData, Netlist) — enough to detect "the sweep ran
    on different inputs" without hashing gigabytes of attributes.
    """
    import hashlib

    entries = sorted(
        (
            str(getattr(x, "name", "?")),
            int(getattr(x, "num_nodes", 0)),
            int(getattr(x, "num_edges", 0)),
        )
        for x in items
    )
    blob = "|".join(f"{n}:{v}:{e}" for n, v, e in entries)
    return {
        "sha256": hashlib.sha256(blob.encode()).hexdigest()[:16],
        "designs": [
            {"name": n, "num_nodes": v, "num_edges": e} for n, v, e in entries
        ],
    }


def _results_root() -> Path:
    return Path(os.environ.get("REPRO_RESULTS", "results"))


class RunRecorder:
    """Context manager recording one run end to end.

    >>> with RunRecorder("train", command="repro train", config={...},
    ...                  seed=0) as run:
    ...     ...                       # spans + metrics accumulate
    ...     run.note(final_loss=0.1) # ad-hoc result fields
    ... # -> results/<run.run_id>/manifest.json + trace.json

    The run id defaults to ``<name>-<YYYYmmdd-HHMMSS>-<pid>`` and can be
    pinned via ``REPRO_RUN_ID`` (CI artifact paths) or the ``run_id``
    argument.  The manifest embeds the snapshot of ``registry`` (the
    process-default one unless given) taken at exit.
    """

    def __init__(
        self,
        name: str,
        command: str | None = None,
        config: dict | None = None,
        seed: int | None = None,
        dataset: dict | None = None,
        registry: MetricsRegistry | None = None,
        results_root: str | os.PathLike | None = None,
        run_id: str | None = None,
    ) -> None:
        self.name = name
        self.command = command
        self.config = config or {}
        self.seed = seed
        self.dataset = dataset
        self.registry = registry
        self.results_root = Path(results_root) if results_root else None
        self.run_id = (
            run_id
            or os.environ.get("REPRO_RUN_ID")
            or f"{name}-{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}"
        )
        self.extra: dict = {}
        self.manifest_path: Path | None = None
        self.trace_path: Path | None = None
        self._log_ctx = None
        self._trace_ctx = None
        self._root_span: trace.Span | None = None
        self._started_at: float = 0.0

    # ---------------------------------------------------------------- #
    def note(self, **fields) -> None:
        """Attach result fields to the manifest (final F1, row counts...)."""
        self.extra.update(fields)

    def set_dataset(self, items) -> None:
        """Record the input fingerprint once the data is loaded."""
        self.dataset = dataset_fingerprint(items)

    @property
    def run_dir(self) -> Path:
        return (self.results_root or _results_root()) / self.run_id

    # ---------------------------------------------------------------- #
    def __enter__(self) -> "RunRecorder":
        self._started_at = time.time()
        self._log_ctx = logs.run_context(self.run_id)
        self._log_ctx.__enter__()
        self._trace_ctx = trace.trace(self.name, run_id=self.run_id)
        self._root_span = self._trace_ctx.__enter__()
        logs.get_logger("run").info(
            "run started", extra={"run_name": self.name, "seed": self.seed}
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._trace_ctx.__exit__(exc_type, exc, tb)
        status = "failed" if exc_type is not None else "ok"
        try:
            self.write(status=status, error=None if exc is None else repr(exc))
        finally:
            self._log_ctx.__exit__(exc_type, exc, tb)

    def write(self, status: str = "ok", error: str | None = None) -> Path:
        """Write ``manifest.json`` + ``trace.json`` atomically; returns the
        manifest path."""
        registry = self.registry or get_registry()
        root = self._root_span
        run_dir = self.run_dir
        run_dir.mkdir(parents=True, exist_ok=True)
        manifest = {
            "run_id": self.run_id,
            "name": self.name,
            "command": self.command,
            "status": status,
            "config": self.config,
            "seed": self.seed,
            "git_sha": git_sha(),
            "dataset": self.dataset,
            "started_at": self._started_at,
            "duration_s": None if root is None else round(root.wall_s, 6),
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "argv": sys.argv,
            "metrics": registry.snapshot(),
        }
        if error:
            manifest["error"] = error
        if self.extra:
            manifest["results"] = self.extra
        if root is not None:
            self.trace_path = atomic_write_json(
                run_dir / "trace.json", root.to_dict(), indent=2
            )
        self.manifest_path = atomic_write_json(
            run_dir / "manifest.json", manifest, indent=2, default=str
        )
        logs.get_logger("run").info(
            "run finished",
            extra={"status": status, "manifest": str(self.manifest_path)},
        )
        return self.manifest_path


def write_report(run_dir: str | os.PathLike) -> str:
    """Where a recorded run's time went, as markdown (``repro obs-report``).

    A manifest summary and the span tree of ``trace.json`` through
    :func:`repro.obs.trace.format_tree` (wall/CPU per span).  Written to
    ``<run_dir>/report.md`` and returned.
    """
    run_dir = Path(run_dir)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    lines = [
        f"# Run `{manifest.get('run_id') or run_dir.name}`",
        "",
        f"- command: `{manifest.get('command')}`",
        f"- status: {manifest.get('status')}, {manifest.get('duration_s')} s",
        f"- git sha: `{manifest.get('git_sha') or 'unknown'}`",
        "",
        "## Span tree",
        "",
    ]
    trace_path = run_dir / "trace.json"
    if trace_path.is_file():
        tree = trace.Span.from_dict(json.loads(trace_path.read_text()))
        lines += ["```", trace.format_tree(tree), "```"]
    else:
        lines.append(f"No span tree: {trace_path} is missing.")
    report = "\n".join(lines) + "\n"
    (run_dir / "report.md").write_text(report)
    return report
