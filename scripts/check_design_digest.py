#!/usr/bin/env python3
"""Gate: the benchmark's workloads run on the same designs, and the GCN sees
the same graphs, on both sides.

Usage:
  ``check_design_digest.py [--smoke]``
      print one line per ``perf/`` workload -- its name, the number of
      designs its ``prepare`` builds for seed 1, the sha256 of their
      ``.bench`` texts, and the sha256 of the graphs the front end builds
      from those texts -- computed by the ``repro`` on ``PYTHONPATH``;
  ``check_design_digest.py [--smoke] BASE_SRC HEAD_SRC``
      run the above with ``PYTHONPATH`` set to each ``src`` directory in
      turn and compare the lines, as ``make bench-check`` does.

The designs are the ones the workloads define: the gate counts and seeds
of ``perf/`` (``common.design_seed``), and for ``opi_flow`` the
``common.isomorphic_copy`` of its fixed design.  ``--smoke`` takes the
workloads' smoke sizes.  A speed-up of the generator or the writer must
not change a byte of them, or the perf gate would compare runs on
different inputs.  The graph digest covers what
``api.build_graph(api.load_netlist(text))`` gives for each text: the
attribute matrix and both adjacency matrices' CSR arrays as stored.  A
speed-up of the parser, levelisation or SCOAP must not move a bit of it.

Exit status: 0 when every line matches (compare mode) or after printing,
1 with one line per differing workload, 2 on bad usage.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def design_texts(size: str) -> dict[str, list[str]]:
    """Workload -> the ``.bench`` texts of the designs its ``prepare`` builds."""
    from perf import common, offline_50k, opi_flow, serve_workloads
    from repro import api

    texts = {
        offline_50k.NAME: [
            common.make_design(
                offline_50k.GATES[size], common.design_seed(offline_50k.SEED_OFFSET, SEED)
            )[1]
        ]
    }
    for name, offset in serve_workloads.SEED_OFFSETS.items():
        count, gates = serve_workloads.POOLS[name][size]
        texts[name] = [
            common.make_design(gates, common.design_seed(offset, SEED, index))[1]
            for index in range(count)
        ]
    design = api.generate_design(opi_flow.GATES[size], seed=opi_flow.BASE_SEED)
    texts[opi_flow.NAME] = [common.bench_text(common.isomorphic_copy(design, SEED))]
    return texts


def graph_digest(text: str) -> bytes:
    """sha256 of the graph the front end builds from ``text``: attributes,
    then the CSR arrays of the predecessor and successor matrices as
    stored, so a change to the order within a row shows, not only a change
    to the entries (that order is the SpMM's accumulation order)."""
    import numpy as np

    from repro import api

    graph = api.build_graph(api.load_netlist(text))
    h = hashlib.sha256()
    arrays = [graph.attributes.astype(np.float64)]
    for matrix in (graph.pred, graph.succ):
        csr = matrix.to_scipy()
        arrays += [csr.indptr.astype(np.int64), csr.indices.astype(np.int64), csr.data.astype(np.float64)]
    for array in arrays:
        h.update(repr(array.shape).encode())
        h.update(np.ascontiguousarray(array).tobytes())
    return h.digest()


def digest_lines(size: str) -> list[str]:
    lines = []
    for name, texts in design_texts(size).items():
        designs, graphs = hashlib.sha256(), hashlib.sha256()
        for text in texts:
            designs.update(hashlib.sha256(text.encode()).digest())
            graphs.update(graph_digest(text))
        lines.append(f"{name} {len(texts)} {designs.hexdigest()} {graphs.hexdigest()}")
    return lines


def side_lines(src: str, smoke: bool) -> list[str]:
    """:func:`digest_lines` in a fresh interpreter importing ``repro`` from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    command = [sys.executable, __file__] + (["--smoke"] if smoke else [])
    done = subprocess.run(command, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: digests under {src} failed:\n{done.stderr}")
    return done.stdout.splitlines()


def mismatches(base: list[str], head: list[str]) -> list[str]:
    """One line per workload whose digest line differs or that one side lacks."""
    base_by = {line.split()[0]: line for line in base}
    head_by = {line.split()[0]: line for line in head}
    return [
        f"base {base_by.get(name, name + ' missing')} != head {head_by.get(name, name + ' missing')}"
        for name in sorted(base_by.keys() | head_by.keys())
        if base_by.get(name) != head_by.get(name)
    ]


def what_differs(mismatch: str) -> str:
    """``"graphs"`` when a :func:`mismatches` line has equal designs on both
    sides, else ``"designs"``."""
    base, head = mismatch.removeprefix("base ").split(" != head ")
    return "graphs" if base.split()[:3] == head.split()[:3] else "designs"


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    args = [a for a in argv if a != "--smoke"]
    size = "smoke" if smoke else "full"
    if not args:
        sys.path.insert(0, str(ROOT))
        print("\n".join(digest_lines(size)))
        return 0
    if len(args) != 2 or not all(Path(a, "repro").is_dir() for a in args):
        print(__doc__, file=sys.stderr)
        return 2
    base, head = (side_lines(a, smoke) for a in args)
    bad = mismatches(base, head)
    for line in bad:
        print(f"FAIL: {what_differs(line)} differ: {line}")
    if bad:
        return 1
    print(f"designs and graphs match on {len(base)} workload(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
