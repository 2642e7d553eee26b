#!/usr/bin/env python3
"""Gate: the OPI flow inserts the same points on both sides of a comparison.

Usage: ``check_flow_digest.py BASE_DIR HEAD_DIR``, each a directory of
``perf/run.py --out`` result files (one per seed), as ``make bench-check``
writes them.  Every result that carries ``notes.flow_digest`` (the
``opi_flow`` workload's fingerprint of the inserted targets) is keyed by
(seed, workload, traced); a key whose digest differs between the sides, or
that only one side has, is a failure.  Speed-ups of the flow must not
change what it inserts.

Exit status: 0 when every digest matches (or neither side ran a flow), 1
with one line per mismatch otherwise, 2 on bad usage.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def digests(directory: Path) -> dict[tuple, str]:
    """(seed, workload, traced) -> flow digest of the results in ``directory``."""
    found = {}
    for path in sorted(directory.glob("*.json")):
        payload = json.loads(path.read_text())
        for result in payload.get("results", []):
            digest = result.get("notes", {}).get("flow_digest")
            if digest is not None:
                key = (payload.get("seed"), result["workload"], bool(result.get("trace")))
                found[key] = digest
    return found


def mismatches(base: dict[tuple, str], head: dict[tuple, str]) -> list[str]:
    """One line per key whose digests differ or that one side lacks."""
    lines = []
    for key in sorted(base.keys() | head.keys(), key=repr):
        if base.get(key) != head.get(key):
            seed, workload, traced = key
            lines.append(
                f"{workload} seed {seed}{' traced' if traced else ''}: "
                f"base {base.get(key, 'missing')} != head {head.get(key, 'missing')}"
            )
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(a).is_dir() for a in argv):
        print(__doc__, file=sys.stderr)
        return 2
    base, head = (digests(Path(a)) for a in argv)
    bad = mismatches(base, head)
    for line in bad:
        print(f"FAIL: flow digest differs: {line}")
    if bad:
        return 1
    print(f"flow digests match on {len(base)} result(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
