"""The repo's one benchmark: ``.bench`` text in, scores out (see perf/README.md)."""
