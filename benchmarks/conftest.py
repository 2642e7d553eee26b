"""Shared fixtures for the benchmark harness.

The harness regenerates every table and figure of the paper's evaluation.
Expensive shared state (the labelled benchmark suite) is session-scoped
and backed by the on-disk label cache, so the first run pays for labelling
once and later runs start immediately.

These benches reproduce the paper's results; none of them is the speed
yardstick.  That is ``perf/`` + ``BENCHMARK.json``, gated by
``make bench-check``.

Environment knobs: ``REPRO_SCALE`` (design size), ``REPRO_FULL=1``
(paper-strength settings), ``REPRO_RESULTS`` (output directory).
"""

from __future__ import annotations

import pytest

from repro.data.benchmarks import benchmark_scale
from repro.data.dataset import load_suite
from repro.experiments.common import experiment_label_config


@pytest.fixture(scope="session")
def scale() -> float:
    return benchmark_scale()


@pytest.fixture(scope="session")
def suite(scale):
    """The labelled B1-B4 benchmark suite (Table 1's designs)."""
    return load_suite(scale=scale, label_config=experiment_label_config())
