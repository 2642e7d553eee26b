"""ServeConfig validation: a bad limit fails at construction."""

from __future__ import annotations

import pytest

from repro.resilience.errors import ConfigError
from repro.serve import ServeConfig


@pytest.mark.parametrize("value", [float("nan"), 1.5, 30_000.0, True, 0, "30"])
@pytest.mark.parametrize("name", ["default_deadline_ms", "max_deadline_ms"])
def test_deadlines_must_be_integers(name, value):
    with pytest.raises(ConfigError, match="max_deadline_ms must be integers"):
        ServeConfig(**{name: value})


def test_nan_deadlines_both_ways_are_refused():
    with pytest.raises(ConfigError, match="max_deadline_ms must be integers"):
        ServeConfig(
            default_deadline_ms=float("nan"), max_deadline_ms=float("nan")
        )


def test_max_deadline_below_default_is_refused():
    with pytest.raises(ConfigError, match="max_deadline_ms"):
        ServeConfig(default_deadline_ms=2_000, max_deadline_ms=1_000)
    assert ServeConfig(default_deadline_ms=1, max_deadline_ms=1)
