"""Shared utilities: RNG handling, timing, table formatting, growable arrays."""

from repro.utils.rng import as_rng, derive_rng
from repro.utils.rowstore import RowStore
from repro.utils.timing import Timer, time_call
from repro.utils.tables import format_table

__all__ = ["as_rng", "derive_rng", "RowStore", "Timer", "time_call", "format_table"]
