"""A row-growable array: capacity doubling behind plain numpy views."""

from __future__ import annotations

import numpy as np

__all__ = ["RowStore"]


class RowStore:
    """An array that grows along axis 0 without copying on every append.

    :meth:`rows` hands out a view of the first ``n`` rows; asking for more
    rows than the backing array holds doubles it (old contents kept, new
    rows uninitialised).  Views taken before a growth keep pointing at the
    old backing array, so callers re-take the view after every resize.
    """

    def __init__(self, initial: np.ndarray) -> None:
        n = initial.shape[0]
        self._store = np.empty((n + 16, *initial.shape[1:]), initial.dtype)
        self._store[:n] = initial

    def rows(self, n: int) -> np.ndarray:
        """The first ``n`` rows, growing the backing array to hold them."""
        capacity = self._store.shape[0]
        if n > capacity:
            grown = np.empty(
                (max(n, 2 * capacity), *self._store.shape[1:]), self._store.dtype
            )
            grown[:capacity] = self._store
            self._store = grown
        return self._store[:n]
