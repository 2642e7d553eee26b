"""Sparse COO matrix with incremental construction.

The paper's fast inference hinges on two properties of the adjacency matrix
(Section 3.4): it is > 99.95 % sparse, so it must be stored in coordinate
(COO) format, and the OPI flow grows it one node at a time, so COO's cheap
append matters.  :class:`COOMatrix` provides exactly that: amortised O(1)
appends with capacity doubling, plus matmul through a lazily-built CSR
cache that the OPI flow's edits — an append that lands last in its row, a
LIFO truncate of such appends — patch in place instead of dropping.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["COOMatrix"]


def _spliced(array: np.ndarray, start: int, stop: int, items: list) -> np.ndarray:
    """A copy of ``array`` with ``array[start:stop]`` replaced by ``items``."""
    items = np.asarray(items, dtype=array.dtype)
    return np.concatenate([array[:start], items, array[stop:]])


class COOMatrix:
    """A growable sparse matrix in coordinate format.

    ``values[k]`` sits at ``(rows[k], cols[k])``.  Duplicate coordinates are
    summed when materialised, matching scipy semantics.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        values: np.ndarray | None = None,
        rows: np.ndarray | None = None,
        cols: np.ndarray | None = None,
    ) -> None:
        self._shape = (int(shape[0]), int(shape[1]))
        if values is None:
            values = np.empty(0, dtype=np.float64)
            rows = np.empty(0, dtype=np.int64)
            cols = np.empty(0, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if not (len(values) == len(rows) == len(cols)):
            raise ValueError("values/rows/cols must have equal length")
        self._check_bounds(rows, cols)
        self._n = len(values)
        capacity = max(16, self._n)
        self._values = np.empty(capacity, dtype=np.float64)
        self._rows = np.empty(capacity, dtype=np.int64)
        self._cols = np.empty(capacity, dtype=np.int64)
        self._values[: self._n] = values
        self._rows[: self._n] = rows
        self._cols[: self._n] = cols
        self._csr: sp.csr_matrix | None = None
        #: entries the cached CSR was sorted from; later ones were patched
        #: in one by one, each last in its row, so they come out LIFO
        self._csr_base = 0
        self._csc: sp.csc_matrix | None = None

    # ------------------------------------------------------------------ #
    def _check_bounds(self, rows: np.ndarray, cols: np.ndarray) -> None:
        if len(rows) and (
            rows.min() < 0
            or cols.min() < 0
            or rows.max() >= self._shape[0]
            or cols.max() >= self._shape[1]
        ):
            raise ValueError("coordinate out of bounds for shape "
                             f"{self._shape}")

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        return self._n

    @property
    def values(self) -> np.ndarray:
        if self._rows is None:
            self._rebuild_triples()
        return self._values[: self._n]

    @property
    def rows(self) -> np.ndarray:
        if self._rows is None:
            self._rebuild_triples()
        return self._rows[: self._n]

    @property
    def cols(self) -> np.ndarray:
        if self._rows is None:
            self._rebuild_triples()
        return self._cols[: self._n]

    @property
    def sparsity(self) -> float:
        """Fraction of zero entries (1.0 for an empty matrix)."""
        cells = self._shape[0] * self._shape[1]
        if cells == 0:
            return 1.0
        return 1.0 - self.nnz / cells

    # ------------------------------------------------------------------ #
    # Incremental construction (the OPI flow's A update)
    # ------------------------------------------------------------------ #
    def resize(self, shape: tuple[int, int]) -> None:
        """Grow the logical shape (shrinking below existing entries fails)."""
        shape = (int(shape[0]), int(shape[1]))
        if self._n and (
            shape[0] <= self.rows.max() or shape[1] <= self.cols.max()
        ):
            raise ValueError(
                f"cannot shrink to {shape}: existing entries out of bounds"
            )
        self._set_shape(shape)

    def append(self, value: float, row: int, col: int) -> None:
        """Append one ``(value, row, col)`` tuple — amortised O(1)."""
        if self._rows is None:
            self._rebuild_triples()
        if self._n == len(self._values):
            new_cap = 2 * len(self._values)
            self._values = np.resize(self._values, new_cap)
            self._rows = np.resize(self._rows, new_cap)
            self._cols = np.resize(self._cols, new_cap)
        if not (0 <= row < self._shape[0] and 0 <= col < self._shape[1]):
            raise ValueError(f"coordinate ({row}, {col}) out of bounds for "
                             f"shape {self._shape}")
        self._values[self._n] = value
        self._rows[self._n] = row
        self._cols[self._n] = col
        self._n += 1
        self._csc = None
        csr = self._csr
        if csr is not None:
            end = csr.indptr[row + 1]
            if end > csr.indptr[row] and csr.indices[end - 1] >= col:
                self._csr = None  # not last in its row: re-sort lazily
            else:
                csr.indices = _spliced(csr.indices, end, end, [col])
                csr.data = _spliced(csr.data, end, end, [value])
                csr.indptr[row + 1 :] += 1

    def extend(self, values, rows, cols) -> None:
        """Append multiple tuples at once."""
        for value, row, col in zip(values, rows, cols):
            self.append(float(value), int(row), int(col))

    def truncate(self, nnz: int, shape: tuple[int, int] | None = None) -> None:
        """Roll back to the first ``nnz`` entries.

        Used by the impact evaluator to undo a tentative OP insertion
        without re-sorting the matrix: O(1) on the tuples, one splice of
        the cached CSR per entry dropped.  Optionally also restores
        ``shape``.
        """
        if not 0 <= nnz <= self._n:
            raise ValueError(f"cannot truncate to {nnz} entries (have {self._n})")
        if self._rows is None:
            self._rebuild_triples()
        self._csc = None
        csr = self._csr
        if csr is not None and nnz < self._csr_base:
            csr = self._csr = None
        if csr is not None:
            for row in self._rows[nnz : self._n][::-1]:
                end = csr.indptr[row + 1]
                csr.indices = _spliced(csr.indices, end - 1, end, [])
                csr.data = _spliced(csr.data, end - 1, end, [])
                csr.indptr[row + 1 :] -= 1
        self._n = nnz
        if shape is not None:
            self._set_shape((int(shape[0]), int(shape[1])))

    def _set_shape(self, shape: tuple[int, int]) -> None:
        self._shape = shape
        self._csc = None
        if self._csr is not None:
            self._csr.resize(shape)

    # ------------------------------------------------------------------ #
    # One format across a process boundary
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        """The CSR arrays alone when the cache is current, else the triples.

        A matrix whose CSR was sorted from exactly its present entries
        (nothing appended since, no duplicate summed) is fully described
        by ``data``/``indices``/``indptr``: shipping the triples as well
        doubles the frame the admission workers sign and checksum.
        """
        csr = self._csr
        if csr is not None and self._csr_base == self._n == csr.nnz:
            return {"shape": self._shape, "csr": (csr.data, csr.indices, csr.indptr)}
        return {
            "shape": self._shape,
            "triples": (self.values, self.rows, self.cols),
        }

    def __setstate__(self, state: dict) -> None:
        if "triples" in state:
            self.__init__(state["shape"], *state["triples"])
        else:
            self._adopt_csr(state["shape"], *state["csr"])

    def _adopt_csr(self, shape, data, indices, indptr) -> None:
        """Become the matrix these CSR arrays describe, triples deferred."""
        self._shape = (int(shape[0]), int(shape[1]))
        self._csr = sp.csr_matrix((data, indices, indptr), shape=self._shape, copy=False)
        self._csr_base = self._n = self._csr.nnz
        self._csc = None
        # Rebuilt on first use (scoring never asks): None marks them absent.
        self._values = self._rows = self._cols = None

    def _rebuild_triples(self) -> None:
        """``values``/``rows``/``cols`` of a matrix that came as CSR arrays
        (unpickled, or a :meth:`block_diag`), in CSR order; entries
        appended afterwards follow them as usual."""
        csr = self._csr
        rows = np.repeat(
            np.arange(self._shape[0], dtype=np.int64), np.diff(csr.indptr)
        )
        self.__init__(self._shape, csr.data, rows, csr.indices)
        self._csr, self._csr_base = csr, self._n

    # ------------------------------------------------------------------ #
    @classmethod
    def block_diag(cls, blocks: "list[COOMatrix]") -> "COOMatrix":
        """Stack ``blocks`` onto the diagonal of one larger matrix.

        Block ``k``'s entries land at row/column offsets equal to the
        cumulative shape of the blocks before it, so no entry of one
        block can ever share a row or column with another — exactly the
        structure the serving batcher needs to keep coalesced requests
        separable.

        The result's CSR cache is assembled directly from each block's
        (cached) CSR arrays — an ``indptr``/``indices``/``data``
        concatenation with offsets — instead of re-sorting the combined
        COO triples.  Per-row entry order is inherited unchanged from
        the blocks, so sparse matvec rows accumulate in the same order
        they would solo, and the batched pass pays no conversion.
        """
        if not blocks:
            raise ValueError("block_diag needs at least one block")
        csrs = [block.to_scipy() for block in blocks]
        row_offs = np.zeros(len(blocks) + 1, dtype=np.int64)
        col_offs = np.zeros(len(blocks) + 1, dtype=np.int64)
        nnz_offs = np.zeros(len(blocks) + 1, dtype=np.int64)
        for i, (block, csr) in enumerate(zip(blocks, csrs)):
            row_offs[i + 1] = row_offs[i] + block.shape[0]
            col_offs[i + 1] = col_offs[i] + block.shape[1]
            nnz_offs[i + 1] = nnz_offs[i] + csr.nnz
        shape = (int(row_offs[-1]), int(col_offs[-1]))

        # scipy's native index dtype up front, so the csr_matrix
        # constructor below adopts the arrays without a downcast copy.
        idx_dtype = (
            np.int32
            if max(shape[1], int(nnz_offs[-1])) < np.iinfo(np.int32).max
            else np.int64
        )
        indptr = np.zeros(shape[0] + 1, dtype=idx_dtype)
        for i, csr in enumerate(csrs):
            indptr[row_offs[i] + 1 : row_offs[i + 1] + 1] = (
                csr.indptr[1:] + nnz_offs[i]
            )
        counts = np.diff(nnz_offs)
        indices = np.concatenate([csr.indices for csr in csrs]).astype(
            idx_dtype, copy=False
        )
        indices += np.repeat(col_offs[:-1].astype(idx_dtype), counts)
        data = np.concatenate([csr.data for csr in csrs])

        # The COO view, when asked for, mirrors the CSR layout (rows
        # expanded from indptr), so the two stay consistent entry-for-entry.
        merged = cls.__new__(cls)
        merged._adopt_csr(shape, data, indices, indptr)
        return merged

    # ------------------------------------------------------------------ #
    # Linear algebra
    # ------------------------------------------------------------------ #
    def to_scipy(self) -> sp.csr_matrix:
        """Materialise (and cache) a CSR copy; duplicates are summed."""
        if self._csr is None:
            coo = sp.coo_matrix(
                (self.values, (self.rows, self.cols)), shape=self._shape
            )
            self._csr = coo.tocsr()
            self._csr_base = self._n
        return self._csr

    def _to_csc(self) -> sp.csc_matrix:
        if self._csc is None:
            self._csc = self.to_scipy().tocsc()
        return self._csc

    def matmul(self, dense: np.ndarray) -> np.ndarray:
        """Compute ``A @ dense``."""
        return np.asarray(self.to_scipy() @ dense)

    def rmatmul(self, dense: np.ndarray) -> np.ndarray:
        """Compute ``A.T @ dense`` (the backward pass of :meth:`matmul`)."""
        return np.asarray(self._to_csc().T @ dense)

    def to_dense(self) -> np.ndarray:
        """Materialise a dense copy (tests/small matrices only)."""
        return self.to_scipy().toarray()

    def transpose(self) -> "COOMatrix":
        """Return a transposed copy."""
        return COOMatrix(
            (self._shape[1], self._shape[0]),
            self.values.copy(),
            self.cols.copy(),
            self.rows.copy(),
        )

    def copy(self) -> "COOMatrix":
        return COOMatrix(
            self._shape, self.values.copy(), self.rows.copy(), self.cols.copy()
        )

    @classmethod
    def from_scipy(cls, matrix: sp.spmatrix) -> "COOMatrix":
        coo = matrix.tocoo()
        return cls(coo.shape, coo.data, coo.row, coo.col)

    def __repr__(self) -> str:
        return (
            f"COOMatrix(shape={self._shape}, nnz={self.nnz}, "
            f"sparsity={self.sparsity:.4%})"
        )
