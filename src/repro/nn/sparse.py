"""Sparse adjacency: COO triples in, one CSR held.

The paper's fast inference hinges on two properties of the adjacency matrix
(Section 3.4): it is > 99.95 % sparse, so only its entries are stored, and
the OPI flow grows it one node at a time, so adding entries must be cheap.
:class:`COOMatrix` takes its entries as coordinate (COO) triples, the form
the paper keeps A in, and holds them as one scipy CSR — the form every
product reads — with duplicates summed once, at construction.  The OPI
flow's edits patch that CSR in place: entries that each land last in their
row are spliced in, and a rollback shrinks the matrix, which drops the
entries outside the new shape.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["COOMatrix"]


def _triples(shape: tuple[int, int], values, rows, cols) -> tuple[np.ndarray, ...]:
    """``(values, rows, cols)`` as arrays, once they are known to be of
    equal length and inside ``shape``."""
    values = np.asarray(values, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if not (len(values) == len(rows) == len(cols)):
        raise ValueError("values/rows/cols must have equal length")
    if len(rows) and (
        rows.min() < 0 or cols.min() < 0 or rows.max() >= shape[0] or cols.max() >= shape[1]
    ):
        raise ValueError(f"coordinate out of bounds for shape {shape}")
    return values, rows, cols


def _sorted(shape: tuple[int, int], values, rows, cols) -> sp.csr_matrix:
    """The CSR of these triples: rows sorted, duplicates summed."""
    return sp.coo_matrix((values, (rows, cols)), shape=shape).tocsr()


class COOMatrix:
    """A sparse matrix built from COO triples and held as one CSR.

    ``values[k]`` goes to ``(rows[k], cols[k])``; duplicate coordinates
    are summed, as scipy sums them, so :attr:`nnz` counts stored entries.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        values=(),
        rows=(),
        cols=(),
        csr: sp.csr_matrix | None = None,
    ) -> None:
        """Built from the triples, or adopts ``csr`` (of this ``shape``),
        which it then patches in place."""
        shape = (int(shape[0]), int(shape[1]))
        if csr is None:
            csr = _sorted(shape, *_triples(shape, values, rows, cols))
        elif csr.shape != shape:
            raise ValueError(f"a CSR of shape {csr.shape} is not of shape {shape}")
        self._csr = csr
        #: the CSC that :meth:`rmatmul` reads, built on first use
        self._csc: sp.csc_matrix | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self._csr.shape

    @property
    def nnz(self) -> int:
        return self._csr.nnz

    # ------------------------------------------------------------------ #
    # Incremental construction (the OPI flow's A update)
    # ------------------------------------------------------------------ #
    def resize(self, shape: tuple[int, int]) -> None:
        """Grow the matrix, or shrink it and drop the entries outside
        ``shape``; the entries kept stay in their order."""
        self._csr.resize((int(shape[0]), int(shape[1])))
        self._csc = None

    def extend(self, values, rows, cols) -> None:
        """Add ``(value, row, col)`` triples.  When each lands last in its
        row — behind the row's stored entries and this call's earlier ones
        — they are spliced into the CSR in place; otherwise the CSR is
        rebuilt from its entries followed by these."""
        values, rows, cols = _triples(self.shape, values, rows, cols)
        if not len(values):
            return
        self._csc = None
        csr = self._csr
        order = np.argsort(rows, kind="stable")
        s_values, s_rows, s_cols = values[order], rows[order], cols[order]
        starts, ends = csr.indptr[s_rows], csr.indptr[s_rows + 1]
        # What each entry must follow: the entry before it in its row.
        before = np.where(ends > starts, np.append(csr.indices, -1)[ends - 1], -1)
        same_row = np.zeros(len(s_rows), dtype=bool)
        np.equal(s_rows[1:], s_rows[:-1], out=same_row[1:])
        before[same_row] = s_cols[:-1][same_row[1:]]
        if (s_cols <= before).any():
            old = csr.tocoo()
            self._csr = _sorted(
                self.shape,
                np.concatenate([old.data, values]),
                np.concatenate([old.row, rows]),
                np.concatenate([old.col, cols]),
            )
            return
        csr.indices = np.insert(csr.indices, ends, s_cols.astype(csr.indices.dtype))
        csr.data = np.insert(csr.data, ends, s_values)
        csr.indptr[1:] += np.bincount(s_rows, minlength=self.shape[0]).cumsum()

    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        """The CSR arrays as stored (the CSC is rebuilt on demand)."""
        csr = self._csr
        return {"shape": csr.shape, "csr": (csr.data, csr.indices, csr.indptr)}

    def __setstate__(self, state: dict) -> None:
        shape = state["shape"]
        self.__init__(shape, csr=sp.csr_matrix(state["csr"], shape=shape, copy=False))

    @classmethod
    def block_diag(cls, blocks: "list[COOMatrix]") -> "COOMatrix":
        """Stack ``blocks`` onto the diagonal of one larger matrix.

        Block ``k``'s entries land at row/column offsets equal to the
        cumulative shape of the blocks before it, so no entry of one
        block can ever share a row or column with another — exactly the
        structure the serving batcher needs to keep coalesced requests
        separable.  The result's CSR is the blocks' ``indptr`` /
        ``indices`` / ``data`` concatenated with offsets, so each row keeps
        its block's entry order and a sparse matvec row accumulates as it
        would solo.
        """
        if not blocks:
            raise ValueError("block_diag needs at least one block")
        csrs = [block.to_scipy() for block in blocks]
        rows, cols = (int(sum(csr.shape[axis] for csr in csrs)) for axis in (0, 1))
        nnz_offs = np.cumsum([0] + [csr.nnz for csr in csrs])
        col_offs = np.cumsum([0] + [csr.shape[1] for csr in csrs])
        # scipy's native index dtype up front, so the csr_matrix
        # constructor below adopts the arrays without a downcast copy.
        idx = np.int32 if max(cols, nnz_offs[-1]) < np.iinfo(np.int32).max else np.int64
        indptr = np.concatenate(
            [np.zeros(1, idx)]
            + [(csr.indptr[1:] + off).astype(idx) for csr, off in zip(csrs, nnz_offs)]
        )
        indices = np.concatenate(
            [(csr.indices + off).astype(idx) for csr, off in zip(csrs, col_offs)]
        )
        data = np.concatenate([csr.data for csr in csrs])
        csr = sp.csr_matrix((data, indices, indptr), shape=(rows, cols), copy=False)
        return cls((rows, cols), csr=csr)

    # ------------------------------------------------------------------ #
    # Linear algebra
    # ------------------------------------------------------------------ #
    def to_scipy(self) -> sp.csr_matrix:
        """The CSR this matrix is (not a copy: read it, do not write it)."""
        return self._csr

    def matmul(self, dense: np.ndarray) -> np.ndarray:
        """Compute ``A @ dense``."""
        return np.asarray(self._csr @ dense)

    def rmatmul(self, dense: np.ndarray) -> np.ndarray:
        """Compute ``A.T @ dense`` (the backward pass of :meth:`matmul`)."""
        if self._csc is None:
            self._csc = self._csr.tocsc()
        return np.asarray(self._csc.T @ dense)

    def to_dense(self) -> np.ndarray:
        """Materialise a dense copy (tests/small matrices only)."""
        return self._csr.toarray()

    def __repr__(self) -> str:
        return f"COOMatrix(shape={self.shape}, nnz={self.nnz})"
