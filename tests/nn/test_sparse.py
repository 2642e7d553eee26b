"""COOMatrix: construction, appends, rollback, pickling, linear algebra."""

import pickle

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.sparse import COOMatrix


def _random_coo(rng, n_rows=6, n_cols=5, nnz=8):
    rows = rng.integers(0, n_rows, size=nnz)
    cols = rng.integers(0, n_cols, size=nnz)
    values = rng.normal(size=nnz)
    return COOMatrix((n_rows, n_cols), values, rows, cols)


class TestConstruction:
    def test_empty(self):
        m = COOMatrix((3, 3))
        assert m.nnz == 0
        assert m.sparsity == 1.0
        assert np.array_equal(m.to_dense(), np.zeros((3, 3)))

    def test_dense_round_trip(self, rng):
        m = _random_coo(rng)
        expected = np.zeros((6, 5))
        for v, r, c in zip(m.values, m.rows, m.cols):
            expected[r, c] += v
        assert np.allclose(m.to_dense(), expected)

    def test_duplicates_sum(self):
        m = COOMatrix((2, 2), [1.0, 2.0], [0, 0], [1, 1])
        assert m.to_dense()[0, 1] == 3.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            COOMatrix((2, 2), [1.0], [0, 1], [0])

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            COOMatrix((2, 2), [1.0], [2], [0])

    def test_from_scipy(self, rng):
        m = _random_coo(rng)
        again = COOMatrix.from_scipy(m.to_scipy())
        assert np.allclose(again.to_dense(), m.to_dense())


class TestAppendAndRollback:
    def test_append_grows(self):
        m = COOMatrix((3, 3))
        for i in range(40):  # passes the capacity-doubling boundary
            m.append(1.0, i % 3, (i + 1) % 3)
        assert m.nnz == 40

    def test_append_bounds_checked(self):
        m = COOMatrix((2, 2))
        with pytest.raises(ValueError):
            m.append(1.0, 2, 0)

    def test_append_invalidates_cache(self):
        m = COOMatrix((2, 2), [1.0], [0], [0])
        before = m.matmul(np.eye(2))
        m.append(5.0, 1, 1)
        after = m.matmul(np.eye(2))
        assert before[1, 1] == 0.0 and after[1, 1] == 5.0

    def test_resize_then_append(self):
        m = COOMatrix((2, 2), [1.0], [0], [1])
        m.resize((3, 3))
        m.append(2.0, 2, 2)
        assert m.shape == (3, 3)
        assert m.to_dense()[2, 2] == 2.0

    def test_resize_shrink_over_entries_rejected(self):
        m = COOMatrix((3, 3), [1.0], [2], [2])
        with pytest.raises(ValueError):
            m.resize((2, 2))

    def test_truncate_rolls_back(self):
        m = COOMatrix((2, 2), [1.0], [0], [0])
        dense_before = m.to_dense().copy()
        m.resize((3, 3))
        m.append(9.0, 2, 1)
        m.truncate(1, (2, 2))
        assert m.shape == (2, 2)
        assert np.array_equal(m.to_dense(), dense_before)

    def test_truncate_bounds(self):
        m = COOMatrix((2, 2), [1.0], [0], [0])
        with pytest.raises(ValueError):
            m.truncate(5)


def _assert_csr_is_fresh(m: COOMatrix) -> None:
    """The cached CSR equals a from-scratch sort of the current tuples."""
    fresh = sp.coo_matrix((m.values, (m.rows, m.cols)), shape=m.shape).tocsr()
    live = m.to_scipy()
    assert live.shape == fresh.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(live, name), getattr(fresh, name))
        assert getattr(live, name).dtype == getattr(fresh, name).dtype


class TestLiveCsr:
    """Edits of the OPI kind patch the cached CSR instead of dropping it."""

    def test_new_node_edges_keep_the_cache(self):
        # What an OP insertion does to pred (a new last row) and to succ
        # (a new largest column in an existing row), then the undo.
        pred = COOMatrix((3, 3), [1.0, 1.0], [1, 2], [0, 1])
        succ = COOMatrix((3, 3), [1.0, 1.0], [0, 1], [1, 2])
        caches = [pred.to_scipy(), succ.to_scipy()]
        for m in (pred, succ):
            m.resize((4, 4))
        pred.append(1.0, 3, 1)
        succ.append(1.0, 1, 3)
        for m, cache in zip((pred, succ), caches):
            assert m.to_scipy() is cache
            _assert_csr_is_fresh(m)
            m.truncate(2, (3, 3))
            assert m.to_scipy() is cache
            _assert_csr_is_fresh(m)

    def test_append_inside_a_row_resorts(self):
        m = COOMatrix((3, 3), [1.0, 1.0], [0, 0], [0, 2])
        cache = m.to_scipy()
        m.append(4.0, 0, 1)  # lands between two stored entries
        assert m.to_scipy() is not cache
        _assert_csr_is_fresh(m)

    def test_duplicate_append_resorts_and_sums(self):
        m = COOMatrix((2, 2), [1.0], [0], [1])
        m.to_scipy()
        m.append(2.0, 0, 1)
        _assert_csr_is_fresh(m)
        assert m.to_dense()[0, 1] == 3.0

    def test_truncate_below_the_sorted_entries_resorts(self):
        m = COOMatrix((3, 3), [1.0, 2.0, 3.0], [2, 0, 1], [0, 1, 2])
        cache = m.to_scipy()
        m.truncate(1)
        assert m.to_scipy() is not cache
        _assert_csr_is_fresh(m)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_property_any_edit_sequence_matches_a_fresh_sort(self, data):
        n = data.draw(st.integers(1, 6))
        nnz = data.draw(st.integers(0, 12))
        coords = st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz)
        m = COOMatrix(
            (n, n),
            np.ones(nnz),
            np.array(data.draw(coords), dtype=np.int64),
            np.array(data.draw(coords), dtype=np.int64),
        )
        m.to_scipy()
        undo = []  # LIFO of (nnz, shape) to truncate back to
        for _ in range(data.draw(st.integers(1, 10))):
            kind = data.draw(st.sampled_from(["grow", "append", "undo", "ship"]))
            rows, cols = m.shape
            if kind == "grow":
                undo.append((m.nnz, m.shape))
                m.resize((rows + 1, cols + 1))
                m.append(1.0, data.draw(st.integers(0, rows)), cols)
            elif kind == "append":
                undo.append((m.nnz, m.shape))
                m.append(
                    data.draw(st.floats(-2, 2, allow_nan=False)),
                    data.draw(st.integers(0, rows - 1)),
                    data.draw(st.integers(0, cols - 1)),
                )
            elif kind == "ship":
                # Across a process boundary and back (the CSR alone when it
                # is current): every later edit must still keep the cache
                # honest.  Entry order may change, so the undo stack goes.
                m = pickle.loads(pickle.dumps(m))
                undo.clear()
            elif undo:
                m.truncate(*undo.pop())
            _assert_csr_is_fresh(m)


class TestOneFormatPickle:
    """A matrix whose CSR is current ships as the CSR arrays alone."""

    def _shipped(self, m: COOMatrix) -> COOMatrix:
        return pickle.loads(pickle.dumps(m))

    def test_current_csr_ships_alone_and_triples_come_back_on_demand(self, rng):
        m = _random_coo(rng, nnz=12)
        # Distinct coordinates, so no duplicate was summed into the CSR.
        m = COOMatrix.from_scipy(m.to_scipy())
        cache = m.to_scipy()
        assert set(m.__getstate__()) == {"shape", "csr"}
        copy = self._shipped(m)
        assert copy._rows is None and copy.nnz == m.nnz
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(copy.to_scipy(), name), getattr(cache, name))
        assert copy._rows is None  # scoring never asked for the triples
        order = np.lexsort((m.cols, m.rows))
        for name in ("rows", "cols", "values"):
            assert np.array_equal(getattr(copy, name), getattr(m, name)[order])
        _assert_csr_is_fresh(copy)

    def test_stale_or_summed_csr_ships_the_triples_in_order(self):
        uncached = COOMatrix((3, 3), [1.0, 2.0], [2, 0], [0, 1])
        summed = COOMatrix((2, 2), [1.0, 2.0], [0, 0], [1, 1])
        summed.to_scipy()
        patched = COOMatrix((3, 3), [1.0], [0], [0])
        patched.to_scipy()
        patched.append(1.0, 2, 2)
        for m in (uncached, summed, patched):
            assert set(m.__getstate__()) == {"shape", "triples"}
            copy = self._shipped(m)
            for name in ("rows", "cols", "values"):
                assert np.array_equal(getattr(copy, name), getattr(m, name))
            assert np.array_equal(copy.to_dense(), m.to_dense())

    def test_opi_edits_on_a_shipped_matrix_behave_as_on_the_original(self):
        def edit(pred: COOMatrix, succ: COOMatrix) -> list[np.ndarray]:
            seen = []
            caches = [pred.to_scipy(), succ.to_scipy()]
            for m in (pred, succ):
                m.resize((4, 4))
            pred.append(1.0, 3, 1)
            succ.append(1.0, 1, 3)
            for m, cache in zip((pred, succ), caches):
                assert m.to_scipy() is cache  # patched in place, not re-sorted
                seen.append(m.to_dense())
                m.truncate(2, (3, 3))
                assert m.to_scipy() is cache
                seen.append(m.to_dense())
            return seen

        def fresh():
            pred = COOMatrix((3, 3), [1.0, 1.0], [1, 2], [0, 1])
            succ = COOMatrix((3, 3), [1.0, 1.0], [0, 1], [1, 2])
            pred.to_scipy(), succ.to_scipy()
            return pred, succ

        expected = edit(*fresh())
        shipped = edit(*(self._shipped(m) for m in fresh()))
        for ours, theirs in zip(shipped, expected):
            assert np.array_equal(ours, theirs)
        with pytest.raises(ValueError, match="cannot shrink"):
            self._shipped(fresh()[0]).resize((2, 2))


class TestLinearAlgebra:
    def test_matmul_matches_dense(self, rng):
        m = _random_coo(rng)
        x = rng.normal(size=(5, 3))
        assert np.allclose(m.matmul(x), m.to_dense() @ x)

    def test_rmatmul_is_transpose_matmul(self, rng):
        m = _random_coo(rng)
        x = rng.normal(size=(6, 2))
        assert np.allclose(m.rmatmul(x), m.to_dense().T @ x)

    def test_transpose(self, rng):
        m = _random_coo(rng)
        assert np.allclose(m.transpose().to_dense(), m.to_dense().T)

    def test_copy_independent(self, rng):
        m = _random_coo(rng)
        dup = m.copy()
        dup.append(1.0, 0, 0)
        assert dup.nnz == m.nnz + 1

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_property_matmul_equals_dense(self, data):
        n_rows = data.draw(st.integers(2, 8))
        n_cols = data.draw(st.integers(2, 8))
        nnz = data.draw(st.integers(0, 20))
        rows = data.draw(
            st.lists(st.integers(0, n_rows - 1), min_size=nnz, max_size=nnz)
        )
        cols = data.draw(
            st.lists(st.integers(0, n_cols - 1), min_size=nnz, max_size=nnz)
        )
        values = data.draw(
            st.lists(
                st.floats(-10, 10, allow_nan=False), min_size=nnz, max_size=nnz
            )
        )
        m = COOMatrix((n_rows, n_cols), np.array(values), np.array(rows, dtype=int), np.array(cols, dtype=int))
        x = np.ones((n_cols, 2))
        assert np.allclose(m.matmul(x), m.to_dense() @ x)
