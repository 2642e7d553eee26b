"""COOMatrix: construction, extension, resize and rollback, pickling,
linear algebra — all on the one CSR it holds."""

import pickle

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.sparse import COOMatrix


def _random_triples(rng, n_rows=6, n_cols=5, nnz=8):
    return (
        rng.normal(size=nnz),
        rng.integers(0, n_rows, size=nnz),
        rng.integers(0, n_cols, size=nnz),
    )


def _random_coo(rng, n_rows=6, n_cols=5, nnz=8):
    return COOMatrix((n_rows, n_cols), *_random_triples(rng, n_rows, n_cols, nnz))


def _arrays(m: COOMatrix) -> list:
    """Shape and CSR arrays of ``m`` as stored: dtype and bytes."""
    csr = m.to_scipy()
    return [
        m.shape,
        csr.shape,
        *((a.dtype.str, a.tobytes()) for a in (csr.indptr, csr.indices, csr.data)),
    ]


def _fresh(shape, triples) -> COOMatrix:
    """A matrix sorted from scratch from ``(value, row, col)`` triples."""
    return COOMatrix(shape, *(zip(*triples) if triples else ((), (), ())))


class TestConstruction:
    def test_empty(self):
        m = COOMatrix((3, 3))
        assert m.nnz == 0
        assert np.array_equal(m.to_dense(), np.zeros((3, 3)))

    def test_dense_round_trip(self, rng):
        values, rows, cols = _random_triples(rng)
        m = COOMatrix((6, 5), values, rows, cols)
        expected = np.zeros((6, 5))
        for v, r, c in zip(values, rows, cols):
            expected[r, c] += v
        assert np.allclose(m.to_dense(), expected)

    def test_duplicates_sum(self):
        m = COOMatrix((2, 2), [1.0, 2.0], [0, 0], [1, 1])
        assert m.to_dense()[0, 1] == 3.0
        assert m.nnz == 1  # stored entries, the duplicate summed

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            COOMatrix((2, 2), [1.0], [0, 1], [0])

    def test_out_of_bounds_rejected(self):
        for rows, cols in (([2], [0]), ([0], [2]), ([-1], [0])):
            with pytest.raises(ValueError):
                COOMatrix((2, 2), [1.0], rows, cols)

    def test_from_scipy(self, rng):
        csr = _random_coo(rng).to_scipy()
        adopted = COOMatrix(csr.shape, csr=csr)
        assert adopted.to_scipy() is csr
        with pytest.raises(ValueError, match="not of shape"):
            COOMatrix((csr.shape[0] + 1, csr.shape[1]), csr=csr)


class TestAppendAndRollback:
    def test_append_grows(self):
        m = COOMatrix((40, 40))
        for i in range(40):
            m.extend([1.0], [i], [(i + 1) % 40])
        assert m.nnz == 40
        assert np.array_equal(m.to_dense(), np.roll(np.eye(40), 1, axis=1))

    def test_append_bounds_checked(self):
        m = COOMatrix((2, 2))
        with pytest.raises(ValueError):
            m.extend([1.0], [2], [0])

    def test_append_invalidates_cache(self):
        m = COOMatrix((2, 2), [1.0], [0], [0])
        before = m.matmul(np.eye(2)), m.rmatmul(np.eye(2))
        m.extend([5.0], [1], [0])
        after = m.matmul(np.eye(2)), m.rmatmul(np.eye(2))
        assert before[0][1, 0] == 0.0 and after[0][1, 0] == 5.0
        assert before[1][0, 1] == 0.0 and after[1][0, 1] == 5.0  # the CSC too

    def test_resize_then_append(self):
        m = COOMatrix((2, 2), [1.0], [0], [1])
        m.resize((3, 3))
        m.extend([2.0], [2], [2])
        assert m.shape == (3, 3)
        assert m.to_dense()[2, 2] == 2.0

    def test_resize_shrink_drops_entries_outside(self):
        m = COOMatrix((3, 3), [1.0, 2.0, 3.0], [2, 0, 1], [0, 2, 1])
        m.resize((2, 3))
        assert np.array_equal(m.to_dense(), [[0, 0, 2], [0, 3, 0]])
        m.resize((2, 2))
        assert m.nnz == 1 and np.array_equal(m.to_dense(), [[0, 0], [0, 3]])

    def test_resize_rolls_back(self):
        m = COOMatrix((2, 2), [1.0], [0], [0])
        before = _arrays(m)
        m.resize((3, 3))
        m.extend([9.0, 4.0], [2, 0], [1, 2])
        m.resize((2, 2))
        assert _arrays(m) == before

    def test_resize_rejects_a_negative_shape(self):
        m = COOMatrix((2, 2), [1.0], [0], [0])
        with pytest.raises(ValueError):
            m.resize((-1, 2))
        assert m.shape == (2, 2) and m.nnz == 1


def _assert_equals_a_fresh_sort(m: COOMatrix, triples: list) -> None:
    """``m``'s CSR arrays, as stored, equal those sorted from scratch from
    ``triples`` (every entry it was given, minus those a shrink dropped)."""
    assert _arrays(m) == _arrays(_fresh(m.shape, triples))


class TestLiveCsr:
    """Edits of the OPI kind patch the CSR in place."""

    def test_new_node_edges_keep_the_cache(self):
        # What an OP insertion does to pred (a new last row) and to succ
        # (a new largest column in an existing row), then the undo.
        pred = COOMatrix((3, 3), [1.0, 1.0], [1, 2], [0, 1])
        succ = COOMatrix((3, 3), [1.0, 1.0], [0, 1], [1, 2])
        before = [_arrays(pred), _arrays(succ)]
        caches = [pred.to_scipy(), succ.to_scipy()]
        for m in (pred, succ):
            m.resize((4, 4))
        pred.extend([1.0], [3], [1])
        succ.extend([1.0], [1], [3])
        for m, cache, triples, old in zip(
            (pred, succ), caches, ([(1.0, 1, 0), (1.0, 2, 1), (1.0, 3, 1)],
                                   [(1.0, 0, 1), (1.0, 1, 2), (1.0, 1, 3)]), before
        ):
            assert m.to_scipy() is cache
            _assert_equals_a_fresh_sort(m, triples)
            m.resize((3, 3))
            assert m.to_scipy() is cache
            assert _arrays(m) == old

    def test_append_inside_a_row_resorts(self):
        m = COOMatrix((3, 3), [1.0, 1.0], [0, 0], [0, 2])
        cache = m.to_scipy()
        m.extend([4.0], [0], [1])  # lands between two stored entries
        assert m.to_scipy() is not cache
        _assert_equals_a_fresh_sort(m, [(1.0, 0, 0), (1.0, 0, 2), (4.0, 0, 1)])

    def test_duplicate_append_resorts_and_sums(self):
        m = COOMatrix((2, 2), [1.0], [0], [1])
        m.extend([2.0], [0], [1])
        _assert_equals_a_fresh_sort(m, [(1.0, 0, 1), (2.0, 0, 1)])
        assert m.to_dense()[0, 1] == 3.0 and m.nnz == 1

    def test_shrink_keeps_the_entries_inside(self):
        m = COOMatrix((3, 3), [1.0, 2.0, 3.0, 4.0], [2, 0, 1, 0], [0, 1, 2, 0])
        cache = m.to_scipy()
        m.resize((3, 2))
        assert m.to_scipy() is cache
        _assert_equals_a_fresh_sort(m, [(1.0, 2, 0), (2.0, 0, 1), (4.0, 0, 0)])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_property_any_edit_sequence_matches_a_fresh_sort(self, data):
        # Integer values: duplicates sum to the same float in any order.
        value = st.integers(-2, 2).map(float)
        n = data.draw(st.integers(1, 6))
        nnz = data.draw(st.integers(0, 12))
        coord = st.integers(0, n - 1)
        triples = [
            (data.draw(value), data.draw(coord), data.draw(coord)) for _ in range(nnz)
        ]
        m = _fresh((n, n), triples)
        shapes = []  # LIFO of the shapes a grow left behind
        for _ in range(data.draw(st.integers(1, 10))):
            kind = data.draw(st.sampled_from(["grow", "append", "undo", "shrink", "ship"]))
            rows, cols = m.shape
            if kind == "grow":
                # An OP insertion: a new column, its entry last in its row.
                shapes.append(m.shape)
                m.resize((rows + 1, cols + 1))
                added = [(1.0, data.draw(st.integers(0, rows)), cols)]
            elif kind == "append" and rows and cols:
                added = [
                    (data.draw(value), data.draw(st.integers(0, rows - 1)),
                     data.draw(st.integers(0, cols - 1)))
                    for _ in range(data.draw(st.integers(0, 3)))
                ]
            else:
                added = []
                if kind == "ship":
                    m = pickle.loads(pickle.dumps(m))
                elif kind == "shrink" or (kind == "undo" and shapes):
                    shape = shapes.pop() if kind == "undo" else (
                        data.draw(st.integers(0, rows)), data.draw(st.integers(0, cols))
                    )
                    m.resize(shape)
                    triples = [t for t in triples if t[1] < shape[0] and t[2] < shape[1]]
            if added:
                m.extend(*zip(*added))
                triples += added
            _assert_equals_a_fresh_sort(m, triples)


class TestExtend:
    """``extend`` in one call equals one call per entry."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_extend_equals_the_same_appends(self, data):
        value = st.integers(-2, 2).map(float)
        n = data.draw(st.integers(1, 6))
        nnz = data.draw(st.integers(0, 10))
        coords = st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz)
        triples = (
            np.ones(nnz),
            np.array(data.draw(coords), dtype=np.int64),
            np.array(data.draw(coords), dtype=np.int64),
        )
        bulk, single = COOMatrix((n, n), *triples), COOMatrix((n, n), *triples)
        if data.draw(st.booleans()):
            bulk = pickle.loads(pickle.dumps(bulk))  # the CSR arrays, shipped
        before = _arrays(single)
        grown = n + data.draw(st.integers(0, 3))
        k = data.draw(st.integers(0, 8))
        rows = data.draw(st.lists(st.integers(0, grown - 1), min_size=k, max_size=k))
        new_columns = data.draw(st.booleans())
        if new_columns:
            # Every entry in a column no row holds yet: each lands last in
            # its row unless one before it in the same row has a larger one.
            cols = data.draw(st.permutations(range(grown, grown + k)))
            grown += k
        else:
            cols = data.draw(st.lists(st.integers(0, grown - 1), min_size=k, max_size=k))
        values = data.draw(st.lists(value, min_size=k, max_size=k))
        for m in (bulk, single):
            m.resize((grown, grown))
        bulk.extend(values, rows, cols)
        for entry in zip(values, rows, cols):
            single.extend(*([x] for x in entry))
        assert _arrays(bulk) == _arrays(single)
        old = list(zip(*triples))
        _assert_equals_a_fresh_sort(bulk, old + list(zip(values, rows, cols)))
        if new_columns:
            # Every added entry lies outside the old shape: a shrink is
            # the exact undo.
            bulk.resize((n, n))
            assert _arrays(bulk) == before

    def test_entries_landing_last_keep_the_cache(self):
        m = COOMatrix((3, 3), [1.0, 1.0], [0, 1], [0, 1])
        cache = m.to_scipy()
        m.resize((5, 5))
        # Two in one row, in column order; one in a new row.
        m.extend([2.0, 3.0, 4.0], [0, 4, 0], [3, 2, 4])
        assert m.to_scipy() is cache
        triples = [(1.0, 0, 0), (1.0, 1, 1), (2.0, 0, 3), (3.0, 4, 2), (4.0, 0, 4)]
        _assert_equals_a_fresh_sort(m, triples)
        m.extend([5.0], [0], [1])  # behind column 4 of row 0: not last
        assert m.to_scipy() is not cache
        _assert_equals_a_fresh_sort(m, triples + [(5.0, 0, 1)])

    def test_entries_out_of_order_in_one_row_drop_the_cache(self):
        m = COOMatrix((2, 2), [1.0], [0], [0])
        cache = m.to_scipy()
        m.resize((2, 4))
        m.extend([2.0, 3.0], [0, 0], [3, 2])
        assert m.to_scipy() is not cache
        _assert_equals_a_fresh_sort(m, [(1.0, 0, 0), (2.0, 0, 3), (3.0, 0, 2)])

    def test_extend_checks_bounds_and_lengths_before_writing(self):
        m = COOMatrix((2, 2), [1.0], [0], [0])
        before = _arrays(m)
        for args in (([1.0, 1.0], [0, 2], [0, 0]), ([1.0], [0, 1], [0, 0])):
            with pytest.raises(ValueError):
                m.extend(*args)
        assert _arrays(m) == before

    def test_extend_passes_the_capacity(self):
        m = COOMatrix((40, 40))
        m.extend(np.ones(40), np.arange(40), np.arange(40)[::-1])
        assert m.nnz == 40
        assert np.array_equal(m.to_dense(), np.eye(40)[::-1])


class TestOneFormatPickle:
    """A matrix ships as its CSR arrays, as stored."""

    def _shipped(self, m: COOMatrix) -> COOMatrix:
        return pickle.loads(pickle.dumps(m))

    def test_pickle_ships_the_csr_arrays_as_stored(self, rng):
        m = _random_coo(rng, nnz=12)
        m.rmatmul(np.ones((6, 1)))  # builds the CSC, which does not ship
        assert set(m.__getstate__()) == {"shape", "csr"}
        copy = self._shipped(m)
        assert copy._csc is None
        assert _arrays(copy) == _arrays(m)
        # A row out of column order stays as it is.
        unsorted = sp.csr_matrix(([1.0, 2.0], [2, 0], [0, 2, 2]), shape=(2, 3))
        copy = self._shipped(COOMatrix((2, 3), csr=unsorted))
        assert copy.to_scipy().indices.tolist() == [2, 0]

    def test_patched_or_summed_matrix_ships_as_stored(self):
        summed = COOMatrix((2, 2), [1.0, 2.0], [0, 0], [1, 1])
        patched = COOMatrix((3, 3), [1.0], [0], [0])
        patched.extend([1.0], [2], [2])
        shrunk = COOMatrix((3, 3), [1.0, 2.0], [2, 0], [0, 1])
        shrunk.resize((2, 2))
        for m in (summed, patched, shrunk):
            copy = self._shipped(m)
            assert _arrays(copy) == _arrays(m)
            assert np.array_equal(copy.to_dense(), m.to_dense())

    def test_opi_edits_on_a_shipped_matrix_behave_as_on_the_original(self):
        def edit(pred: COOMatrix, succ: COOMatrix) -> list:
            seen = []
            caches = [pred.to_scipy(), succ.to_scipy()]
            for m in (pred, succ):
                m.resize((4, 4))
            pred.extend([1.0], [3], [1])
            succ.extend([1.0], [1], [3])
            for m, cache in zip((pred, succ), caches):
                assert m.to_scipy() is cache  # patched in place, not re-sorted
                seen.append(_arrays(m))
                m.resize((3, 3))
                assert m.to_scipy() is cache
                seen.append(_arrays(m))
            return seen

        def fresh():
            pred = COOMatrix((3, 3), [1.0, 1.0], [1, 2], [0, 1])
            succ = COOMatrix((3, 3), [1.0, 1.0], [0, 1], [1, 2])
            return pred, succ

        expected = edit(*fresh())
        shipped = edit(*(self._shipped(m) for m in fresh()))
        assert shipped == expected


class TestLinearAlgebra:
    def test_matmul_matches_dense(self, rng):
        m = _random_coo(rng)
        x = rng.normal(size=(5, 3))
        assert np.allclose(m.matmul(x), m.to_dense() @ x)

    def test_rmatmul_is_transpose_matmul(self, rng):
        m = _random_coo(rng)
        x = rng.normal(size=(6, 2))
        assert np.allclose(m.rmatmul(x), m.to_dense().T @ x)

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
        y = np.ones((n_rows, 3))
        assert np.allclose(m.rmatmul(y), m.to_dense().T @ y)
