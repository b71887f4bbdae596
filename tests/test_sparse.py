"""The graph as a scipy csr_array: construction, normalization, edge
dropout on the fixed structure, and the two products, checked against
loop oracles.

The oracles densify by walking the index arrays directly and multiply
with naive Python loops, so they share no code path with the kernels
under test.
"""

import threading
import time

import numpy as np
import pytest
from scipy.sparse import csr_array

from svdgcl.interactions import InteractionDataset, build_adjacency, normalize_adjacency
from svdgcl.model import edge_dropout, spmm, spmm_pair, spmm_t


def dense_by_loops(a):
    """Densify by walking indptr entry by entry."""
    rows, cols = a.shape
    out = np.zeros((rows, cols))
    for i in range(rows):
        for p in range(int(a.indptr[i]), int(a.indptr[i + 1])):
            out[i, int(a.indices[p])] += a.data[p]
    return out


def matmul_by_loops(x, y):
    n, k = x.shape
    _, m = y.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += x[i, t] * y[t, j]
            out[i, j] = acc
    return out


def random_sparse(rng, rows, cols, nnz):
    flat = rng.choice(rows * cols, size=nnz, replace=False)
    vals = rng.standard_normal(nnz)
    return csr_array((vals, (flat // cols, flat % cols)), shape=(rows, cols))


def dataset(rows, cols, pairs):
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return InteractionDataset(num_users=rows, num_items=cols, train=pairs, validation=[], test=[])


class TestConstruction:
    def test_from_pairs_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rows = int(rng.integers(1, 12))
            cols = int(rng.integers(1, 12))
            nnz = int(rng.integers(0, rows * cols + 1))
            flat = rng.choice(rows * cols, size=nnz, replace=False)
            a = build_adjacency(dataset(rows, cols, np.column_stack([flat // cols, flat % cols])))
            expect = np.zeros((rows, cols))
            for f in flat:
                expect[f // cols, f % cols] = 1.0
            np.testing.assert_array_equal(a.toarray(), expect)
            np.testing.assert_array_equal(dense_by_loops(a), expect)
            assert a.nnz == nnz

    def test_pairs_survive_any_input_order(self):
        pairs = np.array([[2, 1], [0, 2], [1, 0], [0, 0]])
        a = build_adjacency(dataset(3, 3, pairs))
        b = build_adjacency(dataset(3, 3, pairs[::-1]))
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        expect = np.zeros((3, 3))
        expect[2, 1], expect[0, 2], expect[1, 0], expect[0, 0] = 1.0, 1.0, 1.0, 1.0
        np.testing.assert_array_equal(a.toarray(), expect)

    def test_default_values_are_ones(self):
        a = build_adjacency(dataset(2, 2, [[0, 1], [1, 0]]))
        assert a.data.dtype == np.float64
        np.testing.assert_array_equal(a.data, [1.0, 1.0])

    def test_build_adjacency_is_canonical(self):
        # every product sums a row in stored order, so the order is pinned:
        # columns strictly ascending within each row, whatever the pair order
        rng = np.random.default_rng(13)
        flat = rng.permutation(rng.choice(9 * 11, size=60, replace=False))
        a = build_adjacency(dataset(9, 11, np.column_stack([flat // 11, flat % 11])))
        assert isinstance(a, csr_array)
        assert a.has_canonical_format
        for i in range(9):
            assert np.all(np.diff(a.indices[a.indptr[i]:a.indptr[i + 1]]) > 0)
        assert normalize_adjacency(a).has_canonical_format

    def test_empty_rows_are_fine(self):
        a = build_adjacency(dataset(4, 3, [[1, 2]]))
        n = normalize_adjacency(a)
        assert n.nnz == 1
        np.testing.assert_array_equal(n.indptr, [0, 0, 1, 1, 1])
        np.testing.assert_array_equal(n.toarray(), [[0, 0, 0], [0, 0, 1.0], [0, 0, 0], [0, 0, 0]])


class TestCounts:
    def test_row_and_col_nnz_match_dense_sums(self):
        # the normalization divides by the stored-entry counts of its row and
        # column, whatever the stored values are
        rng = np.random.default_rng(11)
        a = random_sparse(rng, 9, 7, 30)
        d = dense_by_loops(a) != 0
        du, di = d.sum(axis=1), d.sum(axis=0)
        want = np.where(d, dense_by_loops(a) / np.sqrt(np.outer(du, di).clip(min=1)), 0.0)
        np.testing.assert_allclose(normalize_adjacency(a).toarray(), want, rtol=1e-14, atol=0)


class TestSelect:
    def test_select_keeps_and_scales(self):
        rng = np.random.default_rng(3)
        a = random_sparse(rng, 8, 6, 25)
        dense = dense_by_loops(a)
        b, keep = edge_dropout(a, 0.6, rng)
        expect = np.zeros((8, 6))
        rows = np.repeat(np.arange(8), np.diff(a.indptr))
        for flag, r, c, v in zip(keep, rows, a.indices, a.data):
            if flag:
                expect[int(r), int(c)] = v * (1.0 / (1.0 - 0.6))
        np.testing.assert_array_equal(b.toarray(), expect)
        assert b.count_nonzero() == int(keep.sum())
        # dropped edges stay stored as zeros on the shared structure
        assert b.nnz == a.nnz
        assert np.shares_memory(b.indices, a.indices) and np.shares_memory(b.indptr, a.indptr)
        # source is untouched
        np.testing.assert_array_equal(dense_by_loops(a), dense)

    def test_select_mask_length_checked(self):
        # one keep flag per stored entry, including the zeros a drop stores
        a = random_sparse(np.random.default_rng(4), 5, 4, 12)
        b, keep = edge_dropout(a, 0.5, np.random.default_rng(5))
        assert keep.dtype == bool and keep.shape == (a.nnz,) == b.data.shape
        _, again = edge_dropout(b, 0.5, np.random.default_rng(6))
        assert again.shape == (a.nnz,)


class TestMultiplication:
    def test_spmm_matches_loop_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            rows = int(rng.integers(1, 10))
            cols = int(rng.integers(1, 10))
            d = int(rng.integers(1, 6))
            nnz = int(rng.integers(0, rows * cols + 1))
            a = random_sparse(rng, rows, cols, nnz)
            b = rng.standard_normal((cols, d))
            np.testing.assert_allclose(
                spmm(a, b), matmul_by_loops(dense_by_loops(a), b), atol=1e-12
            )

    def test_spmm_t_matches_loop_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            rows = int(rng.integers(1, 10))
            cols = int(rng.integers(1, 10))
            d = int(rng.integers(1, 6))
            nnz = int(rng.integers(0, rows * cols + 1))
            a = random_sparse(rng, rows, cols, nnz)
            b = rng.standard_normal((rows, d))
            np.testing.assert_allclose(
                spmm_t(a, b), matmul_by_loops(dense_by_loops(a).T, b), atol=1e-12
            )

    def test_dropped_products_equal_products_without_the_edges(self):
        # explicit zeros add signed zeros to +0.0 accumulators: same bytes
        rng = np.random.default_rng(29)
        for _ in range(10):
            a = normalize_adjacency(random_sparse(rng, 30, 20, 150))
            dropped, keep = edge_dropout(a, 0.4, rng)
            rows = np.repeat(np.arange(30), np.diff(a.indptr))
            thinned = csr_array((dropped.data[keep], (rows[keep], a.indices[keep])), shape=a.shape)
            hv, hu = rng.standard_normal((20, 4)), rng.standard_normal((30, 4))
            assert spmm(dropped, hv).tobytes() == spmm(thinned, hv).tobytes()
            assert spmm_t(dropped, hu).tobytes() == spmm_t(thinned, hu).tobytes()

    def test_shape_mismatch_rejected(self):
        a = build_adjacency(dataset(3, 4, [[0, 1]]))
        with pytest.raises(ValueError):
            spmm(a, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            spmm_t(a, np.zeros((4, 2)))

    def test_results_are_plain_arrays(self):
        a = csr_array((np.array([2.0, 3.0]), (np.array([0, 1]), np.array([0, 1]))), shape=(2, 2))
        for out in (spmm(a, np.eye(2)), spmm_t(a, np.eye(2))):
            assert type(out) is np.ndarray
            np.testing.assert_array_equal(out, np.diag([2.0, 3.0]))


class SlowTransposedProduct(csr_array):
    """A csr_array whose a.T @ b sleeps first and sets the event done when
    it has ended, returned or raised."""

    done: threading.Event

    @property
    def T(self):
        plain, done = csr_array(self), self.done

        class Slow:
            def __matmul__(self, b):
                time.sleep(0.3)
                try:
                    return plain.T @ b
                finally:
                    done.set()

        return Slow()


def slow_transposed(a):
    slow = SlowTransposedProduct(a)
    slow.done = threading.Event()
    return slow


class TestPair:
    def matrices(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            rows, cols = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            yield random_sparse(rng, rows, cols, int(rng.integers(0, rows * cols + 1)))
        # explicit zeros, as edge dropout stores them
        yield edge_dropout(normalize_adjacency(random_sparse(rng, 40, 30, 300)), 0.4, rng)[0]
        # no edges on the even rows, then none in the even columns
        yield build_adjacency(dataset(9, 7, [[u, (u + 1) % 7] for u in range(1, 9, 2)]))
        yield build_adjacency(dataset(6, 10, [[u, 2 * (u % 5) + 1] for u in range(6)]))
        # large enough for the two products to overlap in time
        yield normalize_adjacency(random_sparse(rng, 3000, 2000, 60000))

    def test_same_bytes_as_the_single_products(self):
        rng = np.random.default_rng(37)
        for a in self.matrices():
            d = int(rng.integers(1, 65))
            b_cols, b_rows = rng.standard_normal((a.shape[1], d)), rng.standard_normal((a.shape[0], d))
            left, right = spmm_pair(a, b_cols, b_rows)
            for got, want in ((left, spmm(a, b_cols)), (right, spmm_t(a, b_rows))):
                assert type(got) is np.ndarray
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    def test_shape_errors_are_those_of_the_single_products(self):
        a = build_adjacency(dataset(3, 4, [[0, 1], [2, 3]]))
        rows, cols = np.zeros((3, 2)), np.zeros((4, 2))
        with pytest.raises(ValueError) as main_side:
            spmm(a, rows)
        with pytest.raises(ValueError) as worker_side:
            spmm_t(a, cols)
        for b_cols, b_rows, want in ((rows, rows, main_side), (cols, cols, worker_side), (rows, cols, main_side)):
            with pytest.raises(ValueError) as got:
                spmm_pair(a, b_cols, b_rows)
            assert str(got.value) == str(want.value)

    def test_returns_only_once_the_worker_is_done(self):
        a = slow_transposed(build_adjacency(dataset(3, 4, [[0, 1], [2, 3]])))
        b_cols, b_rows = np.ones((4, 2)), np.ones((3, 2))
        left, right = spmm_pair(a, b_cols, b_rows)
        assert a.done.is_set()
        assert right.tobytes() == spmm_t(csr_array(a), b_rows).tobytes()

    def test_raises_only_once_the_worker_is_done(self):
        a = slow_transposed(build_adjacency(dataset(3, 4, [[0, 1], [2, 3]])))
        with pytest.raises(ValueError):
            spmm_pair(a, np.ones((3, 2)), np.ones((3, 2)))
        assert a.done.is_set()
        # and a failing worker product raises from the call
        a = slow_transposed(a)
        with pytest.raises(ValueError):
            spmm_pair(a, np.ones((4, 2)), np.ones((4, 2)))
        assert a.done.is_set()
