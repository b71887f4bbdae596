"""The two SVD routes and the randomized route's rank rule.

exact_svd_dense is the oracle route, so it is checked against closed
forms and reconstruction identities rather than against itself; the
randomized route is then checked against it, and against a frozen copy of
itself as it was on Gram-Schmidt orthonormalization.
"""

import logging

import numpy as np
import pytest
from scipy.sparse import csr_array

from svdgcl.errors import NumericalError
from svdgcl.linalg import (
    MAX_EXACT_SVD_DIM,
    SvdFactors,
    approx_svd,
    exact_svd_dense,
    svd_propagate,
)
from tests.util import approx_svd_gram_schmidt


def sparse_from_dense(d):
    r, c = np.nonzero(d)
    return csr_array((d[r, c], (r, c)), shape=d.shape)


def block_rank_one(rng, shape, scales):
    """Block-diagonal sparse matrix, one rank-1 block per scale: its rank is
    len(scales) and its singular values are the scales times the norms of
    the block vectors, so geometric scales give a well-separated spectrum."""
    d = np.zeros(shape)
    rb, cb = shape[0] // len(scales), shape[1] // len(scales)
    for b, scale in enumerate(scales):
        u = rng.standard_normal(rb) + 2.0
        v = rng.standard_normal(cb) + 2.0
        d[b * rb:(b + 1) * rb, b * cb:(b + 1) * cb] = scale * np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
    return sparse_from_dense(d), d


class TestRankRule:
    def test_factors_are_orthonormal_and_span_the_input(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            rank = int(rng.integers(1, 6))
            rows, cols = (int(x) for x in rng.integers(12, 40, size=2) // rank * rank)
            a, d = block_rank_one(rng, (rows, cols), 0.8 ** np.arange(rank))
            f = approx_svd(a, rank, oversample=int(rng.integers(0, 5)), power_iters=2, seed=int(rng.integers(100)))
            np.testing.assert_allclose(f.u_r.T @ f.u_r, np.eye(f.rank), atol=1e-10)
            np.testing.assert_allclose(f.v_r.T @ f.v_r, np.eye(f.rank), atol=1e-10)
            # every input column lies in the span of u_r
            resid = d - f.u_r @ (f.u_r.T @ d)
            assert np.abs(resid).max() < 1e-9 * max(1.0, np.abs(d).max())

    def test_rank_deficient_input_keeps_its_rank(self, caplog):
        a, d = block_rank_one(np.random.default_rng(6), (30, 24), [3.0, 2.0, 1.0])
        with caplog.at_level(logging.WARNING, logger="svdgcl.linalg"):
            f = approx_svd(a, 5, seed=3)
        assert f.rank == 3
        # numpy's matrix_rank floor for the 13 x 24 projected matrix
        floor = f.s_r[0] * 24 * np.finfo(np.float64).eps
        assert np.all(f.s_r > floor)
        np.testing.assert_allclose(f.s_r, [3.0, 2.0, 1.0], rtol=1e-12)
        np.testing.assert_allclose(f.reconstruct(), d, atol=1e-12)
        assert [r.getMessage() for r in caplog.records] == [
            "approx_svd asked for rank 5, kept 3 above the rank tolerance"
        ]

    def test_full_rank_request_logs_nothing(self, caplog):
        a, _ = block_rank_one(np.random.default_rng(7), (30, 24), [3.0, 2.0, 1.0])
        with caplog.at_level(logging.WARNING, logger="svdgcl.linalg"):
            assert approx_svd(a, 3, seed=3).rank == 3
        assert caplog.records == []

    def test_all_zero_input_rejected(self):
        with pytest.raises(ValueError, match="numerically zero"):
            approx_svd(csr_array((12, 10)), 2)

    def test_too_wide_input_rejected(self):
        a = sparse_from_dense(np.ones((2, 5)))
        with pytest.raises(ValueError, match="exceeds min dimension"):
            approx_svd(a, 1)
        with pytest.raises(ValueError, match="exceeds min dimension"):
            approx_svd(a, 3, oversample=0)

    @pytest.mark.parametrize("blocks,r", [(16, 4), (12, 6), (20, 1), (3, 5), (2, 2)])
    def test_matches_the_gram_schmidt_route(self, blocks, r):
        rng = np.random.default_rng(blocks * 10 + r)
        for trial in range(3):
            a, _ = block_rank_one(rng, (blocks * 5, blocks * 4), 0.7 ** np.arange(blocks))
            kw = dict(oversample=min(8, blocks * 4 - r), power_iters=trial + 2, seed=trial)
            got = approx_svd(a, r, **kw)
            want = approx_svd_gram_schmidt(a, r, **kw)
            assert got.rank == want.rank == min(r, blocks)
            np.testing.assert_allclose(got.s_r, want.s_r, rtol=1e-10, atol=0)
            np.testing.assert_allclose(got.u_r, want.u_r, rtol=0, atol=1e-10)
            np.testing.assert_allclose(got.v_r, want.v_r, rtol=0, atol=1e-10)


class TestFactors:
    def test_reconstruct(self):
        u = np.eye(4)[:, :2]
        v = np.eye(3)[:, :2]
        f = SvdFactors(u, np.array([3.0, 1.0]), v, 2)
        expect = 3.0 * np.outer(u[:, 0], v[:, 0]) + 1.0 * np.outer(u[:, 1], v[:, 1])
        np.testing.assert_allclose(f.reconstruct(), expect, atol=1e-14)

    def test_ascending_singular_values_rejected(self):
        u = np.eye(4)[:, :2]
        v = np.eye(3)[:, :2]
        with pytest.raises(ValueError):
            SvdFactors(u, np.array([1.0, 3.0]), v, 2)

    def test_non_orthonormal_factor_rejected(self):
        u = np.ones((4, 2))
        v = np.eye(3)[:, :2]
        with pytest.raises(ValueError, match="orthonormal"):
            SvdFactors(u, np.array([3.0, 1.0]), v, 2)


class TestExactSvd:
    def test_reconstructs_input(self):
        rng = np.random.default_rng(8)
        for _ in range(8):
            n, m = rng.integers(2, 12, size=2)
            a = rng.standard_normal((n, m))
            f = exact_svd_dense(a)
            np.testing.assert_allclose(f.reconstruct(), a, atol=1e-10)
            assert np.all(np.diff(f.s_r) <= 1e-12)
            assert np.all(f.s_r >= 0)

    def test_diagonal_matrix_closed_form(self):
        a = np.diag([5.0, 2.0, 4.0])
        f = exact_svd_dense(a)
        np.testing.assert_allclose(f.s_r, [5.0, 4.0, 2.0], atol=1e-12)

    def test_sign_convention_largest_entry_positive(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((7, 5))
        f = exact_svd_dense(a)
        for j in range(f.rank):
            col = f.u_r[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_size_policy_min_dimension(self):
        # tall-and-skinny beyond 500 rows is fine, min dim governs
        a = np.ones((MAX_EXACT_SVD_DIM + 50, 3)) + np.arange(3)
        exact_svd_dense(a)
        with pytest.raises(ValueError, match="min dimension"):
            exact_svd_dense(np.ones((MAX_EXACT_SVD_DIM + 1, MAX_EXACT_SVD_DIM + 1)))


class TestApproxSvd:
    def low_rank_sparse(self, rng, n, m, rank):
        """Block-diagonal rank-1 blocks; exact rank, genuinely sparse."""
        d = np.zeros((n, m))
        rb, cb = n // rank, m // rank
        for b in range(rank):
            u = rng.standard_normal(rb) + 3.0
            v = rng.standard_normal(cb) + 3.0
            d[b * rb:(b + 1) * rb, b * cb:(b + 1) * cb] = (4.0 - 0.1 * b) * np.outer(u, v)
        return sparse_from_dense(d), d

    def test_recovers_exact_low_rank(self):
        rng = np.random.default_rng(12)
        a, d = self.low_rank_sparse(rng, 80, 60, 5)
        f = approx_svd(a, 5, oversample=6, power_iters=3, seed=0)
        rel = np.linalg.norm(d - f.reconstruct()) / np.linalg.norm(d)
        assert rel < 1e-8

    def test_close_to_dense_oracle_on_generic_input(self):
        rng = np.random.default_rng(13)
        d = rng.standard_normal((40, 30))
        # well separated spectrum helps the randomized range finder
        exact = exact_svd_dense(d)
        r = 4
        a = sparse_from_dense(d)
        f = approx_svd(a, r, oversample=8, power_iters=6, seed=1)
        best = exact.s_r[:r]
        np.testing.assert_allclose(f.s_r, best, rtol=1e-4)

    def test_seed_determinism(self):
        rng = np.random.default_rng(14)
        a, _ = self.low_rank_sparse(rng, 40, 40, 4)
        f1 = approx_svd(a, 4, seed=7)
        f2 = approx_svd(a, 4, seed=7)
        np.testing.assert_array_equal(f1.u_r, f2.u_r)
        np.testing.assert_array_equal(f1.s_r, f2.s_r)
        np.testing.assert_array_equal(f1.v_r, f2.v_r)

    def test_sign_convention_matches_dense_route(self):
        rng = np.random.default_rng(15)
        a, _ = self.low_rank_sparse(rng, 40, 40, 4)
        f = approx_svd(a, 4, seed=2)
        for j in range(f.rank):
            col = f.u_r[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_width_validation(self):
        a = sparse_from_dense(np.eye(4))
        with pytest.raises(ValueError):
            approx_svd(a, 0)
        with pytest.raises(ValueError):
            approx_svd(a, 5)


class TestFactoredPropagation:
    def test_matches_densified_product(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(2, 20))
            m = int(rng.integers(2, 20))
            k = int(rng.integers(1, 5))
            d = int(rng.integers(1, 6))
            width = min(n, m, k)
            dense = rng.standard_normal((n, m))
            f = exact_svd_dense(dense)
            trunc = SvdFactors(
                f.u_r[:, :width], f.s_r[:width], f.v_r[:, :width], width
            )
            recon = trunc.reconstruct()
            h_items = rng.standard_normal((m, d))
            h_users = rng.standard_normal((n, d))
            np.testing.assert_allclose(
                svd_propagate(trunc, h_items, "user"), recon @ h_items, atol=1e-10
            )
            np.testing.assert_allclose(
                svd_propagate(trunc, h_users, "item"), recon.T @ h_users, atol=1e-10
            )

    def test_side_validated(self):
        f = exact_svd_dense(np.eye(3))
        with pytest.raises(ValueError):
            svd_propagate(f, np.eye(3), "sideways")
