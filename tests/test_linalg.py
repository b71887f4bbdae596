"""Orthonormalization and the two SVD routes.

exact_svd_dense is the oracle route, so it is checked against closed
forms and reconstruction identities rather than against itself; the
randomized route is then checked against it.
"""

import numpy as np
import pytest
from scipy.sparse import csr_array

from svdgcl.errors import NumericalError
from svdgcl.linalg import (
    MAX_EXACT_SVD_DIM,
    SvdFactors,
    approx_svd,
    exact_svd_dense,
    qr_orthonormalize,
    svd_propagate,
)


def sparse_from_dense(d):
    r, c = np.nonzero(d)
    return csr_array((d[r, c], (r, c)), shape=d.shape)


class TestOrthonormalize:
    def test_output_is_orthonormal_and_spans_input(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            rows = int(rng.integers(4, 40))
            cols = int(rng.integers(1, min(rows, 8) + 1))
            m = rng.standard_normal((rows, cols))
            q = qr_orthonormalize(m)
            np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-10)
            # every input column lies in the span of q
            resid = m - q @ (q.T @ m)
            assert np.abs(resid).max() < 1e-9 * max(1.0, np.abs(m).max())

    def test_dependent_columns_dropped(self):
        rng = np.random.default_rng(6)
        base = rng.standard_normal((20, 3))
        m = np.hstack([base, base[:, :1] * 2.0 + base[:, 1:2]])
        q = qr_orthonormalize(m)
        assert q.shape[1] == 3
        np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-10)

    def test_all_zero_input_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            qr_orthonormalize(np.zeros((5, 2)))

    def test_wide_input_rejected(self):
        with pytest.raises(ValueError):
            qr_orthonormalize(np.zeros((2, 5)))


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
