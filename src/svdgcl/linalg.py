"""Truncated SVD of the graph, and factored products.

The randomized path (Gaussian sketch, power iterations with LAPACK QR, small
exact factorization) keeps at most the asked-for rank, and only singular
values above numpy's matrix_rank tolerance. The small dense factorization is
size-capped so it only ever runs on thin projected matrices or test oracles.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from .errors import NumericalError

logger = logging.getLogger("svdgcl.linalg")

# refuse dense factorizations whose small dimension exceeds this
MAX_EXACT_SVD_DIM = 500

@dataclass(frozen=True)
class SvdFactors:
    """Rank-r factorization u_r @ diag(s_r) @ v_r.T of an M x N matrix.

    u_r is M x r and v_r is N x r, both with orthonormal columns; s_r is
    non-negative and non-increasing. Column signs are fixed so the largest
    magnitude entry of each u_r column is positive.
    """

    u_r: np.ndarray
    s_r: np.ndarray
    v_r: np.ndarray
    rank: int

    def __post_init__(self):
        object.__setattr__(self, "u_r", np.ascontiguousarray(self.u_r, dtype=np.float64))
        object.__setattr__(self, "s_r", np.ascontiguousarray(self.s_r, dtype=np.float64))
        object.__setattr__(self, "v_r", np.ascontiguousarray(self.v_r, dtype=np.float64))
        r = self.rank
        if self.u_r.ndim != 2 or self.v_r.ndim != 2 or self.s_r.ndim != 1:
            raise ValueError("u_r and v_r must be 2-D, s_r 1-D")
        if self.u_r.shape[1] != r or self.v_r.shape[1] != r or self.s_r.shape[0] != r:
            raise ValueError("factor widths must equal rank")
        if np.any(self.s_r < 0) or np.any(np.diff(self.s_r) > 0):
            raise ValueError("singular values must be non-negative and non-increasing")
        for name, f in (("u_r", self.u_r), ("v_r", self.v_r)):
            gram = f.T @ f
            if np.max(np.abs(gram - np.eye(r))) > 1e-6:
                raise ValueError(f"{name} columns are not orthonormal")

    def reconstruct(self) -> np.ndarray:
        return (self.u_r * self.s_r) @ self.v_r.T


def _fix_signs(u: np.ndarray, v: np.ndarray):
    """Make the largest-magnitude entry of each left column positive."""
    if u.shape[1] == 0:
        return u, v
    lead = np.abs(u).argmax(axis=0)
    signs = np.sign(u[lead, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return u * signs, v * signs


def exact_svd_dense(m: np.ndarray) -> SvdFactors:
    """Full SVD of a dense matrix whose small dimension is at most 500."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("expected a 2-D array")
    if min(m.shape) > MAX_EXACT_SVD_DIM:
        raise ValueError(f"dense SVD refused for shape {m.shape}: min dimension exceeds {MAX_EXACT_SVD_DIM}")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dense SVD did not converge for shape {m.shape}") from exc
    u, v = _fix_signs(u, vt.T)
    return SvdFactors(u_r=u, s_r=s, v_r=v, rank=s.shape[0])


def approx_svd(a: csr_array, r: int, oversample: int = 8, power_iters: int = 4, seed: int = 0) -> SvdFactors:
    """Randomized truncated SVD of a sparse matrix.

    Sketches the range with a seeded Gaussian test matrix of r + oversample
    columns, sharpens it with power_iters passes of (a a.T) orthonormalized
    by LAPACK QR, then factorizes the small projected matrix b exactly. It
    keeps at most r singular values, and only those above b's matrix_rank
    tolerance s[0] * max(b.shape) * eps, warning when fewer than r remain;
    a numerically zero matrix keeps none and raises ValueError.

    Parameters
    ----------
    a : csr_array
        Matrix to factorize.
    r : int
        Target rank, at least 1.
    oversample : int
        Extra sketch columns beyond r.
    power_iters : int
        Power iteration count; higher sharpens the spectrum estimate.
    seed : int
        Seeds the Gaussian sketch; the result is a pure function of
        (a, r, oversample, power_iters, seed).
    """
    if r < 1:
        raise ValueError("rank must be at least 1")
    if oversample < 0 or power_iters < 0:
        raise ValueError("oversample and power_iters must be non-negative")
    width = r + oversample
    rows, cols = a.shape
    if width > min(rows, cols):
        raise ValueError(
            f"sketch width r+oversample={width} exceeds min dimension of {rows}x{cols}"
        )
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed])))
    q = np.linalg.qr(a @ rng.standard_normal((cols, width)))[0]
    for _ in range(power_iters):
        z = np.linalg.qr(a.T @ q)[0]
        q = np.linalg.qr(a @ z)[0]
    b = (a.T @ q).T  # width x cols projected matrix
    small = exact_svd_dense(b)
    tol = small.s_r[0] * max(b.shape) * np.finfo(np.float64).eps
    keep = int(np.count_nonzero(small.s_r[:r] > tol))
    if keep == 0:
        raise ValueError("matrix is numerically zero: no singular value above the rank tolerance")
    if keep < r:
        logger.warning("approx_svd asked for rank %d, kept %d above the rank tolerance", r, keep)
    u, v = _fix_signs(q @ small.u_r[:, :keep], small.v_r[:, :keep])
    factors = SvdFactors(u_r=u, s_r=small.s_r[:keep], v_r=v, rank=keep)
    logger.debug("singular values %s", " ".join(f"{x:.12g}" for x in factors.s_r))
    return factors


def svd_propagate(f: SvdFactors, h: np.ndarray, side: str) -> np.ndarray:
    """Multiply by the reconstructed low-rank matrix without densifying it.

    side "user" computes (u_r diag(s_r) v_r.T) @ h from item-side features;
    side "item" computes the transpose product from user-side features.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2:
        raise ValueError("features must be 2-D")
    if side == "user":
        if h.shape[0] != f.v_r.shape[0]:
            raise ValueError(f"expected {f.v_r.shape[0]} feature rows, got {h.shape[0]}")
        return f.u_r @ (f.s_r[:, None] * (f.v_r.T @ h))
    if side == "item":
        if h.shape[0] != f.u_r.shape[0]:
            raise ValueError(f"expected {f.u_r.shape[0]} feature rows, got {h.shape[0]}")
        return f.v_r @ (f.s_r[:, None] * (f.u_r.T @ h))
    raise ValueError(f"side must be 'user' or 'item', got {side!r}")
