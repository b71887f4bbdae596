"""Sketch-based truncated SVD against the exact dense answer.

The training engine never densifies the interaction graph: a Gaussian
sketch plus a few power iterations recovers the leading singular
directions, and everything downstream touches only the small factors.
This demo shows the recovery quality on a matrix whose true rank is
known, and how the factored form multiplies without reconstruction.
"""

import time

import numpy as np
from scipy.sparse import csr_array

from svdgcl.linalg import approx_svd, exact_svd_dense, svd_propagate

rng = np.random.default_rng(0)

print("== an exact rank-6 sparse matrix, 300 x 240 ==")
rank = 6
d = np.zeros((300, 240))
for b in range(rank):
    u = rng.standard_normal(50) + 3.0
    v = rng.standard_normal(40) + 3.0
    d[b * 50:(b + 1) * 50, b * 40:(b + 1) * 40] = (3.0 - 0.3 * b) * np.outer(u, v)
r, c = np.nonzero(d)
a = csr_array((d[r, c], (r, c)), shape=(300, 240))
print(f"density: {a.nnz / (300 * 240):.1%}")

print()
print("== randomized route vs dense oracle ==")
t0 = time.perf_counter()
factors = approx_svd(a, rank, oversample=8, power_iters=4, seed=0)
t_rand = time.perf_counter() - t0
t0 = time.perf_counter()
exact = exact_svd_dense(d)
t_dense = time.perf_counter() - t0
print("randomized spectrum:", np.round(factors.s_r, 6).tolist())
print("dense spectrum     :", np.round(exact.s_r[:rank], 6).tolist())
rel = np.linalg.norm(d - factors.reconstruct()) / np.linalg.norm(d)
print(f"relative reconstruction error: {rel:.3e}")
print(f"times: randomized {t_rand * 1e3:.1f} ms, dense {t_dense * 1e3:.1f} ms")

print()
print("== multiplying through the factors ==")
h = rng.standard_normal((240, 8))
via_factors = svd_propagate(factors, h, "user")
via_dense = factors.reconstruct() @ h
print("max abs difference vs densified product:",
      f"{np.abs(via_factors - via_dense).max():.3e}")
print("the factored product costs O((rows + cols) * rank * width) instead")
print("of densifying a rows x cols matrix first.")

print()
print("== graceful degradation past the true rank ==")
wide = approx_svd(a, 10, oversample=8, power_iters=4, seed=1)
print(f"asked for rank 10, got rank {wide.rank}: the projected problem only")
print("carries as many numerically independent directions as the data has.")
