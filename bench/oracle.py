"""Output checks computed apart from the program.

Nothing here calls svdgcl's graph, propagation or metric code: the pair
files are read and indexed here, the graph is normalised here, and the
eval-mode propagation and top-K ranking are written out with numpy and
scipy. Only the checkpoint's tables come from the program, read by the
caller with ``svdgcl.checkpoint.load_checkpoint``.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import svds

K = 20
LEAKY_SLOPE = 0.2
# float64 sums of per-user terms in another order differ in the last bits
METRIC_TOL = 1e-12
SPECTRUM_RTOL = 1e-6
# recall@20 must beat a uniformly random ranking by this factor
LEARNING_FACTOR = 5.0


def read_splits(train_path, val_path, test_path):
    """Index the pair files, ids numbered in order of first appearance
    over train, then val, then test. Returns (M, N, train, val, test)."""
    columns = []
    for path in (train_path, val_path, test_path):
        with open(path) as fh:
            tokens = fh.read().split()
        columns.append((tokens[0::2], tokens[1::2]))
    maps = []
    for side in (0, 1):
        first_seen = dict.fromkeys(tok for split in columns for tok in split[side])
        maps.append({tok: i for i, tok in enumerate(first_seen)})
    splits = [
        np.column_stack([np.fromiter(map(ids.__getitem__, split[side]), np.int64) for side, ids in enumerate(maps)])
        for split in columns
    ]
    return len(maps[0]), len(maps[1]), *splits


def normalized_graph(m: int, n: int, train: np.ndarray) -> sp.csr_array:
    """D_u^-1/2 A D_i^-1/2 of the binary train adjacency."""
    a = sp.csr_array((np.ones(train.shape[0]), (train[:, 0], train[:, 1])), shape=(m, n))
    a.sort_indices()
    du = np.asarray(a.sum(axis=1)).ravel()
    di = np.asarray(a.sum(axis=0)).ravel()
    coo = a.tocoo()
    scale = 1.0 / np.sqrt(du[coo.row] * di[coo.col])
    out = sp.csr_array((coo.data * scale, (coo.row, coo.col)), shape=(m, n))
    out.sort_indices()
    return out


def _leaky(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, x, LEAKY_SLOPE * x)


def propagate(a: sp.csr_array, e_user: np.ndarray, e_item: np.ndarray, layers: int):
    """Eval-mode propagation: the sum of the running states 0..layers."""
    hu, hv = e_user, e_item
    fu, fv = hu.copy(), hv.copy()
    for _ in range(layers):
        zu, zv = _leaky(a @ hv), _leaky(a.T @ hu)
        hu, hv = hu + zu, hv + zv
        fu += hu
        fv += hv
    return fu, fv


def ranking_metrics(fu, fv, train, test, k: int = K, block: int = 512):
    """Mean recall@k and NDCG@k over users with test items, ranking every
    item outside the user's train items, ties toward the lower item index.
    Returns (recall, ndcg, users)."""
    m, n = fu.shape[0], fv.shape[0]
    train_csr = sp.csr_array((np.ones(train.shape[0], dtype=bool), (train[:, 0], train[:, 1])), shape=(m, n))
    held = np.bincount(train[:, 0], minlength=m)
    rel_count = np.bincount(test[:, 0], minlength=m)
    order = np.argsort(test[:, 0], kind="stable")
    t_users, t_items = test[order, 0], test[order, 1]
    position = np.empty(t_users.shape[0], dtype=np.int64)
    idx = np.arange(n)
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        scores = fu[lo:hi] @ fv.T
        tb = train_csr[lo:hi].tocoo()
        scores[tb.row, tb.col] = -np.inf
        sel = np.flatnonzero((t_users >= lo) & (t_users < hi))
        rows = scores[t_users[sel] - lo]
        mine = rows[np.arange(sel.shape[0]), t_items[sel]][:, None]
        ahead = (rows > mine) | ((rows == mine) & (idx < t_items[sel][:, None]))
        position[sel] = ahead.sum(axis=1)
    k_eff = np.minimum(k, n - held[t_users])
    hit = position < k_eff
    gains = 1.0 / np.log2(np.arange(k) + 2.0)
    users = np.flatnonzero(rel_count > 0)
    hits = np.bincount(t_users[hit], minlength=m)
    dcg = np.bincount(t_users[hit], weights=gains[position[hit]], minlength=m)
    ideal_len = np.minimum(np.minimum(k, n - held), rel_count)
    ideal = np.concatenate([[0.0], np.cumsum(gains)])[ideal_len]
    recall = float(np.mean(hits[users] / rel_count[users]))
    ndcg = float(np.mean(dcg[users] / ideal[users]))
    return recall, ndcg, int(users.shape[0])


def random_recall(m: int, n: int, train: np.ndarray, test: np.ndarray, k: int = K) -> float:
    """Exact expected recall@k of a uniformly random ranking over each
    user's non-train items, averaged over users with test items."""
    held = np.bincount(train[:, 0], minlength=m)
    users = np.unique(test[:, 0])
    avail = n - held[users]
    return float(np.mean(np.minimum(k, avail) / avail))


def reference_spectrum(a: sp.csr_array, r: int, seed: int) -> np.ndarray:
    """Top r singular values of a, descending, by ARPACK."""
    s = svds(a, k=r, return_singular_vectors=False, random_state=seed)
    return np.sort(s)[::-1]


class Splits:
    """The pair files read and normalised once, for every check of a run."""

    def __init__(self, paths: dict):
        self.m, self.n, self.train, self.val, self.test = read_splits(paths["train"], paths["val"], paths["test"])
        self.a_norm = normalized_graph(self.m, self.n, self.train)

    def check_eval(self, e_user, e_item, layers: int, result) -> str | None:
        """None if result (an EvalResult) matches the oracle's recall@20,
        NDCG@20 and user count for these tables, else what differs."""
        if e_user.shape[0] != self.m or e_item.shape[0] != self.n:
            return f"tables are {e_user.shape[0]}x{e_item.shape[0]}, files give {self.m}x{self.n}"
        fu, fv = propagate(self.a_norm, e_user, e_item, layers)
        recall, ndcg, users = ranking_metrics(fu, fv, self.train, self.test)
        got = (result.recall[K], result.ndcg[K], result.users_evaluated)
        if users != got[2] or abs(recall - got[0]) > METRIC_TOL or abs(ndcg - got[1]) > METRIC_TOL:
            return f"program recall/ndcg/users {got}, oracle {(recall, ndcg, users)}"
        return None

    def check_learning(self, recall: float) -> str | None:
        floor = LEARNING_FACTOR * random_recall(self.m, self.n, self.train, self.test)
        if not recall >= floor:
            return f"recall@{K}={recall:.6f} is below {LEARNING_FACTOR:g}x random ({floor:.6f})"
        return None

    def check_spectrum(self, s_r, seed: int) -> str | None:
        s_r = np.asarray(s_r, dtype=np.float64)
        ref = reference_spectrum(self.a_norm, s_r.shape[0], seed)
        rel = np.max(np.abs(s_r - ref) / ref)
        if not rel <= SPECTRUM_RTOL or not abs(ref[0] - 1.0) <= SPECTRUM_RTOL:
            return f"spectrum {s_r.tolist()} vs svds {ref.tolist()} (max rel diff {rel:.3g})"
        return None
