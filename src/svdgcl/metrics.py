"""Top-K ranking metrics over held-out interactions.

Rankings exclude each user's training items, ties break toward the lower
item index, and means run over the users that actually have held-out
items.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from .errors import NumericalError
from .model import ModelState, forward, side_by_side

# byte budget of one float64 score block (two are live at once), and of each
# chunk of per-pair comparison rows: 131 users per block at 4,000 items
SCORE_BLOCK_BYTES = 1 << 22


@dataclass(frozen=True)
class EvalResult:
    """Mean recall and NDCG per cutoff, plus how many users counted."""

    recall: dict
    ndcg: dict
    users_evaluated: int


def _ranked_metrics(ds, ks, score_block, split: str = "test") -> EvalResult:
    """Recall and NDCG at every cutoff, users scored in blocks of SCORE_BLOCK_BYTES.

    score_block(lo, hi) yields a fresh (hi - lo, num_items) float64 array of
    the scores of users lo..hi-1; after the first block it runs on the pair
    worker, one block ahead of the ranking, so it must not use the worker.
    A held-out item's 0-based rank is the count of unmasked items that score
    higher, plus those that tie it at a lower index, so ties break toward the
    lower index. Per-pair comparisons run in chunks of the same byte budget,
    so memory is bounded however many held-out items a user has. Each user's
    DCG adds its gains in rank order, and the per-user values add in user
    order, so the sums are those of a per-user loop that accumulates with +=.
    """
    ks = sorted({int(k) for k in ks})
    if not ks or ks[0] < 1:
        raise ValueError("cutoffs must be positive")
    m, n = ds.num_users, ds.num_items
    held_keys, held_ptr = ds.pair_index(split)
    held_user, held_item = np.divmod(held_keys, n)
    relevant = np.diff(held_ptr)
    users = np.flatnonzero(relevant)
    if users.size == 0:
        return EvalResult(recall={k: 0.0 for k in ks}, ndcg={k: 0.0 for k in ks}, users_evaluated=0)
    rows = max(1, SCORE_BLOCK_BYTES // (8 * n))
    cols = np.arange(n)
    rank = np.empty(held_keys.shape[0], dtype=np.int64)

    def rank_block(scores, lo, hi):
        if not np.isfinite(scores).all():
            raise NumericalError(f"non-finite scores for users {lo}..{hi - 1}: the final embeddings hold NaN or inf")
        # a train key less lo * n is its flat position in the block
        np.put(scores, ds.train_keys[ds.train_offsets[lo] : ds.train_offsets[hi]] - lo * n, -np.inf)
        for c0 in range(held_ptr[lo], held_ptr[hi], rows):
            c1 = min(c0 + rows, held_ptr[hi])
            cand = scores[held_user[c0:c1] - lo]
            items = held_item[c0:c1]
            own = cand[np.arange(c1 - c0), items][:, None]
            rank[c0:c1] = np.count_nonzero(cand > own, axis=1)
            rank[c0:c1] += np.count_nonzero((cand == own) & (cols < items[:, None]), axis=1)

    spans = [(lo, min(lo + rows, m)) for lo in range(0, m, rows) if held_ptr[lo] < held_ptr[min(lo + rows, m)]]
    scores = score_block(*spans[0])
    for (lo, hi), ahead in zip(spans, spans[1:] + [None]):
        # the pair worker scores the next block while this thread ranks this one
        scores = side_by_side(lambda: rank_block(scores, lo, hi), lambda: ahead and score_block(*ahead))[1]

    order = np.lexsort((rank, held_user))
    pair_user, pair_rank = held_user[order], rank[order]
    gains = 1.0 / np.log2(np.arange(min(ks[-1], n)) + 2.0)
    per_user = relevant[users]
    recall, ndcg = {}, {}
    prev = np.zeros(users.size)
    for k in ks:
        # ranks stay below the unmasked count, which is at least the held-out
        # count, so a cutoff past either needs no clamp
        hit = pair_rank < k
        hits = np.bincount(pair_user[hit], minlength=m)[users]
        dcg = np.bincount(pair_user[hit], weights=gains[pair_rank[hit]], minlength=m)[users]
        best, where = np.unique(np.minimum(k, per_user), return_inverse=True)
        ideal = np.array([gains[:b].sum() for b in best])[where]
        r = hits / per_user
        if np.any(r < prev):
            j = int(np.argmax(r < prev))
            raise RuntimeError(f"recall must be non-decreasing in the cutoff: {r[j]} after {prev[j]} at k={k}")
        prev = r
        recall[k] = float(np.add.accumulate(r)[-1] / users.size)
        ndcg[k] = float(np.add.accumulate(dcg / ideal)[-1] / users.size)
    return EvalResult(recall=recall, ndcg=ndcg, users_evaluated=int(users.size))


def evaluate(state: ModelState, a_norm: csr_array, svd, ds, ks, split: str = "test") -> EvalResult:
    """One deterministic forward pass, then ranking metrics over held-out users.

    svd is not read: the scores come from the graph alone. The slot stays
    because bench/test_bench.py passes it; it goes with the next benchmark
    change.
    split picks which held-out pairs count as relevant (test by default;
    val for early-stopping checks). Training items are always masked. A
    NaN or infinite score raises NumericalError instead of being ranked.
    """
    trace = forward(state, a_norm)
    fu, fv = trace.final_user, trace.final_item
    return _ranked_metrics(ds, ks, lambda lo, hi: fu[lo:hi] @ fv.T, split=split)


def evaluate_popularity(ds, ks) -> EvalResult:
    """Metrics for the training-popularity ranking, same masking rules."""
    counts = np.bincount(ds.train[:, 1], minlength=ds.num_items).astype(np.float64)
    return _ranked_metrics(ds, ks, lambda lo, hi: np.repeat(counts[None, :], hi - lo, axis=0))
