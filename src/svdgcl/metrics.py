"""Top-K ranking metrics over held-out interactions.

Rankings exclude each user's training items, ties break toward the lower
item index, and means run over the users that actually have held-out
items.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelState, forward
from .sparse import SparseMatrix


@dataclass(frozen=True)
class EvalResult:
    """Mean recall and NDCG per cutoff, plus how many users counted."""

    recall: dict
    ndcg: dict
    users_evaluated: int


def rank_items(scores: np.ndarray, masked, k: int) -> np.ndarray:
    """Indices of the k best-scoring items outside the masked set.

    Ties rank the lower item index first. Asking for more items than remain
    after masking is an argument error.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError("scores must be 1-D")
    masked = np.asarray(list(masked) if isinstance(masked, set) else masked, dtype=np.int64)
    available = scores.shape[0] - masked.shape[0]
    if k < 1 or k > available:
        raise ValueError(f"k={k} out of range: {available} items remain after masking")
    order = np.argsort(-scores, kind="stable")
    if masked.size:
        hide = np.zeros(scores.shape[0], dtype=bool)
        hide[masked] = True
        order = order[~hide[order]]
    return order[:k]


def recall_at_k(ranked: np.ndarray, relevant) -> float:
    """Fraction of the relevant set that made the ranked list."""
    relevant = set(int(i) for i in relevant)
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    hits = sum(1 for i in ranked if int(i) in relevant)
    return hits / len(relevant)


def ndcg_at_k(ranked: np.ndarray, relevant, k: int) -> float:
    """Binary-gain NDCG: hit at position i earns 1/log2(i+2), normalized by
    the best arrangement of min(k, |relevant|) hits."""
    relevant = set(int(i) for i in relevant)
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    gains = 1.0 / np.log2(np.arange(k) + 2.0)
    dcg = sum(gains[i] for i, item in enumerate(ranked[:k]) if int(item) in relevant)
    ideal = gains[: min(k, len(relevant))].sum()
    return float(dcg / ideal)


def _metrics_over_users(ds, ks, score_row, split: str = "test") -> EvalResult:
    """Shared per-user loop: score_row(u) yields that user's item scores."""
    ks = sorted(int(k) for k in ks)
    if not ks or ks[0] < 1:
        raise ValueError("cutoffs must be positive")
    train_items = ds.items_by_user("train")
    test_items = ds.items_by_user(split)
    recall_sums = {k: 0.0 for k in ks}
    ndcg_sums = {k: 0.0 for k in ks}
    users = 0
    for u in range(ds.num_users):
        relevant = test_items[u]
        if relevant.size == 0:
            continue
        users += 1
        masked = train_items[u]
        available = ds.num_items - masked.shape[0]
        ranked = rank_items(score_row(u), masked, min(ks[-1], available))
        prev = -1.0
        for k in ks:
            k_eff = min(k, available)
            r = recall_at_k(ranked[:k_eff], relevant)
            if r < prev:
                raise RuntimeError(f"recall must be non-decreasing in the cutoff: {r} after {prev} at k={k}")
            prev = r
            recall_sums[k] += r
            ndcg_sums[k] += ndcg_at_k(ranked, relevant, k_eff)
    if users == 0:
        return EvalResult(recall={k: 0.0 for k in ks}, ndcg={k: 0.0 for k in ks}, users_evaluated=0)
    return EvalResult(
        recall={k: recall_sums[k] / users for k in ks},
        ndcg={k: ndcg_sums[k] / users for k in ks},
        users_evaluated=users,
    )


def evaluate(state: ModelState, a_norm: SparseMatrix, svd, ds, ks, split: str = "test") -> EvalResult:
    """One eval-mode forward pass, then ranking metrics over held-out users.

    The reconstruction branch never enters the scores, so svd may be None.
    split picks which held-out pairs count as relevant (test by default;
    val for early-stopping checks). Training items are always masked.
    """
    trace = forward(state, a_norm, svd, None, mode="eval")
    fu, fv = trace.final_user, trace.final_item
    return _metrics_over_users(ds, ks, lambda u: fu[u] @ fv.T, split=split)


def popularity_baseline(ds) -> np.ndarray:
    """Items ordered by train interaction count, ties toward low index."""
    counts = np.bincount(ds.train[:, 1], minlength=ds.num_items)
    return np.argsort(-counts, kind="stable")


def evaluate_popularity(ds, ks) -> EvalResult:
    """Metrics for the training-popularity ranking, same masking rules."""
    counts = np.bincount(ds.train[:, 1], minlength=ds.num_items).astype(np.float64)
    return _metrics_over_users(ds, ks, lambda u: counts)
