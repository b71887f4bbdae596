"""Ranking, recall, NDCG, and the evaluation loop, vs brute force."""

import math

import numpy as np
import pytest

from svdgcl import metrics
from svdgcl.errors import NumericalError
from svdgcl.interactions import InteractionDataset, build_adjacency, normalize_adjacency
from svdgcl.metrics import (
    EvalResult,
    evaluate,
    evaluate_popularity,
    ndcg_at_k,
    popularity_baseline,
    rank_items,
    recall_at_k,
)
from svdgcl.model import HyperParams, ModelState, forward, init_model
from tests.util import metrics_over_users_loop, tiny_dataset


def brute_rank(scores, masked, k):
    """Selection by repeated max with explicit tie rule: lowest index wins."""
    scores = [(-s, i) for i, s in enumerate(scores) if i not in masked]
    return np.array([i for _, i in sorted(scores)[:k]], dtype=np.int64)


def brute_recall(ranked, relevant):
    return len(set(ranked.tolist()) & set(relevant)) / len(relevant)


def brute_ndcg(ranked, relevant, k):
    gain = 0.0
    for pos, item in enumerate(ranked[:k].tolist()):
        if item in relevant:
            gain += 1.0 / math.log2(pos + 2)
    ideal = sum(1.0 / math.log2(pos + 2) for pos in range(min(k, len(relevant))))
    return gain / ideal


class TestRankItems:
    def test_hand_case_with_ties(self):
        scores = np.array([0.5, 0.9, 0.5, 0.1])
        np.testing.assert_array_equal(rank_items(scores, set(), 4), [1, 0, 2, 3])

    def test_masking_removes_train_items(self):
        scores = np.array([0.9, 0.8, 0.7])
        np.testing.assert_array_equal(rank_items(scores, {0}, 2), [1, 2])

    def test_k_beyond_available_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            rank_items(np.array([1.0, 2.0]), {0}, 2)
        with pytest.raises(ValueError):
            rank_items(np.array([1.0]), set(), 0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            # coarse scores force plenty of ties
            scores = rng.integers(0, 4, size=n).astype(float)
            masked = set(rng.choice(n, size=int(rng.integers(0, n // 2 + 1)), replace=False).tolist())
            k = int(rng.integers(1, n - len(masked) + 1))
            got = rank_items(scores, masked, k)
            np.testing.assert_array_equal(got, brute_rank(scores, masked, k))


class TestRecallNdcg:
    def test_single_hit_frozen_value(self):
        ranked = np.array([9, 8, 7, 3, 6])
        # the only relevant item sits at rank 4 of 5
        assert abs(ndcg_at_k(ranked, {3}, 5) - 0.43067655807339306) < 1e-15
        assert recall_at_k(ranked, {3}) == 1.0

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k(np.array([1, 2]), set())
        with pytest.raises(ValueError):
            ndcg_at_k(np.array([1, 2]), set(), 2)

    def test_perfect_prefix_is_one(self):
        ranked = np.array([4, 2, 9, 1])
        assert ndcg_at_k(ranked, {4, 2}, 2) == 1.0
        assert recall_at_k(ranked[:2], {4, 2}) == 1.0

    def test_ideal_normalizer_caps_at_k(self):
        # three relevant items but only two slots: ideal uses two gains
        ranked = np.array([5, 6])
        got = ndcg_at_k(ranked, {5, 6, 7}, 2)
        assert got == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(44)
        for _ in range(60):
            n = int(rng.integers(4, 25))
            ranked = rng.permutation(n)
            rel = set(rng.choice(n, size=int(rng.integers(1, n // 2 + 1)), replace=False).tolist())
            k = int(rng.integers(1, n + 1))
            assert abs(recall_at_k(ranked[:k], rel) - brute_recall(ranked[:k], rel)) < 1e-12
            assert abs(ndcg_at_k(ranked, rel, k) - brute_ndcg(ranked, rel, k)) < 1e-12

    def test_recall_monotone_in_k(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            n = 15
            ranked = rng.permutation(n)
            rel = set(rng.choice(n, size=4, replace=False).tolist())
            vals = [recall_at_k(ranked[:k], rel) for k in range(1, n + 1)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestEvaluate:
    def test_model_evaluation_matches_per_user_loop(self):
        ds = tiny_dataset()
        a = normalize_adjacency(build_adjacency(ds))
        state = init_model(ds, HyperParams(embed_dim=6, layers=2, seed=2))
        res = evaluate(state, a, None, ds, ks=[2, 5])
        assert isinstance(res, EvalResult)
        assert res.users_evaluated == ds.num_users

        from svdgcl.model import forward, predict_scores

        trace = forward(state, a)
        train_items = ds.items_by_user("train")
        test_items = ds.items_by_user("test")
        for k in (2, 5):
            recs, gains = [], []
            for u in range(ds.num_users):
                scores = predict_scores(trace, [u])[0]
                masked = set(train_items[u].tolist())
                ranked = brute_rank(scores, masked, k)
                rel = set(test_items[u].tolist())
                recs.append(brute_recall(ranked, rel))
                gains.append(brute_ndcg(ranked, rel, k))
            assert abs(res.recall[k] - np.mean(recs)) < 1e-12
            assert abs(res.ndcg[k] - np.mean(gains)) < 1e-12

    def test_validation_split_evaluable(self):
        ds = tiny_dataset()
        a = normalize_adjacency(build_adjacency(ds))
        state = init_model(ds, HyperParams(embed_dim=6, seed=2))
        res = evaluate(state, a, None, ds, ks=[3], split="val")
        assert 0.0 <= res.recall[3] <= 1.0

    def test_bad_cutoffs_rejected(self):
        ds = tiny_dataset()
        a = normalize_adjacency(build_adjacency(ds))
        state = init_model(ds, HyperParams(embed_dim=4, seed=0))
        with pytest.raises(ValueError):
            evaluate(state, a, None, ds, ks=[0])


class TestPopularity:
    def test_baseline_order_frozen_case(self):
        # known counts: item0 x3, item2 x2, item1 x1, item3 unseen
        from svdgcl.interactions import InteractionDataset

        ds = InteractionDataset(
            num_users=3,
            num_items=4,
            train=np.array([[0, 0], [1, 0], [2, 0], [0, 2], [1, 2], [2, 1]], dtype=np.int64),
            validation=np.empty((0, 2), dtype=np.int64),
            test=np.array([[0, 1]], dtype=np.int64),
            user_id_map={f"u{i}": i for i in range(3)},
            item_id_map={f"i{i}": i for i in range(4)},
        )
        order = popularity_baseline(ds)
        np.testing.assert_array_equal(order, [0, 2, 1, 3])

    def test_popularity_evaluation_masks_train(self):
        ds = tiny_dataset()
        res = evaluate_popularity(ds, ks=[3])
        # recompute with the shared brute force machinery
        order = popularity_baseline(ds)
        scores = np.zeros(ds.num_items)
        scores[order] = np.arange(ds.num_items, 0, -1)
        train_items = ds.items_by_user("train")
        test_items = ds.items_by_user("test")
        recs = []
        for u in range(ds.num_users):
            ranked = brute_rank(scores, set(train_items[u].tolist()), 3)
            recs.append(brute_recall(ranked, set(test_items[u].tolist())))
        assert abs(res.recall[3] - np.mean(recs)) < 1e-12


def random_dataset(seed, num_users=23, num_items=15, max_held=4):
    """Random splits where users hold out 0 to max_held test and val items.

    Test pairs on items nobody trains on are dropped, so test stays warm.
    """
    rng = np.random.default_rng(seed)
    train, test, val = [], [], []
    for u in range(num_users):
        perm = rng.permutation(num_items).tolist()
        n_train = int(rng.integers(1, num_items - 2 * max_held))
        n_test, n_val = (int(x) for x in rng.integers(0, max_held + 1, size=2))
        train += [(u, i) for i in perm[:n_train]]
        test += [(u, i) for i in perm[n_train : n_train + n_test]]
        val += [(u, i) for i in perm[n_train + n_test : n_train + n_test + n_val]]
    trained = {i for _, i in train}
    return InteractionDataset(
        num_users=num_users,
        num_items=num_items,
        train=np.array(train, dtype=np.int64),
        validation=np.array(val, dtype=np.int64).reshape(-1, 2),
        test=np.array([p for p in test if p[1] in trained], dtype=np.int64).reshape(-1, 2),
    )


def integer_state(ds, seed, dim=3):
    """Zero-layer model whose final tables are small integers: scores tie a lot."""
    rng = np.random.default_rng(seed)
    return ModelState(
        e_user=rng.integers(-1, 2, size=(ds.num_users, dim)).astype(np.float64),
        e_item=rng.integers(-1, 2, size=(ds.num_items, dim)).astype(np.float64),
        layers=0,
        embed_dim=dim,
        rng=rng,
    )


def loop_result(state, a, ds, ks, split="test"):
    """The frozen per-user loop on the same final tables, one GEMV per user."""
    trace = forward(state, a, None, None, mode="eval")
    fu, fv = trace.final_user, trace.final_item
    return metrics_over_users_loop(ds, ks, lambda u: fu[u] @ fv.T, split=split)


class TestBlockedEngineMatchesLoop:
    """The blocked engine against the frozen loop, compared with == on floats."""

    KS = [1, 3, 5, 10, 20]  # 20 exceeds every user's available items

    @pytest.mark.parametrize("split", ["test", "val"])
    def test_tiny_dataset(self, split):
        ds = tiny_dataset()
        a = normalize_adjacency(build_adjacency(ds))
        state = init_model(ds, HyperParams(embed_dim=6, layers=2, seed=2))
        assert evaluate(state, a, None, ds, self.KS, split=split) == loop_result(state, a, ds, self.KS, split)

    @pytest.mark.parametrize("rows", [1, 4, None])
    @pytest.mark.parametrize("split", ["test", "val"])
    @pytest.mark.parametrize("seed", range(4))
    def test_integer_tables_tie_at_the_cutoff(self, seed, split, rows, monkeypatch):
        ds = random_dataset(seed)
        if rows is not None:
            # small blocks: 23 users are not a multiple of 4, and a user's
            # held-out items spill across comparison chunks
            monkeypatch.setattr(metrics, "SCORE_BLOCK_BYTES", 8 * ds.num_items * rows)
        a = normalize_adjacency(build_adjacency(ds))
        state = integer_state(ds, seed)
        scores = state.e_user @ state.e_item.T
        assert all(np.unique(row).size < row.size for row in scores)
        held = np.bincount(getattr(ds, "validation" if split == "val" else split)[:, 0], minlength=ds.num_users)
        assert held.max() > 1 and (held == 0).any()
        got = evaluate(state, a, None, ds, self.KS, split=split)
        assert got == loop_result(state, a, ds, self.KS, split)
        assert got.users_evaluated == np.count_nonzero(held)

    @pytest.mark.parametrize("seed", range(12))
    def test_many_hits_sum_in_rank_order(self, seed):
        # up to 12 held-out items per user put several gains into each DCG,
        # where adding them in another order changes the last bits
        ds = random_dataset(seed, num_users=30, num_items=60, max_held=12)
        a = normalize_adjacency(build_adjacency(ds))
        for state in (integer_state(ds, seed), init_model(ds, HyperParams(embed_dim=4, layers=1, seed=seed))):
            assert evaluate(state, a, None, ds, [5, 20, 50]) == loop_result(state, a, ds, [5, 20, 50])

    @pytest.mark.parametrize("rows", [3, None])
    def test_popularity(self, rows, monkeypatch):
        for ds in (tiny_dataset(), random_dataset(7), random_dataset(8, num_users=40, num_items=30)):
            if rows is not None:
                monkeypatch.setattr(metrics, "SCORE_BLOCK_BYTES", 8 * ds.num_items * rows)
            counts = np.bincount(ds.train[:, 1], minlength=ds.num_items).astype(np.float64)
            assert evaluate_popularity(ds, self.KS) == metrics_over_users_loop(ds, self.KS, lambda u: counts)

    def test_cutoffs_unsorted_and_repeated(self):
        ds = random_dataset(3)
        a = normalize_adjacency(build_adjacency(ds))
        state = integer_state(ds, 3)
        got = evaluate(state, a, None, ds, [10, 1, 10, 3, 1])
        assert got == loop_result(state, a, ds, [1, 3, 10])
        assert list(got.recall) == [1, 3, 10]
        assert max(got.recall.values()) <= 1.0 and max(got.ndcg.values()) <= 1.0

    def test_split_without_held_out_pairs(self):
        ds = random_dataset(5)
        empty = InteractionDataset(ds.num_users, ds.num_items, ds.train, np.empty((0, 2), dtype=np.int64), ds.test)
        state = integer_state(empty, 5)
        a = normalize_adjacency(build_adjacency(empty))
        got = evaluate(state, a, None, empty, [2, 5], split="val")
        assert got == EvalResult(recall={2: 0.0, 5: 0.0}, ndcg={2: 0.0, 5: 0.0}, users_evaluated=0)
        assert got == loop_result(state, a, empty, [2, 5], split="val")

    def test_score_blocks_stay_within_the_byte_budget(self, monkeypatch):
        ds = random_dataset(6, num_users=50, num_items=40)
        monkeypatch.setattr(metrics, "SCORE_BLOCK_BYTES", 8 * ds.num_items * 6 + 7)
        counts = np.bincount(ds.train[:, 1], minlength=ds.num_items).astype(np.float64)
        shapes = []

        def score_block(lo, hi):
            shapes.append((lo, hi))
            return np.repeat(counts[None, :], hi - lo, axis=0)

        got = metrics._ranked_metrics(ds, self.KS, score_block)
        assert got == evaluate_popularity(ds, self.KS)
        assert all(hi - lo <= 6 for lo, hi in shapes)
        assert shapes[0] == (0, 6) and shapes[-1][1] == ds.num_users

    def test_non_finite_scores_raise(self):
        ds = tiny_dataset()
        a = normalize_adjacency(build_adjacency(ds))
        state = init_model(ds, HyperParams(embed_dim=4, seed=0))
        state.e_item[3] = np.nan
        with pytest.raises(NumericalError, match="non-finite scores"):
            evaluate(state, a, None, ds, [3])
