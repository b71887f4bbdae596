"""The blocked ranking engine: ranking, recall, NDCG and evaluation, vs brute force."""

import math

import numpy as np
import pytest

from svdgcl import metrics
from svdgcl.errors import NumericalError
from svdgcl.interactions import InteractionDataset, build_adjacency, normalize_adjacency
from svdgcl.metrics import EvalResult, evaluate, evaluate_popularity
from svdgcl.model import HyperParams, ModelState, forward, init_model
from tests.util import items_by_user, metrics_over_users_loop, one_user_dataset, tiny_dataset


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


def engine(scores, masked, relevant, ks):
    """The blocked engine on one user: masked items are its train split,
    relevant items its validation split."""
    scores = np.asarray(scores, dtype=np.float64)
    ds = one_user_dataset(scores.shape[0], masked, relevant)
    return metrics._ranked_metrics(ds, ks, lambda lo, hi: scores[None, :].copy(), split="val")


def engine_order(scores, masked):
    """The engine's full ranking of the unmasked items, read back one item
    at a time: with item j alone relevant, recall@k is 1 exactly when j's
    0-based rank is below k, so the rank is the number of cutoffs it misses."""
    avail = len(scores) - len(masked)
    ranks = {}
    for j in set(range(len(scores))) - set(masked):
        recall = engine(scores, masked, {j}, range(1, avail + 1)).recall
        ranks[j] = avail - int(sum(recall.values()))
    return sorted(ranks, key=ranks.get)


class TestEngineRanking:
    def test_hand_case_with_ties(self):
        assert engine_order([0.5, 0.9, 0.5, 0.1], set()) == [1, 0, 2, 3]

    def test_masking_removes_train_items(self):
        assert engine_order([0.9, 0.8, 0.7], {0}) == [1, 2]

    def test_cutoff_beyond_available_is_clamped(self):
        # one unmasked item: every cutoff past it reads as the cutoff 1
        got = engine([1.0, 2.0], {0}, {1}, [1, 2, 5])
        assert got.recall == {1: 1.0, 2: 1.0, 5: 1.0}
        assert got.ndcg == {1: 1.0, 2: 1.0, 5: 1.0}
        with pytest.raises(ValueError, match="cutoffs must be positive"):
            engine([1.0], set(), {0}, [0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            # coarse scores force plenty of ties
            scores = rng.integers(0, 4, size=n).astype(float)
            masked = set(rng.choice(n, size=int(rng.integers(0, n // 2 + 1)), replace=False).tolist())
            want = brute_rank(scores, masked, n - len(masked))
            np.testing.assert_array_equal(engine_order(scores, masked), want)


def scores_in_order(ranked, n):
    """Scores over n items under which the items in ranked come first, in that order."""
    scores = np.zeros(n)
    scores[ranked] = np.arange(len(ranked), 0, -1)
    return scores


class TestEngineRecallNdcg:
    def test_single_hit_frozen_value(self):
        # the only relevant item sits at rank 4 of 5
        got = engine(scores_in_order([9, 8, 7, 3, 6], 10), set(), {3}, [5])
        assert abs(got.ndcg[5] - 0.43067655807339306) < 1e-15
        assert got.recall[5] == 1.0

    def test_user_without_relevant_items_is_not_counted(self):
        # an empty relevant set is no error: the user drops out of the means
        scores = np.array([[0.9, 0.1, 0.5], [0.9, 0.1, 0.5]])
        ds = InteractionDataset(2, 3, train=[(0, 0), (1, 0)], validation=[(1, 1)], test=[])
        got = metrics._ranked_metrics(ds, [1, 2], lambda lo, hi: scores[lo:hi].copy(), split="val")
        assert got == EvalResult(recall={1: 0.0, 2: 1.0}, ndcg={1: 0.0, 2: 1.0 / math.log2(3)}, users_evaluated=1)

    def test_perfect_prefix_is_one(self):
        got = engine(scores_in_order([4, 2, 9, 1], 10), set(), {4, 2}, [2])
        assert got.ndcg[2] == 1.0
        assert got.recall[2] == 1.0

    def test_ideal_normalizer_caps_at_k(self):
        # three relevant items but only two slots: ideal uses two gains
        got = engine(scores_in_order([5, 6], 10), set(), {5, 6, 7}, [2])
        assert got.ndcg[2] == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(44)
        for _ in range(60):
            n = int(rng.integers(4, 25))
            ranked = rng.permutation(n)
            rel = set(rng.choice(n, size=int(rng.integers(1, n // 2 + 1)), replace=False).tolist())
            got = engine(scores_in_order(ranked, n), set(), rel, range(1, n + 1))
            for k in range(1, n + 1):
                assert abs(got.recall[k] - brute_recall(ranked[:k], rel)) < 1e-12
                assert abs(got.ndcg[k] - brute_ndcg(ranked, rel, k)) < 1e-12

    def test_recall_monotone_in_k(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            n = 15
            ranked = rng.permutation(n)
            rel = set(rng.choice(n, size=4, replace=False).tolist())
            vals = list(engine(scores_in_order(ranked, n), set(), rel, range(1, n + 1)).recall.values())
            assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestEvaluate:
    def test_model_evaluation_matches_per_user_loop(self):
        ds = tiny_dataset()
        a = normalize_adjacency(build_adjacency(ds))
        state = init_model(ds, HyperParams(embed_dim=6, layers=2, seed=2))
        res = evaluate(state, a, None, ds, ks=[2, 5])
        assert isinstance(res, EvalResult)
        assert res.users_evaluated == ds.num_users

        trace = forward(state, a)
        train_items = items_by_user(ds, "train")
        test_items = items_by_user(ds, "test")
        for k in (2, 5):
            recs, gains = [], []
            for u in range(ds.num_users):
                scores = trace.final_user[u] @ trace.final_item.T
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
    def test_frozen_case_masks_train_and_breaks_ties_low(self):
        # train counts: item0 x3, item2 x2, items 1 and 3 x1 each, item4 unseen
        ds = InteractionDataset(
            num_users=3,
            num_items=5,
            train=np.array([[0, 0], [1, 0], [2, 0], [0, 2], [1, 2], [2, 1], [2, 3]], dtype=np.int64),
            validation=np.empty((0, 2), dtype=np.int64),
            test=np.array([[0, 3]], dtype=np.int64),
        )
        # user 0 masks items 0 and 2; items 1 and 3 tie and item 1, the lower, ranks first
        got = evaluate_popularity(ds, ks=[1, 2])
        assert got == EvalResult(recall={1: 0.0, 2: 1.0}, ndcg={1: 0.0, 2: 1.0 / math.log2(3)}, users_evaluated=1)

    def test_popularity_evaluation_masks_train(self):
        ds = tiny_dataset()
        res = evaluate_popularity(ds, ks=[3])
        counts = np.bincount(ds.train[:, 1], minlength=ds.num_items)
        train_items = items_by_user(ds, "train")
        test_items = items_by_user(ds, "test")
        recs = []
        for u in range(ds.num_users):
            ranked = brute_rank(counts, set(train_items[u].tolist()), 3)
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
    trace = forward(state, a)
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
