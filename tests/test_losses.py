"""Objective terms, batch sampling, and the hand-written gradients.

The gradient oracle is central finite differences over every embedding
coordinate with dropout masks replayed (each forward draws from a
generator seeded alike), so the stochastic forward is held fixed while
each coordinate moves.
"""

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse import csr_array

from svdgcl import losses
from svdgcl.errors import ConfigError, DataError
from svdgcl.interactions import InteractionDataset, build_adjacency, normalize_adjacency
from svdgcl.linalg import SvdFactors, approx_svd
from svdgcl.losses import (
    LossReport,
    TrainBatch,
    _infonce_layer,
    _scatter_rows,
    bpr_loss,
    l2_reg,
    loss_and_grads,
    sample_batch,
)
from svdgcl.model import ForwardTrace, HyperParams, ModelState, forward, init_model, leaky_relu
from tests.util import (
    forward_keeping_lists,
    infonce_layer_one_buffer,
    infonce_layer_unfused,
    infonce_loss,
    loss_and_grads_carried_view,
    sample_batch_full_scan,
    spmm_pair_serial,
    tiny_dataset,
)


def nce_oracle(z_layers, g_layers, members, tau):
    """Loop reimplementation of the two-view contrast."""

    def norm_rows(x):
        out = np.zeros_like(x)
        for i in range(x.shape[0]):
            n = np.linalg.norm(x[i])
            if n > 0:
                out[i] = x[i] / n
        return out

    m = len(members)
    total = 0.0
    for z, g in zip(z_layers, g_layers):
        an = norm_rows(z[members])
        bn = norm_rows(g[members])
        s = an @ bn.T
        for i in range(m):
            logits = s[i] / tau
            total += math.log(np.exp(logits).sum()) - logits[i]
    return total / m


def trace_from_finals(fu, fi):
    return ForwardTrace(final_user=np.asarray(fu, float), final_item=np.asarray(fi, float))


class TestTrainBatch:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainBatch(np.array([0, 1]), np.array([0]), np.array([0]))
        with pytest.raises(ValueError):
            TrainBatch(np.array([], dtype=int), np.array([], dtype=int), np.array([], dtype=int))
        b = TrainBatch(np.array([0]), np.array([1]), np.array([2]))
        assert b.size == 1


class TestSampling:
    def test_batches_are_valid_train_pairs(self):
        ds = tiny_dataset()
        rng = np.random.default_rng(0)
        train_pairs = {(int(u), int(i)) for u, i in ds.train}
        for _ in range(10):
            batch = sample_batch(ds, 64, rng)
            assert batch.size == 64
            for u, p, n in zip(batch.users, batch.pos_items, batch.neg_items):
                assert (int(u), int(p)) in train_pairs
                assert (int(u), int(n)) not in train_pairs

    def test_sampling_is_rng_driven(self):
        ds = tiny_dataset()
        b1 = sample_batch(ds, 32, np.random.default_rng(5))
        b2 = sample_batch(ds, 32, np.random.default_rng(5))
        b3 = sample_batch(ds, 32, np.random.default_rng(6))
        np.testing.assert_array_equal(b1.users, b2.users)
        np.testing.assert_array_equal(b1.neg_items, b2.neg_items)
        assert not np.array_equal(b1.neg_items, b3.neg_items)

    def test_saturated_user_is_a_data_error(self):
        train = [(0, i) for i in range(4)] + [(1, 0)]
        ds = InteractionDataset(
            num_users=2,
            num_items=4,
            train=np.array(train, dtype=np.int64),
            validation=np.empty((0, 2), dtype=np.int64),
            test=np.empty((0, 2), dtype=np.int64),
            user_id_map={"a": 0, "b": 1},
            item_id_map={f"i{i}": i for i in range(4)},
        )
        with pytest.raises(DataError, match="every item"):
            sample_batch(ds, 256, np.random.default_rng(0))

    def test_nearly_saturated_user_gets_the_free_item(self):
        # 999 of 1,000 items held: most negatives exhaust the uniform tries
        # and come from the fallback, which must find the one free item
        train = [(0, i) for i in range(1000) if i != 617] + [(1, 617)]
        ds = InteractionDataset(
            num_users=2,
            num_items=1000,
            train=np.array(train, dtype=np.int64),
            validation=np.empty((0, 2), dtype=np.int64),
            test=np.empty((0, 2), dtype=np.int64),
        )
        batch = sample_batch(ds, 512, np.random.default_rng(3))
        mine = batch.users == 0
        assert mine.sum() > 400
        np.testing.assert_array_equal(batch.neg_items[mine], 617)
        assert not np.any(batch.neg_items[~mine] == 617)

    def test_fallback_draws_match_a_full_scan(self):
        # the fallback reads each user's items off the sorted keys; the
        # allowed items, and so every draw, equal those of a scan of ds.train
        rng = np.random.default_rng(9)
        train = [(u, i) for u in range(6) for i in rng.permutation(200)[: 194 + u]]
        train = np.array(train, dtype=np.int64)[rng.permutation(len(train))]
        ds = InteractionDataset(
            num_users=6, num_items=200, train=train, validation=np.empty((0, 2)), test=np.empty((0, 2))
        )
        for seed in range(5):
            got = sample_batch(ds, 300, np.random.default_rng(seed))
            want = sample_batch_full_scan(ds, 300, np.random.default_rng(seed))
            np.testing.assert_array_equal(got.neg_items, want.neg_items)
            np.testing.assert_array_equal(got.users, want.users)


class TestRankingLoss:
    def test_unit_margin_closed_form(self):
        # one pair with score margin exactly 1
        fu = [[1.0, 0.0]]
        fi = [[1.0, 0.0], [0.0, 0.0]]
        batch = TrainBatch(np.array([0]), np.array([0]), np.array([1]))
        got = bpr_loss(trace_from_finals(fu, fi), batch)
        assert abs(got - 0.3132616875182228) < 1e-15

    def test_mean_over_pairs_matches_fsum_loop(self):
        rng = np.random.default_rng(3)
        fu = rng.standard_normal((6, 4))
        fi = rng.standard_normal((9, 4))
        users = rng.integers(0, 6, size=40)
        pos = rng.integers(0, 9, size=40)
        neg = rng.integers(0, 9, size=40)
        batch = TrainBatch(users, pos, neg)
        got = bpr_loss(trace_from_finals(fu, fi), batch)
        terms = []
        for u, p, n in zip(users, pos, neg):
            margin = fu[u] @ (fi[p] - fi[n])
            terms.append(math.log1p(math.exp(-abs(margin))) + max(-margin, 0.0))
        want = math.fsum(terms) / len(terms)
        assert abs(got - want) < 1e-12

    def test_perfect_separation_drives_loss_down(self):
        fu = [[10.0]]
        fi = [[10.0], [-10.0]]
        batch = TrainBatch(np.array([0]), np.array([0]), np.array([1]))
        assert bpr_loss(trace_from_finals(fu, fi), batch) < 1e-10


class TestRegularizer:
    def test_matches_fsum(self):
        rng = np.random.default_rng(8)
        state = ModelState(
            e_user=rng.standard_normal((7, 5)),
            e_item=rng.standard_normal((9, 5)),
            layers=2,
            embed_dim=5,
            rng=rng,
        )
        want = math.fsum(
            [float(x) * float(x) for x in state.e_user.ravel()]
            + [float(x) * float(x) for x in state.e_item.ravel()]
        )
        got = l2_reg(state)
        assert abs(got - want) <= 1e-12 * abs(want)


class TestContrast:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            m = int(rng.integers(2, 12))
            rows = m + int(rng.integers(0, 5))
            d = int(rng.integers(2, 6))
            layers = int(rng.integers(1, 4))
            members = rng.choice(rows, size=m, replace=False)
            z = [rng.standard_normal((rows, d)) for _ in range(layers)]
            g = [rng.standard_normal((rows, d)) for _ in range(layers)]
            tau = float(rng.uniform(0.2, 2.0))
            got = infonce_loss(z, g, members, tau)
            want = nce_oracle(z, g, members, tau)
            assert abs(got - want) < 1e-10

    def test_identical_constant_views_give_log_member_count(self):
        rng = np.random.default_rng(22)
        vec = rng.standard_normal(5)
        z = np.tile(vec, (6, 1))
        members = np.arange(6)
        for layers in (1, 2, 3):
            got = infonce_loss([z] * layers, [z] * layers, members, tau=0.7)
            assert abs(got - layers * math.log(6)) < 1e-9

    def test_zero_norm_rows_follow_documented_rule(self):
        rng = np.random.default_rng(23)
        z = rng.standard_normal((4, 3))
        g = rng.standard_normal((4, 3))
        z[1] = 0.0
        members = np.arange(4)
        got = infonce_loss([z], [g], members, tau=0.5)
        want = nce_oracle([z], [g], members, 0.5)
        assert np.isfinite(got)
        assert abs(got - want) < 1e-10

    def test_degenerate_member_set_warns_and_skips(self, caplog):
        z = [np.ones((3, 2))]
        with caplog.at_level("WARNING", logger="svdgcl"):
            got = infonce_loss(z, z, np.array([0]), tau=1.0)
        assert got == 0.0
        assert any("member" in r.message for r in caplog.records)

    def test_temperature_validated(self):
        with pytest.raises(ConfigError, match="temperature must be positive"):
            HyperParams(temperature=0.0)


class TestFusedContrastLayer:
    """The one-buffer layer against the unfused formulas: the loss byte for
    byte, the gradients to the last few bits (their arithmetic differs)."""

    @pytest.mark.parametrize("m", [2, 3, 301, 1191])
    @pytest.mark.parametrize("tau", [1.0, 0.7, 0.2])
    @pytest.mark.parametrize("zero_row", [None, "z", "g"])
    def test_bytes_match_unfused_reference(self, m, tau, zero_row):
        rng = np.random.default_rng(m)
        rows = m + 7
        z = rng.standard_normal((rows, 16))
        g = rng.standard_normal((rows, 16))
        members = np.sort(rng.choice(rows, size=m, replace=False))
        if zero_row == "z":
            z[members[m // 2]] = 0.0
        elif zero_row == "g":
            g[members[m // 2]] = 0.0
        got = _infonce_layer(z[members], g[members], tau)
        want = infonce_layer_unfused(z, g, members, tau)
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        for a, b in zip(got[1:], want[1:]):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
        if zero_row == "z":
            assert not got[1][m // 2].any()
        elif zero_row == "g":
            assert not got[2][m // 2].any()

    @pytest.mark.parametrize("m", [2, 3, 301, 1191])
    @pytest.mark.parametrize("tau", [1.0, 0.7, 0.2])
    @pytest.mark.parametrize("zero_row", [None, "z", "g"])
    def test_member_order_permutes_the_grads(self, m, tau, zero_row):
        # the same reordering of both views' members reorders the anchors and
        # their candidates alike: the loss stays, the gradient rows follow
        a, b = contrast_rows(m, zero_row)
        order = np.random.default_rng(m + 1).permutation(m)
        loss, ga, gb = _infonce_layer(a, b, tau)
        loss_p, ga_p, gb_p = _infonce_layer(a[order], b[order], tau)
        assert abs(loss_p - loss) <= 1e-12 * abs(loss)
        for got, want in ((ga_p, ga[order]), (gb_p, gb[order])):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        if zero_row is not None:
            moved = int(np.flatnonzero(order == m // 2)[0])
            assert not {"z": ga_p, "g": gb_p}[zero_row][moved].any()

    @pytest.mark.parametrize("m", [2, 3, 17])
    @pytest.mark.parametrize("tau", [1.0, 0.7, 0.2])
    @pytest.mark.parametrize("zero_row", [None, "z", "g"])
    def test_gradients_match_finite_differences(self, m, tau, zero_row):
        rng = np.random.default_rng(100 + m)
        rows, d, h = m + 2, 4, 1e-6
        views = {"z": rng.standard_normal((rows, d)), "g": rng.standard_normal((rows, d))}
        members = np.sort(rng.choice(rows, size=m, replace=False))
        if zero_row is not None:
            views[zero_row][members[m // 2]] = 0.0
        _, ga, gb = _infonce_layer(views["z"][members], views["g"][members], tau)
        for name, grad in (("z", ga), ("g", gb)):
            x = views[name]
            fd = np.zeros_like(grad)
            for k, r in enumerate(members):
                if name == zero_row and k == m // 2:
                    continue  # the norm has a kink at 0; the rule gives it zero gradient
                for c in range(d):
                    keep = x[r, c]
                    x[r, c] = keep + h
                    up = _infonce_layer(views["z"][members], views["g"][members], tau)[0]
                    x[r, c] = keep - h
                    down = _infonce_layer(views["z"][members], views["g"][members], tau)[0]
                    x[r, c] = keep
                    fd[k, c] = (up - down) / (2 * h)
            np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-7)
            if name == zero_row:
                assert not grad[m // 2].any()

    def test_peak_allocation_is_one_m_by_m_buffer(self):
        m = 1000
        rng = np.random.default_rng(5)
        z = rng.standard_normal((m, 64))
        g = rng.standard_normal((m, 64))
        members = np.arange(m)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _infonce_layer(z[members], g[members], 0.7)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * m * m


def contrast_rows(m, zero_row, d=16):
    """Member rows of two views for a contrast of m members, with one zero
    row in the named view (if any) at m // 2."""
    rng = np.random.default_rng(m)
    a = rng.standard_normal((m, d))
    b = rng.standard_normal((m, d))
    if zero_row == "z":
        a[m // 2] = 0.0
    elif zero_row == "g":
        b[m // 2] = 0.0
    return a, b


class TestBlockedContrastLayer:
    """The anchor-blocked layer against the one-buffer layer it replaced:
    byte for byte when every anchor fits one block, to the last few bits
    when the blocks are smaller."""

    @pytest.mark.parametrize("m", [2, 3, 301, 1191, 1682])
    @pytest.mark.parametrize("tau", [1.0, 0.7, 0.2])
    @pytest.mark.parametrize("zero_row", [None, "z", "g"])
    def test_one_block_bytes_match_one_buffer_layer(self, m, tau, zero_row):
        assert losses.CONTRAST_BLOCK_BYTES >= 8 * m * m
        a, b = contrast_rows(m, zero_row)
        got = _infonce_layer(a, b, tau)
        want = infonce_layer_one_buffer(a, b, tau)
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        for x, y in zip(got[1:], want[1:]):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("m", [2, 3, 301, 1191, 1682])
    @pytest.mark.parametrize("tau", [1.0, 0.7, 0.2])
    @pytest.mark.parametrize("zero_row", [None, "z", "g"])
    def test_row_scale_free_and_inputs_unchanged(self, m, tau, zero_row):
        # cosine similarities ignore each row's length: scaling row i by 2**k
        # (exact in floating point) keeps the loss bytes and divides that
        # row's gradient by exactly 2**k; the caller's rows are not touched
        a, b = contrast_rows(m, zero_row)
        rng = np.random.default_rng(m + 2)
        sa = np.ldexp(1.0, rng.integers(-6, 7, size=m))[:, None]
        sb = np.ldexp(1.0, rng.integers(-6, 7, size=m))[:, None]
        a2, b2 = a * sa, b * sb
        keep = a2.tobytes(), b2.tobytes()
        loss, ga, gb = _infonce_layer(a, b, tau)
        loss2, ga2, gb2 = _infonce_layer(a2, b2, tau)
        assert (a2.tobytes(), b2.tobytes()) == keep
        assert np.float64(loss2).tobytes() == np.float64(loss).tobytes()
        assert (ga2 * sa).tobytes() == ga.tobytes()
        assert (gb2 * sb).tobytes() == gb.tobytes()

    @pytest.mark.parametrize("m", [2, 3, 301, 1191])
    @pytest.mark.parametrize("tau", [1.0, 0.7, 0.2])
    @pytest.mark.parametrize("zero_row", [None, "z", "g"])
    @pytest.mark.parametrize("block_rows", ["one", "64", "half"])
    def test_small_blocks_match_one_buffer_layer(self, monkeypatch, m, tau, zero_row, block_rows):
        # one row per block; 64 rows (uneven last block past 64 members);
        # just over half the rows (an uneven last block from 3 members up)
        rows = {"one": 1, "64": 64, "half": m // 2 + 1}[block_rows]
        monkeypatch.setattr(losses, "CONTRAST_BLOCK_BYTES", 8 * m * rows)
        a, b = contrast_rows(m, zero_row)
        got = _infonce_layer(a, b, tau)
        want = infonce_layer_one_buffer(a, b, tau)
        assert abs(got[0] - want[0]) <= 1e-12 * abs(want[0])
        for x, y in zip(got[1:], want[1:]):
            assert x.shape == y.shape
            assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))
        if zero_row == "z":
            assert not got[1][m // 2].any()
        elif zero_row == "g":
            assert not got[2][m // 2].any()

    def test_peak_allocation_follows_the_block_budget(self, monkeypatch):
        # the one-buffer layer peaks at about 1.34 * 8 * m**2 here
        m = 1000
        monkeypatch.setattr(losses, "CONTRAST_BLOCK_BYTES", 8 * m * m // 8)
        rng = np.random.default_rng(5)
        z = rng.standard_normal((m, 64))
        g = rng.standard_normal((m, 64))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _infonce_layer(z, g, 0.7)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * 8 * m * m


class TestScatterRows:
    """One COO product gives the bytes np.add.at gives."""

    @pytest.mark.parametrize("rows,n", [(1, 5), (7, 40), (1000, 1024)])
    def test_bytes_match_add_at(self, rows, n):
        rng = np.random.default_rng(rows + n)
        dest = rng.integers(rows, size=n)
        dest[: n // 4] = dest[0]  # plenty of repeats on one row
        weights = rng.standard_normal(n) * 1e-3
        table = rng.standard_normal((n, 8))
        want = np.zeros((rows, 8))
        np.add.at(want, dest, weights[:, None] * table)
        got = _scatter_rows(dest, weights, np.arange(n), table, rows)
        assert isinstance(got, np.ndarray) and got.shape == (rows, 8)
        assert got.tobytes() == want.tobytes()

    def test_ranking_head_item_side_matches_two_add_ats(self):
        # positives first, then negatives, each weighted by the same rows
        rng = np.random.default_rng(3)
        pos = rng.integers(6, size=50)
        neg = rng.integers(6, size=50)
        coeff = rng.standard_normal(50)
        fu = rng.standard_normal((50, 4))
        want = np.zeros((6, 4))
        np.add.at(want, pos, coeff[:, None] * fu)
        np.add.at(want, neg, -coeff[:, None] * fu)
        j = np.arange(50)
        got = _scatter_rows(np.concatenate([pos, neg]), np.concatenate([coeff, -coeff]), np.concatenate([j, j]), fu, 6)
        assert got.tobytes() == want.tobytes()


def build_setup(cl_scope="in-batch", lambda1=0.3, dropout_p=0.0, layers=2, seed=13):
    ds = tiny_dataset()
    a = normalize_adjacency(build_adjacency(ds))
    hp = HyperParams(
        embed_dim=4,
        layers=layers,
        svd_rank=2,
        dropout_p=dropout_p,
        temperature=0.6,
        lambda1=lambda1,
        lambda2=1e-4,
        seed=seed,
        cl_scope=cl_scope,
    )
    state = init_model(ds, hp)
    svd = approx_svd(a, hp.svd_rank, oversample=2, power_iters=2, seed=seed) if lambda1 > 0 else None
    batch = sample_batch(ds, 16, np.random.default_rng(seed))
    return ds, a, hp, state, svd, batch


class TestObjective:
    def test_report_decomposition(self):
        ds, a, hp, state, svd, batch = build_setup()
        trace = forward(state, a, hp=hp)
        report = loss_and_grads(trace, batch, state, hp, svd)[0]
        recombined = (
            report.rec_loss
            + hp.lambda1 * (report.cl_loss_user + report.cl_loss_item)
            + hp.lambda2 * report.reg_loss
        )
        assert abs(report.total - recombined) < 1e-12
        assert isinstance(report, LossReport)

    def test_terms_match_standalone_functions(self):
        ds, a, hp, state, svd, batch = build_setup()
        trace = forward(state, a, hp=hp)
        report = loss_and_grads(trace, batch, state, hp, svd)[0]
        assert abs(report.rec_loss - bpr_loss(trace, batch)) < 1e-12
        assert abs(report.reg_loss - l2_reg(state)) < 1e-9
        members_u = np.unique(batch.users)
        members_i = np.unique(np.concatenate([batch.pos_items, batch.neg_items]))
        kept = forward_keeping_lists(state, a, svd, hp, "train", None, True)
        zs_u = [leaky_relu(x) for x in trace.pre_z_user]
        gs_u = [leaky_relu(x) for x in kept["pre_g_user"]]
        want_u = infonce_loss(zs_u, gs_u, members_u, hp.temperature)
        assert abs(report.cl_loss_user - want_u) < 1e-12
        zs_i = [leaky_relu(x) for x in trace.pre_z_item]
        gs_i = [leaky_relu(x) for x in kept["pre_g_item"]]
        want_i = infonce_loss(zs_i, gs_i, members_i, hp.temperature)
        assert abs(report.cl_loss_item - want_i) < 1e-12

    def test_lambda1_zero_skips_contrast(self):
        ds, a, hp, state, svd, batch = build_setup(lambda1=0.0)
        trace = forward(state, a, hp=hp)
        report = loss_and_grads(trace, batch, state, hp, svd)[0]
        assert report.cl_loss_user == 0.0 and report.cl_loss_item == 0.0

    def test_missing_view_rejected(self):
        ds, a, hp, state, svd, batch = build_setup()
        trace = forward(state, a, hp=hp)
        with pytest.raises(ValueError, match=r"global view \(lambda1 > 0\) needs a factorization"):
            loss_and_grads(trace, batch, state, hp)

    def test_loss_and_grads_repeat_and_keep_the_trace(self):
        ds, a, hp, state, svd, batch = build_setup()
        trace = forward(state, a, hp=hp)
        report, gu, gi = loss_and_grads(trace, batch, state, hp, svd)
        again, gu2, gi2 = loss_and_grads(trace, batch, state, hp, svd)
        assert report == again
        assert gu.tobytes() == gu2.tobytes() and gi.tobytes() == gi2.tobytes()
        assert gu.shape == state.e_user.shape
        assert gi.shape == state.e_item.shape


class TestPairedProductsKeepTheBytes:
    @pytest.mark.parametrize("lambda1", [0.0, 0.3])
    def test_forward_and_grads_match_serial_products(self, lambda1, monkeypatch):
        # big enough for the worker's product to overlap the main thread's
        ds = tiny_dataset(num_users=1500, num_items=1200)
        a = normalize_adjacency(build_adjacency(ds))
        hp = HyperParams(embed_dim=32, layers=3, svd_rank=3, dropout_p=0.25, lambda1=lambda1, seed=4)
        state = init_model(ds, hp)
        svd = approx_svd(a, hp.svd_rank, oversample=2, power_iters=2, seed=4) if lambda1 > 0 else None
        batch = sample_batch(ds, 512, np.random.default_rng(4))
        trace = forward(state, a, hp=hp, rng=np.random.default_rng(5))
        want = forward_keeping_lists(state, a, svd, hp, "train", np.random.default_rng(5), lambda1 > 0)
        assert trace.final_user.tobytes() == want["final_user"].tobytes()
        assert trace.final_item.tobytes() == want["final_item"].tobytes()
        report, gu, gv = loss_and_grads(trace, batch, state, hp, svd)
        monkeypatch.setattr(losses, "spmm_pair", spmm_pair_serial)
        want_report, want_gu, want_gv = loss_and_grads(trace, batch, state, hp, svd)
        assert report == want_report
        assert gu.tobytes() == want_gu.tobytes() and gv.tobytes() == want_gv.tobytes()


class TestObjectiveMatchesTheCarriedView:
    """loss_and_grads against the frozen copy that read each layer's full
    view tables off the forward pass: the same report, the same gradient
    bytes."""

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("dropout_p", [0.0, 0.25])
    @pytest.mark.parametrize("cl_scope", ["in-batch", "full-population"])
    @pytest.mark.parametrize("lambda1", [0.0, 0.3])
    def test_report_and_gradient_bytes(self, layers, dropout_p, cl_scope, lambda1):
        ds, a, hp, state, svd, batch = build_setup(cl_scope, lambda1, dropout_p, layers, seed=20 + layers)
        trace = forward(state, a, hp=hp, rng=np.random.default_rng(5))
        report, gu, gv = loss_and_grads(trace, batch, state, hp, svd)
        kept = forward_keeping_lists(state, a, svd, hp, "train", np.random.default_rng(5), lambda1 > 0)
        want_report, want_gu, want_gv = loss_and_grads_carried_view(trace, batch, state, hp, svd, kept)
        assert report == want_report
        assert gu.tobytes() == want_gu.tobytes() and gv.tobytes() == want_gv.tobytes()


def worst_fd_error(state, a, svd, hp, batch, seed, floor=1e-8):
    """The largest relative gap between the hand-written gradient and
    central differences, over every coordinate of both tables. Each forward
    draws its dropout masks from a generator seeded with seed; a gap is
    relative to the larger of the two slopes, or to floor when both are
    smaller."""
    trace = forward(state, a, hp=hp, rng=np.random.default_rng(seed))
    _, gu, gi = loss_and_grads(trace, batch, state, hp, svd)

    def loss_at():
        t = forward(state, a, hp=hp, rng=np.random.default_rng(seed))
        return loss_and_grads(t, batch, state, hp, svd)[0].total

    h = 1e-5
    worst = 0.0
    for table, grad in ((state.e_user, gu), (state.e_item, gi)):
        flat, gflat = table.ravel(), grad.ravel()
        for idx in range(flat.shape[0]):
            keep = flat[idx]
            flat[idx] = keep + h
            up = loss_at()
            flat[idx] = keep - h
            down = loss_at()
            flat[idx] = keep
            fd = (up - down) / (2 * h)
            denom = max(abs(fd), abs(gflat[idx]), floor)
            worst = max(worst, abs(fd - gflat[idx]) / denom)
    return worst


def fd_check(cl_scope, dropout_p, lambda1, layers, seed, tol=1e-6):
    """Central differences over every coordinate of both tables."""
    ds, a, hp, state, svd, batch = build_setup(cl_scope, lambda1, dropout_p, layers, seed)
    worst = worst_fd_error(state, a, svd, hp, batch, seed)
    assert worst < tol, f"worst relative gradient error {worst:.3e}"


class TestGradients:
    def test_full_objective_matches_finite_differences(self):
        fd_check("in-batch", 0.0, 0.3, 2, seed=13)

    def test_with_dropout_masks_replayed(self):
        fd_check("in-batch", 0.4, 0.3, 2, seed=14)

    def test_full_population_scope(self):
        fd_check("full-population", 0.0, 0.3, 2, seed=15)

    def test_ranking_only(self):
        fd_check("in-batch", 0.0, 0.0, 2, seed=16)

    def test_three_layers(self):
        fd_check("in-batch", 0.0, 0.3, 3, seed=17)


def orthonormal_with_zero_rows(rng, rows, r, zero):
    """rows x r, orthonormal columns, zero on the rows listed in zero."""
    out = np.zeros((rows, r))
    live = np.setdiff1d(np.arange(rows), zero)
    out[live] = np.linalg.qr(rng.standard_normal((live.size, r)))[0]
    return out


@st.composite
def knob_space_cases(draw):
    """A graph of at most 6 x 7, tables of width at most 3, the knobs, factors
    and a batch: one case for a gradient check.

    An isolated user or item (no edge, a zero factor row) is a zero-norm row
    in both views wherever it is a member. The factors are orthonormal but
    not the graph's own: the objective's gradient holds for any view. A batch
    whose triples share one user is a member set of size 1 in-batch."""
    rows, cols, d = draw(st.integers(2, 6)), draw(st.integers(2, 7)), draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    mask = rng.random((rows, cols)) < draw(st.sampled_from([0.3, 0.6, 1.0]))
    lone_users = [0] if draw(st.booleans()) else []
    lone_items = [cols - 1] if draw(st.booleans()) else []
    mask[lone_users, :] = False
    mask[:, lone_items] = False
    a = normalize_adjacency(csr_array(mask.astype(np.float64)))
    r = draw(st.integers(1, min(rows - len(lone_users), cols - len(lone_items), 3)))
    svd = SvdFactors(
        u_r=orthonormal_with_zero_rows(rng, rows, r, lone_users),
        s_r=np.sort(rng.uniform(0.1, 1.0, r))[::-1],
        v_r=orthonormal_with_zero_rows(rng, cols, r, lone_items),
        rank=r,
    )
    hp = HyperParams(
        embed_dim=d,
        layers=draw(st.integers(1, 3)),
        svd_rank=r,
        dropout_p=draw(st.sampled_from([0.0, 0.25])),
        temperature=draw(st.floats(0.2, 2.0)),
        lambda1=draw(st.sampled_from([0.0, 0.05, 0.3, 1.0])),
        lambda2=1e-4,
        seed=seed,
        cl_scope=draw(st.sampled_from(["in-batch", "full-population"])),
    )
    triples = draw(
        st.lists(
            st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), st.integers(0, cols - 1)),
            min_size=1,
            max_size=5,
        )
    )
    batch = TrainBatch(*(np.array(column) for column in zip(*triples)))
    state = init_model(SimpleNamespace(num_users=rows, num_items=cols), hp)
    return state, a, svd, hp, batch, seed


class TestKnobSpaceGradients:
    # a slope below 1e-4 is held to an absolute gap of 1e-8: at h = 1e-5 the
    # rounding of losses near 50 (tau 0.2, three layers) reaches about 1e-9.
    # Over 1,000 random cases the worst gap read 1e-5
    @given(knob_space_cases())
    def test_gradients_match_central_differences(self, case):
        state, a, svd, hp, batch, seed = case
        worst = worst_fd_error(state, a, svd, hp, batch, seed, floor=1e-4)
        assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"
