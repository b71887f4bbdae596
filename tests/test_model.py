"""Embedding init, activation, edge dropout, and the propagation stack.

The forward oracle here is a hand-rolled dense reimplementation built
from numpy primitives only, so any indexing or caching mistake in the
traced version shows up as a mismatch.
"""

import copy
import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.sparse import csr_array

from svdgcl.errors import ConfigError
from svdgcl.interactions import build_adjacency, normalize_adjacency
from svdgcl.linalg import approx_svd
from svdgcl.losses import TrainBatch, loss_and_grads
from svdgcl.model import (
    LEAKY_SLOPE,
    HyperParams,
    edge_dropout,
    forward,
    init_model,
    leaky_relu,
    leaky_relu_grad,
)
from tests.util import forward_keeping_lists, objective_view_tables, src_env, tiny_dataset


def slope(x):
    return np.where(np.asarray(x) >= 0, 1.0, LEAKY_SLOPE)


def dense_forward(state, a_dense, svd_recon, layers, with_view):
    """Reference propagation with plain dense ops."""
    hu, hi = [state.e_user.copy()], [state.e_item.copy()]
    gu, gi = [], []
    for _ in range(layers):
        pre_u = a_dense @ hi[-1]
        pre_i = a_dense.T @ hu[-1]
        zu = np.where(pre_u >= 0, pre_u, LEAKY_SLOPE * pre_u)
        zi = np.where(pre_i >= 0, pre_i, LEAKY_SLOPE * pre_i)
        if with_view:
            pg_u = svd_recon @ hi[-1]
            pg_i = svd_recon.T @ hu[-1]
            gu.append(np.where(pg_u >= 0, pg_u, LEAKY_SLOPE * pg_u))
            gi.append(np.where(pg_i >= 0, pg_i, LEAKY_SLOPE * pg_i))
        hu.append(zu + hu[-1])
        hi.append(zi + hi[-1])
    return sum(hu), sum(hi), gu, gi


class TestHyperParams:
    def test_defaults_are_valid(self):
        HyperParams()

    @pytest.mark.parametrize(
        "bad",
        [
            dict(embed_dim=0),
            dict(layers=0),
            dict(svd_rank=0),
            dict(dropout_p=1.0),
            dict(dropout_p=-0.1),
            dict(temperature=0.0),
            dict(temperature=float("nan")),
            dict(lambda1=-1.0),
            dict(lambda1=float("nan")),
            dict(lambda2=float("nan")),
            dict(learning_rate=0.0),
            dict(learning_rate=float("nan")),
            dict(dropout_p=float("nan")),
            dict(batch_size=0),
            dict(epochs=-1),
            dict(seed=-1),
            dict(cl_scope="sometimes"),
            dict(embed_dim=2.5),
            dict(epochs=True),
            dict(batch_size=float("nan")),
            dict(temperature=float("inf")),
            dict(lambda1=float("inf")),
            dict(lambda2=float("inf")),
            dict(learning_rate=float("inf")),
            dict(learning_rate="inf"),
            dict(lambda1="1e400"),
            dict(temperature=-float("inf")),
        ],
    )
    def test_bad_values_rejected(self, bad):
        with pytest.raises(ConfigError):
            HyperParams(**bad)


class TestInit:
    def test_shapes_bounds_and_determinism(self):
        ds = tiny_dataset()
        hp = HyperParams(embed_dim=16, seed=5)
        s1 = init_model(ds, hp)
        s2 = init_model(ds, hp)
        bound = np.sqrt(3.0 / 16)
        assert s1.e_user.shape == (ds.num_users, 16)
        assert s1.e_item.shape == (ds.num_items, 16)
        assert np.abs(s1.e_user).max() <= bound
        assert np.abs(s1.e_item).max() <= bound
        np.testing.assert_array_equal(s1.e_user, s2.e_user)
        np.testing.assert_array_equal(s1.e_item, s2.e_item)
        s3 = init_model(ds, HyperParams(embed_dim=16, seed=6))
        assert not np.array_equal(s1.e_user, s3.e_user)

    def test_train_stream_reproducible(self):
        ds = tiny_dataset()
        s1 = init_model(ds, HyperParams(embed_dim=4, seed=0))
        s2 = init_model(ds, HyperParams(embed_dim=4, seed=0))
        np.testing.assert_array_equal(s1.rng.random(8), s2.rng.random(8))


class TestActivation:
    def test_values(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        np.testing.assert_allclose(leaky_relu(x), [-0.4, -0.1, 0.0, 0.5, 2.0])

    def test_grad_including_the_kink(self):
        x = np.array([-1.0, 0.0, 1.0])
        np.testing.assert_array_equal(leaky_relu_grad(x), [LEAKY_SLOPE, 1.0, 1.0])

    def test_max_form_keeps_the_where_bytes(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5, -1.5, 5e-324, -5e-324, 1e308, -1e308])
        assert leaky_relu(x).tobytes() == np.where(x >= 0, x, LEAKY_SLOPE * x).tobytes()

    def test_grad_matches_finite_differences_off_kink(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(100)
        x = x[np.abs(x) > 1e-3]
        h = 1e-7
        fd = (leaky_relu(x + h) - leaky_relu(x - h)) / (2 * h)
        np.testing.assert_allclose(leaky_relu_grad(x), fd, atol=1e-6)


def pairs_matrix(rows, cols, r, c):
    r, c = np.asarray(r), np.asarray(c)
    return csr_array((np.ones(r.size), (r, c)), shape=(rows, cols))


class TestEdgeDropout:
    def test_p_zero_is_identity(self):
        a = pairs_matrix(3, 3, [0, 1, 2], [1, 2, 0])
        rng = np.random.default_rng(0)
        dropped, keep = edge_dropout(a, 0.0, rng)
        assert dropped is a
        assert keep.all() and keep.shape == (3,)

    def test_survivors_scaled(self):
        rng = np.random.default_rng(1)
        n = 2000
        a = pairs_matrix(1, n, np.zeros(n, dtype=int), np.arange(n))
        p = 0.3
        dropped, keep = edge_dropout(a, p, rng)
        assert dropped.count_nonzero() == int(keep.sum())
        # dropped edges stay stored, as zeros, on the original structure
        assert dropped.nnz == a.nnz and keep.shape == (n,)
        np.testing.assert_array_equal(dropped.indices, a.indices)
        np.testing.assert_array_equal(dropped.indptr, a.indptr)
        np.testing.assert_array_equal(dropped.data[keep], a.data[keep] * (1.0 / (1.0 - p)))
        assert not dropped.data[~keep].any()
        np.testing.assert_array_equal(a.data, np.ones(n))
        # keep rate concentrates near 1-p
        assert abs(keep.mean() - (1.0 - p)) < 0.05

    def test_mask_replay_reproduces_matrix(self):
        # two generators seeded alike draw the same masks
        ds = tiny_dataset()
        a = normalize_adjacency(build_adjacency(ds))
        hp = HyperParams(embed_dim=3, layers=2, dropout_p=0.4, lambda1=0.0, seed=4)
        state = init_model(ds, hp)
        t1 = forward(state, a, hp=hp, rng=np.random.default_rng(9))
        t2 = forward(state, a, hp=hp, rng=np.random.default_rng(9))
        for drawn, replayed in zip(t1.dropped_adj, t2.dropped_adj):
            for name in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(drawn, name), getattr(replayed, name))
        dropped, keep = edge_dropout(a, 0.4, np.random.default_rng(4))
        replay = forward(state, a, hp=hp, rng=np.random.default_rng(4)).dropped_adj[0]
        np.testing.assert_array_equal(dropped.data, replay.data)
        assert not np.array_equal(t1.dropped_adj[0].data, replay.data)

    def test_bad_p_rejected(self):
        with pytest.raises(ValueError):
            edge_dropout(pairs_matrix(1, 1, [0], [0]), 1.0, np.random.default_rng(0))


class TestForward:
    def setup_method(self):
        self.ds = tiny_dataset()
        self.a = normalize_adjacency(build_adjacency(self.ds))
        self.hp = HyperParams(embed_dim=6, layers=3, svd_rank=2, dropout_p=0.0, seed=11)
        self.state = init_model(self.ds, self.hp)
        self.svd = approx_svd(self.a, self.hp.svd_rank, oversample=1, power_iters=2, seed=11)

    def test_eval_matches_dense_reference(self):
        trace = forward(self.state, self.a)
        fu, fi, _, _ = dense_forward(self.state, self.a.toarray(), None, 3, False)
        np.testing.assert_allclose(trace.final_user, fu, atol=1e-10)
        np.testing.assert_allclose(trace.final_item, fi, atol=1e-10)
        assert len(trace.pre_z_user) == len(trace.pre_z_item) == len(trace.dropped_adj) == 3
        assert all(d is self.a for d in trace.dropped_adj)

    def test_train_with_view_matches_dense_reference(self):
        # the objective's view tables off this trace
        trace = forward(self.state, self.a, hp=self.hp)
        recon = self.svd.reconstruct()
        fu, fi, gu, gi = dense_forward(self.state, self.a.toarray(), recon, 3, True)
        np.testing.assert_allclose(trace.final_user, fu, atol=1e-10)
        np.testing.assert_allclose(trace.final_item, fi, atol=1e-10)
        view_u, view_i = objective_view_tables(trace, self.state, self.hp, self.svd)
        for got, want in zip(view_u, gu):
            np.testing.assert_allclose(leaky_relu(got), want, atol=1e-10)
        for got, want in zip(view_i, gi):
            np.testing.assert_allclose(leaky_relu(got), want, atol=1e-10)

    def test_view_never_feeds_predictions(self):
        # forward reads no lambda1, and the objective, which runs the view,
        # leaves the trace's finals as they were
        t1 = forward(self.state, self.a, hp=self.hp)
        t2 = forward(self.state, self.a, hp=dataclasses.replace(self.hp, lambda1=0.0))
        np.testing.assert_array_equal(t1.final_user, t2.final_user)
        np.testing.assert_array_equal(t1.final_item, t2.final_item)
        finals = t1.final_user.tobytes(), t1.final_item.tobytes()
        batch = TrainBatch(np.array([0, 1, 2]), np.array([1, 2, 3]), np.array([4, 5, 6]))
        loss_and_grads(t1, batch, self.state, self.hp, self.svd)
        assert (t1.final_user.tobytes(), t1.final_item.tobytes()) == finals

    def test_dropout_masks_replay(self):
        # a copy of the train stream replays the draw; the stream itself advances
        hp = HyperParams(embed_dim=6, layers=2, svd_rank=2, dropout_p=0.5, seed=3)
        state = init_model(self.ds, hp)
        replay = copy.deepcopy(state.rng)
        t1 = forward(state, self.a, hp=hp)
        t2 = forward(state, self.a, hp=hp, rng=replay)
        np.testing.assert_array_equal(t1.final_user, t2.final_user)
        np.testing.assert_array_equal(t1.final_item, t2.final_item)
        assert len(t1.dropped_adj) == 2
        # train rng advanced, so a fresh draw differs
        t3 = forward(state, self.a, hp=hp)
        assert not np.array_equal(t1.final_user, t3.final_user)

    def test_replay_generator_leaves_the_train_stream(self):
        hp = HyperParams(embed_dim=6, layers=2, svd_rank=2, dropout_p=0.5, seed=3)
        state = init_model(self.ds, hp)
        untouched = copy.deepcopy(state.rng)
        forward(state, self.a, hp=hp, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(state.rng.random(8), untouched.random(8))

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("dropout_p", [0.0, 0.25])
    @pytest.mark.parametrize("with_view", [True, False])
    def test_bytes_match_list_keeping_forward(self, layers, dropout_p, with_view):
        # with the view, the objective's view tables, rebuilt from the trace,
        # have the bytes of the frozen forward's
        hp = HyperParams(embed_dim=6, layers=layers, svd_rank=2, dropout_p=dropout_p, seed=3)
        state = init_model(self.ds, hp)
        if not with_view:
            hp = dataclasses.replace(hp, lambda1=0.0)
        trace = forward(state, self.a, hp=hp, rng=np.random.default_rng(5))
        want = forward_keeping_lists(state, self.a, self.svd, hp, "train", np.random.default_rng(5), with_view)
        assert trace.final_user.tobytes() == want["final_user"].tobytes()
        assert trace.final_item.tobytes() == want["final_item"].tobytes()
        got = {"pre_z_user": trace.pre_z_user, "pre_z_item": trace.pre_z_item}
        if with_view:
            got["pre_g_user"], got["pre_g_item"] = objective_view_tables(trace, state, hp, self.svd)
        for name, lists in got.items():
            assert len(lists) == layers
            assert all(g.tobytes() == w.tobytes() for g, w in zip(lists, want[name])), name
        for got, w in zip(trace.dropped_adj, want["dropped"]):
            assert got.data.tobytes() == w.data.tobytes()
            assert got.indices.tobytes() == w.indices.tobytes() and got.indptr.tobytes() == w.indptr.tobytes()

    def test_dimension_mismatch_rejected(self):
        other = pairs_matrix(2, 2, [0], [0])
        with pytest.raises(ValueError):
            forward(self.state, other)


# a forward starts spmm_pair's worker thread; a child forked after it must
# still run a forward, where a stale worker would leave its submit hanging
FORK_AFTER_FORWARD = """
import multiprocessing, threading
from types import SimpleNamespace
from scipy.sparse import csr_array, random as sparse_random
from svdgcl.model import HyperParams, forward, init_model

a = csr_array(sparse_random(30, 20, density=0.2, random_state=0))
state = init_model(SimpleNamespace(num_users=30, num_items=20), HyperParams(embed_dim=4))
want = forward(state, a).final_user.tobytes()
if threading.active_count() != 2:
    raise SystemExit(f"expected the worker thread, found {threading.active_count()} threads")

def child():
    raise SystemExit(0 if forward(state, a).final_user.tobytes() == want else 4)

p = multiprocessing.get_context("fork").Process(target=child)
p.start()
p.join(20)
if p.is_alive():
    p.kill()
    p.join()
    raise SystemExit("the forked child's forward hung")
raise SystemExit(p.exitcode)
"""


class TestForkedChild:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forward_runs_in_a_child_forked_after_a_forward(self):
        done = subprocess.run(
            [sys.executable, "-c", FORK_AFTER_FORWARD], env=src_env(), capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr[-2000:]

