"""Shared fixtures-by-hand for the unit tests."""

import dataclasses
import logging
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_array
from scipy.special import expit

from svdgcl.datasets import PREP_STREAM
from svdgcl.errors import ConfigError, DataError, ParseError
from svdgcl import harness, linalg, losses
from svdgcl.interactions import HOLDOUT_STREAM, InteractionDataset, _read_pairs
from svdgcl.linalg import SvdFactors, _fix_signs, exact_svd_dense, svd_propagate
from svdgcl.losses import (
    MAX_NEG_TRIES,
    LossReport,
    TrainBatch,
    _cl_members,
    _ranking_terms,
    _scatter_rows,
    l2_reg,
    loss_and_grads,
)
from svdgcl.model import leaky_relu, leaky_relu_grad, spmm, spmm_pair, spmm_t


def tiny_dataset(num_users=8, num_items=10):
    """Ring-structured dataset small enough for loop oracles.

    Each user trains on five consecutive items, tests on the sixth and
    validates on the seventh, so every split is warm and every user has
    sampleable negatives.
    """
    train, val, test = [], [], []
    for u in range(num_users):
        for j in range(5):
            train.append((u, (u + j) % num_items))
        test.append((u, (u + 5) % num_items))
        val.append((u, (u + 6) % num_items))
    return InteractionDataset(
        num_users=num_users,
        num_items=num_items,
        train=np.array(train, dtype=np.int64),
        validation=np.array(val, dtype=np.int64),
        test=np.array(test, dtype=np.int64),
        user_id_map={f"u{u}": u for u in range(num_users)},
        item_id_map={f"i{i}": i for i in range(num_items)},
    )


def src_env():
    """This process's environment with the checkout's src/ first on
    PYTHONPATH, for running the package in a child interpreter."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def svdgcl_logger_state():
    """The package logger's handlers, level and propagate flag, for
    before/after comparisons around calls that must leave them alone."""
    lg = logging.getLogger("svdgcl")
    return list(lg.handlers), lg.level, lg.propagate


def count_factorizations(monkeypatch):
    """A list that gains one entry per approx_svd call made through harness
    or linalg, for the rest of the test."""
    calls = []
    for module in (harness, linalg):
        real = module.approx_svd

        def counted(*args, _real=real, **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, "approx_svd", counted)
    return calls


def infonce_layer_unfused(z, g, members, tau):
    """The contrast layer as one fresh array per formula (np.eye included).

    A frozen reference for losses._infonce_layer, which keeps one in-place
    m x m buffer and applies 1/rowsum, the identity and 1/tau to m x d
    products instead. Its loss must match this one byte for byte. Its
    gradients drop the radial part as (an_i . G_i) an_i, G = ds @ bn, where
    this one subtracts the row sums of ds * s; the two are equal by
    sum_j ds_ij * s_ij = an_i . (ds @ bn)_i, so they agree to the last few
    bits.
    """
    m = members.shape[0]

    def normalize_rows(x):
        norms = np.linalg.norm(x, axis=1)
        safe = np.where(norms > 0, norms, 1.0)
        return x / safe[:, None], norms

    an, na = normalize_rows(z[members])
    bn, nb = normalize_rows(g[members])
    s = an @ bn.T
    logits = s / tau
    peak = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - peak)
    rowsum = e.sum(axis=1, keepdims=True)
    lse = peak[:, 0] + np.log(rowsum[:, 0])
    loss_sum = float(np.sum(lse - np.diagonal(logits)))
    p = e / rowsum
    ds = p - np.eye(m)
    ds /= tau
    ds_s = ds * s
    ga = ds @ bn - ds_s.sum(axis=1)[:, None] * an
    gb = ds.T @ an - ds_s.sum(axis=0)[:, None] * bn
    na_ok = na > 0
    nb_ok = nb > 0
    ga[na_ok] /= na[na_ok, None]
    ga[~na_ok] = 0.0
    gb[nb_ok] /= nb[nb_ok, None]
    gb[~nb_ok] = 0.0
    return loss_sum, ga, gb


def infonce_layer_one_buffer(a, b, tau):
    """Frozen copy of losses._infonce_layer as one m x m buffer over all
    anchors at once, before it walked its anchors in blocks.

    With every anchor in one block the blocked layer must match this byte
    for byte; with smaller blocks its products sum in another grouping, so
    it matches to the last few bits.
    """

    def normalize_rows(x):
        norms = np.linalg.norm(x, axis=1)
        safe = np.where(norms > 0, norms, 1.0)
        return x / safe[:, None], norms

    an, na = normalize_rows(a)
    bn, nb = normalize_rows(b)
    w = an @ bn.T
    w /= tau
    diag = w.diagonal().copy()
    peak = w.max(axis=1, keepdims=True)
    w -= peak
    np.exp(w, out=w)
    rowsum = w.sum(axis=1, keepdims=True)
    lse = peak[:, 0] + np.log(rowsum[:, 0])
    loss_sum = float(np.sum(lse - diag))
    ga = w @ bn
    ga /= rowsum
    ga -= bn
    ga /= tau
    gb = w.T @ (an / rowsum)
    gb -= an
    gb /= tau
    for grad, unit, norms in ((ga, an, na), (gb, bn, nb)):
        grad -= np.einsum("ij,ij->i", grad, unit)[:, None] * unit
        ok = norms > 0
        grad[ok] /= norms[ok, None]
        grad[~ok] = 0.0
    return loss_sum, ga, gb


def infonce_loss(z_layers, g_layers, members, tau):
    """One side's contrast term as loss_and_grads computes it: the cosine
    InfoNCE between the member rows of each layer's two views, summed over
    layers and averaged over members (exactly 0.0 for a lone member)."""
    members = np.asarray(members, dtype=np.int64)
    return losses._contrast([([z[members] for z in z_layers], [g[members] for g in g_layers])], tau)[0][0]


def contrast_serial(a_layers, b_layers, tau):
    """Frozen copy of losses._contrast from when it ran one side's layers
    one after another on one thread: the per-layer InfoNCE summed over
    layers and averaged over members, with each layer's (ga, gb)."""
    m = a_layers[0].shape[0]
    total = 0.0
    grads = []
    for a, b in zip(a_layers, b_layers):
        loss_sum, ga, gb = losses._infonce_layer(a, b, tau)
        total += loss_sum
        grads.append((ga, gb))
    return total / m, grads


def contrast_skipping_lone_members(a_layers, b_layers, tau):
    """Frozen copy of losses._contrast from when it skipped a side of fewer
    than two members: (0.0, None) there, else the per-layer InfoNCE summed
    over layers and averaged over members, with each layer's (ga, gb).

    Patched in for this module's contrast_serial, it makes the grads-is-None
    branch of loss_and_grads_carried_view live again."""
    m = a_layers[0].shape[0]
    if m < 2:
        return 0.0, None
    total = 0.0
    grads = []
    for a, b in zip(a_layers, b_layers):
        loss_sum, ga, gb = losses._infonce_layer(a, b, tau)
        total += loss_sum
        grads.append((ga, gb))
    return total / m, grads


def items_by_user(ds, split="train"):
    """Each user's items in one split ("train", "val" or "test"), ascending.

    Built by a loop over the split's raw pair rows, so it shares no code
    with ds.pair_index, which the metrics and the sampler read.
    """
    per_user = [[] for _ in range(ds.num_users)]
    for u, i in getattr(ds, "validation" if split == "val" else split).tolist():
        per_user[u].append(i)
    return [np.array(sorted(items), dtype=np.int64) for items in per_user]


def rank_items(scores, masked, k):
    """The k best unmasked items by a full stable argsort (lower index wins
    ties); asking for more items than remain after masking is an error."""
    scores = np.asarray(scores, dtype=np.float64)
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


def recall_at_k(ranked, relevant):
    """Fraction of the relevant set that made the ranked list."""
    relevant = set(int(i) for i in relevant)
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    hits = sum(1 for i in ranked if int(i) in relevant)
    return hits / len(relevant)


def ndcg_at_k(ranked, relevant, k):
    """Binary-gain NDCG: hit at position i earns 1/log2(i+2), normalized by
    the best arrangement of min(k, |relevant|) hits."""
    relevant = set(int(i) for i in relevant)
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    gains = 1.0 / np.log2(np.arange(k) + 2.0)
    dcg = sum(gains[i] for i, item in enumerate(ranked[:k]) if int(item) in relevant)
    ideal = gains[: min(k, len(relevant))].sum()
    return float(dcg / ideal)


def one_user_dataset(num_items, masked, relevant):
    """One user over num_items items: masked is its train split and relevant
    its validation split. Validation is not checked for warm start, so an
    empty mask builds too. Rank it with split="val"."""
    return InteractionDataset(
        num_users=1,
        num_items=num_items,
        train=[(0, int(i)) for i in sorted(masked)],
        validation=[(0, int(i)) for i in sorted(relevant)],
        test=[],
    )


def metrics_over_users_loop(ds, ks, score_row, split="test"):
    """Ranking metrics by one GEMV-scored, fully argsorted user at a time,
    from the per-user oracles above.

    A frozen reference for metrics._ranked_metrics, which scores users in
    blocks and ranks by counting; the two must agree to the last bit.
    score_row(u) yields user u's item scores. A cutoff listed twice adds
    twice, so callers pass distinct cutoffs.
    """
    from svdgcl.metrics import EvalResult

    ks = sorted(int(k) for k in ks)
    if not ks or ks[0] < 1:
        raise ValueError("cutoffs must be positive")
    train_items = items_by_user(ds, "train")
    test_items = items_by_user(ds, split)
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


def sample_batch_full_scan(ds, batch_size, rng):
    """Frozen copy of sample_batch whose fallback finds a straggler's items
    by scanning all of ds.train, as it once did."""
    idx = rng.integers(ds.train.shape[0], size=batch_size)
    users = ds.train[idx, 0]
    pos = ds.train[idx, 1]
    neg = np.empty(batch_size, dtype=np.int64)
    pending = np.arange(batch_size)
    for _ in range(MAX_NEG_TRIES):
        cand = rng.integers(ds.num_items, size=pending.shape[0])
        neg[pending] = cand
        pending = pending[ds.in_train(users[pending], cand)]
        if pending.size == 0:
            break
    for j in pending:
        u = int(users[j])
        held = np.unique(ds.train[ds.train[:, 0] == u, 1])
        if held.shape[0] >= ds.num_items:
            raise DataError(f"user {u} interacts with every item; no negative exists")
        allowed = np.setdiff1d(np.arange(ds.num_items, dtype=np.int64), held, assume_unique=True)
        neg[j] = allowed[rng.integers(allowed.shape[0])]
    return TrainBatch(users=users, pos_items=pos, neg_items=neg)


def spmm_pair_serial(a, b_cols, b_rows):
    """model.spmm_pair as the two calls it replaced, one after the other on
    the calling thread: spmm, then spmm_t."""
    return spmm(a, b_cols), spmm_t(a, b_rows)


def forward_keeping_lists(state, a_norm, svd, hp, mode, rng, with_global_view):
    """Frozen copy of the forward pass that kept every running state h, layer
    output z and view output g in lists and summed the h list at the end
    with np.add.reduce.

    Returns a dict of the lists the trace still carries (pre_z, pre_g,
    dropped) and the finals, for byte comparisons with model.forward, which
    carries h in two variables and adds each into the finals as it goes.
    """
    p = hp.dropout_p if mode == "train" else 0.0
    h_user, h_item = [state.e_user], [state.e_item]
    out = {"pre_z_user": [], "pre_z_item": [], "pre_g_user": [], "pre_g_item": [], "dropped": []}
    for t in range(state.layers):
        if p > 0:
            keep = rng.random(a_norm.nnz) >= p
            data = np.where(keep, a_norm.data * (1.0 / (1.0 - p)), 0.0)
            dropped = csr_array((data, a_norm.indices, a_norm.indptr), shape=a_norm.shape)
        else:
            dropped = a_norm
        out["dropped"].append(dropped)
        hu_prev, hv_prev = h_user[t], h_item[t]
        pre_zu = spmm(dropped, hv_prev)
        pre_zv = spmm_t(dropped, hu_prev)
        out["pre_z_user"].append(pre_zu)
        out["pre_z_item"].append(pre_zv)
        if with_global_view:
            out["pre_g_user"].append(svd_propagate(svd, hv_prev, "user"))
            out["pre_g_item"].append(svd_propagate(svd, hu_prev, "item"))
        h_user.append(leaky_relu(pre_zu) + hu_prev)
        h_item.append(leaky_relu(pre_zv) + hv_prev)
    out["final_user"] = np.add.reduce(h_user)
    out["final_item"] = np.add.reduce(h_item)
    return out


def loss_and_grads_carried_view(trace, batch, state, hp, svd, kept):
    """Frozen copy of losses.loss_and_grads from when the forward pass carried
    the global view: each layer's full view tables pre_g, read here from
    kept, the output of forward_keeping_lists(..., with_global_view=True)
    with the trace's masks. Everything else comes from the trace. Its
    contrast runs in float64, as loss_and_grads does with CONTRAST_DTYPE float64."""
    with_view = hp.lambda1 > 0
    sides = []
    pre_g = (kept["pre_g_user"], kept["pre_g_item"])
    if with_view:
        members = _cl_members(batch, hp, state.num_users, state.num_items)
        for mem, pre_z, pre_gs in zip(members, (trace.pre_z_user, trace.pre_z_item), pre_g):
            z_rows = [leaky_relu(x[mem]) for x in pre_z]
            g_rows = [leaky_relu(x[mem]) for x in pre_gs]
            sides.append((mem, *contrast_serial(z_rows, g_rows, hp.temperature)))
    cl_u, cl_i = (sides[0][1], sides[1][1]) if sides else (0.0, 0.0)
    fu, diff, margins, rec = _ranking_terms(trace, batch)
    reg = l2_reg(state)
    total = rec + hp.lambda1 * (cl_u + cl_i) + hp.lambda2 * reg
    report = LossReport(total=total, rec_loss=rec, cl_loss_user=cl_u, cl_loss_item=cl_i, reg_loss=reg)

    coeff = (expit(margins) - 1.0) / batch.size
    triple = np.arange(batch.size)
    gfu = _scatter_rows(batch.users, coeff, triple, diff, state.num_users)
    gfv = _scatter_rows(
        np.concatenate([batch.pos_items, batch.neg_items]),
        np.concatenate([coeff, -coeff]),
        np.concatenate([triple, triple]),
        fu,
        state.num_items,
    )

    gu = gfu.copy()
    gv = gfv.copy()
    for t in reversed(range(state.layers)):
        dz = [gu, gv]
        dpre_g = [None, None]
        for s, (mem, _, grads) in enumerate(sides):
            if grads is None:
                continue
            weight = hp.lambda1 / mem.shape[0]
            dz[s] = dz[s].copy()
            dz[s][mem] += grads[t][0] * weight
            dpre_g[s] = np.zeros_like(pre_g[s][t])
            dpre_g[s][mem] = grads[t][1] * weight * leaky_relu_grad(pre_g[s][t][mem])
        dpre_zu = dz[0] * leaky_relu_grad(trace.pre_z_user[t])
        dpre_zv = dz[1] * leaky_relu_grad(trace.pre_z_item[t])
        down_u, down_v = spmm_pair(trace.dropped_adj[t], dpre_zv, dpre_zu)
        next_gu, next_gv = gu + gfu + down_u, gv + gfv + down_v
        if dpre_g[0] is not None:
            next_gv += svd_propagate(svd, dpre_g[0], "item")
        if dpre_g[1] is not None:
            next_gu += svd_propagate(svd, dpre_g[1], "user")
        gu, gv = next_gu, next_gv

    gu += 2.0 * hp.lambda2 * state.e_user
    gv += 2.0 * hp.lambda2 * state.e_item
    return report, gu, gv


def objective_view_tables(trace, state, hp, svd):
    """Each layer's global-view pre-activations of every user and every item,
    as loss_and_grads computes them off trace: the returns of its first
    2 * layers calls of losses.svd_propagate, a user table then an item table
    per layer, in the full-population scope. hp.lambda1 must be positive."""
    seen = []

    def keep(f, h, side):
        seen.append(svd_propagate(f, h, side))
        return seen[-1]

    hp = dataclasses.replace(hp, cl_scope="full-population")
    batch = TrainBatch(np.array([0]), np.array([0]), np.array([0]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(losses, "svd_propagate", keep)
        loss_and_grads(trace, batch, state, hp, svd)
    views = seen[: 2 * state.layers]
    return views[0::2], views[1::2]


def holdout_validation_user_scan(train, test, fraction, seed):
    """Frozen copy of interactions._holdout_validation that found each
    user's train positions by scanning all of train[:, 0] once per user."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, HOLDOUT_STREAM])))
    moved = np.zeros(train.shape[0], dtype=bool)
    for uid in np.unique(train[:, 0]):
        pos = np.flatnonzero(train[:, 0] == uid)
        k = int(np.floor(fraction * pos.size))
        if k < 1 or pos.size - k < 1:
            continue
        picked = rng.choice(pos.size, size=k, replace=False)
        moved[pos[np.sort(picked)]] = True
    test_items = set(test[:, 1].tolist()) if test.size else set()
    remaining = np.bincount(train[~moved, 1], minlength=int(train[:, 1].max()) + 1 if train.size else 0)
    for pos in np.flatnonzero(moved):
        item = int(train[pos, 1])
        if item in test_items and remaining[item] == 0:
            moved[pos] = False
            remaining[item] += 1
    return train[~moved], train[moved]


def write_pairs_id_tuples(path, pairs):
    """Frozen copy of the pair writer that took (user id, item id) tuples."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{u}\t{i}\n" for u, i in pairs)


def write_pair_files_id_tuples(ds, train_path, test_path, val_path=None):
    """Frozen copy of write_pair_files that built an id tuple per pair off
    the inverted maps."""
    users = {v: k for k, v in ds.user_id_map.items()}
    items = {v: k for k, v in ds.item_id_map.items()}
    targets = [(train_path, ds.train), (test_path, ds.test)]
    if val_path is not None:
        targets.append((val_path, ds.validation))
    for path, arr in targets:
        write_pairs_id_tuples(path, ((users[int(u)], items[int(i)]) for u, i in arr))


def prepare_movielens_100k_string_dicts(u_data_path, out_dir, seed=42, ratios=(0.8, 0.1, 0.1)):
    """Frozen copy of datasets.prepare_movielens_100k that split id strings:
    per-user dicts of item lists, sets of drawn positions, tuple lists, and
    a counting dict for the warm-start repair."""
    if len(ratios) != 3 or min(ratios) < 0 or sum(ratios) > 1.0 + 1e-9 or ratios[0] <= 0:
        raise ConfigError(f"bad split ratios {ratios}")
    user_map: dict[str, int] = {}
    item_map: dict[str, int] = {}
    rows = _read_pairs(u_data_path, user_map, item_map)
    users, items = list(user_map), list(item_map)
    by_user: dict[str, list[str]] = {}
    for u, i in rows.tolist():
        by_user.setdefault(users[u], []).append(items[i])

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, PREP_STREAM])))
    train: list[tuple[str, str]] = []
    val: list[tuple[str, str]] = []
    test: list[tuple[str, str]] = []
    for user in sorted(by_user, key=lambda u: (len(u), u)):
        items = by_user[user]
        n = len(items)
        n_test = int(np.floor(ratios[2] * n))
        n_val = int(np.floor(ratios[1] * n))
        perm = rng.permutation(n)
        test_idx = set(perm[:n_test].tolist())
        val_idx = set(perm[n_test : n_test + n_val].tolist())
        for pos, item in enumerate(items):
            if pos in test_idx:
                test.append((user, item))
            elif pos in val_idx:
                val.append((user, item))
            else:
                train.append((user, item))

    train_count: dict[str, int] = {}
    for _, item in train:
        train_count[item] = train_count.get(item, 0) + 1
    for split in (val, test):
        kept = []
        for user, item in split:
            if train_count.get(item, 0) == 0:
                train.append((user, item))
                train_count[item] = 1
            else:
                kept.append((user, item))
        split[:] = kept

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {name: out_dir / f"{name}.txt" for name in ("train", "val", "test")}
    for path, pairs in zip(paths.values(), (train, val, test)):
        write_pairs_id_tuples(path, pairs)
    return paths


def read_pair_lines(path) -> list[tuple[str, str]]:
    """Frozen copy of the two-pass pair-file reader's first pass: every
    line's (user, item) strings, then dict.fromkeys to drop repeats."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read interaction file {path}: {exc}") from exc
    pairs: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) < 2:
            raise ParseError(f"{path}:{lineno}: expected 'user item', got {raw!r}")
        pairs.append((fields[0], fields[1]))
    # duplicates within one file collapse to the first occurrence
    return list(dict.fromkeys(pairs))


def index_pairs(pairs, user_map: dict[str, int], item_map: dict[str, int]) -> np.ndarray:
    """Frozen copy of the two-pass reader's second pass: a dict lookup per
    pair, giving new ids the next free index."""
    out = np.empty((len(pairs), 2), dtype=np.int64)
    for k, (u, i) in enumerate(pairs):
        if u not in user_map:
            user_map[u] = len(user_map)
        if i not in item_map:
            item_map[i] = len(item_map)
        out[k, 0] = user_map[u]
        out[k, 1] = item_map[i]
    return out


def protocol_error_unindexed(num_users, num_items, train, validation, test):
    """Frozen copy of InteractionDataset's split validation before the train
    index: a lexsort per split for duplicates and np.isin for overlaps.

    Takes (n, 2) int64 arrays and returns the ProtocolError message it
    would raise, or None when the splits pass.
    """

    def duplicate_rows(arr):
        if arr.shape[0] < 2:
            return False
        s = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
        return bool(np.any(np.all(np.diff(s, axis=0) == 0, axis=1)))

    for name, arr in (("train", train), ("validation", validation), ("test", test)):
        if arr.size:
            if arr[:, 0].min() < 0 or arr[:, 0].max() >= num_users:
                return f"{name} split has a user index out of range"
            if arr[:, 1].min() < 0 or arr[:, 1].max() >= num_items:
                return f"{name} split has an item index out of range"
        if duplicate_rows(arr):
            return f"{name} split contains duplicate pairs"
    train_keys = train[:, 0] * num_items + train[:, 1]
    for name, arr in (("validation", validation), ("test", test)):
        keys = arr[:, 0] * num_items + arr[:, 1]
        overlap = np.sort(keys[np.isin(keys, train_keys, assume_unique=True)])[:5]
        if overlap.size:
            pairs = [(int(k // num_items), int(k % num_items)) for k in overlap]
            return f"train and {name} overlap on pairs {pairs}"
    if test.size:
        for what, col, size in (("users", 0, num_users), ("items", 1, num_items)):
            in_train = np.bincount(train[:, col], minlength=size) > 0
            bad = np.unique(test[~in_train[test[:, col]], col])
            if bad.size:
                return f"test {what} absent from train: {bad.tolist()}"
    return None


def qr_orthonormalize(m):
    """Frozen copy of the Gram-Schmidt orthonormalization approx_svd used
    before it called LAPACK QR: modified Gram-Schmidt with a second pass
    per column, dropping columns that become numerically dependent, so the
    basis may be thinner than m."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("expected a 2-D array")
    rows, cols = m.shape
    if rows < cols:
        raise ValueError(f"need rows >= cols, got {rows}x{cols}")
    basis = []
    for j in range(cols):
        v = m[:, j].copy()
        ref = np.linalg.norm(v)
        for _ in range(2):
            for q in basis:
                v -= (q @ v) * q
        norm = np.linalg.norm(v)
        if norm <= max(ref, 1e-300) * 1e-12:
            continue
        basis.append(v / norm)
    if not basis:
        raise ValueError("all columns are numerically zero")
    return np.column_stack(basis)


def approx_svd_gram_schmidt(a, r, oversample=8, power_iters=4, seed=0):
    """Frozen copy of linalg.approx_svd as it was on qr_orthonormalize: the
    same sketch and power iterations, its rank cut only by the columns the
    orthonormalization dropped."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed])))
    q = qr_orthonormalize(a @ rng.standard_normal((a.shape[1], r + oversample)))
    for _ in range(power_iters):
        z = qr_orthonormalize(a.T @ q)
        q = qr_orthonormalize(a @ z)
    small = exact_svd_dense((a.T @ q).T)
    keep = min(r, small.rank)
    u, v = _fix_signs(q @ small.u_r[:, :keep], small.v_r[:, :keep])
    return SvdFactors(u_r=u, s_r=small.s_r[:keep], v_r=v, rank=keep)
