"""Shared fixtures-by-hand for the unit tests."""

import logging

import numpy as np

from svdgcl.interactions import InteractionDataset


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


def svdgcl_logger_state():
    """The package logger's handlers, level and propagate flag, for
    before/after comparisons around calls that must leave them alone."""
    lg = logging.getLogger("svdgcl")
    return list(lg.handlers), lg.level, lg.propagate


def infonce_layer_unfused(z, g, members, tau, want_grads):
    """The contrast layer as one fresh array per formula (np.eye included).

    A frozen reference for losses._infonce_layer, which fuses the same
    arithmetic into two in-place m x m buffers and must match it byte for
    byte.
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
    if not want_grads:
        return loss_sum, None, None
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
