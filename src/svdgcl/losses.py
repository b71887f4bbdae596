"""Training objective: pairwise ranking, two-view contrast, weight decay.

All gradients are accumulated by hand in reverse through the propagation
trace; nothing here relies on an autodiff framework. The contract is
checked against central finite differences in the test suite.

The contrast's second view is the global one: per layer, the low-rank
reconstruction of the graph times that layer's input. Forward never
computes it, so rankings depend on the graph alone; loss_and_grads
rebuilds the layer inputs from the embeddings and the trace.

The contrastive term's m x m softmax matrix dominates the step cost on
real data, so loss_and_grads, the one entry point, builds it once and
reads both the loss value and its gradients off the same intermediates.
The contrast reads only the member rows of each view, the layer outputs
leaky_relu(pre[members]) of the trace's pre-activations. Each contrast
layer walks its anchors in row blocks, one block of at most
CONTRAST_BLOCK_BYTES at a time, overwritten in place from the logits to
the unnormalized softmax. The similarities are never kept: the gradient
needs only m x d products with each block, by the identity
sum_j ds_ij * s_ij = a_i . (ds @ b)_i for s = a @ b.T.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_array
from scipy.special import expit

from .errors import DataError
from .linalg import SvdFactors, svd_propagate
from .model import ForwardTrace, HyperParams, ModelState, leaky_relu, leaky_relu_grad, next_state, spmm_pair
# bound here for bench/run.py, which traces them by module; nothing here calls them
from .model import spmm, spmm_t

logger = logging.getLogger("svdgcl.objective")

MAX_NEG_TRIES = 100
# bytes of one block of float64 contrast logits, anchor rows x all m members
CONTRAST_BLOCK_BYTES = 64 << 20


@dataclass(frozen=True)
class TrainBatch:
    """Parallel index arrays: one (user, positive item, negative item)
    triple per row."""

    users: np.ndarray
    pos_items: np.ndarray
    neg_items: np.ndarray

    def __post_init__(self):
        for name in ("users", "pos_items", "neg_items"):
            object.__setattr__(self, name, np.ascontiguousarray(getattr(self, name), dtype=np.int64))
        if not (self.users.shape == self.pos_items.shape == self.neg_items.shape) or self.users.ndim != 1:
            raise ValueError("batch arrays must be 1-D and equally long")
        if self.users.shape[0] == 0:
            raise ValueError("batch must be non-empty")

    @property
    def size(self) -> int:
        return self.users.shape[0]


@dataclass(frozen=True)
class LossReport:
    """One step's loss decomposition; total recombines the parts exactly."""

    total: float
    rec_loss: float
    cl_loss_user: float
    cl_loss_item: float
    reg_loss: float


def sample_batch(ds, batch_size: int, rng: np.random.Generator) -> TrainBatch:
    """Uniform-with-replacement positives plus rejection-sampled negatives.

    Each negative gets up to 100 uniform draws; stragglers fall back to an
    explicit pick among the user's non-interacted items. A user holding
    every item has no negatives and is a data error.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    if ds.train.shape[0] == 0:
        raise DataError("cannot sample from an empty train split")
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
        held = ds.train_keys[ds.train_offsets[u] : ds.train_offsets[u + 1]] % ds.num_items
        if held.shape[0] >= ds.num_items:
            raise DataError(f"user {u} interacts with every item; no negative exists")
        allowed = np.setdiff1d(np.arange(ds.num_items, dtype=np.int64), held, assume_unique=True)
        neg[j] = allowed[rng.integers(allowed.shape[0])]
    return TrainBatch(users=users, pos_items=pos, neg_items=neg)


def _scatter_rows(dest: np.ndarray, weights: np.ndarray, src: np.ndarray, table: np.ndarray, rows: int):
    """Dense (rows, d) array whose row r sums weights[n] * table[src[n]]
    over the n with dest[n] == r.

    One COO product. It rounds each product before adding it and adds the
    terms in increasing n starting from zero, so the result is bit for bit
    that of np.add.at(zeros, dest, weights[:, None] * table[src]), without
    the (n, d) temporary.
    """
    return coo_array((weights, (dest, src)), shape=(rows, table.shape[0])) @ table


def _ranking_terms(trace: ForwardTrace, batch: TrainBatch):
    """The batch's final user rows, positive-minus-negative item rows, score
    margins and BPR loss, off one gather per table."""
    fu, pos, neg = trace.final_user[batch.users], trace.final_item[batch.pos_items], trace.final_item[batch.neg_items]
    margins = np.einsum("ij,ij->i", fu, pos) - np.einsum("ij,ij->i", fu, neg)
    pos -= neg  # the gather is ours, so the difference can take its place
    return fu, pos, margins, float(np.mean(np.logaddexp(0.0, -margins)))


def bpr_loss(trace: ForwardTrace, batch: TrainBatch) -> float:
    """Mean softplus of the negated positive-minus-negative score margin."""
    return _ranking_terms(trace, batch)[3]


def l2_reg(state: ModelState) -> float:
    """Squared Frobenius norm of both embedding tables."""
    return float(np.sum(state.e_user * state.e_user) + np.sum(state.e_item * state.e_item))


def _normalize_rows(x: np.ndarray):
    norms = np.linalg.norm(x, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    return x / safe[:, None], norms


def _infonce_layer(a: np.ndarray, b: np.ndarray, tau: float):
    """One layer's summed contrastive terms between the member rows a and b
    of two views.

    Returns (loss_sum, ga, gb): loss_sum is the plain per-anchor sum (no
    averaging, no weighting); ga/gb are d(loss_sum)/da, d(loss_sum)/db.
    Zero-norm rows contribute similarity 0 and receive zero gradient.

    The anchors run in row blocks; one buffer w of at most
    CONTRAST_BLOCK_BYTES holds a block's logits s / tau against all m members
    (s = an @ bn.T, the cosine similarities), then exp(logits - peak) in
    place; the loss comes off its row sums, byte for byte the unfused
    formulas. The gradient in s, ds = (p - I) / tau with p = w / rowsum, is
    never formed: 1/rowsum acts on the m x d products G = w @ bn and
    H = w.T @ (an / rowsum), summed over blocks, then the identity and 1/tau.
    The row normalization takes from G_i its part along an_i,
    (an_i . G_i) an_i = sum_j ds_ij s_ij an_i, and divides by |a_i|
    (likewise H with bn and b), so no ds * s is formed either. The
    gradients match the unfused formulas to the last few bits.
    """
    an, na = _normalize_rows(a)
    bn, nb = _normalize_rows(b)
    m = an.shape[0]
    rows = max(1, CONTRAST_BLOCK_BYTES // (8 * m))
    terms = np.empty(m)
    ga = np.empty_like(an)
    for lo in range(0, m, rows):
        blk = slice(lo, lo + rows)
        w = an[blk] @ bn.T
        w /= tau
        diag = w[:, blk].diagonal().copy()
        peak = w.max(axis=1, keepdims=True)
        w -= peak
        np.exp(w, out=w)
        rowsum = w.sum(axis=1, keepdims=True)
        terms[blk] = peak[:, 0] + np.log(rowsum[:, 0]) - diag
        np.divide(w @ bn, rowsum, out=ga[blk])
        h = w.T @ (an[blk] / rowsum)
        gb = h if lo == 0 else np.add(gb, h, out=gb)
    for grad, unit, norms, own in ((ga, an, na, bn), (gb, bn, nb, an)):
        grad -= own
        grad /= tau
        grad -= np.einsum("ij,ij->i", grad, unit)[:, None] * unit
        ok = norms > 0
        grad[ok] /= norms[ok, None]
        grad[~ok] = 0.0
    return float(np.sum(terms)), ga, gb


def _contrast(a_layers, b_layers, tau: float):
    """One side's contrast: the per-layer InfoNCE of the member rows
    a_layers[t], b_layers[t], summed over layers and averaged over members.

    Returns (loss, grads), grads holding each layer's (ga, gb) of the
    unaveraged sum. Fewer than two members makes the contrast degenerate,
    so the term is skipped with a warning and grads is None.
    """
    m = a_layers[0].shape[0]
    if m < 2:
        logger.warning("contrastive set has %d member(s); skipping the term", m)
        return 0.0, None
    total = 0.0
    grads = []
    for a, b in zip(a_layers, b_layers):
        loss_sum, ga, gb = _infonce_layer(a, b, tau)
        total += loss_sum
        grads.append((ga, gb))
    return total / m, grads


def _cl_members(batch: TrainBatch, hp: HyperParams, num_users: int, num_items: int):
    if hp.cl_scope == "full-population":
        return np.arange(num_users, dtype=np.int64), np.arange(num_items, dtype=np.int64)
    return np.unique(batch.users), np.unique(np.concatenate([batch.pos_items, batch.neg_items]))


def loss_and_grads(
    trace: ForwardTrace, batch: TrainBatch, state: ModelState, hp: HyperParams, svd: SvdFactors | None = None
):
    """Full objective, ranking + lambda1 * contrast + lambda2 * weight norm,
    as a LossReport and both gradients off one set of intermediates.

    The trace is the forward pass (with hp) that produced the loss. With
    lambda1 == 0 the contrastive terms are not computed at all and svd is
    not read; with lambda1 > 0 the global view goes through svd. The
    gradient walks the residual stack top-down: each running state
    collects its direct share of the final sum, the residual carry, the
    graph-propagated term from the opposite side, and (when the contrast
    is active) the global view's term.
    """
    # per side, user then item: members, view rows, contrast loss, each layer's (ga, gb) or None
    sides = []
    if hp.lambda1 > 0:
        if svd is None:
            raise ValueError("global view (lambda1 > 0) needs a factorization")
        members = _cl_members(batch, hp, state.num_users, state.num_items)
        # the members' view rows off each layer's input, rebuilt as forward built it
        pre_g = ([], [])
        hu, hv = state.e_user, state.e_item
        for t in range(state.layers):
            if t > 0:
                hu, hv = next_state(trace.pre_z_user[t - 1], hu), next_state(trace.pre_z_item[t - 1], hv)
            pre_g[0].append(svd_propagate(svd, hv, "user")[members[0]])
            pre_g[1].append(svd_propagate(svd, hu, "item")[members[1]])
        for mem, pre_zs, pre_gs in zip(members, (trace.pre_z_user, trace.pre_z_item), pre_g):
            z_rows = [leaky_relu(x[mem]) for x in pre_zs]
            g_rows = [leaky_relu(x) for x in pre_gs]
            sides.append((mem, pre_gs, *_contrast(z_rows, g_rows, hp.temperature)))
    cl_u, cl_i = (sides[0][2], sides[1][2]) if sides else (0.0, 0.0)
    # after the contrast, so that its batch rows are not live during the m x m blocks
    fu, diff, margins, rec = _ranking_terms(trace, batch)
    reg = l2_reg(state)
    total = rec + hp.lambda1 * (cl_u + cl_i) + hp.lambda2 * reg
    report = LossReport(total=total, rec_loss=rec, cl_loss_user=cl_u, cl_loss_item=cl_i, reg_loss=reg)

    # ranking head: margins push the batched finals apart
    coeff = (expit(margins) - 1.0) / batch.size
    triple = np.arange(batch.size)
    gfu = _scatter_rows(batch.users, coeff, triple, diff, state.num_users)
    # positives, then negatives: the order the item rows accumulate in
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
        # the contrast's share of each side's layer output, then of its view rows
        dz = [gu, gv]
        dpre_g = [None, None]
        for s, (mem, pre_gs, _, grads) in enumerate(sides):
            if grads is None:
                continue
            weight = hp.lambda1 / mem.shape[0]
            dz[s] = dz[s].copy()
            dz[s][mem] += grads[t][0] * weight
            dpre_g[s] = np.zeros_like(dz[s])
            dpre_g[s][mem] = grads[t][1] * weight * leaky_relu_grad(pre_gs[t])
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
