"""Embedding tables and the graph propagation forward pass.

The aggregation itself carries no weights: per layer, user states are
refreshed from item states through the normalized graph (and vice versa),
passed through a LeakyReLU, and added back onto the running state.
"""
from __future__ import annotations

import functools
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.sparse import csr_array

from .errors import ConfigError
# bound here for bench/run.py, which traces it by module; nothing here calls it
from .linalg import svd_propagate

INIT_STREAM = 1
TRAIN_STREAM = 2

LEAKY_SLOPE = 0.2


# how a knob's rule reads in its error message, and its test; typing has
# already refused NaN and infinity
_RULES = {
    "at least 1": lambda v: v >= 1,
    "non-negative": lambda v: v >= 0,
    "positive": lambda v: v > 0,
    "in [0, 1)": lambda v: 0 <= v < 1,
    "a non-empty list of positive ints": lambda ks: len(ks) > 0 and min(ks) >= 1,
    "'in-batch' or 'full-population'": lambda v: v in ("in-batch", "full-population"),
}


def knob(default, rule=None, optional=False):
    """A config field: its default and the _RULES entry its value must meet.
    An optional field may be left out of a run, and the strings none, null
    and the empty string stand for None there."""
    return field(default=default, metadata={"rule": rule, "optional": optional})


# what a number annotation parses a string with, and what else it takes
_NUMBERS = {"int": (int, numbers.Integral, "an integer"), "float": (float, numbers.Real, "a finite real number")}


def _typed(f, value, kind=None):
    """The value of field f typed by its annotation (a string, under
    postponed evaluation): a string parses as on the command line, an int
    takes only integers, a float any finite real number, a str field a str
    or path-like, and a list a list or a comma string of ints. No bools."""
    kind = kind or f.type
    if kind == "list":
        if isinstance(value, str):
            value = [part for part in value.split(",") if part]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{f.name} must be a list of integers, got {value!r}")
        return [_typed(f, k, "int") for k in value]
    if kind in _NUMBERS:
        parse, accepted, noun = _NUMBERS[kind]
        if isinstance(value, bool) or not isinstance(value, (str, accepted)):
            raise ConfigError(f"{f.name} must be {noun}, got {value!r}")
        try:
            typed = parse(value)
        except (ValueError, OverflowError):
            # junk text, or an integer too large for a float
            raise ConfigError(f"bad value for {f.name}: {value!r}") from None
        if kind == "float" and not math.isfinite(typed):
            raise ConfigError(f"{f.name} must be {noun}, got {value!r}")
        return typed
    if value is None and kind == "str | None":
        return None
    if f.metadata.get("optional") and isinstance(value, str) and value.lower() in ("none", "null", ""):
        return None
    if not (isinstance(value, (str, os.PathLike)) and isinstance(os.fspath(value), str)):
        raise ConfigError(f"{f.name} must be a string or path, got {value!r}")
    return os.fspath(value)


@dataclass
class HyperParams:
    """Training-time knobs. Defaults are the package defaults ablated on the
    synthetic block task; shape parameters follow the library's reference
    configuration (64-dim embeddings, 2 layers, rank-5 reconstruction).

    Each field is typed from its annotation and then checked against its
    knob rule, by one loop that runs for RunConfig too."""

    embed_dim: int = knob(64, "at least 1")
    layers: int = knob(2, "at least 1")
    svd_rank: int = knob(5, "at least 1")
    dropout_p: float = knob(0.1, "in [0, 1)")
    temperature: float = knob(1.0, "positive")
    lambda1: float = knob(0.05, "non-negative")
    lambda2: float = knob(1e-5, "non-negative")
    learning_rate: float = knob(3e-3, "positive")
    batch_size: int = knob(1024, "at least 1")
    epochs: int = knob(200, "non-negative")
    seed: int = knob(42, "non-negative")
    cl_scope: str = knob("in-batch", "'in-batch' or 'full-population'")

    def __post_init__(self):
        for f in fields(self):
            value = _typed(f, getattr(self, f.name))
            rule = f.metadata.get("rule")
            if rule is not None and not _RULES[rule](value):
                raise ConfigError(f"{f.name} must be {rule}, got {value!r}")
            setattr(self, f.name, value)


@dataclass
class ModelState:
    """Learnable tables plus the generator driving training-time randomness."""

    e_user: np.ndarray
    e_item: np.ndarray
    layers: int
    embed_dim: int
    rng: np.random.Generator

    @property
    def num_users(self) -> int:
        return self.e_user.shape[0]

    @property
    def num_items(self) -> int:
        return self.e_item.shape[0]


@dataclass
class ForwardTrace:
    """What the objective reads back from one forward pass.

    Per-layer lists run 0..layers-1: the pre-activations pre_z and the
    dropped adjacency each layer propagated through. Layer outputs are
    leaky_relu of the pre-activations and are not stored; the objective
    applies it to the rows it reads.
    """

    final_user: np.ndarray | None = None
    final_item: np.ndarray | None = None
    dropped_adj: list = field(default_factory=list)
    pre_z_user: list = field(default_factory=list)
    pre_z_item: list = field(default_factory=list)


def init_model(ds, hp: HyperParams) -> ModelState:
    """Fresh embedding tables, uniform on +-sqrt(3/embed_dim) so each
    coordinate has variance 1/embed_dim; fully determined by hp.seed."""
    rng_init = np.random.Generator(np.random.Philox(np.random.SeedSequence([hp.seed, INIT_STREAM])))
    bound = np.sqrt(3.0 / hp.embed_dim)
    e_user = rng_init.uniform(-bound, bound, size=(ds.num_users, hp.embed_dim))
    e_item = rng_init.uniform(-bound, bound, size=(ds.num_items, hp.embed_dim))
    rng_train = np.random.Generator(np.random.Philox(np.random.SeedSequence([hp.seed, TRAIN_STREAM])))
    return ModelState(e_user=e_user, e_item=e_item, layers=hp.layers, embed_dim=hp.embed_dim, rng=rng_train)


def leaky_relu(x: np.ndarray, negative_slope: float = LEAKY_SLOPE) -> np.ndarray:
    # for 0 < slope <= 1 the larger of x and slope * x is the branch that
    # np.where(x >= 0, x, slope * x) picks, with its bytes on +-0, +-inf and NaN
    return np.maximum(x, negative_slope * x)


def leaky_relu_grad(x: np.ndarray, negative_slope: float = LEAKY_SLOPE) -> np.ndarray:
    # the kink at exactly 0 takes slope 1
    return np.where(x >= 0, 1.0, negative_slope)


def next_state(pre_z: np.ndarray, h: np.ndarray) -> np.ndarray:
    """A layer's output added back onto its input: the next layer's input."""
    return leaky_relu(pre_z) + h


def spmm(a: csr_array, b: np.ndarray) -> np.ndarray:
    """Dense product a @ b for a sparse a and a dense (cols, d) array b."""
    return a @ b


def spmm_t(a: csr_array, b: np.ndarray) -> np.ndarray:
    """Dense product a.T @ b for a sparse a and a dense (rows, d) array b."""
    return a.T @ b


@functools.cache
def _pair_worker() -> ThreadPoolExecutor:
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="svdgcl-spmm")


os.register_at_fork(after_in_child=_pair_worker.cache_clear)  # a forked child has no worker thread


def spmm_pair(a: csr_array, b_cols: np.ndarray, b_rows: np.ndarray):
    """(spmm(a, b_cols), spmm_t(a, b_rows)), the second on one worker thread.

    scipy's sparse kernels release the GIL, so on two cores the two overlap,
    with the serial calls' bytes. The worker calls no module-level name, so a
    tracer of spmm and spmm_t sees only the main thread's product. Returns or
    raises once both have finished; spmm's error wins."""
    job = _pair_worker().submit(lambda: a.T @ b_rows)
    try:
        out = spmm(a, b_cols)
    finally:
        job.exception()  # waits for the worker's product without raising
    return out, job.result()


def edge_dropout(a: csr_array, p: float, rng: np.random.Generator):
    """Drop each stored edge with probability p, scaling survivors by 1/(1-p).

    Returns the thinned matrix and the boolean keep mask. The matrix shares
    a's index arrays and stores dropped edges as zeros, so nothing is
    rebuilt or re-checked; an explicit zero adds a signed zero to an
    accumulator that starts at +0.0, so products equal those of the matrix
    without the dropped entries whenever the dense operand is finite. A
    generator seeded like rng replays the same draw.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must lie in [0, 1)")
    if p == 0.0:
        return a, np.ones(a.nnz, dtype=bool)
    keep = rng.random(a.nnz) >= p
    return csr_array((np.where(keep, a.data * (1.0 / (1.0 - p)), 0.0), a.indices, a.indptr), shape=a.shape), keep


def forward(
    state: ModelState,
    a_norm: csr_array,
    hp: HyperParams | None = None,
    rng: np.random.Generator | None = None,
) -> ForwardTrace:
    """Run the propagation stack and capture what the objective needs.

    Given hp, each layer drops edges at hp.dropout_p, drawing the masks from
    rng, or from state.rng when rng is None; two generators seeded alike
    replay the same masks. Without hp nothing is dropped: the deterministic
    pass that evaluation ranks with. The final tables are the running
    states summed in layer order, embeddings first.
    """
    if a_norm.shape != (state.num_users, state.num_items):
        raise ValueError(
            f"graph is {a_norm.shape[0]}x{a_norm.shape[1]} but tables are "
            f"{state.num_users}x{state.num_items}"
        )
    p = hp.dropout_p if hp is not None else 0.0
    trace = ForwardTrace()
    draw = rng if rng is not None else state.rng
    hu, hv = state.e_user, state.e_item
    fu, fv = hu.copy(), hv.copy()
    for _ in range(state.layers):
        dropped = edge_dropout(a_norm, p, draw)[0] if p > 0 else a_norm
        trace.dropped_adj.append(dropped)
        pre_zu, pre_zv = spmm_pair(dropped, hv, hu)
        trace.pre_z_user.append(pre_zu)
        trace.pre_z_item.append(pre_zv)
        hu, hv = next_state(pre_zu, hu), next_state(pre_zv, hv)
        fu += hu
        fv += hv
    trace.final_user, trace.final_item = fu, fv
    return trace

