"""Run orchestration: flat configuration, the training loop, evaluation.

Every log line a run emits is a pure function of (config, seed); wall
times are returned to callers instead of logged so identical runs yield
identical streams.
"""
from __future__ import annotations

import ctypes
import dataclasses
import functools
import hashlib
import json
import logging
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .errors import ConfigError, DataError, NumericalError
from .interactions import build_adjacency, load_interactions, normalize_adjacency
from .linalg import approx_svd
from .losses import loss_and_grads, sample_batch
from .metrics import EvalResult, evaluate
from .model import HyperParams, forward, init_model, knob
from .optim import adam_step, init_optimizer

logger = logging.getLogger("svdgcl.run")

LOG_ENV_VAR = "SVDGCL_LOG"

_PATH_FIELDS = ("train_path", "test_path", "val_path", "checkpoint_dir", "log_path")


@dataclass
class RunConfig(HyperParams):
    """Flat run configuration; JSON files and --key=value overrides map
    one-to-one onto these fields, and HyperParams types and checks every
    one of them. The training knobs are HyperParams', so a RunConfig is
    itself the hp a run trains with."""

    train_path: str | None = None
    test_path: str | None = None
    val_path: str | None = knob(None, optional=True)
    eval_every: int = knob(5, "at least 1")
    eval_ks: list = knob((20,), "a non-empty list of positive ints")
    checkpoint_dir: str = "checkpoints"
    log_path: str | None = knob(None, optional=True)
    svd_oversample: int = knob(8, "non-negative")
    svd_power_iters: int = knob(4, "non-negative")
    val_fraction: float = knob(0.1, "in [0, 1)")
    patience: int = knob(20, "at least 1")

    def digest(self) -> str:
        """Hash of every field but the paths: it names the knobs, not the data
        or where it lives."""
        knobs = {k: v for k, v in dataclasses.asdict(self).items() if k not in _PATH_FIELDS}
        return hashlib.sha256(json.dumps(knobs, sort_keys=True).encode("utf-8")).hexdigest()

    @classmethod
    def from_sources(cls, json_path=None, overrides=()) -> "RunConfig":
        """Defaults, then a JSON file, then key=value overrides, last wins.
        JSON values and override strings alike go to the constructor."""
        values: dict = {}
        if json_path is not None:
            try:
                raw = json.loads(Path(json_path).read_text(encoding="utf-8"))
            except OSError as exc:
                raise ConfigError(f"cannot read config {json_path}: {exc}") from exc
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"config {json_path} is not valid JSON: {exc}") from exc
            if not isinstance(raw, dict):
                raise ConfigError(f"config {json_path} must hold a JSON object")
            values.update(raw)
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"override {item!r} is not of the form key=value")
            key, text = item.split("=", 1)
            values[key.replace("-", "_")] = text
        unknown = sorted(set(values) - set(CONFIG_KEYS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**values)


# every config field, in declaration order: the keys of a JSON config and
# the names of the command-line flags
CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(RunConfig))


@contextmanager
def configure_logging(log_path=None):
    """Message-only logging to stdout, mirrored to log_path when given.

    A context manager: the ``svdgcl`` logger gets these handlers only for
    the length of the block. On exit, normal or by exception, they are
    removed and closed and the logger's earlier handlers, level and
    propagate flag come back, so a run call leaves the process's logging
    as it found it. The environment variable SVDGCL_LOG picks the level of
    stdout (default INFO); the file mirror always holds the INFO stream, so
    its bytes do not depend on the environment.
    """
    level_name = os.environ.get(LOG_ENV_VAR, "INFO").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        raise ConfigError(f"{LOG_ENV_VAR}={level_name!r} is not a log level")
    formatter = logging.Formatter("%(message)s")
    added = {logging.StreamHandler(sys.stdout): level}
    if log_path is not None:
        Path(log_path).parent.mkdir(parents=True, exist_ok=True)
        added[logging.FileHandler(log_path, mode="w")] = logging.INFO
    root = logging.getLogger("svdgcl")
    earlier, earlier_level, earlier_propagate = list(root.handlers), root.level, root.propagate
    for handler in earlier:
        root.removeHandler(handler)
    for handler, handler_level in added.items():
        handler.setFormatter(formatter)
        handler.setLevel(handler_level)
        root.addHandler(handler)
    root.setLevel(min(level, logging.INFO))
    root.propagate = False
    try:
        yield
    finally:
        for handler in added:
            root.removeHandler(handler)
            handler.close()
        for handler in earlier:
            root.addHandler(handler)
        root.setLevel(earlier_level)
        root.propagate = earlier_propagate


@functools.cache
def _blas_threads():
    """The (get, set) thread-count pair of numpy's bundled scipy-openblas; None under another BLAS."""
    for path in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(str(path))
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        get.argtypes, get.restype, put.argtypes, put.restype = (), ctypes.c_int, (ctypes.c_int,), None
        return get, put
    return None


@contextmanager
def _one_blas_thread():
    """BLAS on one thread for the block, the caller's count back on any exit. The count
    is process-wide: numpy in another thread sees one thread meanwhile."""
    get, put = _blas_threads() or (lambda: None, lambda count: None)
    earlier = get()
    put(1)
    try:
        yield
    finally:
        put(earlier)


def _logged_run(run):
    """Run the wrapped call inside configure_logging(config.log_path) and _one_blas_thread()."""

    @functools.wraps(run)
    def wrapper(config, *args, **kwargs):
        with configure_logging(config.log_path), _one_blas_thread():
            return run(config, *args, **kwargs)

    return wrapper


@dataclass
class TrainResult:
    """What a completed run hands back to its caller."""

    test_result: EvalResult
    best_epoch: int | None
    checkpoint_path: str | None
    epoch_seconds: list


def _fix_malloc_thresholds() -> bool:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB,
    and keep one arena, so that the peak memory of a run repeats. A sliding
    mmap threshold put identical S runs at about 138 or 148 MB; a second arena
    for spmm_pair's worker thread put them at about 118 MB, not 116. Returns
    whether glibc took all three values. The settings are process-wide and
    never restored: glibc offers no getter for the thresholds."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform == "linux" else None
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_MMAP_THRESHOLD is -3, M_TRIM_THRESHOLD -1 and M_ARENA_MAX -8 in glibc's malloc.h
    return all(mallopt(option, value) == 1 for option, value in ((-3, 32 << 20), (-1, 64 << 20), (-8, 1)))


def _load_graph(config: RunConfig):
    """The configured dataset and its normalized adjacency."""
    if config.train_path is None or config.test_path is None:
        raise ConfigError("train_path and test_path are required")
    ds = load_interactions(
        config.train_path, config.test_path, config.val_path, val_fraction=config.val_fraction, seed=config.seed
    )
    return ds, normalize_adjacency(build_adjacency(ds))


def _factorize(config: RunConfig, a_norm):
    """The configured truncated SVD of the normalized graph; a rank the
    graph is too small for is a configuration error."""
    try:
        return approx_svd(
            a_norm,
            config.svd_rank,
            oversample=config.svd_oversample,
            power_iters=config.svd_power_iters,
            seed=config.seed,
        )
    except ValueError as exc:
        rows, cols = a_norm.shape
        raise ConfigError(
            f"svd_rank={config.svd_rank} with svd_oversample={config.svd_oversample} "
            f"does not fit the {rows}x{cols} graph: {exc}"
        ) from exc


def _log_eval(epoch: int, res: EvalResult):
    parts = [f"recall@{k}={res.recall[k]:.6f} ndcg@{k}={res.ndcg[k]:.6f}" for k in res.recall]
    logger.info("eval epoch=%d %s users=%d", epoch, " ".join(parts), res.users_evaluated)


@_logged_run
def run_training(config: RunConfig) -> TrainResult:
    """Full training pipeline, early-stopped on validation recall.

    The config is the run's hyperparameters. The graph factorization runs
    exactly once per call; with lambda1 == 0 it is skipped entirely along
    with the whole global-view branch. The best-by-validation checkpoint is
    what gets evaluated on test at the end; without a validation signal the
    last epoch wins. It first fixes the process's malloc thresholds.
    """
    _fix_malloc_thresholds()
    ds, a_norm = _load_graph(config)
    state = init_model(ds, config)
    opt = init_optimizer(state)
    svd = _factorize(config, a_norm) if config.lambda1 > 0 else None

    primary = 20 if 20 in config.eval_ks else min(config.eval_ks)
    batches = max(1, math.ceil(ds.train.shape[0] / config.batch_size))
    val_available = ds.validation.shape[0] > 0
    ckpt_path = Path(config.checkpoint_dir) / "best.ckpt"
    best_metric = -1.0
    best_epoch: int | None = None
    stale = 0
    epoch_seconds: list = []

    for epoch in range(1, config.epochs + 1):
        t0 = perf_counter()
        sums = np.zeros(5)
        for _ in range(batches):
            batch = sample_batch(ds, config.batch_size, state.rng)
            trace = forward(state, a_norm, config)
            report, gu, gv = loss_and_grads(trace, batch, state, config, svd)
            parts = (report.rec_loss, report.cl_loss_user, report.cl_loss_item, report.reg_loss, report.total)
            if not all(math.isfinite(x) for x in parts):
                raise NumericalError(
                    f"non-finite loss in epoch {epoch}; last fully finite epoch was {epoch - 1}"
                )
            for table, grad in (("user", gu), ("item", gv)):
                if not np.isfinite(grad).all():
                    raise NumericalError(
                        f"non-finite {table} gradient in epoch {epoch}; last fully finite epoch was {epoch - 1}"
                    )
            sums += parts
            adam_step(state, opt, gu, gv, config.learning_rate)
        epoch_seconds.append(perf_counter() - t0)
        mean = sums / batches
        logger.info(
            "epoch=%d rec=%.6f cl_u=%.6f cl_i=%.6f reg=%.6f total=%.6f",
            epoch, mean[0], mean[1], mean[2], mean[3], mean[4],
        )
        if val_available and epoch % config.eval_every == 0:
            res = evaluate(state, a_norm, None, ds, config.eval_ks, split="val")
            _log_eval(epoch, res)
            metric = res.recall[primary]
            if metric > best_metric:
                best_metric = metric
                best_epoch = epoch
                ckpt_path.parent.mkdir(parents=True, exist_ok=True)
                save_checkpoint(ckpt_path, state, opt, config.svd_rank, config.digest())
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    logger.info("early stop at epoch %d after %d flat evals", epoch, stale)
                    break

    checkpoint_used: str | None = None
    if config.epochs > 0:
        if best_epoch is not None:
            loaded = load_checkpoint(ckpt_path)
            state, opt = loaded.state, loaded.opt
        else:
            # no validation signal: the final state is the artifact
            ckpt_path.parent.mkdir(parents=True, exist_ok=True)
            save_checkpoint(ckpt_path, state, opt, config.svd_rank, config.digest())
        checkpoint_used = str(ckpt_path)

    test_result = evaluate(state, a_norm, None, ds, config.eval_ks, split="test")
    _log_eval(len(epoch_seconds), test_result)
    return TrainResult(
        test_result=test_result,
        best_epoch=best_epoch,
        checkpoint_path=checkpoint_used,
        epoch_seconds=epoch_seconds,
    )


@_logged_run
def run_eval(config: RunConfig, checkpoint_path) -> EvalResult:
    """Score a saved checkpoint against the configured dataset's test split.

    The checkpoint's model shape must match the dataset and the config. The
    logged epoch field carries the checkpoint's optimizer step count.
    """
    ds, a_norm = _load_graph(config)
    loaded: Checkpoint = load_checkpoint(checkpoint_path)
    st = loaded.state
    got = (st.num_users, st.num_items, st.embed_dim, st.layers)
    want = (ds.num_users, ds.num_items, config.embed_dim, config.layers)
    if got != want:
        raise DataError(f"checkpoint (users, items, embed_dim, layers) is {got} but the dataset and config give {want}")
    res = evaluate(loaded.state, a_norm, None, ds, config.eval_ks, split="test")
    _log_eval(loaded.opt.step, res)
    return res


@_logged_run
def run_svd_report(config: RunConfig):
    """Factorize the normalized graph and report the spectrum and residual.

    The residual is |A - U U.T A| / |A|, the share of the graph the kept
    factors miss. They are the orthogonal projection U U.T A, so it is read
    off the stored entries and the spectrum as sqrt(|A|^2 - sum(s^2)) / |A|
    (Halko, Martinsson and Tropp 2011). The subtraction cancels: on a graph
    of rank at most svd_rank the report reads 0 or up to a few 1e-8, near
    sqrt(eps), where the dense difference reads about 1e-16.
    """
    a_norm = _load_graph(config)[1]
    factors = _factorize(config, a_norm)
    logger.info("singular_values %s", " ".join(f"{x:.12g}" for x in factors.s_r))
    fro2 = float(np.sum(a_norm.data**2))
    resid = math.sqrt(max(fro2 - float(np.sum(factors.s_r**2)), 0.0) / fro2)
    logger.info("residual_rel=%.12g", resid)
    return factors, resid
