"""Helpers for the public MovieLens-100K ratings dump.

The raw u.data file is tab-separated ``user item rating timestamp``; every
rating counts as an implicit interaction here. prepare_movielens_100k
reads it with the pair-file reader (fields past the second are ignored,
``#`` lines skipped, a repeated pair kept once), splits the index rows it
gets with a seeded per-user 80/10/10 split, and writes them through the
pair writer with the index-to-id tables.
"""
from __future__ import annotations

import os
import urllib.error
import urllib.request
import zipfile
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .interactions import _read_pairs, _warm_start, _write_pairs

ML100K_URL = "https://files.grouplens.org/datasets/movielens/ml-100k.zip"
ML100K_ENV_VAR = "SVDGCL_ML100K"

PREP_STREAM = 4


def locate_movielens_100k() -> Path | None:
    """Find a local u.data: $SVDGCL_ML100K (file or directory), then
    ./data/ml-100k/u.data."""
    env = os.environ.get(ML100K_ENV_VAR)
    candidates = []
    if env:
        p = Path(env)
        candidates += [p, p / "u.data"]
    candidates.append(Path("data") / "ml-100k" / "u.data")
    for c in candidates:
        if c.is_file():
            return c
    return None


def fetch_movielens_100k(dest_dir) -> Path:
    """Download and unpack the ratings archive; returns the u.data path."""
    dest_dir = Path(dest_dir)
    dest_dir.mkdir(parents=True, exist_ok=True)
    archive = dest_dir / "ml-100k.zip"
    try:
        with urllib.request.urlopen(ML100K_URL, timeout=60) as resp, open(archive, "wb") as out:
            out.write(resp.read())
    except (urllib.error.URLError, OSError) as exc:
        raise DataError(
            f"could not download {ML100K_URL}: {exc}; fetch it manually and point "
            f"{ML100K_ENV_VAR} at the extracted u.data"
        ) from exc
    try:
        with zipfile.ZipFile(archive) as zf:
            zf.extract("ml-100k/u.data", dest_dir)
    except (zipfile.BadZipFile, KeyError) as exc:
        raise DataError(f"{archive} is not the MovieLens-100K archive: {exc}") from exc
    return dest_dir / "ml-100k" / "u.data"


def prepare_movielens_100k(u_data_path, out_dir, seed: int = 42, ratios=(0.8, 0.1, 0.1)):
    """Split the ratings into train/val/test pair files; returns the paths.

    The split is per user: a seeded permutation of each user's items feeds
    the test then validation shares (floored), the rest stays in train.
    Then, of each held-out item with no train pair, the first held-out pair
    (validation before test) moves to the end of train, so the warm-start
    protocol holds.
    """
    if len(ratios) != 3 or min(ratios) < 0 or sum(ratios) > 1.0 + 1e-9 or ratios[0] <= 0:
        raise ConfigError(f"bad split ratios {ratios}")
    user_map: dict[str, int] = {}
    item_map: dict[str, int] = {}
    rows = _read_pairs(u_data_path, user_map, item_map)
    users, items = list(user_map), list(item_map)
    # users by (len(id), id), each user's rows in file order
    rank = np.argsort(sorted(range(len(users)), key=lambda u: (len(users[u]), users[u])))
    key = rank[rows[:, 0]]
    rows = rows[np.argsort(key, kind="stable")]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, PREP_STREAM])))
    label = np.zeros(rows.shape[0], dtype=np.int8)  # 0 train, 1 val, 2 test
    at = 0
    for n in np.bincount(key, minlength=len(users)).tolist():
        n_test = int(np.floor(ratios[2] * n))
        n_val = int(np.floor(ratios[1] * n))
        perm = at + rng.permutation(n)
        label[perm[:n_test]] = 2
        label[perm[n_test : n_test + n_val]] = 1
        at += n
    train, val, test = (rows[label == k] for k in range(3))
    held = np.concatenate([val, test])
    back = _warm_start(train[:, 1], held[:, 1], held[:, 1])
    train = np.concatenate([train, held[back]])
    val, test = val[~back[: val.shape[0]]], test[~back[val.shape[0] :]]

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {name: out_dir / f"{name}.txt" for name in ("train", "val", "test")}
    for path, split_rows in zip(paths.values(), (train, val, test)):
        _write_pairs(path, split_rows.tolist(), users, items)
    return paths
