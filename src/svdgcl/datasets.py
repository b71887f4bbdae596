"""Helpers for the public MovieLens-100K ratings dump.

The raw u.data file is tab-separated ``user item rating timestamp``; every
rating counts as an implicit interaction here. prepare_movielens_100k
reads it with the pair-file reader (fields past the second are ignored,
``#`` lines skipped, a repeated pair kept once) and writes the pair files
the rest of the package ingests, with a seeded per-user 80/10/10 split.
"""
from __future__ import annotations

import os
import urllib.error
import urllib.request
import zipfile
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .interactions import _read_pairs, _write_pairs

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
    the test then validation shares (floored), the rest stays in train. A
    repair pass then pulls any held-out pair back into train if its item
    would otherwise never be trained on, so the warm-start protocol holds.
    """
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

    # warm-start repair: held-out pairs of never-trained items go back to train
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
        _write_pairs(path, pairs)
    return paths
