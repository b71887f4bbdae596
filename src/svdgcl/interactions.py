"""Interaction file ingestion and user-item graph construction.

Pair files are whitespace-separated ``user item`` lines; blank lines and
``#`` comments are skipped, fields past the second are ignored. Ids are
opaque strings and get dense indices in order of first appearance, train
file first, then validation, then test.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse import csr_array

from .errors import DataError, ParseError, ProtocolError

logger = logging.getLogger("svdgcl.data")

HOLDOUT_STREAM = 3


def _as_pair_array(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("pairs must be an (n, 2) array")
    return arr


def _duplicate_rows(arr: np.ndarray) -> bool:
    if arr.shape[0] < 2:
        return False
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    s = arr[order]
    return bool(np.any(np.all(np.diff(s, axis=0) == 0, axis=1)))


@dataclass(frozen=True)
class InteractionDataset:
    """Index-encoded interaction splits plus the id maps that produced them.

    Splits are (n, 2) ``[user, item]`` index arrays kept in ingestion order,
    so writing them back out reproduces the original files byte for byte.
    """

    num_users: int
    num_items: int
    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray
    user_id_map: dict[str, int] = field(default_factory=dict)
    item_id_map: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "train", _as_pair_array(self.train))
        object.__setattr__(self, "validation", _as_pair_array(self.validation))
        object.__setattr__(self, "test", _as_pair_array(self.test))
        self._validate()

    def _validate(self):
        for name, arr in (("train", self.train), ("validation", self.validation), ("test", self.test)):
            if arr.size:
                if arr[:, 0].min() < 0 or arr[:, 0].max() >= self.num_users:
                    raise ProtocolError(f"{name} split has a user index out of range")
                if arr[:, 1].min() < 0 or arr[:, 1].max() >= self.num_items:
                    raise ProtocolError(f"{name} split has an item index out of range")
            if _duplicate_rows(arr):
                raise ProtocolError(f"{name} split contains duplicate pairs")
        train_keys = self.train[:, 0] * self.num_items + self.train[:, 1]
        for name, arr in (("validation", self.validation), ("test", self.test)):
            keys = arr[:, 0] * self.num_items + arr[:, 1]
            # both key sets are duplicate-free by now; without assume_unique
            # np.isin would dedup them again through a far slower hash table
            overlap = np.sort(keys[np.isin(keys, train_keys, assume_unique=True)])[:5]
            if overlap.size:
                pairs = [(int(k // self.num_items), int(k % self.num_items)) for k in overlap]
                raise ProtocolError(f"train and {name} overlap on pairs {pairs}")
        if self.test.size:
            for what, col, size in (("users", 0, self.num_users), ("items", 1, self.num_items)):
                in_train = np.bincount(self.train[:, col], minlength=size) > 0
                bad = np.unique(self.test[~in_train[self.test[:, col]], col])
                if bad.size:
                    raise ProtocolError(f"test {what} absent from train: {bad.tolist()}")

    def summary(self) -> str:
        return (
            f"dataset M={self.num_users} N={self.num_items} "
            f"train={self.train.shape[0]} val={self.validation.shape[0]} test={self.test.shape[0]}"
        )

    def items_by_user(self, split: str = "train") -> list[np.ndarray]:
        """Item indices per user for one split, each ascending."""
        arr = getattr(self, "validation" if split == "val" else split)
        out: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * self.num_users
        if arr.size == 0:
            return out
        order = np.lexsort((arr[:, 1], arr[:, 0]))
        users, items = arr[order, 0], arr[order, 1]
        bounds = np.flatnonzero(np.diff(users)) + 1
        for uid, chunk in zip(users[np.r_[0, bounds]], np.split(items, bounds)):
            out[int(uid)] = chunk
        return out


def _read_pair_lines(path) -> list[tuple[str, str]]:
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


def _index_pairs(pairs, user_map: dict[str, int], item_map: dict[str, int]) -> np.ndarray:
    out = np.empty((len(pairs), 2), dtype=np.int64)
    for k, (u, i) in enumerate(pairs):
        if u not in user_map:
            user_map[u] = len(user_map)
        if i not in item_map:
            item_map[i] = len(item_map)
        out[k, 0] = user_map[u]
        out[k, 1] = item_map[i]
    return out


def _holdout_validation(train: np.ndarray, test: np.ndarray, fraction: float, seed: int):
    """Move a seeded per-user fraction of train pairs into validation.

    Every user keeps at least one train pair, and no test item loses its
    last train occurrence (warm start must survive the holdout).
    """
    if not 0 <= fraction < 1:
        raise ValueError("holdout fraction must be in [0, 1)")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, HOLDOUT_STREAM])))
    moved = np.zeros(train.shape[0], dtype=bool)
    for uid in np.unique(train[:, 0]):
        pos = np.flatnonzero(train[:, 0] == uid)
        k = int(np.floor(fraction * pos.size))
        if k < 1 or pos.size - k < 1:
            continue
        picked = rng.choice(pos.size, size=k, replace=False)
        moved[pos[np.sort(picked)]] = True
    # keep the last train occurrence of any item the test split needs
    test_items = set(test[:, 1].tolist()) if test.size else set()
    remaining = np.bincount(train[~moved, 1], minlength=int(train[:, 1].max()) + 1 if train.size else 0)
    for pos in np.flatnonzero(moved):
        item = int(train[pos, 1])
        if item in test_items and remaining[item] == 0:
            moved[pos] = False
            remaining[item] += 1
    return train[~moved], train[moved]


def load_interactions(train_path, test_path, val_path=None, val_fraction: float = 0.1, seed: int = 0) -> InteractionDataset:
    """Read pair files into an InteractionDataset.

    With no validation file, a per-user seeded fraction of train pairs
    (default 0.1) is held out as validation instead.
    """
    user_map: dict[str, int] = {}
    item_map: dict[str, int] = {}
    train = _index_pairs(_read_pair_lines(train_path), user_map, item_map)
    if val_path is not None:
        val = _index_pairs(_read_pair_lines(val_path), user_map, item_map)
    else:
        val = None
    test = _index_pairs(_read_pair_lines(test_path), user_map, item_map)
    if val is None:
        train, val = _holdout_validation(train, test, val_fraction, seed)
    ds = InteractionDataset(
        num_users=len(user_map),
        num_items=len(item_map),
        train=train,
        validation=val,
        test=test,
        user_id_map=user_map,
        item_id_map=item_map,
    )
    logger.info(ds.summary())
    return ds


def write_pair_files(ds: InteractionDataset, train_path, test_path, val_path=None):
    """Write splits back to pair files in stored order, inverting the id maps."""
    users = {v: k for k, v in ds.user_id_map.items()}
    items = {v: k for k, v in ds.item_id_map.items()}
    targets = [(train_path, ds.train), (test_path, ds.test)]
    if val_path is not None:
        targets.append((val_path, ds.validation))
    for path, arr in targets:
        with open(path, "w") as fh:
            for u, i in arr:
                fh.write(f"{users[int(u)]}\t{items[int(i)]}\n")


def build_adjacency(ds: InteractionDataset) -> csr_array:
    """Binary user-item adjacency over the train split only, in canonical
    CSR form (columns ascending within each row), which fixes the order in
    which every product sums a row."""
    ones = np.ones(ds.train.shape[0], dtype=np.float64)
    return csr_array((ones, (ds.train[:, 0], ds.train[:, 1])), shape=(ds.num_users, ds.num_items))


def normalize_adjacency(a: csr_array) -> csr_array:
    """Symmetric degree normalization: each entry becomes a/sqrt(d_row * d_col).

    Degrees count stored entries, so every stored entry sees two positive
    degrees; rows or columns without entries simply stay empty.
    """
    d_row = np.diff(a.indptr).astype(np.float64)
    d_col = np.bincount(a.indices, minlength=a.shape[1]).astype(np.float64)
    scale = 1.0 / np.sqrt(np.repeat(d_row, np.diff(a.indptr)) * d_col[a.indices])
    return csr_array((a.data * scale, a.indices, a.indptr), shape=a.shape)
