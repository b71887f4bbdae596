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


def _pair_index(pairs: np.ndarray, num_users: int, num_items: int) -> tuple[np.ndarray, np.ndarray]:
    keys = np.sort(pairs[:, 0] * num_items + pairs[:, 1])
    return keys, np.searchsorted(keys, np.arange(num_users + 1) * num_items)


SPLITS = ("train", "validation", "test")


@dataclass(frozen=True)
class InteractionDataset:
    """Index-encoded interaction splits plus the id maps that produced them.

    Splits are (n, 2) ``[user, item]`` index arrays kept in ingestion order,
    so writing them back out reproduces the original files byte for byte.
    Construction also indexes the train split once (see pair_index), and
    negative sampling, validation, the graph and evaluation all read it.
    """

    num_users: int
    num_items: int
    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray
    user_id_map: dict[str, int] = field(default_factory=dict)
    item_id_map: dict[str, int] = field(default_factory=dict)
    train_keys: np.ndarray = field(init=False, repr=False, compare=False)
    train_offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in SPLITS:
            object.__setattr__(self, name, _as_pair_array(getattr(self, name)))
        self._validate()

    def _validate(self):
        keys = {}
        for name in SPLITS:
            arr = getattr(self, name)
            if arr.size:
                if arr[:, 0].min() < 0 or arr[:, 0].max() >= self.num_users:
                    raise ProtocolError(f"{name} split has a user index out of range")
                if arr[:, 1].min() < 0 or arr[:, 1].max() >= self.num_items:
                    raise ProtocolError(f"{name} split has an item index out of range")
            keys[name], offsets = _pair_index(arr, self.num_users, self.num_items)
            if np.any(keys[name][1:] == keys[name][:-1]):
                raise ProtocolError(f"{name} split contains duplicate pairs")
            if name == "train":
                object.__setattr__(self, "train_keys", keys[name])
                object.__setattr__(self, "train_offsets", offsets)
        for name in ("validation", "test"):
            held = keys[name]
            overlap = held[self.in_train(*np.divmod(held, self.num_items))][:5]
            if overlap.size:
                pairs = [(int(k // self.num_items), int(k % self.num_items)) for k in overlap]
                raise ProtocolError(f"train and {name} overlap on pairs {pairs}")
        if self.test.size:
            for what, col, size in (("users", 0, self.num_users), ("items", 1, self.num_items)):
                in_train = np.bincount(self.train[:, col], minlength=size) > 0
                bad = np.unique(self.test[~in_train[self.test[:, col]], col])
                if bad.size:
                    raise ProtocolError(f"test {what} absent from train: {bad.tolist()}")

    def in_train(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Whether each (user, item) pair is a train pair, by binary search
        over train_keys."""
        probe = users * np.int64(self.num_items) + items
        pos = np.searchsorted(self.train_keys, probe)
        hit = pos < self.train_keys.shape[0]
        hit[hit] = self.train_keys[pos[hit]] == probe[hit]
        return hit

    def pair_index(self, split: str = "train") -> tuple[np.ndarray, np.ndarray]:
        """One split's pairs as ascending keys ``user * num_items + item``,
        plus per-user offsets: user u's keys are ``keys[offsets[u]:offsets[u + 1]]``.
        The train split's are built once, as train_keys and train_offsets."""
        if split == "train":
            return self.train_keys, self.train_offsets
        return _pair_index(getattr(self, "validation" if split == "val" else split), self.num_users, self.num_items)

    def summary(self) -> str:
        return (
            f"dataset M={self.num_users} N={self.num_items} "
            f"train={self.train.shape[0]} val={self.validation.shape[0]} test={self.test.shape[0]}"
        )

    def items_by_user(self, split: str = "train") -> list[np.ndarray]:
        """Item indices per user for one split, each ascending."""
        keys, offsets = self.pair_index(split)
        items = keys % self.num_items
        return [items[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]


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
    # users ascending, each user's positions ascending: the draw order of a scan per user
    order = np.argsort(train[:, 0], kind="stable")
    starts = np.flatnonzero(np.diff(train[order, 0])) + 1
    for pos in np.split(order, starts):
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
    which every product sums a row. The train index is that form already:
    its offsets are the row pointers, its keys mod num_items the columns."""
    ones = np.ones(ds.train_keys.shape[0], dtype=np.float64)
    return csr_array((ones, ds.train_keys % ds.num_items, ds.train_offsets.copy()), shape=(ds.num_users, ds.num_items))


def normalize_adjacency(a: csr_array) -> csr_array:
    """Symmetric degree normalization: each entry becomes a/sqrt(d_row * d_col).

    Degrees count stored entries, so every stored entry sees two positive
    degrees; rows or columns without entries simply stay empty.
    """
    d_row = np.diff(a.indptr).astype(np.float64)
    d_col = np.bincount(a.indices, minlength=a.shape[1]).astype(np.float64)
    scale = 1.0 / np.sqrt(np.repeat(d_row, np.diff(a.indptr)) * d_col[a.indices])
    return csr_array((a.data * scale, a.indices, a.indptr), shape=a.shape)
