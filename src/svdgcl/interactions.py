"""Interaction file ingestion and user-item graph construction.

Pair files are whitespace-separated ``user item`` lines; blank lines and
``#`` comments are skipped, fields past the second are ignored, and a
repeated line collapses to its first occurrence. Ids are opaque strings
and get dense indices in order of first appearance, train file first, then
validation, then test. A file that is not UTF-8 text is a DataError. Every
pair file the package reads or writes goes through _read_pairs, which
gives (n, 2) index rows, and _write_pairs, which takes index rows plus the
index-to-id tables. Both splitters keep warm start through _warm_start. A
regular file (see _regular_rows) is checked with numpy and read with one
split() per chunk, any other line by line, to the same rows.
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
CHUNK_CHARS = 1 << 16


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


def _regular_rows(text: str, user_map: dict[str, int], item_map: dict[str, int]) -> np.ndarray | None:
    """A regular text's (n, 2) index rows; None, the maps untouched, for any
    other text.

    Regular: ASCII, no "#", no control character but the tab and the
    newline, no blank line, and on every line the same F >= 2 fields split
    by exactly one tab or space, none at either end. It is checked, then
    read, in chunks ending at a newline about CHUNK_CHARS apart.
    """
    if not text or not text.isascii():
        return None
    bounds = [0]
    while bounds[-1] < len(text):
        bounds.append(text.find("\n", bounds[-1] + CHUNK_CHARS) + 1 or len(text))
    fields, lines = 0, []
    for lo, hi in zip(bounds, bounds[1:]):
        b = np.frombuffer(text[lo:hi].encode("ascii"), dtype=np.uint8)
        sep, nl = (b == 9) | (b == 32), b == 10
        delim = sep | nl
        # "#" may open a comment; other control characters may break lines or fields
        if delim[0] or sep[-1] or (delim[1:] & delim[:-1]).any() or (((b < 33) & ~delim) | (b == 35)).any():
            return None
        nl[-1] = True  # "\n", or the last character of an unterminated last line
        # fields per line: the steps between newlines in the run of delimiters
        per_line = np.diff(np.flatnonzero(nl[sep | nl]), prepend=-1)
        fields = fields or int(per_line[0])
        if fields < 2 or (per_line != fields).any():
            return None
        lines.append(per_line.size)
    rows = np.empty((sum(lines), 2), dtype=np.int64)
    for lo, hi, at, n in zip(bounds, bounds[1:], np.cumsum([0] + lines), lines):
        tokens = text[lo:hi].split()
        for col, ids in ((0, user_map), (1, item_map)):
            keys = tokens[col::fields]
            for key in dict.fromkeys(keys):
                ids.setdefault(key, len(ids))
            rows[at : at + n, col] = np.fromiter(map(ids.__getitem__, keys), np.int64, n)
    return rows


def _read_pairs(path, user_map: dict[str, int], item_map: dict[str, int]) -> np.ndarray:
    """One pair file as (n, 2) int64 index rows, in file order.

    Each id gets its index from the maps, or the next free one, at its first
    appearance. Duplicate lines collapse to their first occurrence. A
    regular file is read by _regular_rows, any other line by line.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read interaction file {path}: {exc}") from exc
    rows = _regular_rows(text, user_map, item_map)
    if rows is None:
        flat: list[int] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            fields = raw.split(None, 2)
            if not fields or fields[0].startswith("#"):
                continue
            if len(fields) < 2:
                raise ParseError(f"{path}:{lineno}: expected 'user item', got {raw!r}")
            flat += (user_map.setdefault(fields[0], len(user_map)), item_map.setdefault(fields[1], len(item_map)))
        rows = np.array(flat, dtype=np.int64).reshape(-1, 2)
    first = np.unique(rows[:, 0] * len(item_map) + rows[:, 1], return_index=True)[1]
    # a fresh array either way: keeping rows itself put m-nocl's peak 3 MB higher
    return rows.copy() if first.size == rows.shape[0] else rows[np.sort(first)]


def _write_pairs(path, rows, users, items):
    """Write (user, item) index rows as tab-separated id lines, streaming;
    users[u] and items[i] give the ids."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{users[u]}\t{items[i]}\n" for u, i in rows)


def _warm_start(train_items: np.ndarray, held_items: np.ndarray, needed: np.ndarray) -> np.ndarray:
    """Which held-out pairs go back to train so that every needed item has a
    train pair: of each needed item with none, its first held-out pair."""
    cold = np.flatnonzero(np.isin(held_items, needed) & ~np.isin(held_items, train_items))
    back = np.zeros(held_items.shape[0], dtype=bool)
    back[cold[np.unique(held_items[cold], return_index=True)[1]]] = True
    return back


def _holdout_validation(train: np.ndarray, test: np.ndarray, fraction: float, seed: int):
    """Move a seeded per-user fraction of train pairs into validation.

    Every user keeps at least one train pair, and a test item the draw
    left without train pairs gets its first moved pair back (_warm_start).
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
    held = np.flatnonzero(moved)
    moved[held[_warm_start(train[~moved, 1], train[held, 1], test[:, 1])]] = False
    return train[~moved], train[moved]


def load_interactions(train_path, test_path, val_path=None, val_fraction: float = 0.1, seed: int = 0) -> InteractionDataset:
    """Read pair files into an InteractionDataset.

    With no validation file, a per-user seeded fraction of train pairs
    (default 0.1) is held out as validation instead.
    """
    user_map: dict[str, int] = {}
    item_map: dict[str, int] = {}
    train = _read_pairs(train_path, user_map, item_map)
    val = None if val_path is None else _read_pairs(val_path, user_map, item_map)
    test = _read_pairs(test_path, user_map, item_map)
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
        _write_pairs(path, arr.tolist(), users, items)


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
