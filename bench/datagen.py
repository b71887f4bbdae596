"""Block-community interaction data for the benchmark, independent of svdgcl.

Users live in blocks. Each user interacts with a contiguous ring window over
70% of their own block's items, starting at a seeded offset. Two window items
are held out, away from the window edges: one as the test pair, one as the
validation pair. Optional cross-block noise edges blur the blocks. The
recipe follows ROADMAP's S and L shapes; it is written out here so that two
commits of the program always see the same input bytes for the same seed.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TRAIN_WINDOW = 0.7
HOLDOUT_MARGIN = 3


@dataclass(frozen=True)
class Shape:
    users_per_block: int
    items_per_block: int
    blocks: int
    noise_p: float

    @property
    def num_users(self) -> int:
        return self.users_per_block * self.blocks

    @property
    def num_items(self) -> int:
        return self.items_per_block * self.blocks


# ML-100K-shaped: 1,000 users, 1,700 items, about 124,600 train edges
S = Shape(100, 170, 10, 0.005)
# 5,000 users, 4,000 items, exactly 690,000 train edges
M = Shape(250, 200, 20, 0.0)
SHAPES = {"S": S, "M": M}


def generate(shape: Shape, seed: int):
    """Return (train, val, test) as int64 (n, 2) arrays of [user, item].

    Train rows run user by user: the window in ring order, then the noise
    items ascending. Every user has exactly one val and one test pair. The
    arrays are a pure function of (shape, seed).
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 0x5EED])))
    m, ipb, n_items = shape.num_users, shape.items_per_block, shape.num_items
    window = int(round(TRAIN_WINDOW * ipb))
    margin = min(HOLDOUT_MARGIN, (window - 2) // 2)
    eligible = window - 2 * margin
    if eligible < 2:
        raise ValueError("items_per_block too small to hold out two items")
    users = np.arange(m, dtype=np.int64)
    base = (users // shape.users_per_block) * ipb
    start = rng.integers(ipb, size=m)
    ring = base[:, None] + (start[:, None] + np.arange(window)) % ipb  # (m, window)
    first = rng.integers(eligible, size=m)
    second = rng.integers(eligible - 1, size=m)
    second += second >= first
    test_item = ring[users, margin + first]
    val_item = ring[users, margin + second]
    keep = np.ones(ring.shape, dtype=bool)
    keep[users, margin + first] = False
    keep[users, margin + second] = False
    kept = ring[keep].reshape(m, window - 2)

    rows = [np.column_stack([np.repeat(users, window - 2), kept.ravel()])]
    if shape.noise_p > 0:
        # per user, a mask over the items outside the user's own block
        outside = n_items - ipb
        hit = rng.random((m, outside)) < shape.noise_p
        uu, pos = np.nonzero(hit)
        items = pos + (pos >= base[uu]) * ipb
        rows.append(np.column_stack([uu, items]))
    train = np.concatenate(rows)
    # user by user, window rows before noise rows, stable within each
    order = np.argsort(train[:, 0], kind="stable")
    train = train[order]
    val = np.column_stack([users, val_item])
    test = np.column_stack([users, test_item])
    return train, val, test


def write_pairs(path: Path, pairs: np.ndarray):
    """Tab-separated ``u<user>\\ti<item>`` lines in row order."""
    lines = np.char.add(
        np.char.add(np.char.add("u", pairs[:, 0].astype(str)), "\ti"),
        pairs[:, 1].astype(str),
    )
    path.write_text("\n".join(lines.tolist()) + "\n")


def write_dataset(out_dir: Path, shape: Shape, seed: int) -> dict:
    """Write train/val/test pair files under out_dir; return their paths as str."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, pairs in zip(("train", "val", "test"), generate(shape, seed)):
        path = out_dir / f"{name}.txt"
        write_pairs(path, pairs)
        paths[name] = str(path)
    return paths


def parse_shape(spec: str) -> Shape:
    """The shape named "S" or "M", or given as "users_per_block,items_per_block,blocks,noise_p"."""
    if spec in SHAPES:
        return SHAPES[spec]
    upb, ipb, blocks, noise = spec.split(",")
    return Shape(int(upb), int(ipb), int(blocks), float(noise))


if __name__ == "__main__":
    # python3 datagen.py <shape spec> <seed> <out_dir>
    spec, seed, out = sys.argv[1:]
    write_dataset(Path(out), parse_shape(spec), int(seed))
