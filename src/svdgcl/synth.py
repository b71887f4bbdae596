"""Synthetic block-community interaction data.

Users live in blocks and interact with a contiguous ring window covering
about 70% of their own block's items, starting at a seeded offset, so
every in-block item ends up equally popular. One in-window item per user
is held out for test and one for validation, both drawn away from the
window edges (edge items are inherently ambiguous against the items just
outside, which would measure boundary resolution rather than structure
recovery; ring symmetry keeps item popularity uniform either way).
Optional cross-block noise edges blur the community structure. With
noise_p = 0 the adjacency is exactly block-diagonal. Users and items are
written as their integer indices, through the package's one pair-file
writer.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ConfigError
from .interactions import _write_pairs

TRAIN_WINDOW = 0.7
HOLDOUT_MARGIN = 3


def generate_blocks(
    out_dir,
    users_per_block: int,
    items_per_block: int,
    blocks: int,
    noise_p: float,
    seed: int,
):
    """Write train/val/test pair files under out_dir; returns their paths.

    Output bytes are a pure function of the arguments.
    """
    if users_per_block < 1 or items_per_block < 1 or blocks < 1:
        raise ConfigError("block sizes and count must be at least 1")
    if not 0.0 <= noise_p <= 1.0:
        raise ConfigError("noise_p must lie in [0, 1]")
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed])))
    n_items = blocks * items_per_block
    window = int(round(TRAIN_WINDOW * items_per_block))
    window = max(1, min(window, items_per_block))

    train: list[tuple[int, int]] = []
    val: list[tuple[int, int]] = []
    test: list[tuple[int, int]] = []
    for b in range(blocks):
        base = b * items_per_block
        others = np.concatenate(
            [np.arange(0, base), np.arange(base + items_per_block, n_items)]
        )
        for j in range(users_per_block):
            uid = b * users_per_block + j
            start = int(rng.integers(items_per_block))
            ring = base + (start + np.arange(window)) % items_per_block
            held: list[int] = []
            if window >= 2:
                margin = min(HOLDOUT_MARGIN, (window - 2) // 2)
                eligible = window - 2 * margin
                picks = margin + rng.choice(
                    eligible, size=min(2, window - 1, eligible), replace=False
                )
                held = [int(ring[p]) for p in picks]
            keep = [int(i) for i in ring if int(i) not in held]
            noise = others[rng.random(others.shape[0]) < noise_p] if others.size else others
            train += [(uid, item) for item in keep + noise.tolist()]
            test += [(uid, item) for item in held[:1]]
            val += [(uid, item) for item in held[1:2]]

    paths = {name: out_dir / f"{name}.txt" for name in ("train", "val", "test")}
    for path, pairs in zip(paths.values(), (train, val, test)):
        _write_pairs(path, pairs, range(blocks * users_per_block), range(n_items))
    return paths
