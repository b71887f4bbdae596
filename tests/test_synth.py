"""Block-community generator: structure, determinism, and edge cases."""

import hashlib

import numpy as np
import pytest

from svdgcl.errors import ConfigError
from svdgcl.interactions import load_interactions
from svdgcl.synth import HOLDOUT_MARGIN, TRAIN_WINDOW, generate_blocks


def read_pairs(path):
    out = []
    for line in path.read_text().splitlines():
        u, i = line.split()
        out.append((int(u), int(i)))
    return out


class TestStructure:
    def test_loadable_and_sized(self, tmp_path):
        paths = generate_blocks(tmp_path / "d", 10, 12, 3, 0.0, 7)
        ds = load_interactions(paths["train"], paths["test"], paths["val"])
        assert ds.num_users == 30
        assert ds.num_items == 36
        # one test and one val pair per user
        assert ds.test.shape[0] == 30
        assert ds.validation.shape[0] == 30

    def test_block_diagonal_without_noise(self, tmp_path):
        paths = generate_blocks(tmp_path / "d", 8, 10, 4, 0.0, 1)
        for split in ("train", "val", "test"):
            for u, i in read_pairs(paths[split]):
                assert u // 8 == i // 10

    def test_window_size_and_holdout_membership(self, tmp_path):
        users, items = 6, 20
        paths = generate_blocks(tmp_path / "d", users, items, 2, 0.0, 3)
        w = round(TRAIN_WINDOW * items)
        by_user = {}
        for u, i in read_pairs(paths["train"]):
            by_user.setdefault(u, set()).add(i)
        test = dict(read_pairs(paths["test"]))
        val = dict(read_pairs(paths["val"]))
        for u, owned in by_user.items():
            base = (u // users) * items
            local = sorted(x - base for x in owned | {test[u], val[u]})
            assert len(local) == w
            # the interacted set is one contiguous ring window
            gaps = [(b - a) % items for a, b in zip(local, local[1:] + local[:1])]
            assert sorted(gaps)[-1] == items - w + 1 or w == items

    def test_holdouts_sit_away_from_window_edges(self, tmp_path):
        users, items = 6, 30
        paths = generate_blocks(tmp_path / "d", users, items, 2, 0.0, 5)
        w = round(TRAIN_WINDOW * items)
        by_user = {}
        for u, i in read_pairs(paths["train"]):
            by_user.setdefault(u, set()).add(i)
        test = dict(read_pairs(paths["test"]))
        val = dict(read_pairs(paths["val"]))
        for u, owned in by_user.items():
            base = (u // users) * items
            window = owned | {test[u], val[u]}
            for held in (test[u], val[u]):
                # the margin nearest ring positions on both sides stay in-window
                for step in range(1, HOLDOUT_MARGIN + 1):
                    lo = base + (held - base - step) % items
                    hi = base + (held - base + step) % items
                    assert lo in window and hi in window

    def test_noise_edges_cross_blocks_only(self, tmp_path):
        paths = generate_blocks(tmp_path / "d", 10, 10, 2, 0.3, 11)
        w = round(TRAIN_WINDOW * 10)
        cross = 0
        for u, i in read_pairs(paths["train"]):
            if u // 10 != i // 10:
                cross += 1
        # expectation is 0.3 * 10 = 3 cross edges per user
        assert 0 < cross
        assert abs(cross / 20 - 3.0) < 1.5
        for u, i in read_pairs(paths["test"]) + read_pairs(paths["val"]):
            assert u // 10 == i // 10

    def test_tiny_window_still_leaves_training_items(self, tmp_path):
        # 3 items per block: window of 2, one holdout, one train item
        paths = generate_blocks(tmp_path / "d", 8, 3, 2, 0.0, 0)
        ds = load_interactions(paths["train"], paths["test"], paths["val"])
        counts = np.bincount(ds.train[:, 0], minlength=ds.num_users)
        assert counts.min() >= 1


class TestDeterminism:
    def test_bytes_are_seed_pure(self, tmp_path):
        p1 = generate_blocks(tmp_path / "a", 9, 11, 2, 0.1, 21)
        p2 = generate_blocks(tmp_path / "b", 9, 11, 2, 0.1, 21)
        p3 = generate_blocks(tmp_path / "c", 9, 11, 2, 0.1, 22)
        for split in ("train", "val", "test"):
            assert p1[split].read_bytes() == p2[split].read_bytes()
        assert p1["train"].read_bytes() != p3["train"].read_bytes()

    def test_bytes_pinned(self, tmp_path):
        # sha256s written by the generator before it shared the package's pair writer
        paths = generate_blocks(tmp_path / "d", 9, 11, 2, 0.1, 21)
        assert {split: hashlib.sha256(paths[split].read_bytes()).hexdigest() for split in paths} == {
            "train": "c012a0b7d6508608652d8c50d03d5fab484ffbc23b1294a7b998f77949ea7bc4",
            "val": "5c8d631ec56e715daa8c4d6ca7dfd1e9af31a739f402a003ba70fe2e60cdab65",
            "test": "68224d6cf817db5b9204baaac1e44e89c575a3d01975c55b69f78d95c94b2d12",
        }


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(users_per_block=0),
            dict(items_per_block=0),
            dict(blocks=0),
            dict(noise_p=-0.1),
            dict(noise_p=1.5),
            dict(seed=-1),
        ],
    )
    def test_bad_arguments_rejected(self, tmp_path, kwargs):
        args = dict(users_per_block=4, items_per_block=4, blocks=2, noise_p=0.0, seed=0)
        args.update(kwargs)
        with pytest.raises(ConfigError):
            generate_blocks(tmp_path / "d", **args)
