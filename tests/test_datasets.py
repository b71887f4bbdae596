"""Ratings-file conversion and dataset discovery (no network involved)."""

import hashlib
import io
import urllib.request
import zipfile

import numpy as np
import pytest

from svdgcl.datasets import fetch_movielens_100k, locate_movielens_100k, prepare_movielens_100k
from svdgcl.errors import ConfigError, DataError, ParseError
from svdgcl.interactions import load_interactions, write_pair_files
from tests.util import prepare_movielens_100k_string_dicts, write_pair_files_id_tuples

# sha256s of the split files prepare_movielens_100k wrote for fake_ratings
# (seed 0) with seed 0 before it shared the package's pair reader and writer
PINNED_SPLITS = {
    "train": "a8389d1ca6605b2669db886401c3aec430da01c71f056f36171c612a764d8599",
    "val": "64c1a47045e336a58849f585177ab4b4e4f0f74a82003aa0d66494046183bb86",
    "test": "db6b779f2b3d9d66f834c27df4fc0798ad91d68fc6344b21e060aa23077e411d",
}


# split ratios the splitter is checked against its frozen copy with, from
# the default to train-only, and one with no validation share
FROZEN_RATIOS = ((0.8, 0.1, 0.1), (0.5, 0.25, 0.25), (0.34, 0.33, 0.33), (0.6, 0.0, 0.4), (1.0, 0.0, 0.0))


def sha256s(paths):
    return {split: hashlib.sha256(path.read_bytes()).hexdigest() for split, path in paths.items()}


def fake_ratings(tmp_path, n_users=12, n_items=15, per_user=10, seed=0):
    """u.data lookalike: user, item, rating, timestamp, tab separated."""
    rng = np.random.default_rng(seed)
    lines = []
    for u in range(1, n_users + 1):
        items = rng.choice(n_items, size=per_user, replace=False) + 1
        for i in items:
            lines.append(f"{u}\t{i}\t{rng.integers(1, 6)}\t{880000000 + u}\n")
    path = tmp_path / "u.data"
    path.write_text("".join(lines))
    return path


class TestPrepare:
    def test_split_sizes_follow_ratios(self, tmp_path):
        src = fake_ratings(tmp_path)
        out = prepare_movielens_100k(src, tmp_path / "out", seed=1)
        ds = load_interactions(out["train"], out["test"], out["val"])
        assert ds.num_users == 12
        # 10 ratings per user: floor splits give 1 val and 1 test
        val_counts = np.bincount(ds.validation[:, 0], minlength=12)
        test_counts = np.bincount(ds.test[:, 0], minlength=12)
        assert val_counts.max() <= 1
        assert test_counts.max() <= 1
        total = ds.train.shape[0] + ds.validation.shape[0] + ds.test.shape[0]
        assert total == 120

    def test_deterministic_per_seed(self, tmp_path):
        src = fake_ratings(tmp_path)
        a = prepare_movielens_100k(src, tmp_path / "a", seed=4)
        b = prepare_movielens_100k(src, tmp_path / "b", seed=4)
        c = prepare_movielens_100k(src, tmp_path / "c", seed=5)
        assert open(a["train"]).read() == open(b["train"]).read()
        assert open(a["test"]).read() == open(b["test"]).read()
        assert open(a["train"]).read() != open(c["train"]).read()

    def test_output_loads_warm(self, tmp_path):
        # several seeds: held-out users/items must always be covered by train
        for seed in range(4):
            src = fake_ratings(tmp_path, seed=seed)
            out = prepare_movielens_100k(src, tmp_path / f"o{seed}", seed=seed)
            ds = load_interactions(out["train"], out["test"], out["val"])
            trained_items = set(ds.train[:, 1].tolist())
            assert set(ds.test[:, 1].tolist()) <= trained_items

    def test_bad_ratios_rejected(self, tmp_path):
        src = fake_ratings(tmp_path)
        with pytest.raises(ConfigError):
            prepare_movielens_100k(src, tmp_path / "out", ratios=(0.5, 0.4, 0.4))
        with pytest.raises(ConfigError):
            prepare_movielens_100k(src, tmp_path / "out", ratios=(0.9, -0.1, 0.1))
        with pytest.raises(ConfigError):
            prepare_movielens_100k(src, tmp_path / "out", ratios=(0.0, 0.5, 0.5))

    def test_malformed_line_is_a_parse_error(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t2\t3\t4\nbroken\n")
        with pytest.raises(ParseError, match=":2"):
            prepare_movielens_100k(path, tmp_path / "out")

    def test_missing_source_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError):
            prepare_movielens_100k(tmp_path / "ghost.data", tmp_path / "out")

    def test_undecodable_source_is_a_data_error(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_bytes(b"1\t2\t3\t4\n\xff\t2\t3\t4\n")
        with pytest.raises(DataError, match=r"u\.data"):
            prepare_movielens_100k(path, tmp_path / "out")

    def test_comments_skipped_and_repeats_collapse(self, tmp_path):
        src = fake_ratings(tmp_path)
        plain = prepare_movielens_100k(src, tmp_path / "plain", seed=0)
        lines = src.read_text().splitlines(keepends=True)
        src.write_text("# user item rating timestamp\n" + "".join(lines[:3]) + lines[1] + "".join(lines[3:]))
        noisy = prepare_movielens_100k(src, tmp_path / "noisy", seed=0)
        assert sha256s(noisy) == sha256s(plain)

    def test_split_bytes_pinned(self, tmp_path):
        out = prepare_movielens_100k(fake_ratings(tmp_path, seed=0), tmp_path / "out", seed=0)
        assert sha256s(out) == PINNED_SPLITS

    def test_written_back_splits_pinned(self, tmp_path):
        out = prepare_movielens_100k(fake_ratings(tmp_path, seed=0), tmp_path / "out", seed=0)
        ds = load_interactions(out["train"], out["test"], out["val"])
        back = {split: tmp_path / f"back_{split}.txt" for split in ("train", "val", "test")}
        write_pair_files(ds, back["train"], back["test"], back["val"])
        assert sha256s(back) == PINNED_SPLITS


class TestFrozenCopies:
    """The splitter and the pair writer against frozen copies of the string
    versions they replaced: per-user dicts of id lists, sets of drawn
    positions, id tuple lists, and a counting dict for the repair."""

    def test_random_ratings_match_byte_for_byte(self, tmp_path):
        # ids of 1 and 2 digits, so (len(id), id) and plain string order
        # differ; odd cases have users with 1 to 3 ratings; case 0 is empty
        rng = np.random.default_rng(21)
        src = tmp_path / "u.data"
        back = {split: tmp_path / f"back_{split}.txt" for split in ("train", "val", "test")}
        want_back = {split: tmp_path / f"want_back_{split}.txt" for split in ("train", "val", "test")}
        for case in range(250):
            n_users, n_items = (int(rng.integers(0, 15)) if case else 0), int(rng.integers(1, 21))
            most = min(n_items, 3 if case % 2 else 12)
            lines = [
                f"{u * 7}\t{i * 3}\t4\t0\n"
                for u in rng.permutation(n_users)
                for i in rng.choice(n_items, size=int(rng.integers(1, most + 1)), replace=False)
            ]
            src.write_text("".join(lines[k] for k in rng.permutation(len(lines))))
            ratios = FROZEN_RATIOS[case % len(FROZEN_RATIOS)]
            got = prepare_movielens_100k(src, tmp_path / "got", seed=case, ratios=ratios)
            want = prepare_movielens_100k_string_dicts(src, tmp_path / "want", seed=case, ratios=ratios)
            assert sha256s(got) == sha256s(want), (case, ratios)
            ds = load_interactions(got["train"], got["test"], got["val"])
            write_pair_files(ds, back["train"], back["test"], back["val"])
            write_pair_files_id_tuples(ds, want_back["train"], want_back["test"], want_back["val"])
            assert sha256s(back) == sha256s(want_back) == sha256s(got), case

    @pytest.mark.parametrize(
        "seed, returned, kept",
        # seed 0 draws user 1's pair of item 200 into val and user 2's into
        # test, seed 21 the other way round; both ratings are held out, and
        # the val pair goes back to train even when it is the later user's
        [(0, "1\t200", "2\t200"), (21, "2\t200", "1\t200")],
    )
    def test_item_held_out_in_val_and_test(self, tmp_path, seed, returned, kept):
        src = tmp_path / "u.data"
        lines = [f"{u}\t{i}\t4\t0\n" for u in range(1, 7) for i in range(101, 104)]
        src.write_text("".join(lines) + "1\t200\t4\t0\n2\t200\t4\t0\n")
        got = prepare_movielens_100k(src, tmp_path / "got", seed=seed, ratios=(0.4, 0.3, 0.3))
        want = prepare_movielens_100k_string_dicts(src, tmp_path / "want", seed=seed, ratios=(0.4, 0.3, 0.3))
        assert sha256s(got) == sha256s(want)
        split = {name: path.read_text().splitlines() for name, path in got.items()}
        assert split["train"][-1] == returned
        assert kept in split["test"]
        assert [line for line in split["train"] + split["val"] if line.endswith("\t200")] == [returned]
        # users 1 and 2 hold out one rating each in val and test, the three-rating
        # users none; one of those four came back
        assert len(split["val"]) + len(split["test"]) == 3


class TestFetch:
    """The download is replaced by an in-memory response; no network."""

    def serve(self, monkeypatch, body):
        monkeypatch.setattr(urllib.request, "urlopen", lambda url, timeout: io.BytesIO(body))

    def test_download_that_is_not_a_zip_is_a_data_error(self, tmp_path, monkeypatch):
        self.serve(monkeypatch, b"not a zip")
        with pytest.raises(DataError, match="not the MovieLens-100K archive"):
            fetch_movielens_100k(tmp_path)

    def test_archive_without_ratings_is_a_data_error(self, tmp_path, monkeypatch):
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as zf:
            zf.writestr("ml-100k/README", "no ratings here")
        self.serve(monkeypatch, buf.getvalue())
        with pytest.raises(DataError, match="not the MovieLens-100K archive"):
            fetch_movielens_100k(tmp_path)

    def test_archive_with_ratings_unpacks(self, tmp_path, monkeypatch):
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as zf:
            zf.writestr("ml-100k/u.data", "1\t2\t3\t4\n")
        self.serve(monkeypatch, buf.getvalue())
        path = fetch_movielens_100k(tmp_path)
        assert path == tmp_path / "ml-100k" / "u.data"
        assert path.read_text() == "1\t2\t3\t4\n"


class TestLocate:
    def test_env_var_file_wins(self, tmp_path, monkeypatch):
        src = fake_ratings(tmp_path)
        monkeypatch.setenv("SVDGCL_ML100K", str(src))
        assert locate_movielens_100k() == src

    def test_env_var_directory_resolves(self, tmp_path, monkeypatch):
        src = fake_ratings(tmp_path)
        monkeypatch.setenv("SVDGCL_ML100K", str(tmp_path))
        assert locate_movielens_100k() == src

    def test_absent_everywhere_is_none(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SVDGCL_ML100K", raising=False)
        monkeypatch.chdir(tmp_path)
        assert locate_movielens_100k() is None
