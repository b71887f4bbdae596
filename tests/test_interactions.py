"""Interaction file ingestion, splits, and graph construction."""

import numpy as np
import pytest

from svdgcl.errors import DataError, ParseError, ProtocolError
from svdgcl.interactions import (
    InteractionDataset,
    _holdout_validation,
    build_adjacency,
    load_interactions,
    normalize_adjacency,
    write_pair_files,
)
from tests.util import holdout_validation_user_scan


def write(path, text):
    path.write_text(text)
    return str(path)


def basic_files(tmp_path):
    """Three users, four items, ids deliberately non-numeric."""
    train = write(
        tmp_path / "train.txt",
        "alice\tred\nalice\tblue\nbob\tred\nbob\tgreen\ncara\tblue\ncara\tgold\n",
    )
    test = write(tmp_path / "test.txt", "alice\tgreen\nbob\tblue\n")
    val = write(tmp_path / "val.txt", "cara\tred\n")
    return train, test, val


class TestParsing:
    def test_comments_blanks_and_extra_fields(self, tmp_path):
        train = write(
            tmp_path / "train.txt",
            "# header\n\nu1 i1 4.5 2021\nu1\ti2\n  \nu2 i1\n",
        )
        test = write(tmp_path / "test.txt", "u2 i2\n")
        ds = load_interactions(train, test)
        assert ds.num_users == 2
        assert ds.num_items == 2
        assert ds.train.shape == (3, 2)

    def test_duplicate_lines_collapse(self, tmp_path):
        train = write(tmp_path / "train.txt", "u i\nu j\nu i\nv k\n")
        test = write(tmp_path / "test.txt", "u k\n")
        ds = load_interactions(train, test)
        assert ds.train.shape[0] == 3

    def test_single_token_line_is_a_parse_error(self, tmp_path):
        train = write(tmp_path / "train.txt", "u1 i1\nlonely\n")
        test = write(tmp_path / "test.txt", "u1 i1\n")
        with pytest.raises(ParseError, match=r"train\.txt:2"):
            load_interactions(train, test)

    def test_missing_file_is_a_data_error(self, tmp_path):
        test = write(tmp_path / "test.txt", "u i\n")
        with pytest.raises(DataError, match="nope"):
            load_interactions(str(tmp_path / "nope.txt"), test)

    def test_ids_indexed_by_first_appearance(self, tmp_path):
        train, test, val = basic_files(tmp_path)
        ds = load_interactions(train, test, val)
        assert ds.user_id_map == {"alice": 0, "bob": 1, "cara": 2}
        assert ds.item_id_map == {"red": 0, "blue": 1, "green": 2, "gold": 3}

    def test_summary_line(self, tmp_path):
        train, test, val = basic_files(tmp_path)
        ds = load_interactions(train, test, val)
        assert ds.summary() == "dataset M=3 N=4 train=6 val=1 test=2"


class TestProtocol:
    def test_cold_test_user_rejected(self, tmp_path):
        train = write(tmp_path / "train.txt", "u1 i1\nu2 i1\n")
        test = write(tmp_path / "test.txt", "ghost i1\n")
        with pytest.raises(ProtocolError, match="user"):
            load_interactions(train, test)

    def test_cold_test_item_rejected(self, tmp_path):
        train = write(tmp_path / "train.txt", "u1 i1\nu2 i1\n")
        test = write(tmp_path / "test.txt", "u1 mystery\n")
        with pytest.raises(ProtocolError, match="item"):
            load_interactions(train, test)

    def test_val_only_ids_are_legal(self, tmp_path):
        train = write(tmp_path / "train.txt", "u1 i1\nu2 i1\nu2 i2\nu1 i3\n")
        test = write(tmp_path / "test.txt", "u1 i2\n")
        val = write(tmp_path / "val.txt", "newcomer fresh\n")
        ds = load_interactions(train, test, val)
        assert "newcomer" in ds.user_id_map
        assert "fresh" in ds.item_id_map

    def test_train_test_overlap_rejected(self, tmp_path):
        train = write(tmp_path / "train.txt", "u1 i1\nu1 i2\n")
        test = write(tmp_path / "test.txt", "u1 i1\n")
        with pytest.raises(ProtocolError, match="overlap"):
            load_interactions(train, test)

    @pytest.mark.parametrize(
        "splits, message",
        [
            (
                {"validation": [[3, 1], [2, 0], [1, 1], [0, 2], [0, 3], [3, 3], [1, 0], [0, 0]], "test": []},
                "train and validation overlap on pairs [(0, 0), (0, 2), (1, 0), (1, 1), (2, 0)]",
            ),
            (
                {"validation": [], "test": [[3, 3], [0, 3], [1, 2], [1, 1]]},
                "train and test overlap on pairs [(1, 1), (3, 3)]",
            ),
            (
                {"validation": [], "test": [[5, 0], [2, 1], [5, 1], [4, 0], [4, 2]]},
                "test users absent from train: [4, 5]",
            ),
            (
                {"validation": [], "test": [[0, 6], [1, 4], [3, 6], [2, 1]]},
                "test items absent from train: [4, 6]",
            ),
        ],
    )
    def test_protocol_messages_pinned(self, splits, message):
        train = [[3, 1], [2, 0], [1, 1], [0, 2], [3, 3], [1, 0], [0, 0], [0, 1], [3, 0]]
        with pytest.raises(ProtocolError) as err:
            InteractionDataset(
                num_users=6,
                num_items=7,
                train=np.array(train),
                validation=np.array(splits["validation"], dtype=np.int64).reshape(-1, 2),
                test=np.array(splits["test"], dtype=np.int64).reshape(-1, 2),
            )
        assert str(err.value) == message

    def test_direct_construction_validates_ranges(self):
        with pytest.raises(ProtocolError):
            InteractionDataset(
                num_users=1,
                num_items=1,
                train=np.array([[0, 5]]),
                validation=np.empty((0, 2), dtype=np.int64),
                test=np.empty((0, 2), dtype=np.int64),
                user_id_map={"u": 0},
                item_id_map={"i": 0},
            )


class TestHoldout:
    def make(self, tmp_path, n_users=6, n_items=10, per_user=8):
        lines = []
        for u in range(n_users):
            for i in range(per_user):
                lines.append(f"u{u}\ti{(u + i) % n_items}\n")
        train = write(tmp_path / "train.txt", "".join(lines))
        test = write(
            tmp_path / "test.txt",
            "".join(f"u{u}\ti{(u + per_user) % n_items}\n" for u in range(n_users)),
        )
        return train, test

    def test_fraction_moved_per_user(self, tmp_path):
        train, test = self.make(tmp_path)
        ds = load_interactions(train, test, val_fraction=0.25, seed=1)
        counts = np.bincount(ds.validation[:, 0], minlength=6)
        # floor(0.25 * 8) = 2 pairs leave each user's train split
        np.testing.assert_array_equal(counts, 2)
        train_counts = np.bincount(ds.train[:, 0], minlength=6)
        np.testing.assert_array_equal(train_counts, 6)

    def test_holdout_is_seed_deterministic(self, tmp_path):
        train, test = self.make(tmp_path)
        a = load_interactions(train, test, val_fraction=0.25, seed=9)
        b = load_interactions(train, test, val_fraction=0.25, seed=9)
        c = load_interactions(train, test, val_fraction=0.25, seed=10)
        np.testing.assert_array_equal(a.validation, b.validation)
        assert not np.array_equal(a.validation, c.validation)

    def test_holdout_never_empties_a_user(self, tmp_path):
        train = write(tmp_path / "train.txt", "u1 a\nu1 b\nu2 a\nu2 c\n")
        test = write(tmp_path / "test.txt", "u1 c\n")
        ds = load_interactions(train, test, val_fraction=0.9, seed=3)
        kept = np.bincount(ds.train[:, 0], minlength=ds.num_users)
        assert kept.min() >= 1

    def test_holdout_keeps_test_items_trained(self, tmp_path):
        rng = np.random.default_rng(4)
        for seed in range(5):
            train, test = self.make(tmp_path)
            ds = load_interactions(train, test, val_fraction=0.5, seed=seed)
            trained = set(ds.train[:, 1].tolist())
            assert set(ds.test[:, 1].tolist()) <= trained

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("fraction", [0.0, 0.1, 0.34, 0.5, 0.9])
    def test_matches_the_per_user_scan(self, seed, fraction):
        # shuffled rows, users holding 1 to 12 pairs, and test items that
        # live on only a pair or two of train, so the warm-start repair runs
        rng = np.random.default_rng(100 + seed)
        counts = rng.integers(1, 13, size=40)
        users = np.repeat(np.arange(40), counts)
        items = np.concatenate([rng.choice(100, size=c, replace=False) for c in counts])
        train = np.column_stack([users, items])[rng.permutation(users.size)]
        rare = np.flatnonzero(np.bincount(train[:, 1], minlength=100) <= 2)
        test = np.column_stack([np.zeros(rare.size, dtype=np.int64), rare])
        got = _holdout_validation(train, test, fraction, seed)
        want = holdout_validation_user_scan(train, test, fraction, seed)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        if fraction == 0.5:
            # the repair kept some pair the per-user draw had moved
            floor = np.floor(fraction * counts).astype(int)
            drawn = np.where((floor >= 1) & (counts - floor >= 1), floor, 0)
            assert got[1].shape[0] < drawn.sum()

    def test_empty_train_moves_nothing(self):
        empty = np.empty((0, 2), dtype=np.int64)
        kept, moved = _holdout_validation(empty, empty, 0.5, 1)
        assert kept.shape == moved.shape == (0, 2)


class TestRoundTrip:
    def test_explicit_files_round_trip_identically(self, tmp_path):
        train, test, val = basic_files(tmp_path)
        ds = load_interactions(train, test, val)
        out = tmp_path / "out"
        out.mkdir()
        write_pair_files(ds, out / "tr.txt", out / "te.txt", out / "va.txt")
        again = load_interactions(out / "tr.txt", out / "te.txt", out / "va.txt")
        assert again.user_id_map == ds.user_id_map
        assert again.item_id_map == ds.item_id_map
        np.testing.assert_array_equal(again.train, ds.train)
        np.testing.assert_array_equal(again.validation, ds.validation)
        np.testing.assert_array_equal(again.test, ds.test)


class TestGraph:
    def test_adjacency_holds_train_pairs_only(self, tmp_path):
        train, test, val = basic_files(tmp_path)
        ds = load_interactions(train, test, val)
        a = build_adjacency(ds)
        dense = a.toarray()
        assert a.shape == (ds.num_users, ds.num_items)
        assert a.nnz == ds.train.shape[0]
        for u, i in ds.train:
            assert dense[u, i] == 1.0
        assert dense.sum() == ds.train.shape[0]

    def test_normalization_uses_both_degrees(self, tmp_path):
        train, test, val = basic_files(tmp_path)
        ds = load_interactions(train, test, val)
        a = build_adjacency(ds)
        n = normalize_adjacency(a)
        dense, raw = n.toarray(), a.toarray()
        du = raw.sum(axis=1)
        di = raw.sum(axis=0)
        for u in range(a.shape[0]):
            for i in range(a.shape[1]):
                if raw[u, i]:
                    expect = 1.0 / np.sqrt(du[u] * di[i])
                    assert abs(dense[u, i] - expect) < 1e-12
                else:
                    assert dense[u, i] == 0.0

    def test_items_by_user_sorted_per_split(self, tmp_path):
        train, test, val = basic_files(tmp_path)
        ds = load_interactions(train, test, val)
        per_user = ds.items_by_user("train")
        assert len(per_user) == ds.num_users
        for items in per_user:
            assert np.all(np.diff(items) > 0) or items.size <= 1
        np.testing.assert_array_equal(per_user[0], sorted([0, 1]))
        val_items = ds.items_by_user("val")
        np.testing.assert_array_equal(val_items[2], [0])
