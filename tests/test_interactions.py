"""Interaction file ingestion, splits, and graph construction."""

import string
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from svdgcl import interactions
from svdgcl.errors import DataError, ParseError, ProtocolError
from svdgcl.interactions import (
    CHUNK_CHARS,
    InteractionDataset,
    _holdout_validation,
    _read_pairs,
    _regular_rows,
    build_adjacency,
    load_interactions,
    normalize_adjacency,
    write_pair_files,
)
from tests.util import holdout_validation_user_scan, index_pairs, read_pair_lines


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

    def test_undecodable_file_is_a_data_error(self, tmp_path):
        train = tmp_path / "train.txt"
        train.write_bytes(b"u1 i1\nu\xff i2\n")
        test = write(tmp_path / "test.txt", "u1 i1\n")
        with pytest.raises(DataError, match=r"cannot read interaction file .*train\.txt"):
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

    def test_only_the_first_moved_pair_of_an_untrained_test_item_returns(self):
        # item 99 is on three users' train pairs and is a test item; at
        # fraction 0.9 the draw often moves all three, and then only the
        # one first in train order goes back
        rng = np.random.default_rng(7)
        users = np.repeat(np.arange(1, 4), 10)
        items = np.concatenate([np.append(rng.choice(50, size=9, replace=False), 99) for _ in range(3)])
        train = np.column_stack([users, items])[rng.permutation(30)]
        test = np.array([[0, 99]], dtype=np.int64)
        first = train[np.flatnonzero(train[:, 1] == 99)[0]].tolist()
        all_moved = 0
        for seed in range(10):
            # the draw does not read test, so with none the repair is off
            drawn = _holdout_validation(train, np.empty((0, 2), dtype=np.int64), 0.9, seed)[1]
            if (drawn[:, 1] == 99).sum() < 3:
                continue
            all_moved += 1
            kept, moved = _holdout_validation(train, test, 0.9, seed)
            assert kept[kept[:, 1] == 99].tolist() == [first]
            assert (moved[:, 1] == 99).sum() == 2
            want = holdout_validation_user_scan(train, test, 0.9, seed)
            assert kept.tobytes() == want[0].tobytes() and moved.tobytes() == want[1].tobytes()
        assert all_moved >= 2

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


# opaque ids: printable, no whitespace, and no leading "#", which would
# make a line a comment
_ID = st.text(string.ascii_letters + string.digits + string.punctuation, min_size=1, max_size=4).filter(
    lambda s: not s.startswith("#")
)
_NOISE = st.sampled_from(["", "   ", "# a comment", "#u i", "\t# indented comment"])


@st.composite
def _pair_file_texts(draw):
    """Train, validation and test file texts over drawn ids, with blank
    lines, comments, extra fields, odd separators and repeated lines mixed
    in. Every pair lands in one split, and test pairs keep to trained users
    and items, so each draw loads."""
    users = draw(st.lists(_ID, min_size=1, max_size=6, unique=True))
    items = draw(st.lists(_ID, min_size=1, max_size=6, unique=True))
    pair = st.tuples(st.sampled_from(users), st.sampled_from(items))
    pairs = draw(st.lists(pair, min_size=1, max_size=20, unique=True))
    where = [0] + draw(st.lists(st.integers(0, 2), min_size=len(pairs) - 1, max_size=len(pairs) - 1))
    split_pairs = [[p for p, w in zip(pairs, where) if w == s] for s in range(3)]
    trained_users, trained_items = ({p[c] for p in split_pairs[0]} for c in (0, 1))
    split_pairs[2] = [(u, i) for u, i in split_pairs[2] if u in trained_users and i in trained_items]
    texts = []
    for chosen in split_pairs:
        lines = []
        for u, i in chosen:
            lead, sep = draw(st.sampled_from(["", " ", "\t"])), draw(st.sampled_from([" ", "\t", "  \t "]))
            lines.append(f"{lead}{u}{sep}{i}" + draw(st.sampled_from(["", " 4.5", "\t1 2", " x"])))
        for _ in range(draw(st.integers(0, 4))):
            extra = draw(_NOISE | st.sampled_from(lines)) if lines else draw(_NOISE)
            lines.insert(draw(st.integers(0, len(lines))), extra)
        texts.append("".join(line + "\n" for line in lines))
    return texts


@pytest.fixture(scope="module")
def pair_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("pairs")


class TestRoundTripProperty:
    @given(_pair_file_texts())
    def test_load_write_load_is_a_fixed_point(self, pair_dir, texts):
        names = ("train.txt", "val.txt", "test.txt")
        for name, text in zip(names, texts):
            (pair_dir / name).write_text(text)

        def write_back(ds, run):
            out = pair_dir / run
            out.mkdir(exist_ok=True)
            write_pair_files(ds, out / "train.txt", out / "test.txt", out / "val.txt")
            return out

        ds = load_interactions(pair_dir / "train.txt", pair_dir / "test.txt", pair_dir / "val.txt")
        first = write_back(ds, "first")
        again = load_interactions(first / "train.txt", first / "test.txt", first / "val.txt")
        second = write_back(again, "second")
        # dict order is first appearance, so compare the maps as item lists
        assert list(again.user_id_map.items()) == list(ds.user_id_map.items())
        assert list(again.item_id_map.items()) == list(ds.item_id_map.items())
        for split in ("train", "validation", "test"):
            np.testing.assert_array_equal(getattr(again, split), getattr(ds, split))
        assert [(first / n).read_bytes() for n in names] == [(second / n).read_bytes() for n in names]


def read_like_the_oracle(path, new_maps, old_maps) -> bool:
    """_read_pairs against the frozen read-then-index reader on one file,
    each over its own maps: equal rows and map order, or the same ParseError
    (text and line number). False where both raised."""
    try:
        want = index_pairs(read_pair_lines(path), *old_maps)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            _read_pairs(path, *new_maps)
        assert str(got.value) == str(exc)
        return False
    got = _read_pairs(path, *new_maps)
    assert got.dtype == np.int64 and got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    for new, old in zip(new_maps, old_maps):
        assert list(new.items()) == list(old.items())
    return True


# a line with one field, possibly a comment: "#x" is skipped, "x" is a ParseError
_TOKEN_LINE = st.tuples(st.sampled_from(["", " ", "\t"]), st.sampled_from(["", "#"]), _ID).map("".join)
# no "#" and no whitespace, so that every line built from them is regular
_PLAIN_ID = st.text(string.ascii_letters + string.digits + "_.-", min_size=1, max_size=3)


@st.composite
def _regular_file_texts(draw):
    """Three regular texts (see interactions._regular_rows): F fields on
    every line, each split by one tab or space, over a few repeating ids,
    with or without the final newline."""
    fields = draw(st.integers(2, 4))
    ids = draw(st.lists(_PLAIN_ID, min_size=1, max_size=5, unique=True))
    texts = []
    for _ in range(3):
        lines = []
        for _ in range(draw(st.integers(1, 12))):
            tokens = [draw(st.sampled_from(ids)) for _ in range(fields)]
            lines.append("".join(t + draw(st.sampled_from(["\t", " "])) for t in tokens[:-1]) + tokens[-1])
        texts.append("\n".join(lines) + draw(st.sampled_from(["\n", ""])))
    return texts


# what one edit writes over a drawn character, or in before it
_EDITS = st.sampled_from(
    ["", "\n", "\n\n", "\t", "  ", " x", "#", "\x00", "\x0b", "\x0c", "\x1c", "\x1f", "\xa0", "\u2028", "é"]
)


@st.composite
def _perturbed_file_texts(draw):
    """Regular texts with one edit in one of them: a character deleted,
    replaced, or inserted."""
    texts = draw(_regular_file_texts())
    which = draw(st.integers(0, 2))
    at = draw(st.integers(0, len(texts[which])))
    cut = draw(st.integers(0, 1))
    texts[which] = texts[which][:at] + draw(_EDITS) + texts[which][at + cut :]
    return texts


class TestReaderMatchesTheTwoPassOracle:
    @given(
        _pair_file_texts(),
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 40), _TOKEN_LINE), max_size=2),
    )
    def test_same_rows_id_order_and_parse_errors(self, pair_dir, texts, token_lines):
        """File by file over shared id maps, up to the first ParseError."""
        files = [text.splitlines() for text in texts]
        for which, at, line in token_lines:
            files[which].insert(min(at, len(files[which])), line)
        new_maps, old_maps = ({}, {}), ({}, {})
        for name, lines in zip(("train.txt", "val.txt", "test.txt"), files):
            path = pair_dir / f"oracle_{name}"
            path.write_text("".join(line + "\n" for line in lines))
            if not read_like_the_oracle(path, new_maps, old_maps):
                return

    @given(_regular_file_texts() | _perturbed_file_texts(), st.sampled_from([1, 5, 64, CHUNK_CHARS]))
    def test_regular_files_and_one_edit_from_them(self, pair_dir, texts, chunk_chars):
        """The same over (nearly) regular files, which the array path reads,
        with chunks down to one character."""
        new_maps, old_maps = ({}, {}), ({}, {})
        with mock.patch.object(interactions, "CHUNK_CHARS", chunk_chars):
            for name, text in zip(("train.txt", "val.txt", "test.txt"), texts):
                path = pair_dir / f"regular_{name}"
                path.write_bytes(text.encode("utf-8"))
                if not read_like_the_oracle(path, new_maps, old_maps):
                    return


def _long_regular_text():
    """A regular text over three chunks, with repeated lines, whose last
    line brings a new user and a new item."""
    lines = [f"u{k % 50}\ti{k % 70}" for k in range(3 * CHUNK_CHARS // 8)]
    return "\n".join(lines + ["u_last\ti_last"]) + "\n"


# name: (file text, whether the array path reads it)
_EXACTNESS_CASES = {
    "count_rule_counterexample": ("a\nb c d\n", False),
    "field_counts_balancing_out": ("a b\nc\nd e f\n", False),
    "blank_line_between": ("u1\ti1\n\nu2\ti2\n", False),
    "leading_tab": ("\tu1\ti1\nu2\ti2\n", False),
    "trailing_tab": ("u1\ti1\t\nu2\ti2\n", False),
    "trailing_tab_unterminated": ("u1\ti1\nu2\t", False),
    "double_separator": ("u1\t\ti1\nu2 i2\n", False),
    "hash_inside_a_field": ("u1\ti#2\nu2\ti1\n", False),
    "no_final_newline": ("u1\ti1\nu2 i2", True),
    "crlf": ("u1\ti1\r\nu2\ti2\r\nu1\ti2\r\n", True),
    "non_ascii_id": ("u1\ti1\nü2\ti2\n", False),
    "field_count_changes_between_chunks": ("a b\nc d\ne f g\nh i j\n", False),
    "udata_four_fields": ("196\t242\t3\t881250949\n186\t302\t3\t891717742\n196\t302\t5\t881250950\n", True),
    "longer_than_a_chunk": (_long_regular_text(), True),
}


class TestRegularFileExactness:
    @pytest.mark.parametrize("chunk_chars", [6, CHUNK_CHARS])
    @pytest.mark.parametrize("name", list(_EXACTNESS_CASES))
    def test_same_as_the_oracle(self, tmp_path, monkeypatch, name, chunk_chars):
        # 6 characters end field_count_changes_between_chunks' first chunk
        # after its second line
        monkeypatch.setattr(interactions, "CHUNK_CHARS", chunk_chars)
        text, regular = _EXACTNESS_CASES[name]
        path = tmp_path / "pairs.txt"
        path.write_bytes(text.encode("utf-8"))
        read_like_the_oracle(path, ({}, {}), ({}, {}))
        decoded = path.read_text(encoding="utf-8")
        assert (_regular_rows(decoded, {}, {}) is not None) == regular

    def test_counterexample_is_a_parse_error_at_line_1(self, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_text("a\nb c d\n")
        with pytest.raises(ParseError, match=r"pairs\.txt:1: expected 'user item', got 'a'"):
            _read_pairs(path, {}, {})

    def test_id_first_seen_in_the_last_chunk(self, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_text(_long_regular_text())
        users, items = {}, {}
        rows = _read_pairs(path, users, items)
        assert len(path.read_text()) > 2 * CHUNK_CHARS
        assert list(users)[-1] == "u_last" and list(items)[-1] == "i_last"
        np.testing.assert_array_equal(rows[-1], [50, 70])
        assert rows.shape == (351, 2)

    def test_bench_format_files_take_the_array_path(self, tmp_path, monkeypatch):
        """u<user>\\ti<item> lines, as the benchmark writes them, and a
        u.data-style file: every read goes through _regular_rows and none
        falls back to the line loop."""
        results = []

        def spy(text, user_map, item_map):
            results.append(_regular_rows(text, user_map, item_map))
            return results[-1]

        monkeypatch.setattr(interactions, "_regular_rows", spy)
        train = write(tmp_path / "train.txt", "".join(f"u{u}\ti{(u + j) % 9}\n" for u in range(6) for j in range(4)))
        test = write(tmp_path / "test.txt", "".join(f"u{u}\ti{(u + 4) % 9}\n" for u in range(6)))
        val = write(tmp_path / "val.txt", "".join(f"u{u}\ti{(u + 5) % 9}\n" for u in range(6)))
        load_interactions(train, test, val)
        udata = write(tmp_path / "u.data", "196\t242\t3\t881250949\n186\t302\t3\t891717742\n")
        _read_pairs(udata, {}, {})
        assert len(results) == 4 and all(rows is not None for rows in results)


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

    def test_pair_index_sorted_per_split(self, tmp_path):
        train, test, val = basic_files(tmp_path)
        ds = load_interactions(train, test, val)
        n = ds.num_items

        def per_user(split):
            keys, offsets = ds.pair_index(split)
            assert offsets.shape == (ds.num_users + 1,)
            return [keys[lo:hi] % n for lo, hi in zip(offsets[:-1], offsets[1:])]

        train_items = per_user("train")
        for items in train_items:
            assert np.all(np.diff(items) > 0) or items.size <= 1
        np.testing.assert_array_equal(train_items[0], sorted([0, 1]))
        np.testing.assert_array_equal(per_user("val")[2], [0])
        test_items = per_user("test")
        np.testing.assert_array_equal(test_items[0], [2])
        np.testing.assert_array_equal(test_items[1], [1])
        assert test_items[2].size == 0
