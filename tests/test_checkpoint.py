"""Binary snapshot format: bit-exact round trips and corruption handling."""

import os
import stat
import struct

import numpy as np
import pytest

from svdgcl import checkpoint
from svdgcl.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from svdgcl.errors import DataError
from svdgcl.model import HyperParams, init_model
from svdgcl.optim import adam_step, init_optimizer
from tests.util import tiny_dataset


def fresh(seed=3, k=6):
    ds = tiny_dataset()
    state = init_model(ds, HyperParams(embed_dim=k, layers=2, seed=seed))
    opt = init_optimizer(state)
    rng = np.random.default_rng(seed)
    for _ in range(4):
        adam_step(
            state,
            opt,
            rng.standard_normal(state.e_user.shape),
            rng.standard_normal(state.e_item.shape),
            lr=0.01,
        )
    state.rng.random(17)  # advance so the stream position is non-trivial
    return state, opt


class TestRoundTrip:
    def test_everything_restored_bit_exact(self, tmp_path):
        state, opt = fresh()
        path = tmp_path / "snap.ckpt"
        save_checkpoint(path, state, opt, svd_rank=4, config_digest="abc123")
        ck = load_checkpoint(path)
        for got, want in (
            (ck.state.e_user, state.e_user),
            (ck.state.e_item, state.e_item),
            (ck.opt.m_user, opt.m_user),
            (ck.opt.v_user, opt.v_user),
            (ck.opt.m_item, opt.m_item),
            (ck.opt.v_item, opt.v_item),
        ):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == np.float64
        assert ck.opt.step == opt.step
        assert ck.svd_rank == 4
        assert ck.config_digest == "abc123"
        assert ck.state.layers == state.layers
        assert ck.state.embed_dim == state.embed_dim

    def test_rng_stream_resumes_in_lockstep(self, tmp_path):
        state, opt = fresh()
        path = tmp_path / "snap.ckpt"
        save_checkpoint(path, state, opt, svd_rank=2, config_digest="d")
        ck = load_checkpoint(path)
        np.testing.assert_array_equal(state.rng.random(32), ck.state.rng.random(32))
        np.testing.assert_array_equal(
            state.rng.integers(0, 1000, 16), ck.state.rng.integers(0, 1000, 16)
        )

    def test_file_bytes_are_deterministic(self, tmp_path):
        s1, o1 = fresh(seed=9)
        s2, o2 = fresh(seed=9)
        save_checkpoint(tmp_path / "a.ckpt", s1, o1, 3, "z")
        save_checkpoint(tmp_path / "b.ckpt", s2, o2, 3, "z")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_resave_after_load_is_identical(self, tmp_path):
        state, opt = fresh()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, state, opt, 5, "cfg")
        ck = load_checkpoint(p1)
        save_checkpoint(p2, ck.state, ck.opt, ck.svd_rank, ck.config_digest)
        assert p1.read_bytes() == p2.read_bytes()


def philox_words(gen):
    """counter[4], key[2], buffer[4], buffer_pos, has_uint32, uinteger"""
    st = gen.bit_generator.state
    assert st["bit_generator"] == "Philox"
    head = [*st["state"]["counter"], *st["state"]["key"], *st["buffer"]]
    return [int(w) for w in head] + [st["buffer_pos"], st["has_uint32"], st["uinteger"]]


def test_layout_matches_the_docstring(tmp_path):
    # the expected bytes follow the module docstring field by field
    state, opt = fresh(k=2)
    path = tmp_path / "snap.ckpt"
    save_checkpoint(path, state, opt, svd_rank=4, config_digest="abc123")
    m, n = state.e_user.shape[0], state.e_item.shape[0]
    words = philox_words(state.rng)
    tables = (state.e_user, state.e_item, opt.m_user, opt.v_user, opt.m_item, opt.v_item)
    want = b"".join([
        b"LGCL",
        struct.pack("<I", 1),
        struct.pack("<5Q", m, n, 2, state.layers, 4),
        *(struct.pack(f"<{t.size}d", *t.ravel()) for t in tables),
        struct.pack("<Q", opt.step),
        struct.pack("<Q", 13),
        struct.pack("<13Q", *words),
        struct.pack("<Q", 6),
        b"abc123",
    ])
    blob = path.read_bytes()
    assert blob == want
    ck = load_checkpoint(path)
    got = (ck.state.e_user, ck.state.e_item, ck.opt.m_user, ck.opt.v_user, ck.opt.m_item, ck.opt.v_item)
    for table, expected in zip(got, tables):
        np.testing.assert_array_equal(table, expected)
        assert table.dtype == np.float64 and table.flags.writeable
    assert (ck.state.layers, ck.state.embed_dim, ck.opt.step) == (state.layers, 2, opt.step)
    assert (ck.svd_rank, ck.config_digest) == (4, "abc123")
    assert philox_words(ck.state.rng) == words


class TestAtomicSave:
    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_interrupted_save_keeps_the_previous_file(self, tmp_path, monkeypatch, error):
        state, opt = fresh()
        path = tmp_path / "best.ckpt"
        save_checkpoint(path, state, opt, svd_rank=4, config_digest="first")
        before = path.read_bytes()
        later, later_opt = fresh(seed=4)

        def interrupted(gen):
            raise error("interrupted")

        # the RNG words are packed after the six tables have been written
        monkeypatch.setattr(checkpoint, "_pack_rng", interrupted)
        with pytest.raises(error, match="interrupted"):
            save_checkpoint(path, later, later_opt, svd_rank=4, config_digest="second")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]
        assert load_checkpoint(path).config_digest == "first"

    def test_second_save_replaces_the_first_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "best.ckpt"
        save_checkpoint(path, *fresh(seed=3), svd_rank=4, config_digest="first")
        state, opt = fresh(seed=4)
        save_checkpoint(str(path), state, opt, svd_rank=4, config_digest="second")
        assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]
        ck = load_checkpoint(path)
        assert ck.config_digest == "second"
        np.testing.assert_array_equal(ck.state.e_user, state.e_user)

    def test_directory_is_fsynced_after_the_rename(self, tmp_path, monkeypatch):
        path = tmp_path / "best.ckpt"
        save_checkpoint(path, *fresh(seed=3), svd_rank=4, config_digest="first")
        real_fsync = os.fsync
        synced = []

        def spy(fd):
            # what the descriptor is, and which save the path holds at the time
            synced.append((stat.S_ISDIR(os.fstat(fd).st_mode), load_checkpoint(path).config_digest))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        save_checkpoint(path, *fresh(seed=4), svd_rank=4, config_digest="second")
        # the temp file before the rename, the directory after it
        assert synced == [(False, "first"), (True, "second")]


class TestCorruption:
    def make(self, tmp_path):
        state, opt = fresh()
        path = tmp_path / "snap.ckpt"
        save_checkpoint(path, state, opt, svd_rank=4, config_digest="abc123")
        return path

    def test_truncation_at_many_offsets(self, tmp_path):
        path = self.make(tmp_path)
        blob = path.read_bytes()
        bad = tmp_path / "cut.ckpt"
        for cut in (0, 3, 4, 7, 8, 40, 100, len(blob) // 2, len(blob) - 1):
            bad.write_bytes(blob[:cut])
            with pytest.raises(DataError):
                load_checkpoint(bad)

    def test_every_byte_overwrite_and_truncation_loads_or_is_a_data_error(self, tmp_path):
        # 614 bytes: 8 users, 10 items, 1-dim tables, a 6-byte digest
        state, opt = fresh(k=1)
        path = tmp_path / "small.ckpt"
        save_checkpoint(path, state, opt, svd_rank=4, config_digest="abc123")
        blob = path.read_bytes()
        bad = tmp_path / "bad.ckpt"
        outcomes = {"loaded": 0, "rejected": 0}
        for pos in range(len(blob)):
            for value in (0x00, 0xFF, 0x80, 0x7F):
                bad.write_bytes(blob[:pos] + bytes([value]) + blob[pos + 1 :])
                try:
                    load_checkpoint(bad)
                    outcomes["loaded"] += 1
                except DataError:
                    outcomes["rejected"] += 1
        for cut in range(len(blob)):
            bad.write_bytes(blob[:cut])
            with pytest.raises(DataError, match="truncated|bad magic"):
                load_checkpoint(bad)
        # table bytes are free-form floats; header, RNG and digest bytes are checked
        assert outcomes["loaded"] > 0 and outcomes["rejected"] > 0

    def test_invalid_rng_word_and_digest_are_data_errors(self, tmp_path):
        path = self.make(tmp_path)
        blob = path.read_bytes()
        digest_at = len(blob) - len("abc123")
        rng_at = digest_at - 8 - 13 * 8
        bad = tmp_path / "bad.ckpt"
        # has_uint32 (word 11) must fit a C int
        bad.write_bytes(blob[: rng_at + 11 * 8] + b"\xff" * 8 + blob[rng_at + 12 * 8 :])
        with pytest.raises(DataError, match="invalid RNG state") as err:
            load_checkpoint(bad)
        assert str(bad) in str(err.value)
        bad.write_bytes(blob[:digest_at] + b"\xff" + blob[digest_at + 1 :])
        with pytest.raises(DataError, match="not UTF-8") as err:
            load_checkpoint(bad)
        assert str(bad) in str(err.value)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = self.make(tmp_path)
        bad = tmp_path / "fat.ckpt"
        bad.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DataError, match="trailing"):
            load_checkpoint(bad)

    def test_bad_magic_rejected(self, tmp_path):
        path = self.make(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        bad = tmp_path / "magic.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(bad)

    def test_unknown_version_rejected(self, tmp_path):
        path = self.make(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        bad = tmp_path / "ver.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="version"):
            load_checkpoint(bad)

    def test_missing_file_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_magic_constant_value(self):
        # the on-disk tag is a format contract, not a free choice
        assert MAGIC == b"LGCL"
