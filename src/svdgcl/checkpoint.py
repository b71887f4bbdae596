"""Binary checkpoints: embedding tables, optimizer moments, RNG state.

Layout, all little-endian: 4 magic bytes "LGCL", u32 format version, five
u64 dims (users, items, embed_dim, layers, svd_rank), the six f64 tables
row-major (e_user, e_item, then first/second moments in the same order),
u64 optimizer step, u64 word count plus that many u64 RNG words, and a
length-prefixed UTF-8 config digest. Round-trips are bit-exact. A save
renames an fsynced temp file over its target, then fsyncs the directory.
"""
from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .model import ModelState
from .optim import OptimizerState

MAGIC = b"LGCL"
VERSION = 1

_RNG_WORDS = 13


def _pack_rng(gen: np.random.Generator) -> np.ndarray:
    st = gen.bit_generator.state
    if st.get("bit_generator") != "Philox":
        raise ValueError("only Philox generator state is supported")
    words = np.empty(_RNG_WORDS, dtype="<u8")
    words[0:4] = st["state"]["counter"]
    words[4:6] = st["state"]["key"]
    words[6:10] = st["buffer"]
    words[10] = st["buffer_pos"]
    words[11] = st["has_uint32"]
    words[12] = st["uinteger"]
    return words


def _unpack_rng(words: np.ndarray) -> np.random.Generator:
    bg = np.random.Philox()
    st = bg.state
    st["state"]["counter"] = words[0:4].astype(np.uint64)
    st["state"]["key"] = words[4:6].astype(np.uint64)
    st["buffer"] = words[6:10].astype(np.uint64)
    st["buffer_pos"] = int(words[10])
    st["has_uint32"] = int(words[11])
    st["uinteger"] = int(words[12])
    bg.state = st
    return np.random.Generator(bg)


@dataclass
class Checkpoint:
    """A deserialized training snapshot."""

    state: ModelState
    opt: OptimizerState
    step: int
    svd_rank: int
    config_digest: str


def save_checkpoint(path, state: ModelState, opt: OptimizerState, svd_rank: int, config_digest: str):
    digest_bytes = config_digest.encode("utf-8")
    m, k = state.e_user.shape
    n = state.e_item.shape[0]
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<5Q", m, n, k, state.layers, svd_rank))
            for table in (state.e_user, state.e_item, opt.m_user, opt.v_user, opt.m_item, opt.v_item):
                fh.write(np.ascontiguousarray(table, dtype="<f8").tobytes())
            fh.write(struct.pack("<Q", opt.step))
            fh.write(struct.pack("<Q", _RNG_WORDS))
            fh.write(_pack_rng(state.rng).tobytes())
            fh.write(struct.pack("<Q", len(digest_bytes)))
            fh.write(digest_bytes)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        try:  # then the rename: fsync the directory, where the OS can open one
            dir_fd = os.open(Path(path).parent, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    finally:
        Path(tmp).unlink(missing_ok=True)


def load_checkpoint(path) -> Checkpoint:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    view = memoryview(blob)
    off = 0

    def take(size: int) -> memoryview:
        nonlocal off
        if off + size > len(blob):
            raise DataError(f"checkpoint {path} is truncated at byte {off}")
        chunk = view[off : off + size]
        off += size
        return chunk

    if bytes(take(4)) != MAGIC:
        raise DataError(f"{path} is not a checkpoint: bad magic")
    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    m, n, k, layers, svd_rank = struct.unpack("<5Q", take(40))

    def table(rows: int) -> np.ndarray:
        raw = take(rows * k * 8)
        return np.frombuffer(raw, dtype="<f8").reshape(rows, k).copy()

    e_user = table(m)
    e_item = table(n)
    m_user = table(m)
    v_user = table(m)
    m_item = table(n)
    v_item = table(n)
    (step,) = struct.unpack("<Q", take(8))
    (words,) = struct.unpack("<Q", take(8))
    if words != _RNG_WORDS:
        raise DataError(f"unexpected RNG state size {words}")
    try:
        rng = _unpack_rng(np.frombuffer(take(words * 8), dtype="<u8"))
    except OverflowError as exc:
        raise DataError(f"checkpoint {path} holds an invalid RNG state: {exc}") from exc
    (digest_len,) = struct.unpack("<Q", take(8))
    try:
        digest = bytes(take(digest_len)).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"checkpoint {path} has a config digest that is not UTF-8: {exc}") from exc
    if off != len(blob):
        raise DataError(f"checkpoint {path} has {len(blob) - off} trailing bytes")

    state = ModelState(
        e_user=e_user,
        e_item=e_item,
        layers=int(layers),
        embed_dim=int(k),
        rng=rng,
    )
    opt = OptimizerState(
        m_user=m_user,
        v_user=v_user,
        m_item=m_item,
        v_item=v_item,
        step=int(step),
    )
    return Checkpoint(state=state, opt=opt, step=int(step), svd_rank=int(svd_rank), config_digest=digest)
