"""Binary checkpoints: embedding tables, optimizer moments, RNG state.

Layout, all little-endian: 4 magic bytes "LGCL", u32 format version, five
u64 dims (users, items, embed_dim, layers, svd_rank), the six f64 tables
row-major (e_user, e_item, then first/second moments in the same order),
u64 optimizer step, u64 word count plus that many u64 Philox words
(counter[4], key[2], buffer[4], buffer_pos, has_uint32, uinteger), and a
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

_HEAD = struct.Struct("<4sI5Q")
# (owner, field, rows) of each table, in file order
_TABLES = (
    ("state", "e_user", "users"), ("state", "e_item", "items"),
    ("opt", "m_user", "users"), ("opt", "v_user", "users"),
    ("opt", "m_item", "items"), ("opt", "v_item", "items"),
)
_RNG_WORDS = 13


def _pack_rng(gen: np.random.Generator) -> np.ndarray:
    st = gen.bit_generator.state
    if st.get("bit_generator") != "Philox":
        raise ValueError("only Philox generator state is supported")
    return np.array(
        [*st["state"]["counter"], *st["state"]["key"], *st["buffer"], st["buffer_pos"], st["has_uint32"], st["uinteger"]],
        dtype="<u8",
    )


def _unpack_rng(words: np.ndarray) -> np.random.Generator:
    bg = np.random.Philox()
    bg.state = {
        "bit_generator": "Philox",
        "state": {"counter": words[0:4].astype(np.uint64), "key": words[4:6].astype(np.uint64)},
        "buffer": words[6:10].astype(np.uint64),
        "buffer_pos": int(words[10]),
        "has_uint32": int(words[11]),
        "uinteger": int(words[12]),
    }
    return np.random.Generator(bg)


@dataclass
class Checkpoint:
    """A deserialized training snapshot."""

    state: ModelState
    opt: OptimizerState
    svd_rank: int
    config_digest: str


def save_checkpoint(path, state: ModelState, opt: OptimizerState, svd_rank: int, config_digest: str):
    digest_bytes = config_digest.encode("utf-8")
    m, k = state.e_user.shape
    owners = {"state": state, "opt": opt}
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEAD.pack(MAGIC, VERSION, m, state.e_item.shape[0], k, state.layers, svd_rank))
            for owner, name, _ in _TABLES:
                fh.write(np.ascontiguousarray(getattr(owners[owner], name), dtype="<f8").tobytes())
            fh.write(struct.pack("<2Q", opt.step, _RNG_WORDS))
            fh.write(_pack_rng(state.rng).tobytes())
            fh.write(struct.pack("<Q", len(digest_bytes)) + digest_bytes)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        try:  # not every OS can open a directory
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
    _, version, m, n, k, layers, svd_rank = _HEAD.unpack(MAGIC + take(_HEAD.size - 4))
    if version != VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    rows = {"users": m, "items": n}
    tables: dict = {"state": {}, "opt": {}}
    for owner, name, side in _TABLES:
        raw = take(rows[side] * k * 8)
        tables[owner][name] = np.frombuffer(raw, dtype="<f8").reshape(rows[side], k).copy()
    step, words = struct.unpack("<2Q", take(16))
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
    return Checkpoint(
        state=ModelState(**tables["state"], layers=int(layers), embed_dim=int(k), rng=rng),
        opt=OptimizerState(**tables["opt"], step=int(step)),
        svd_rank=int(svd_rank),
        config_digest=digest,
    )
