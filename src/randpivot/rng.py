"""Deterministic stream derivation for reproducible (parallel) simulation.

Every random quantity in the package is drawn from a counter-based Philox
generator whose key is derived by hashing a root seed together with an
integer path (replication index, attempt number, ...).  Streams for
distinct paths are statistically independent, and results depend only on
(seed, path), never on thread or process layout.

A block of rows keyed (seed, r, *tail) for many r need not build one
generator per row: _row_keys derives all their keys in one vectorized
pass, and _row_streams rewinds one generator to each key in turn.  Both
give exactly the draws stream(seed, r, *tail) gives.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

__all__ = ["stream"]


def stream(seed: int, *path: int) -> Generator:
    """Return the generator for the stream identified by (seed, *path).

    The same arguments always produce a generator in the same state, so a
    replication keyed by its index gives bitwise-identical draws no matter
    how replications are partitioned over workers.
    """
    return Generator(Philox(SeedSequence(entropy=(int(seed), *map(int, path)))))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) with its
# default pool of four 32-bit words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_POOL = 4


def _hash_constants(init: int, mult: int, count: int) -> tuple[list[int], list[int]]:
    """The xor and the multiply constants of the first count hashmix
    calls from the hash constant init."""
    xor, mul, h = [], [], init
    for _ in range(count):
        xor.append(h)
        h = h * mult & _MASK32
        mul.append(h)
    return xor, mul


def _column(values: list[int]) -> np.ndarray:
    """values shaped (len, 1), to broadcast over rows."""
    return np.array(values, dtype=np.uint32)[:, None]


_A = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL)
# Calls 0-3 hash the entropy into the pool; calls 4 + 3s + (0, 1, 2) mix
# pool word s into the other three, given here with a zero constant at
# row s, whose result is discarded.
_FILL = tuple(_column(c[:_POOL]) for c in _A)
_SPREAD = [tuple(_column(c[k:k + s] + [0] + c[k + s:k + _POOL - 1]) for c in _A)
           for s, k in ((s, _POOL + s * (_POOL - 1)) for s in range(_POOL))]
_OUTPUT = tuple(_column(c) for c in _hash_constants(_INIT_B, _MULT_B, _POOL))


def _words(value: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence splits an entropy int into."""
    value = int(value)
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hashmix(value: np.ndarray, consts: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    value = (value ^ consts[0]) * consts[1]
    return value ^ (value >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> _SHIFT)


def _row_keys(seed: int, rows: np.ndarray, *tail: int) -> np.ndarray:
    """The Philox keys of stream(seed, r, *tail) for each r in rows.

    Row i of the (rows, 2) uint64 result is
    SeedSequence(entropy=(seed, rows[i], *tail)).generate_state(2, np.uint64).
    The hash runs on uint32 arrays with one column per row, so its
    wrap-around arithmetic is numpy's silent array overflow, and the three
    hashmix calls that mix one pool word into the others are one
    broadcast op.  Row indices outside [0, 2^32) (not one entropy word)
    and keys of more than four entropy words (a seed of 2^64 or more, or a
    long tail) go through SeedSequence itself.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    entropy = _words(seed) + [None] + [w for t in tail for w in _words(t)]
    if len(entropy) > _POOL or np.any(rows >> 32):
        return np.array([SeedSequence(entropy=(int(seed), int(r), *map(int, tail)))
                         .generate_state(2, np.uint64) for r in rows],
                        dtype=np.uint64).reshape(-1, 2)
    index = rows.astype(np.uint32)
    pool = np.zeros((_POOL, rows.size), dtype=np.uint32)
    for i, word in enumerate(entropy):
        pool[i] = index if word is None else word
    pool = _hashmix(pool, _FILL)
    for s, consts in enumerate(_SPREAD):
        mixed = _mix(pool, _hashmix(pool[s], consts))
        mixed[s] = pool[s]
        pool = mixed
    state = _hashmix(pool, _OUTPUT)
    # generate_state(2, np.uint64) reads the 32-bit words as little-endian pairs
    return np.ascontiguousarray(state.T).astype("<u4").view("<u8").astype(np.uint64)


def _row_streams(seed: int, rows: np.ndarray, *tail: int) -> Iterator[Generator]:
    """For each r in rows, a generator in the state stream(seed, r, *tail) starts in.

    One Philox generator is rewound to each row's key with counter 0, an
    empty buffer and no cached 32-bit half, which is the state Philox
    takes from a SeedSequence.  Every row gets the same Generator object,
    so draw a row's values before advancing to the next row.
    """
    bitgen = Philox(key=0)
    gen = Generator(bitgen)
    zeros = np.zeros(4, dtype=np.uint64)
    for key in _row_keys(seed, rows, *tail):
        bitgen.state = {"bit_generator": "Philox",
                        "state": {"counter": zeros, "key": key},
                        "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        yield gen
