"""Deterministic stream derivation for reproducible (parallel) simulation.

Every random quantity in the package is drawn from a counter-based Philox
generator whose key is derived by hashing a root seed together with an
integer path (replication index, attempt number, ...).  Streams for
distinct paths are statistically independent, and results depend only on
(seed, path), never on thread or process layout.

A block of rows keyed (seed, r, attempt) for many r need not build one
generator per row: _row_keys derives all their keys, however long, in one
vectorized pass, and _row_streams rewinds one generator to each key in
turn by setting numpy's public bit_generator.state from Python ints.  Both
give exactly the draws stream(seed, r, attempt) gives.  Nor need each row
call Generator.integers for its resampling indices: _bounded_indices
computes integers' values from the rows' raw words in one pass over the
block, and flags the rare rows integers itself must draw.  _row_keys and
_bounded_indices replicate numpy (its SeedSequence hash and its bounded
integer rule) only for these per-row keys.
"""
from __future__ import annotations

import functools
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
    return Generator(Philox(SeedSequence(entropy=tuple(map(_key_part, (seed, *path))))))


def _key_part(value: int) -> int:
    """A seed or path entry as an int; SeedSequence takes only non-negative ones."""
    value = int(value)
    if value < 0:
        raise ValueError(f"a stream's seed and path must be non-negative, got {value}")
    return value


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) with its
# default pool of four 32-bit words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_POOL = 4


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The xor and the multiply constants of the first count hashmix calls
    from the hash constant init, shaped (2, count, 1) to broadcast over rows."""
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array([chain[:-1], chain[1:]], dtype=np.uint32)[:, :, None]


_FILL = tuple(_hash_constants(_INIT_A, _MULT_A, _POOL))
_OUTPUT = tuple(_hash_constants(_INIT_B, _MULT_B, _POOL))


@functools.cache
def _steps(length: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The hashmix constants of each mixing step for an entropy of length
    words.  Calls 0-3 of the chain (_FILL) hash the entropy into the pool.
    Step p < 4 is calls 4 + 3p + (0, 1, 2), which mix pool word p into the
    other three, given with a zero constant at row p, whose result is
    discarded; step p >= 4 is calls 4p + (0, 1, 2, 3), which mix entropy
    word p into each pool word."""
    chain = _hash_constants(_INIT_A, _MULT_A, _POOL * max(length, _POOL))[:, _POOL:]
    table = np.insert(chain, np.arange(0, _POOL * _POOL, _POOL), 0, axis=1)
    return [tuple(step) for step in table.reshape(2, -1, _POOL, 1).swapaxes(0, 1)]


def _words(value: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence splits an entropy int into."""
    value = _key_part(value)
    return [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _hashmix(value: np.ndarray, consts: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    value = (value ^ consts[0]) * consts[1]
    return value ^ (value >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> _SHIFT)


def _keys(head: list[int], index: list[np.ndarray], tail: list[int]) -> np.ndarray:
    """SeedSequence(entropy=head + index + tail).generate_state(2, np.uint64)
    for each key, where index holds int64 arrays of one word per key and
    head and tail the words every key shares."""
    words = head + index + tail
    entropy = np.zeros((max(len(words), _POOL), index[0].size), dtype=np.uint32)
    for i, word in enumerate(words):
        entropy[i] = word
    pool = _hashmix(entropy[:_POOL], _FILL)
    for p, consts in enumerate(_steps(len(words))):
        source = pool[p] if p < _POOL else entropy[p]
        mixed = _mix(pool, _hashmix(source, consts))
        if p < _POOL:
            mixed[p] = source
        pool = mixed
    state = _hashmix(pool, _OUTPUT)
    # generate_state(2, np.uint64) reads the 32-bit words as little-endian pairs
    return np.ascontiguousarray(state.T).astype("<u4").view("<u8").astype(np.uint64)


def _row_keys(seed: int, rows: np.ndarray, attempt: int) -> np.ndarray:
    """The Philox keys of stream(seed, r, attempt) for each r in rows.

    Row i of the (rows, 2) uint64 result is
    SeedSequence(entropy=(seed, rows[i], attempt)).generate_state(2, np.uint64),
    for a seed, row and attempt of any size, in one pass.  The hash runs
    on uint32 arrays with one column per row: every operand is an array,
    since numpy warns when a uint32 scalar product wraps, and the hashmix
    calls of one mixing step are one broadcast op.  A row of 2^32 or more
    is two entropy words, which moves the attempt's words, so those rows
    are a second group, hashed by a second run of the pass.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    head, tail = _words(seed), _words(attempt)
    high = rows >> 32
    if not high.any():
        return _keys(head, [rows], tail)
    _key_part(rows.min())  # refuses a negative row, whose high word is nonzero
    wide = high != 0
    keys = np.empty((rows.size, 2), dtype=np.uint64)
    keys[~wide] = _keys(head, [rows[~wide]], tail)
    keys[wide] = _keys(head, [rows[wide] & _MASK32, high[wide]], tail)
    return keys


def _row_streams(gen: Generator, keys: np.ndarray) -> Iterator[Generator]:
    """gen, rewound in turn to the start of the stream of each row of keys.

    gen's Philox is given the key with counter 0, an empty buffer and no
    cached 32-bit half, which is the state Philox takes from a
    SeedSequence.  Every row gets the same Generator object, so draw a
    row's values before advancing to the next row.  A rewind sets the public
    bit_generator.state from one reused dict of Python ints, since the setter
    reads each entry by index, which on a uint64 array builds a numpy scalar.
    """
    bitgen = gen.bit_generator
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": None},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key in keys.tolist():
        state["state"]["key"] = key
        bitgen.state = state
        yield gen


def _bounded_indices(words: np.ndarray, n: int, m: int,
                     out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's Generator.integers(0, n, size=m), computed from raw words
    into out (a C-contiguous int64 array of rows x m), and a mask of the
    rows whose values these are not.

    Row i of words is random_raw(ceil(m / 2)) of a Philox generator with
    no cached 32-bit half.  integers(0, n) with 2 <= n <= 2^32 reads one
    32-bit half per value, the low half of each word first, and maps half
    u to (u * n) >> 32, but rejects u and reads the next half when
    (u * n) mod 2^32 < 2^32 mod n (Lemire's rule, numpy's 32-bit branch).
    A row holding such a half among its first m is flagged, and must be
    drawn by integers itself; so is every row for n outside [2, 2^32].
    """
    if not 2 <= n <= 1 << 32:
        return out, np.ones(words.shape[0], dtype=bool)
    halves = np.ascontiguousarray(words, dtype="<u8").view("<u4")[:, :m]
    # dtype names the uint64 loop: numpy < 2 would pick the uint32 one for a small n
    scaled = np.multiply(halves, np.uint64(n), out=out.view(np.uint64), dtype=np.uint64)
    flagged = (scaled.astype(np.uint32) < (1 << 32) % n).any(axis=1)
    scaled >>= np.uint64(32)
    return scaled.view(np.int64), flagged
