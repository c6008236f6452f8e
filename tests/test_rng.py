"""Tests for stream keying: the vectorized row keys and the rewound generator."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox, SeedSequence

import randpivot.rng as rng
from randpivot.mc import _FAMILIES, gen_sample, parse_dist
from randpivot.weights import draw_indices

# One valid parameter set per sampling family, so every sampler is covered.
FAMILY_SPECS = {"binomial": "binomial:10,0.3", "poisson": "poisson:1.5",
                "lognormal": "lognormal:0.2,0.7", "lognormal_std": "lognormal_std:0,1",
                "exponential": "exponential:2", "normal": "normal:1,3",
                "beta": "beta:2,5", "uniform": "uniform:-1,4"}


def _reference_keys(seed, rows, attempt):
    return np.array([SeedSequence(entropy=(seed, r, attempt)).generate_state(2, np.uint64)
                     for r in rows], dtype=np.uint64).reshape(-1, 2)


def test_every_family_has_a_spec():
    assert set(FAMILY_SPECS) == set(_FAMILIES)


class TestRowKeys:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**200),
           rows=st.lists(st.integers(0, 2**32 - 1), max_size=24),
           big=st.lists(st.integers(2**32, 2**62), max_size=2),
           attempt=st.integers(0, 2**70))
    @example(seed=0, rows=list(range(10)), big=[], attempt=0)  # every study's first draw
    @example(seed=2**32 - 1, rows=[2**32 - 1] * 5, big=[2**32], attempt=2**32 - 1)
    @example(seed=2**64 + 3, rows=list(range(2**32 - 6, 2**32)), big=[], attempt=7)
    @example(seed=2**96, rows=[0, 2**32 - 1, 7], big=[2**32, 2**62], attempt=3)
    @example(seed=2**200 + 1, rows=[2**32 - 1, 1], big=[2**40], attempt=2**70)
    def test_keys_equal_seed_sequence(self, seed, rows, big, attempt):
        # every key, however many words, takes the one vectorized pass; a
        # block that mixes rows below and above 2^32 hashes each word
        # count as its own group, in the block's order
        for block in (rows, rows + big, big + rows):
            got = rng._row_keys(seed, np.array(block, dtype=np.int64), attempt)
            assert got.dtype == np.uint64 and got.shape == (len(block), 2)
            assert got.tobytes() == _reference_keys(seed, block, attempt).tobytes()

    def test_no_key_takes_seed_sequence(self, monkeypatch):
        cases = [(0, [0], 0), (7, [2**32 - 1], 99), (2**96, [5], 2**32),
                 (2**200 + 1, [3, 2**40, 9], 2**70)]
        want = [_reference_keys(seed, rows, attempt) for seed, rows, attempt in cases]
        monkeypatch.setattr(rng, "SeedSequence", None)  # no key, however long, needs it
        for (seed, rows, attempt), keys in zip(cases, want):
            got = rng._row_keys(seed, np.array(rows, dtype=np.int64), attempt)
            assert got.tobytes() == keys.tobytes(), (seed, rows, attempt)

    def test_negative_entries_rejected_like_seed_sequence(self):
        # stream and the row keys refuse a negative entry with one message
        message = "a stream's seed and path must be non-negative, got -1"
        for seed, rows, attempt in [(-1, np.arange(10), 0), (3, np.array([-1] + [0] * 9), 0),
                                    (3, np.arange(4), -1)]:
            with pytest.raises(ValueError, match=message):
                rng._row_keys(seed, rows, attempt)
        for key in [(-1,), (3, -1), (3, 0, -1)]:
            with pytest.raises(ValueError, match=message):
                rng.stream(*key)


class TestRowStreams:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**70), first=st.integers(0, 2**33),
           count=st.integers(1, 12), attempt=st.integers(0, 2**33),
           n=st.integers(1, 30), m=st.integers(1, 40))
    def test_rewound_draws_equal_stream(self, seed, first, count, attempt, n, m):
        rows = np.arange(first, first + count)
        for family, spec in FAMILY_SPECS.items():
            d = parse_dist(spec)
            for r, gen in zip(rows.tolist(), rng._row_streams(
                    rng.stream(0), rng._row_keys(seed, rows, attempt))):
                want = rng.stream(seed, r, attempt)
                assert gen_sample(d, n, gen).tobytes() == gen_sample(d, n, want).tobytes(), family
                assert draw_indices(n, m, gen).tobytes() == draw_indices(n, m, want).tobytes()
                # a draw that leaves a cached 32-bit half must not leak into the next row
                assert gen.integers(0, 7, 3, dtype=np.int32).tobytes() == \
                    want.integers(0, 7, 3, dtype=np.int32).tobytes()


def test_rewind_to_edge_keys_from_a_used_state():
    # keys at uint64's extremes and top bit pass intact through the rewind's
    # Python ints, and a rewind drops a cached 32-bit half and a part-used
    # buffer left by the previous row's draws
    drawn = rng.stream(3)
    drawn.integers(0, 7, dtype=np.int32)  # one half of the buffer's first word
    used = drawn.bit_generator.state
    assert used["has_uint32"] == 1 and used["buffer_pos"] == 1
    keys = [(0, 0), (2**63, 1), (2**64 - 1, 2**64 - 1)]
    cases = [(key, spec) for key in keys for spec in FAMILY_SPECS.values()]
    gen = rng.stream(0)
    rewound = rng._row_streams(gen, np.array([key for key, _ in cases], dtype=np.uint64))
    for key, spec in cases:
        gen.bit_generator.state = used
        assert next(rewound) is gen
        want = Generator(Philox(key=np.array(key, dtype=np.uint64)))
        d = parse_dist(spec)
        assert gen_sample(d, 7, gen).tobytes() == gen_sample(d, 7, want).tobytes(), (key, spec)
        # n = 8 rejects no 32-bit half, so a stale cached half, even 0, would show
        assert draw_indices(8, 9, gen).tobytes() == draw_indices(8, 9, want).tobytes()
        assert gen.bit_generator.random_raw(5).tolist() == \
            want.bit_generator.random_raw(5).tolist()


def test_a_zero_last_path_entry_is_the_pools_padding():
    # SeedSequence pads its pool of four 32-bit words with zero words, so a
    # last path entry 0 names the stream without it while the seed and the
    # index fill at most three words; a seed of 2^64 fills three alone.  So
    # below seed 2^64 a unit's first draw, stream(seed, u, 0), is stream(seed, u)
    def first_words(*key):
        return rng.stream(*key).bit_generator.random_raw(4).tolist()

    for seed in (0, 7, 2**32 - 1, 2**40 + 3, 2**64 - 1):
        for u in (0, 5, 2**32 - 1):
            assert first_words(seed, u, 0) == first_words(seed, u), (seed, u)
    for u in (0, 5):
        assert first_words(2**64 + 5, u, 0) != first_words(2**64 + 5, u)


# Ranges of every kind integers(0, n) draws from with 32-bit halves: the
# smallest, powers of two (no rejection), 2^31 + 1 (rejects about half
# of all halves), 2^32 - 1 and 2^32 (integers returns the half itself).
EDGE_N = [2, 3, 2**31 + 1, 2**32 - 1, 2**32]


class TestBoundedIndices:
    @settings(max_examples=80, deadline=None)
    @given(keys=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8),
           n=st.one_of(st.sampled_from(EDGE_N), st.integers(1, 32).map(lambda b: 2**b),
                       st.integers(2, 2**32)),
           m=st.integers(1, 41))
    @example(keys=list(range(8)), n=2**31 + 1, m=1)
    @example(keys=list(range(8)), n=2**31 + 1, m=6)
    @example(keys=list(range(8)), n=2**32, m=7)
    def test_unflagged_rows_are_integers_values(self, keys, n, m):
        words = np.array([Philox(key=k).random_raw((m + 1) // 2) for k in keys],
                         dtype=np.uint64).reshape(len(keys), -1)
        got, flagged = rng._bounded_indices(words, n, m, np.empty((len(keys), m), np.int64))
        want = np.array([Generator(Philox(key=k)).integers(0, n, size=m) for k in keys])
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got[~flagged], want[~flagged])
        assert flagged[(got != want).any(axis=1)].all()
        if n & (n - 1) == 0:  # 2^32 mod n is 0: nothing is rejected
            assert not flagged.any()

    def test_half_rejected_rows_flagged(self):
        # at n = 2^31 + 1 a half is rejected with probability about 1/2, so
        # about 3 in 4 rows of two halves are flagged; the others are integers'
        words = np.array([Philox(key=k).random_raw(1) for k in range(64)], dtype=np.uint64)
        got, flagged = rng._bounded_indices(words, 2**31 + 1, 2, np.empty((64, 2), np.int64))
        assert 32 <= flagged.sum() < 64
        for k in np.flatnonzero(~flagged):
            want = Generator(Philox(key=int(k))).integers(0, 2**31 + 1, size=2)
            assert np.array_equal(got[k], want)

    @pytest.mark.parametrize("n", [1, 2**32 + 1, 2**40])
    def test_rows_outside_the_32_bit_branch_all_flagged(self, n):
        words = np.arange(12, dtype=np.uint64).reshape(3, 4)
        assert rng._bounded_indices(words, n, 7, np.empty((3, 7), np.int64))[1].all()


# Specs that reach the samplers' other branches: binomial's BTPE, Poisson's
# PTRS and Johnk's beta for parameters below 1.
BRANCH_SPECS = ["binomial:100,0.6", "poisson:40", "beta:0.5,0.5"]


@pytest.mark.parametrize("spec", [*FAMILY_SPECS.values(), *BRANCH_SPECS])
def test_samplers_leave_no_cached_half(spec):
    # a row's indices are read from whole raw words after its sample, so the
    # sample must not leave half a word cached for integers to read first
    d = parse_dist(spec)
    for n in (1, 2, 5, 20, 101):
        for seed in range(4):
            gen = rng.stream(seed, n)
            gen_sample(d, n, gen)
            assert gen.bit_generator.state["has_uint32"] == 0
