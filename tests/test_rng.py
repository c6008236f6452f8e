"""Tests for stream keying: the vectorized row keys and the rewound generator."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import SeedSequence

import randpivot.rng as rng
from randpivot.mc import _FAMILIES, gen_sample, parse_dist
from randpivot.weights import draw_indices

# One valid parameter set per sampling family, so every sampler is covered.
FAMILY_SPECS = {"binomial": "binomial:10,0.3", "poisson": "poisson:1.5",
                "lognormal": "lognormal:0.2,0.7", "lognormal_std": "lognormal_std:0,1",
                "exponential": "exponential:2", "normal": "normal:1,3",
                "beta": "beta:2,5", "uniform": "uniform:-1,4"}


def _reference_keys(seed, rows, tail):
    return np.array([SeedSequence(entropy=(seed, r, *tail)).generate_state(2, np.uint64)
                     for r in rows], dtype=np.uint64).reshape(-1, 2)


def test_every_family_has_a_spec():
    assert set(FAMILY_SPECS) == set(_FAMILIES)


class TestRowKeys:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**70),
           rows=st.lists(st.integers(0, 2**32 - 1), max_size=24),
           big=st.lists(st.integers(2**32, 2**62), max_size=2),
           tail=st.lists(st.integers(0, 2**40), max_size=2))
    @example(seed=0, rows=list(range(10)), big=[], tail=[])  # proportion's (seed, o)
    @example(seed=2**32 - 1, rows=[2**32 - 1] * 5, big=[2**32], tail=[2**32 - 1])
    @example(seed=2**64 + 3, rows=list(range(2**32 - 6, 2**32)), big=[], tail=[2**32, 7])
    def test_keys_equal_seed_sequence(self, seed, rows, big, tail):
        # rows below 2^32 take the vectorized pass from _VECTOR_MIN_ROWS
        # rows on; any row of 2^32 or more sends the call to SeedSequence
        for block in (rows, rows + big):
            got = rng._row_keys(seed, np.array(block, dtype=np.int64), *tail)
            assert got.dtype == np.uint64 and got.shape == (len(block), 2)
            assert got.tobytes() == _reference_keys(seed, block, tail).tobytes()

    def test_vectorized_pass_taken_for_single_rows(self, monkeypatch):
        monkeypatch.setattr(rng, "_VECTOR_MIN_ROWS", 1)
        for seed, r, tail in [(0, 0, (0,)), (7, 2**32 - 1, ()), (2**96, 5, (2**32, 1))]:
            got = rng._row_keys(seed, np.array([r]), *tail)
            assert got.tobytes() == _reference_keys(seed, [r], tail).tobytes()

    def test_negative_entries_rejected_like_seed_sequence(self):
        for seed, rows in [(-1, np.arange(10)), (3, np.array([-1] + [0] * 9))]:
            with pytest.raises(ValueError):
                rng._row_keys(seed, rows, 0)


class TestRowStreams:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**70), first=st.integers(0, 2**33),
           count=st.integers(1, 12), attempt=st.integers(0, 2**33),
           n=st.integers(1, 30), m=st.integers(1, 40))
    def test_rewound_draws_equal_stream(self, seed, first, count, attempt, n, m):
        rows = np.arange(first, first + count)
        for family, spec in FAMILY_SPECS.items():
            d = parse_dist(spec)
            for r, gen in zip(rows.tolist(), rng._row_streams(seed, rows, attempt)):
                want = rng.stream(seed, r, attempt)
                assert gen_sample(d, n, gen).tobytes() == gen_sample(d, n, want).tobytes(), family
                assert draw_indices(n, m, gen).tobytes() == draw_indices(n, m, want).tobytes()
                # a draw that leaves a cached 32-bit half must not leak into the next row
                assert gen.integers(0, 7, 3, dtype=np.int32).tobytes() == \
                    want.integers(0, 7, 3, dtype=np.int32).tobytes()
