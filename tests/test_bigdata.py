"""Tests for the binary dataset format, sparse subsampling, and big-data CIs."""
import contextlib
import math
import mmap
import os
import struct
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randpivot import (DatasetFormatError, DatasetTooSmall, NonFiniteValue,
                       ParseError, ZeroScale, bigdata_ci_edf, bigdata_ci_mean,
                       ci_xbar, draw_index_sample, draw_weights, ingest_csv,
                       open_dataset, randomized_stats, read_csv_column, stream,
                       weight_stats, write_dataset)
from randpivot import bigdata
from randpivot.bigdata import (HEADER_SIZE, MAGIC, MIN_RECORDS, PAGE_SIZE, RECORD_SIZE,
                               VERSION, WINDOW)
from randpivot.intervals import Fixed, PowerDelta
from randpivot.pivots import _EXACT_MIN_TERMS, randomized_stats_from_nonzero


def windows_of(indices):
    """The aligned WINDOWs that hold the records, one index at a time."""
    return len({(HEADER_SIZE + i * RECORD_SIZE) // WINDOW for i in indices})


def pages_of(indices):
    return len({(HEADER_SIZE + i * RECORD_SIZE) // PAGE_SIZE for i in indices})


@contextlib.contextmanager
def recorded_mappings():
    """Wrap mmap.mmap for the reader; collect (offset, length) per mapping."""
    real, maps = mmap.mmap, []

    def wrapped(fileno, length, **kwargs):
        maps.append((kwargs["offset"], length))
        return real(fileno, length, **kwargs)

    with mock.patch.object(bigdata.mmap, "mmap", wrapped):
        yield maps


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        csv = tmp_path / "in.csv"
        csv.write_text("1.5\n2.5\n3.5\n")
        h = ingest_csv(csv, 0, tmp_path / "out.rpv")
        assert h.count == 3
        assert (tmp_path / "out.rpv").stat().st_size == 40
        values, stats = h.read_records(np.array([1]))
        assert values.tolist() == [2.5]
        assert stats.records_read == 1

    def test_reopen_validates(self, tmp_path):
        write_dataset([1.0, 2.0, 3.0], tmp_path / "d.rpv")
        h = open_dataset(tmp_path / "d.rpv")
        assert h.count == 3

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.rpv"
        p.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(DatasetFormatError):
            open_dataset(p)

    def test_truncated_file(self, tmp_path):
        p = tmp_path / "short.rpv"
        write_dataset([1.0, 2.0, 3.0], p)
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(DatasetFormatError):
            open_dataset(p)

    def test_empty_csv_gives_zero_count_then_too_small(self, tmp_path):
        csv = tmp_path / "empty.csv"
        csv.write_text("")
        h = ingest_csv(csv, 0, tmp_path / "e.rpv")
        assert h.count == 0
        with pytest.raises(DatasetTooSmall):
            bigdata_ci_mean(h, 0.05, Fixed(5), stream(0))

    def test_nan_rejected(self, tmp_path):
        csv = tmp_path / "nan.csv"
        csv.write_text("1.0\nNaN\n2.0\n")
        with pytest.raises(NonFiniteValue):
            ingest_csv(csv, 0, tmp_path / "x.rpv")

    def test_write_rejects_non_finite(self, tmp_path):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(NonFiniteValue) as err:
                write_dataset([1.0, 2.0, bad, 4.0], tmp_path / "x.rpv")
            assert err.value.row == 2
            assert not (tmp_path / "x.rpv").exists()

    def test_failed_replace_keeps_existing_file(self, tmp_path, monkeypatch):
        dst = tmp_path / "d.rpv"
        write_dataset(np.arange(20.0), dst)
        before = dst.read_bytes()

        def fail(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(bigdata.os, "replace", fail)
        with pytest.raises(OSError, match="simulated"):
            write_dataset(np.arange(5000.0), dst)
        assert dst.read_bytes() == before
        assert os.listdir(tmp_path) == ["d.rpv"]

    def test_failed_write_keeps_existing_file(self, tmp_path):
        # a file-size limit makes the record write fail part way, as a full
        # disk would; the old dataset must survive it byte for byte
        dst = tmp_path / "d.rpv"
        write_dataset(np.arange(20.0), dst)
        before = dst.read_bytes()
        script = (
            "import resource, signal, sys\n"
            "import numpy as np\n"
            "from randpivot import write_dataset\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (4096, resource.RLIM_INFINITY))\n"
            "try:\n"
            "    write_dataset(np.arange(100000.0), sys.argv[1])\n"
            "except OSError:\n"
            "    sys.exit(3)\n"
        )
        out = subprocess.run([sys.executable, "-c", script, str(dst)],
                             capture_output=True, text=True)
        assert out.returncode == 3, out.stderr
        assert dst.read_bytes() == before
        assert os.listdir(tmp_path) == ["d.rpv"]

    def test_write_does_not_copy_the_records(self, tmp_path):
        values = np.arange(1 << 20, dtype=np.float64)  # 8 MiB
        tracemalloc.start()
        try:
            write_dataset(values, tmp_path / "d.rpv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < values.nbytes // 2  # one copy would be values.nbytes
        assert (tmp_path / "d.rpv").read_bytes()[HEADER_SIZE:] == values.tobytes()

    def test_finite_check_scans_in_chunks(self):
        values = np.arange(1 << 20, dtype=np.float64)  # 8 MiB
        tracemalloc.start()
        try:
            bigdata._check_finite(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < values.nbytes // 8  # a whole mask would be nbytes / 8
        values[-1] = math.nan
        values[700_001] = -math.inf  # the first bad record, past many chunks
        with pytest.raises(NonFiniteValue) as err:
            bigdata._check_finite(values)
        assert (err.value.row, err.value.content) == (700_001, "-inf")

    def test_parse_error_carries_row(self, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_text("1.0\nhello\n")
        with pytest.raises(ParseError) as err:
            ingest_csv(csv, 0, tmp_path / "x.rpv")
        assert err.value.row == 1

    def test_header_and_named_column(self, tmp_path):
        csv = tmp_path / "named.csv"
        csv.write_text("id;value\n1;10.5\n2;20.5\n")
        vals = read_csv_column(csv, "value", delimiter=";")
        assert vals.tolist() == [10.5, 20.5]
        vals = read_csv_column(csv, 1, header=True, delimiter=";")
        assert vals.tolist() == [10.5, 20.5]


class TestIndexSample:
    def test_single_category(self):
        s = draw_index_sample(1, 7, stream(0))
        assert s.indices.tolist() == [0]
        assert s.counts.tolist() == [7]

    def test_deterministic(self):
        a = draw_index_sample(1000, 500, stream(42, 3))
        b = draw_index_sample(1000, 500, stream(42, 3))
        assert (a.indices == b.indices).all() and (a.counts == b.counts).all()

    def test_indices_sorted_strictly_increasing(self):
        s = draw_index_sample(5000, 2000, stream(1))
        assert (np.diff(s.indices) > 0).all()
        assert int(s.counts.sum()) == 2000

    def test_matches_dense_draw(self):
        sparse = draw_index_sample(100, 250, stream(9, 9))
        dense = draw_weights(100, 250, stream(9, 9))
        assert (np.flatnonzero(dense.counts) == sparse.indices).all()
        assert (dense.counts[sparse.indices] == sparse.counts).all()

    def test_distinct_count_near_expectation(self):
        n, m = 10**6, 31623
        s = draw_index_sample(n, m, stream(2024))
        p1 = (1.0 - 1.0 / n) ** m
        p2 = (1.0 - 2.0 / n) ** m
        expected = n * (1.0 - p1)
        # occupancy variance: Var(distinct) = n p1 (1-p1) + n(n-1)(p2 - p1^2)
        var = n * p1 * (1 - p1) + n * (n - 1) * (p2 - p1 * p1)
        assert abs(s.distinct - expected) < 3.0 * math.sqrt(var)
        assert expected == pytest.approx(31128, abs=5)


class TestBigdataCiMean:
    def test_equivalence_with_in_memory_path(self, tmp_path):
        # same seed: the file route and the dense in-memory route agree bitwise
        n = 10**4
        rng = stream(77)
        data = rng.normal(3.0, 2.0, size=n)
        h = write_dataset(data, tmp_path / "d.rpv")

        ci_file, report = bigdata_ci_mean(h, 0.05, PowerDelta(0.25), stream(5, 1))
        w = draw_weights(n, report.m, stream(5, 1))
        ci_mem = ci_xbar(randomized_stats(data, w), weight_stats(w), 0.05,
                         n=n, m=report.m)
        assert ci_file.lower == ci_mem.lower
        assert ci_file.upper == ci_mem.upper
        assert ci_file.center == ci_mem.center
        assert ci_file.half_width == ci_mem.half_width

    def test_io_frugality_and_report(self, tmp_path):
        n = 50_000
        rng = stream(88)
        h = write_dataset(rng.normal(size=n), tmp_path / "d.rpv")
        ci, report = bigdata_ci_mean(h, 0.05, PowerDelta(0.25), stream(6))
        assert report.records_read == report.distinct_records
        assert report.records_read < n
        assert report.read_calls <= report.distinct_records
        assert report.bytes_read >= report.records_read * RECORD_SIZE
        assert report.rate_bound > 0

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(MIN_RECORDS, 5 * _EXACT_MIN_TERMS),
           m=st.integers(1, 8 * _EXACT_MIN_TERMS),
           seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-6, 1.0, 1e8]))
    def test_dense_equals_sparse_on_random_data(self, tmp_path_factory, n, m, seed, scale):
        # the distinct-record count lands on both sides of the exact-sum
        # threshold, so both summation routes are compared
        data = stream(seed).normal(3.0, 1.0, size=n) * scale
        h = write_dataset(data, tmp_path_factory.getbasetemp() / "dense_sparse.rpv")
        dense = randomized_stats(data, draw_weights(n, m, stream(seed, 1)))
        sample = draw_index_sample(n, m, stream(seed, 1))
        values, _ = h.read_records(sample.indices)
        assert (values == data[sample.indices]).all()
        assert (dense.rmean, dense.rvar) == randomized_stats_from_nonzero(
            values, sample.counts, m)

    def test_constant_dataset_zero_scale(self, tmp_path):
        h = write_dataset(np.full(100, 7.0), tmp_path / "c.rpv")
        with pytest.raises(ZeroScale):
            bigdata_ci_mean(h, 0.05, Fixed(50), stream(0))

    def test_too_small(self, tmp_path):
        h = write_dataset(np.arange(10.0), tmp_path / "s.rpv")
        with pytest.raises(DatasetTooSmall):
            bigdata_ci_mean(h, 0.05, Fixed(5), stream(0))


class TestReadPattern:
    def test_reads_ascend_and_coalesce(self, tmp_path):
        n = 4096
        h = write_dataset(np.arange(float(n)), tmp_path / "d.rpv")
        idx = np.array([0, 1, 2, 600, 601, 4000])
        values, stats = h.read_records(idx)
        assert values.tolist() == [0.0, 1.0, 2.0, 600.0, 601.0, 4000.0]
        # bytes 16..39 on page 0, 4816..4831 on page 1, 32016 on page 7;
        # the 32,784-byte file is one window
        assert stats.read_calls == 1
        assert stats.records_read == 6
        assert stats.pages_touched == 3
        assert stats.bytes_read == 3 * PAGE_SIZE

    def test_wide_gap_splits_reads(self, ranged_file):
        h = open_dataset(ranged_file)
        last_in_first = (WINDOW - HEADER_SIZE) // RECORD_SIZE - 1  # byte WINDOW - 8
        _, stats = h.read_records(np.array([0, last_in_first]))
        assert stats.read_calls == 1
        _, stats = h.read_records(np.array([0, last_in_first + 1]))
        assert stats.read_calls == 2
        _, stats = h.read_records(np.array([last_in_first + 1]))
        assert stats.read_calls == 1

    def test_requires_sorted_unique(self, tmp_path):
        h = write_dataset(np.arange(100.0), tmp_path / "d.rpv")
        with pytest.raises(ValueError):
            h.read_records(np.array([3, 3]))
        with pytest.raises(ValueError):
            h.read_records(np.array([5, 2]))


class TestBigdataCiEdf:
    def test_runs_and_reports_dkw(self, tmp_path):
        n = 20_000
        rng = stream(99)
        h = write_dataset(rng.normal(size=n), tmp_path / "d.rpv")
        ci, report = bigdata_ci_edf(h, 0.0, 0.05, Fixed(1000), stream(7), dkw_eps=0.002)
        assert 0.0 <= ci.lower <= ci.upper <= 1.0
        assert abs(ci.center - 0.5) < 0.1
        assert report.dkw == pytest.approx(min(1.0, 2.0 * math.exp(-2 * n * 0.002**2)), rel=1e-12)
        assert report.records_read == report.distinct_records

    def test_x_outside_range_zero_scale(self, tmp_path):
        h = write_dataset(np.arange(100.0), tmp_path / "d.rpv")
        with pytest.raises(ZeroScale):
            bigdata_ci_edf(h, -5.0, 0.05, Fixed(50), stream(0))

    def test_width_scales_like_one_over_sqrt_m(self, tmp_path):
        # half width ~ z * sqrt(F(1-F)) * sqrt((1-1/n)/m): m = 1000 on a big
        # file gives width on the 1/sqrt(1000) scale
        n = 10**5
        rng = stream(111)
        h = write_dataset(rng.uniform(size=n), tmp_path / "d.rpv")
        ci, _ = bigdata_ci_edf(h, 0.5, 0.05, Fixed(1000), stream(8))
        want = 1.959964 * 0.5 * math.sqrt(1.0 / 1000)
        assert ci.half_width == pytest.approx(want, rel=0.15)


# Long enough for fetches to cross WINDOW boundaries twice.
RANGED_N = 2 * WINDOW // RECORD_SIZE + 40_000


@pytest.fixture(scope="module")
def ranged_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("ranged") / "d.rpv"
    write_dataset(stream(2718).normal(size=RANGED_N), path)
    return path


@pytest.fixture(scope="module")
def ranged_values(ranged_file):
    return np.fromfile(ranged_file, dtype="<f8", offset=HEADER_SIZE)


def index_sets():
    """Strictly increasing index sets mixing dense runs, gaps near one page
    and long jumps."""
    gap = st.one_of(st.integers(1, 8), st.integers(505, 520), st.integers(1, 150_000))
    return st.tuples(st.integers(0, RANGED_N - 1), st.lists(gap, max_size=400)).map(
        lambda t: [i for i in np.cumsum([t[0], *t[1]]).tolist() if i < RANGED_N])


class TestRangedReads:
    @settings(max_examples=150, deadline=None)
    @given(index_sets())
    def test_values_and_counts_follow_the_range_rule(self, ranged_file, ranged_values,
                                                     indices):
        h = open_dataset(ranged_file)
        with recorded_mappings() as maps:
            values, stats = h.read_records(np.array(indices, dtype=np.int64))
        assert (values == ranged_values[indices]).all()
        assert stats.read_calls == windows_of(indices) == len(maps)
        assert stats.pages_touched == pages_of(indices)
        assert stats.bytes_read == PAGE_SIZE * pages_of(indices)
        assert stats.records_read == len(indices)
        size = ranged_file.stat().st_size
        assert [offset for offset, _ in maps] == sorted(
            {(HEADER_SIZE + i * RECORD_SIZE) // WINDOW * WINDOW for i in indices})
        for offset, length in maps:
            assert offset % mmap.ALLOCATIONGRANULARITY == 0 and offset % PAGE_SIZE == 0
            assert 0 < length <= WINDOW
            assert offset + length <= size

    def test_dense_sample_reads_whole_blocks(self, ranged_file, ranged_values):
        h = open_dataset(ranged_file)
        indices = np.arange(0, RANGED_N, 3)
        with recorded_mappings() as maps:
            values, stats = h.read_records(indices)
        file_bytes = HEADER_SIZE + RANGED_N * RECORD_SIZE
        assert stats.read_calls == len(maps) == math.ceil(file_bytes / WINDOW)
        assert [length for _, length in maps] == [WINDOW, WINDOW, file_bytes - 2 * WINDOW]
        # every page holds a record of a stride-3 sample
        assert stats.pages_touched == math.ceil(file_bytes / PAGE_SIZE)
        assert stats.bytes_read == PAGE_SIZE * stats.pages_touched
        assert (values == ranged_values[indices]).all()

    def test_truncated_after_open(self, tmp_path):
        path = tmp_path / "t.rpv"
        write_dataset(np.arange(float(RANGED_N)), path)
        h = open_dataset(path)
        os.truncate(path, HEADER_SIZE + 1000 * RECORD_SIZE)
        values, _ = h.read_records(np.array([0, 5, 999]))
        assert values.tolist() == [0.0, 5.0, 999.0]
        for indices in ([0, 5, RANGED_N - 1], [990, 1005], [1000]):
            with pytest.raises(DatasetFormatError):
                h.read_records(np.array(indices))


class TestReport:
    def test_reader_counts_by_hand(self, tmp_path):
        # 2000 records: 16 + 16000 bytes over 4 pages
        h = write_dataset(np.arange(2000.0), tmp_path / "d.rpv")
        _, stats = h.read_records(np.array([0, 1, 509, 510, 1500, 1999]))
        # pages of the records: 0, 0, 0, 1, 2, 3; all in window 0
        assert stats.pages_touched == 4
        assert stats.read_calls == 1
        assert stats.bytes_read == 4 * PAGE_SIZE

    @pytest.mark.parametrize("stat", ["mean", "edf"])
    def test_report_fields_match_hand_counts(self, tmp_path, stat):
        n, m = 50_000, 60
        h = write_dataset(stream(31).normal(size=n), tmp_path / "d.rpv")
        if stat == "mean":
            _, report = bigdata_ci_mean(h, 0.05, Fixed(m), stream(4, 4))
        else:
            _, report = bigdata_ci_edf(h, 0.0, 0.05, Fixed(m), stream(4, 4))
        indices = draw_index_sample(n, m, stream(4, 4)).indices.tolist()
        nbytes = PAGE_SIZE * pages_of(indices)
        file_pages = 98  # ceil((16 + 8 * 50000) / 4096)
        d = report.to_dict()
        assert d["pages_touched"] == pages_of(indices)
        assert d["read_calls"] == windows_of(indices)
        assert d["bytes_read"] == nbytes
        assert d["file_fraction"] == nbytes / (RECORD_SIZE * n)
        assert d["predicted_page_fraction"] == pytest.approx(
            1.0 - (1.0 - 1.0 / file_pages) ** m, rel=1e-12)

    def test_single_page_file(self, tmp_path):
        h = write_dataset(np.arange(200.0), tmp_path / "d.rpv")  # 1616 bytes
        _, report = bigdata_ci_mean(h, 0.05, Fixed(50), stream(2))
        assert report.pages_touched == 1
        assert report.predicted_page_fraction == 1.0


def write_raw(path, values):
    """A dataset file written byte by byte, bypassing write_dataset's checks."""
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<I", VERSION) + struct.pack("<Q", len(values)))
        for v in values:
            f.write(struct.pack("<d", v))


class TestNonFiniteRecords:
    @pytest.fixture
    def poisoned(self, tmp_path):
        values = [float(i) for i in range(64)]
        values[10] = math.nan
        values[40] = math.inf
        path = tmp_path / "p.rpv"
        write_raw(path, values)
        return path

    @pytest.mark.parametrize("stat", ["mean", "edf"])
    def test_queries_raise(self, poisoned, stat):
        h = open_dataset(poisoned)
        with pytest.raises(NonFiniteValue) as err:
            if stat == "mean":
                bigdata_ci_mean(h, 0.05, Fixed(2000), stream(1))
            else:
                bigdata_ci_edf(h, 30.0, 0.05, Fixed(2000), stream(1))
        # 2000 draws over 64 records fetch record 10, the first bad one
        assert err.value.row == 10
        assert err.value.content == "nan"

    def test_inf_alone_is_named(self, tmp_path):
        values = [float(i) for i in range(64)]
        values[40] = -math.inf
        write_raw(tmp_path / "i.rpv", values)
        with pytest.raises(NonFiniteValue) as err:
            bigdata_ci_edf(open_dataset(tmp_path / "i.rpv"), 30.0, 0.05, Fixed(2000), stream(1))
        assert (err.value.row, err.value.content) == (40, "-inf")

    @pytest.mark.parametrize("stat", ["mean", "edf"])
    def test_cli_exits_1(self, poisoned, stat):
        out = subprocess.run([sys.executable, "-m", "randpivot.cli", "ci-bigdata",
                              "--data", str(poisoned), "--stat", stat, "--x", "30",
                              "--policy", "fixed:2000", "--seed", "1", "--no-timestamp"],
                             capture_output=True, text=True)
        assert out.returncode == 1, out.stdout
        assert out.stdout == ""
        assert "non-finite" in out.stderr
