"""Tests for the binary dataset format, sparse subsampling, and big-data CIs."""
import concurrent.futures
import contextlib
import csv
import io
import math
import mmap
import multiprocessing
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randpivot import (DatasetFormatError, DatasetTooSmall, MissingColumn,
                       NonFiniteValue, ParseError, RandPivotError, ZeroScale,
                       bigdata_ci_edf, bigdata_ci_mean, ci_xbar, draw_index_sample,
                       draw_weights, ingest_csv, open_dataset, randomized_stats,
                       read_csv_column, stream, weight_stats, write_dataset)
from randpivot import _csv, _pool, bigdata
from randpivot.bigdata import (HEADER_SIZE, MAGIC, MIN_RECORDS, PAGE_SIZE, RECORD_SIZE,
                               VERSION, WINDOW)
from randpivot.intervals import Fixed, PowerDelta
from randpivot.pivots import _EXACT_MIN_TERMS, _exact_sum, randomized_stats_from_nonzero
from randpivot.weights import draw_indices


def windows_of(indices):
    """The aligned WINDOWs that hold the records, one index at a time."""
    return len({(HEADER_SIZE + i * RECORD_SIZE) // WINDOW for i in indices})


def pages_of(indices):
    return len({(HEADER_SIZE + i * RECORD_SIZE) // PAGE_SIZE for i in indices})


READERS = ["span", "window"]  # one mapping per fetch; one per window, as on Windows


@contextlib.contextmanager
def recorded_mappings(reader="span", at_release=lambda: None):
    """Spy on the reader's mappings and releases: collect the file's
    (offset, length) per mapping and per window released, and call
    at_release before each release and before each mapping closes.  The
    "window" reader runs with mmap.MADV_DONTNEED deleted, as on Windows."""
    real, maps, releases = mmap.mmap, [], []

    class Spy(real):
        def __new__(cls, fileno, length, **kwargs):
            mapped = super().__new__(cls, fileno, length, **kwargs)
            mapped.start = kwargs["offset"]
            maps.append((mapped.start, length))
            return mapped

        def madvise(self, option, start, length):
            assert option == mmap.MADV_DONTNEED
            at_release()
            releases.append((self.start + start, length))
            return super().madvise(option, start, length)

        def __exit__(self, *exc):
            at_release()
            return super().__exit__(*exc)

    with pytest.MonkeyPatch.context() as patch:
        if reader == "window":
            patch.delattr(mmap, "MADV_DONTNEED")
        patch.setattr(bigdata.mmap, "mmap", Spy)
        yield maps, releases


def gathered_windows(reader, maps, releases, size):
    """The (offset, length) of each window a fetch gathered, in file order:
    its releases within the one mapping of the span, which a split fetch's
    two threads make in two runs, or its one mapping per window."""
    if reader == "window":
        assert releases == []
        return maps
    releases = sorted(releases)
    assert len(maps) == 1 and releases
    start, end = releases[0][0], min(releases[-1][0] + WINDOW, size)
    assert maps == [(start, end - start)]
    return releases


@contextlib.contextmanager
def split_forced():
    """Cut every fetch and exact sum of two windows or chunks in halves over
    two threads, whatever its size and the CPUs at hand."""
    with mock.patch.object(_pool, "_SPLIT_ITEMS", 0), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}, create=True):
        yield


@contextlib.contextmanager
def recorded_gathers():
    """Spy on the reader's gathers: collect (first slot, records) of each
    take from a mapped file, and the names of the threads started."""
    real_frombuffer, real_thread, gathers, threads = np.frombuffer, threading.Thread, [], []

    class Records(np.ndarray):
        def take(self, slots, out=None, mode="raise"):
            gathers.append((int(slots[0]), slots.size))
            return np.asarray(self).take(slots, out=out, mode=mode)

    def frombuffer(*args, **kwargs):
        return real_frombuffer(*args, **kwargs).view(Records)

    def thread(*args, **kwargs):
        threads.append(kwargs.get("name"))
        return real_thread(*args, **kwargs)

    with mock.patch.object(bigdata.np, "frombuffer", frombuffer), \
            mock.patch.object(_pool.threading, "Thread", thread):
        yield gathers, threads


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


def reference_read_csv_column(src, column, header=False, delimiter=","):
    """The row-at-a-time parse that read_csv_column replaced, frozen as the
    oracle: csv.reader over the UTF-8 text less a leading byte-order mark,
    then strip, float() and isfinite per row."""
    values = []
    with open(src, newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(f, delimiter=delimiter)
        col_idx = column if isinstance(column, int) else None
        first = True
        for row_no, row in enumerate(reader):
            if not row:
                continue
            if first:
                first = False
                if isinstance(column, str):
                    try:
                        col_idx = row.index(column)
                    except ValueError:
                        raise ParseError(row_no, f"no column named {column!r}") from None
                    continue
                if header:
                    continue
            cell = row[col_idx].strip() if col_idx < len(row) else ""
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(row_no, cell) from None
            if not math.isfinite(v):
                raise NonFiniteValue(row_no, cell)
            values.append(v)
    return np.array(values, dtype=np.float64)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
NUMBER_CELLS = st.one_of(
    FINITE.map(repr),
    FINITE.map(lambda v: "%.6g" % v),
    st.integers(-10**20, 10**20).map(str),
    st.tuples(st.sampled_from(["", " ", "\t"]), FINITE.map(repr),
              st.sampled_from(["", " ", "\t"])).map("".join),
)
ODD_CELLS = st.one_of(
    st.sampled_from(["nan", "-inf", "Infinity", "1e500", "-1e400", " NaN "]),
    # '"9' and '"\n9' leave a quote open, to the file's end if no later one closes it
    st.sampled_from([
        "", " ", "\t", "1_000", '"1.5"', '"2,5"', '"2;5"', '"2\t5"', '"3\n4"', '"\n5\n"',
        '"6\r"', '"1""5"', '""', ' "1.5"', '\t"2,5"', 'x"y', '1"5', '"7"8', '"9', '"\n9',
        "abc", "1.5.2", "\uff11", "\u0661", "0x10", "+.5", "5.", "1E5", " 7 ", "\u00a08",
        "1 2", "#9",
    ]),
)
# Quoted forms of a cell that float() still reads once csv.reader unquotes it
QUOTE_FORMS = st.sampled_from(['"%s"', '"\n%s"', '" %s\r\n"', '"\r\n%s\n\n"', '"%s\r"'])


def quote_span(rows, at, length, form):
    """Quote every cell of rows[at:at + length], or of rows[at:] when
    length is None, so that quote-free rows may follow the span."""
    for row in rows[at:None if length is None else at + length]:
        row[:] = [form % cell for cell in row]


def cut_in_quotes(rows, at):
    """Open the first cell of rows[at] with a quoted run of line ends
    longer than the rest of the text (its rows' repr, and a header, are
    longer), so that a block size of at most half the text cuts a block
    inside the quotes."""
    rows[at] = rows[at] or [""]
    rows[at][0] = '"' + "\n" * (len(repr(rows)) + 16) + rows[at][0] + '"'


@st.composite
def csv_files(draw):
    """(text, column, header, delimiter): numeric columns with blank lines,
    mixed line ends and an optional header, into which a few odd cells
    (quotes, bad tokens, non-finite values) and ragged rows are spliced,
    whose rows may be quoted from some row on, to the end or for a span,
    and where a quoted run of line ends may lie at every block cut; the
    column is an index or a name."""
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    ncols = draw(st.integers(1, 3))
    full = st.lists(NUMBER_CELLS, min_size=ncols, max_size=ncols)
    size = draw(st.integers(1, 40))
    rows = draw(st.lists(st.one_of(st.builds(list), full, full),
                         min_size=size, max_size=size + 20))
    spot = st.integers(0, 10**4)
    for at, width in draw(st.lists(st.tuples(spot, st.integers(0, ncols + 1)), max_size=2)):
        i = at % len(rows)
        rows[i] = (rows[i] + ["1"] * ncols)[:width]
    for at, pos, cell in draw(st.lists(st.tuples(spot, spot, ODD_CELLS), max_size=3)):
        row = rows[at % len(rows)]
        if row:
            row[pos % len(row)] = cell
        else:
            row.append(cell)
    quoting = draw(st.one_of(st.none(), st.tuples(
        spot, st.one_of(st.none(), st.integers(1, 8)), QUOTE_FORMS)))
    if quoting:  # a quote may hold line ends
        at, length, form = quoting
        quote_span(rows, at % len(rows), length, form)
    if draw(st.integers(0, 4)) == 0:
        cut_in_quotes(rows, draw(spot) % len(rows))
    names = ["a", "b", "c"][:ncols]
    header = draw(st.booleans())
    if header:
        rows = [[] for _ in range(draw(st.integers(0, 2)))] + [names] + rows
    lines = [delimiter.join(r) for r in rows]
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text[:-1]  # no final line end (or a \r\n cut to \r)
    column = draw(st.one_of(st.integers(0, ncols), st.sampled_from(names + ["zz"])))
    return text, column, header, delimiter


def assert_matches_reference(base, text, column, header, delimiter):
    """read_csv_column and ingest_csv on text give the reference parse's
    values and dataset bytes, or its error type, row and content, and
    leave no file but the input behind."""
    src, dst = base / "in.csv", base / "out.rpv"
    with open(src, "w", newline="", encoding="utf-8") as f:
        f.write(text)
    args = (column, header, delimiter)
    try:
        want = reference_read_csv_column(src, *args)
    except RandPivotError as exc:
        for parse in (lambda: read_csv_column(src, *args),
                      lambda: ingest_csv(src, column, dst, header, delimiter)):
            with pytest.raises(RandPivotError) as err:
                parse()
            assert isinstance(err.value, type(exc))
            assert (err.value.row, err.value.content) == (exc.row, exc.content)
        assert sorted(os.listdir(base)) == ["in.csv"]
        return
    got = read_csv_column(src, *args)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    h = ingest_csv(src, column, dst, header, delimiter)
    assert h.count == want.size
    write_dataset(want, base / "want.rpv")
    assert dst.read_bytes() == (base / "want.rpv").read_bytes()
    assert sorted(os.listdir(base)) == ["in.csv", "out.rpv", "want.rpv"]


@contextlib.contextmanager
def pooled():
    """Hand every quote-free block after the header to two worker
    processes, whatever the file's size and the CPUs at hand."""
    with mock.patch.object(_csv, "_POOL_BYTES", -1), \
            mock.patch.object(_csv.os, "sched_getaffinity", lambda pid: {0, 1}, create=True):
        yield


@st.composite
def pooled_csv_files(draw):
    """(text, column, delimiter) of a file with a header, then numeric rows
    with \n, \r\n and at least one \r line end; at a drawn row, one cell
    may be a bad token, a non-finite value, a number only float() reads or
    a cell with quotes, the cells of a span of rows from there on (to the
    end or not) may be quoted, or a quoted run of line ends may lie at
    every block cut."""
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    ncols = draw(st.integers(1, 3))
    names = ["a", "b", "c"][:ncols]
    rows = draw(st.lists(st.lists(NUMBER_CELLS, min_size=ncols, max_size=ncols),
                         min_size=20, max_size=60))
    col = draw(st.integers(0, ncols - 1))
    at = draw(st.integers(0, len(rows) - 1))
    odd = draw(st.sampled_from(["none", "bad", "non-finite", "float() only", "quotes",
                                "quoted", "cut in quotes"]))
    if odd == "quoted":
        quote_span(rows, at, draw(st.one_of(st.none(), st.integers(1, 8))), draw(QUOTE_FORMS))
    elif odd == "cut in quotes":
        cut_in_quotes(rows, at)
    elif odd != "none":
        rows[at][col] = draw(st.sampled_from({
            "bad": ["abc", "1.5.2", "0x10", "1 2", ""],
            "non-finite": ["nan", "-inf", "Infinity", "1e500"],
            "float() only": ["1_000", "\u0661", "\uff11"],
            "quotes": ['"1""5"', ' "1.5"', f'"2{delimiter}5"', 'x"y', '"\n3"']}[odd]))
    lines = [delimiter.join(r) for r in [names] + rows]
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    ends[draw(st.integers(0, len(ends) - 1))] = "\r"
    text = "".join(line + end for line, end in zip(lines, ends))
    return text, draw(st.sampled_from([col, names[col]])), delimiter


HYPOTHESIS_REPORT_WARNING = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"


class TestCsvReader:
    """read_csv_column and ingest_csv against the frozen row-at-a-time parse."""

    # numpy's reader must never see a block without cells; hypothesis's own
    # failure report may trip the warning ignored here
    @pytest.mark.filterwarnings("error", HYPOTHESIS_REPORT_WARNING)
    @settings(max_examples=200, deadline=None)
    @given(csv_files(), st.data())
    def test_matches_reference_parse(self, tmp_path_factory, case, data):
        text, column, header, delimiter = case
        block = data.draw(st.integers(1, max(1, len(text) // 3)), label="block")
        with mock.patch.object(_csv, "_BLOCK", block):  # many blocks per file
            assert_matches_reference(tmp_path_factory.mktemp("diff"), text, column, header,
                                     delimiter)

    @pytest.mark.filterwarnings("error", HYPOTHESIS_REPORT_WARNING)
    @settings(max_examples=50, deadline=None)
    @given(pooled_csv_files(), st.data())
    def test_pooled_parse_matches_reference_parse(self, tmp_path_factory, case, data):
        text, column, delimiter = case
        block = data.draw(st.integers(1, max(1, len(text) // 12)), label="block")
        task = data.draw(st.integers(1, 3), label="blocks per task")
        with pooled(), mock.patch.object(_csv, "_BLOCK", block), \
                mock.patch.object(_csv, "_TASK_BLOCKS", task):  # many tasks per file
            assert_matches_reference(tmp_path_factory.mktemp("pooled"), text, column, True,
                                     delimiter)

    @pytest.mark.parametrize("bad", [None, "oops"])
    def test_no_worker_outlives_a_pooled_ingest(self, tmp_path, bad):
        rows = list(map(repr, stream(7).normal(size=5_000).tolist()))
        if bad:
            rows[3_000] = bad  # a bad row mid-file, while tasks are in flight
        src = tmp_path / "in.csv"
        src.write_text("\n".join(rows) + "\n")
        real, pools = concurrent.futures.ProcessPoolExecutor, []

        def spy(*args, **kwargs):
            pools.append(real(*args, **kwargs))
            return pools[-1]

        with pooled(), mock.patch.object(_csv, "_BLOCK", 1 << 10), \
                mock.patch.object(concurrent.futures, "ProcessPoolExecutor", spy):
            with pytest.raises(ParseError) if bad else contextlib.nullcontext():
                ingest_csv(src, 0, tmp_path / "d.rpv")
        assert len(pools) == 1
        assert multiprocessing.active_children() == []

    def test_pooled_memory_is_bounded_by_the_tasks_in_flight(self, tmp_path):
        values = stream(6).lognormal(size=100_000)
        src = tmp_path / "in.csv"
        src.write_text("\n".join(map(repr, values.tolist())) + "\n")
        block = 1 << 12
        budget = 3 * _csv._TASK_BLOCKS * block  # characters of the tasks held for 2 workers
        with pooled(), mock.patch.object(_csv, "_BLOCK", block):
            read_csv_column(src, 0)  # the pool's modules are loaded once, not per file
            tracemalloc.start()
            try:
                h = ingest_csv(src, 0, tmp_path / "d.rpv")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert 16 * budget < src.stat().st_size
        assert peak < 4 * budget  # tasks, a pickled copy and parsed values
        assert (tmp_path / "d.rpv").read_bytes()[HEADER_SIZE:] == values.tobytes()
        assert h.count == values.size

    @pytest.mark.parametrize("bad, error", [("oops", ParseError), ("inf", NonFiniteValue)])
    def test_bad_row_past_the_first_block_keeps_dst(self, tmp_path, bad, error):
        rows = list(map(repr, stream(5).normal(size=3 * _csv._BLOCK // 10).tolist()))
        at = len(rows) - 7  # a few blocks in
        rows[at] = bad
        src, dst = tmp_path / "in.csv", tmp_path / "d.rpv"
        src.write_text("\n".join(rows) + "\n")
        write_dataset(np.arange(20.0), dst)
        before = dst.read_bytes()
        with pytest.raises(error) as err:
            ingest_csv(src, 0, dst)
        assert (err.value.row, err.value.content) == (at, bad)
        assert dst.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["d.rpv", "in.csv"]

    def test_ingest_memory_is_bounded_by_the_block(self, tmp_path):
        values = stream(6).lognormal(size=200_000)
        src = tmp_path / "in.csv"
        src.write_text("\n".join(map(repr, values.tolist())) + "\n")
        tracemalloc.start()
        try:
            h = ingest_csv(src, 0, tmp_path / "d.rpv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < values.nbytes // 2  # the parsed column alone is values.nbytes
        assert h.count == values.size
        assert (tmp_path / "d.rpv").read_bytes()[HEADER_SIZE:] == values.tobytes()

    def test_negative_column_is_rejected(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("1,2\n3,4\n")
        for column in (-1, -3):
            with pytest.raises(ValueError, match="column index"):
                read_csv_column(src, column)
            with pytest.raises(ValueError, match="column index"):
                ingest_csv(src, column, tmp_path / "d.rpv")
        assert sorted(os.listdir(tmp_path)) == ["in.csv"]

    def test_missing_column_message(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("\na,b\n1,2\n")
        with pytest.raises(ParseError) as err:
            read_csv_column(src, "c")
        assert isinstance(err.value, MissingColumn)
        assert str(err.value) == "row 1: no column named 'c'"
        assert (err.value.row, err.value.content) == (1, "no column named 'c'")

    @pytest.mark.parametrize("head, column, header", [
        ("\n\r\n\rid,value\n", "value", False),  # a named column after blank lines
        ("id,value\r\n", 1, True),
        ('"id","the\nvalue"\r\n', "the\nvalue", False),  # a quoted header over quote-free data
    ], ids=["named after blank lines", "int column", "quoted header"])
    @pytest.mark.parametrize("bad", [None, "oops"])
    def test_header_is_read_before_the_blocks(self, tmp_path, head, column, header, bad):
        rows = [f"{i},{v!r}" for i, v in enumerate(stream(8).normal(size=5_000).tolist())]
        if bad:
            rows[17] = f"17,{bad}"
        text = head + "\n".join(rows) + "\n"
        if not bad:
            # checked before the reference parse, which a block holding the
            # header would fail on first
            (tmp_path / "in.csv").write_bytes(text.encode())
            header_fields = next(r for r in csv.reader(io.StringIO(head, newline="")) if r)
            real, blocks = _csv._block_values, []

            def spy(block, *args):
                assert header_fields not in csv.reader(io.StringIO(block, newline="")), block[:80]
                blocks.append(block)
                return real(block, *args)

            with mock.patch.object(_csv, "_block_values", spy):
                read_csv_column(tmp_path / "in.csv", column, header)
            assert blocks
        assert_matches_reference(tmp_path, text, column, header, ",")

    @pytest.mark.parametrize("pool", [False, True], ids=["in-process", "pooled"])
    def test_blocks_after_a_quote_are_parsed_by_numpy(self, tmp_path, pool):
        # a quote holds up only its own block: numpy's reader parses every
        # later block, in the workers when the file is pooled
        values = stream(4).normal(size=2_000)
        rows = list(map(repr, values.tolist()))
        rows[0] = f'"{rows[0]}"'
        src = tmp_path / "in.csv"
        src.write_text("\n".join(rows) + "\n")
        with open(src, newline="") as f, mock.patch.object(_csv, "_BLOCK", 1 << 10):
            blocks = list(_csv._blocks(f))
        real_loadtxt, real_map, parsed, sent, workers = np.loadtxt, _csv.ordered_map, [], [], []

        def loadtxt(text, *args, **kwargs):
            parsed.append(text.getvalue())
            return real_loadtxt(text, *args, **kwargs)

        def ordered_map(fn, tasks, n):
            workers.append(n)
            return real_map(fn, (sent.extend(task) or task for task in tasks), n)

        with pooled() if pool else contextlib.nullcontext(), \
                mock.patch.object(_csv, "_BLOCK", 1 << 10), \
                mock.patch.object(_csv, "ordered_map", ordered_map), \
                mock.patch.object(np, "loadtxt", loadtxt):
            got = read_csv_column(src, 0)
        assert got.tobytes() == values.tobytes()
        assert len(blocks) > 10 and sent == blocks
        if pool:
            assert workers == [2]
        else:
            assert parsed == blocks[1:]

    @pytest.mark.parametrize("pool", [False, True], ids=["in-process", "pooled"])
    def test_rows_after_quoted_line_ends_are_numbered_by_records(self, tmp_path, pool):
        # every fifth record holds a quoted line end, so the bad record, in a
        # quoted block parsed on its own, is row 200 of 240 lines before it
        rows = [f'"\n{i}","{i}.25"' if i % 5 == 0 else f'"{i}","{i}.25"' for i in range(300)]
        rows[200] = rows[200].replace('"200.25"', '"oops"')
        text = "\n".join(rows) + "\n"
        with pooled() if pool else contextlib.nullcontext(), \
                mock.patch.object(_csv, "_BLOCK", 400):
            blocks = list(_csv._blocks(io.StringIO(text, newline="")))
            failed = [_csv._block_values(block, 1, ",") is None for block in blocks]
            assert failed.index(True) == ["oops" in block for block in blocks].index(True)
            assert failed.count(True) == 1
            assert_matches_reference(tmp_path, text, 1, False, ",")
            with pytest.raises(ParseError) as err:
                read_csv_column(tmp_path / "in.csv", 1)
        assert (err.value.row, err.value.content) == (200, "oops")

    @pytest.mark.parametrize("pool", [False, True], ids=["in-process", "pooled"])
    @pytest.mark.parametrize("bad, error", [("oops", ParseError), ("inf", NonFiniteValue)])
    def test_bad_row_after_a_quoted_field_over_a_cut(self, tmp_path, pool, bad, error):
        # the first block ends inside the quoted line end of row 12, which
        # ends in the second block, right before the bad row 13
        text = "1.25\n" * 12 + '"\n5"\n' + bad + "\n" + "2.5\n" * 40
        with pooled() if pool else contextlib.nullcontext(), \
                mock.patch.object(_csv, "_BLOCK", 62):
            first = next(_csv._blocks(io.StringIO(text, newline="")))
            assert first.endswith('"\n') and _csv._block_values(first, 0, ",") is None
            assert_matches_reference(tmp_path, text, 0, False, ",")
            with pytest.raises(error) as err:
                read_csv_column(tmp_path / "in.csv", 0)
        assert (err.value.row, err.value.content) == (13, bad)

    @pytest.mark.parametrize("pool", [False, True], ids=["in-process", "pooled"])
    @pytest.mark.parametrize("text, column, want", [
        ("\ufeffx,y\n1.5,2\n2.5,3\n", "x", [1.5, 2.5]),
        ("\ufeff1.5\n2.5\n", 0, [1.5, 2.5]),
        ("1.5\n\ufeff2.5\n", 0, (1, "\ufeff2.5")),  # a mark past the start is a cell's
    ], ids=["named column", "no header", "mark past the start"])
    def test_a_byte_order_mark_is_dropped_only_at_the_start(self, tmp_path, pool, text, column,
                                                             want):
        with pooled() if pool else contextlib.nullcontext():
            assert_matches_reference(tmp_path, text, column, False, ",")
            if isinstance(want, tuple):
                with pytest.raises(ParseError) as err:
                    read_csv_column(tmp_path / "in.csv", column)
                assert (err.value.row, err.value.content) == want
            else:
                assert read_csv_column(tmp_path / "in.csv", column).tolist() == want

    def test_a_pooled_ingest_drops_a_byte_order_mark(self, tmp_path):
        text = "".join(f"{v!r}\n" for v in stream(9).normal(size=5_000).tolist())
        for name, mark in (("plain", ""), ("marked", "\ufeff")):
            (tmp_path / f"{name}.csv").write_text(mark + text, encoding="utf-8")
        with pooled(), mock.patch.object(_csv, "_BLOCK", 1 << 10):  # many tasks per file
            for name in ("plain", "marked"):
                ingest_csv(tmp_path / f"{name}.csv", 0, tmp_path / f"{name}.rpv")
        assert (tmp_path / "marked.rpv").read_bytes() == (tmp_path / "plain.rpv").read_bytes()

    def test_field_limit_error_is_kept(self, tmp_path):
        # a field longer than the csv module's limit fails as it always did,
        # though numpy's reader would accept it
        src = tmp_path / "in.csv"
        src.write_text("1\n" + " " * 80 + "2\n3\n")
        old = csv.field_size_limit(64)
        try:
            with pytest.raises(csv.Error, match="field limit"):
                read_csv_column(src, 0)
        finally:
            csv.field_size_limit(old)


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


class TestIndexSampleRuns:
    """The sorted draws' runs are np.unique's distinct indices and counts."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 10**6), m=st.integers(1, 10**5), seed=st.integers(0, 2**64 - 1))
    @example(n=1, m=1, seed=0)
    @example(n=1, m=10**5, seed=1)
    @example(n=10**6, m=1, seed=2)
    def test_equals_unique_bitwise(self, n, m, seed):
        sample = draw_index_sample(n, m, stream(seed))
        want = np.unique(draw_indices(n, m, stream(seed)).astype(np.int64), return_counts=True)
        for got, expected in zip((sample.indices, sample.counts), want):
            assert got.dtype == expected.dtype == np.int64
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [2, 17, 2**31 - 1, 2**31, 2**31 + 1])
    @pytest.mark.parametrize("seed", [0, 1, 2**64 + 3])
    def test_32_bit_draws_keep_the_int64_stream(self, n, seed):
        # draw_indices is int32 up to n = 2^31 and int64 past it; either way
        # its values, the sample's runs and the generator left behind are
        # those of the int64 draw
        def tail(gen):
            return gen.bit_generator.random_raw(8).tolist(), gen.integers(0, n, 8).tolist()

        want = stream(seed)
        reference = want.integers(0, n, 1000)
        assert reference.dtype == np.int64
        expected = tail(want)
        drawn, sampled = stream(seed), stream(seed)
        draws = draw_indices(n, 1000, drawn)
        assert draws.dtype == (np.int32 if n <= 2**31 else np.int64)
        assert draws.tolist() == reference.tolist()
        sample = draw_index_sample(n, 1000, sampled)
        for array, ref in zip((sample.indices, sample.counts),
                              np.unique(reference, return_counts=True)):
            assert array.dtype == ref.dtype == np.int64
            assert array.tobytes() == ref.tobytes()
        assert tail(drawn) == tail(sampled) == expected


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
        # the gather's clip mode relies on these checks
        h = write_dataset(np.arange(100.0), tmp_path / "d.rpv")
        for indices in ([3, 3], [5, 2], [0, 7, 7, 9]):
            with pytest.raises(ValueError, match="strictly increasing"):
                h.read_records(np.array(indices))
        for indices in ([-1, 3], [5, 100], [100], [-2**40]):
            with pytest.raises(ValueError, match="index out of range"):
                h.read_records(np.array(indices))


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

    def test_nan_x_is_refused_before_any_fetch(self, tmp_path):
        h = write_dataset(np.arange(100.0), tmp_path / "d.rpv")
        with mock.patch.object(bigdata, "draw_index_sample") as draw, \
                mock.patch.object(bigdata.DatasetHandle, "read_records") as fetch:
            with pytest.raises(ValueError, match=r"^x must not be NaN, got nan$"):
                bigdata_ci_edf(h, math.nan, 0.05, Fixed(50), stream(0))
        assert draw.call_count == fetch.call_count == 0

    @pytest.mark.parametrize("x", [math.inf, -math.inf])
    def test_infinite_x_is_a_point(self, tmp_path, x):
        h = write_dataset(np.arange(100.0), tmp_path / "d.rpv")
        with pytest.raises(ZeroScale, match=rf"^hathat1 scale is zero at x={x}$"):
            bigdata_ci_edf(h, x, 0.05, Fixed(50), stream(0))

    def test_width_scales_like_one_over_sqrt_m(self, tmp_path):
        # half width ~ z * sqrt(F(1-F)) * sqrt((1-1/n)/m): m = 1000 on a big
        # file gives width on the 1/sqrt(1000) scale
        n = 10**5
        rng = stream(111)
        h = write_dataset(rng.uniform(size=n), tmp_path / "d.rpv")
        ci, _ = bigdata_ci_edf(h, 0.5, 0.05, Fixed(1000), stream(8))
        want = 1.959964 * 0.5 * math.sqrt(1.0 / 1000)
        assert ci.half_width == pytest.approx(want, rel=0.15)


_ALPHA_2 = r"^alpha must be in \(0, 1\), got 2\.0$"
_BOGUS_SIDE = r"^sided must be one of \('two', 'upper', 'lower'\), got 'bogus'$"
_EPS = r"^eps must be positive and finite$"


class TestArgumentsBeforeFetch:
    """A query refuses bad alpha, sided and dkw_eps before it draws or
    fetches a record, with the messages the interval functions give."""

    @pytest.mark.parametrize("query,message", [
        (lambda h: bigdata_ci_mean(h, 2.0, Fixed(50), stream(0)), _ALPHA_2),
        (lambda h: bigdata_ci_mean(h, 0.05, Fixed(50), stream(0), sided="bogus"), _BOGUS_SIDE),
        (lambda h: bigdata_ci_edf(h, 3.0, 2.0, Fixed(50), stream(0)), _ALPHA_2),
        (lambda h: bigdata_ci_edf(h, 3.0, 0.05, Fixed(50), stream(0), sided="bogus"),
         _BOGUS_SIDE),
        *((lambda h, eps=eps: bigdata_ci_edf(h, 3.0, 0.05, Fixed(50), stream(0), dkw_eps=eps),
           _EPS) for eps in (math.nan, 0.0, -1.0, math.inf)),
    ], ids=["mean-alpha", "mean-sided", "edf-alpha", "edf-sided",
            "dkw-nan", "dkw-0", "dkw-neg", "dkw-inf"])
    def test_refused_before_any_draw_or_fetch(self, tmp_path, query, message):
        h = write_dataset(np.arange(100.0), tmp_path / "d.rpv")
        with mock.patch.object(bigdata, "draw_index_sample") as draw, \
                mock.patch.object(bigdata.DatasetHandle, "read_records") as fetch:
            with pytest.raises(ValueError, match=message):
                query(h)
        assert draw.call_count == fetch.call_count == 0

    def test_cli_alpha_2_is_1_before_any_fetch(self, tmp_path, capsys):
        from randpivot.cli import main

        data = tmp_path / "d.rpv"
        write_dataset(np.arange(200.0), data)
        with mock.patch.object(bigdata.DatasetHandle, "read_records") as fetch:
            assert main(["ci-bigdata", "--data", str(data), "--alpha", "2",
                         "--no-timestamp"]) == 1
        assert fetch.call_count == 0
        assert capsys.readouterr() == ("", "randpivot: error: alpha must be in (0, 1), "
                                           "got 2.0\n")


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
    @pytest.mark.parametrize("reader", READERS)
    @settings(max_examples=150, deadline=None)
    @given(index_sets())
    def test_values_and_counts_follow_the_range_rule(self, ranged_file, ranged_values,
                                                     reader, indices):
        h = open_dataset(ranged_file)
        size = ranged_file.stat().st_size
        with recorded_mappings(reader) as (maps, releases):
            values, stats = h.read_records(np.array(indices, dtype=np.int64))
        windows = gathered_windows(reader, maps, releases, size)
        assert (values == ranged_values[indices]).all()
        assert stats.read_calls == windows_of(indices) == len(windows)
        assert stats.pages_touched == pages_of(indices)
        assert stats.bytes_read == PAGE_SIZE * pages_of(indices)
        assert stats.records_read == len(indices)
        assert [offset for offset, _ in windows] == sorted(
            {(HEADER_SIZE + i * RECORD_SIZE) // WINDOW * WINDOW for i in indices})
        for offset, length in [*maps, *windows]:
            assert offset % mmap.ALLOCATIONGRANULARITY == 0 and offset % PAGE_SIZE == 0
            assert 0 < length and offset + length <= size
        for offset, length in windows:
            assert length == min(WINDOW, size - offset)

    @pytest.mark.parametrize("reader", READERS)
    def test_dense_sample_reads_whole_blocks(self, ranged_file, ranged_values, reader):
        h = open_dataset(ranged_file)
        indices = np.arange(0, RANGED_N, 3)
        file_bytes = HEADER_SIZE + RANGED_N * RECORD_SIZE
        with recorded_mappings(reader) as (maps, releases):
            values, stats = h.read_records(indices)
        windows = gathered_windows(reader, maps, releases, file_bytes)
        assert stats.read_calls == len(windows) == math.ceil(file_bytes / WINDOW)
        assert windows == [(0, WINDOW), (WINDOW, WINDOW), (2 * WINDOW, file_bytes - 2 * WINDOW)]
        # every page holds a record of a stride-3 sample
        assert stats.pages_touched == math.ceil(file_bytes / PAGE_SIZE)
        assert stats.bytes_read == PAGE_SIZE * stats.pages_touched
        assert (values == ranged_values[indices]).all()

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("stride", [1, 3, 97])
    def test_a_split_fetch_gathers_and_releases_each_window_once(
            self, ranged_file, ranged_values, reader, stride):
        h = open_dataset(ranged_file)
        indices = np.arange(stride // 2, RANGED_N, stride)
        want_values, want_stats = h.read_records(indices)
        count = threading.active_count()
        with split_forced(), recorded_gathers() as (gathers, threads), \
                recorded_mappings(reader) as (maps, releases):
            values, stats = h.read_records(indices)
        assert threading.active_count() == count
        assert values.tobytes() == want_values.tobytes() == ranged_values[indices].tobytes()
        assert stats == want_stats
        windows = gathered_windows(reader, maps, releases, ranged_file.stat().st_size)
        assert len(set(windows)) == len(windows) == stats.read_calls == 3
        # the span's windows, split over two threads; one window at a time on Windows
        assert threads == (["randpivot-half"] if reader == "span" else [])
        assert len(gathers) == 3 and sum(size for _, size in gathers) == indices.size
        if reader == "span":  # slots count from the span's start, window 0
            assert sorted(first // (WINDOW // RECORD_SIZE) for first, _ in gathers) == [0, 1, 2]

    def test_concurrent_split_fetches_and_sums(self, ranged_file, ranged_values):
        # three callers at once, each fetch and sum cut in two: six threads
        # on fewer cores, switching every microsecond
        h = open_dataset(ranged_file)
        indices = np.arange(1, RANGED_N, 2)
        counts = indices % 3 + 1
        want = ranged_values[indices]
        want_sum = math.fsum((counts * want).tolist())
        results = []

        def caller():
            for _ in range(5):
                values, _ = h.read_records(indices)
                results.append((values.tobytes() == want.tobytes(),
                                _exact_sum(counts, values, terms=np.multiply) == want_sum))

        interval = sys.getswitchinterval()
        callers = [threading.Thread(target=caller) for _ in range(3)]
        sys.setswitchinterval(1e-6)
        try:
            with split_forced():
                for thread in callers:
                    thread.start()
                for thread in callers:
                    thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert results == [(True, True)] * 15

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


LAST_OF_WINDOW_0 = WINDOW // RECORD_SIZE - 3  # bytes WINDOW - 8 to WINDOW


class TestWindowPlan:
    """Fetches at the windows' edges, and the memory of a dense fetch."""

    @pytest.mark.parametrize("indices, windows, pages", [
        ([0], 1, 1),
        ([LAST_OF_WINDOW_0], 1, 1),  # page 1023, the last of window 0
        ([LAST_OF_WINDOW_0 + 1], 1, 1),  # page 1024, the first of window 1
        ([RANGED_N - 1], 1, 1),  # page 2126, in the partial window 2
        ([0, LAST_OF_WINDOW_0], 1, 2),
        ([LAST_OF_WINDOW_0, LAST_OF_WINDOW_0 + 1], 2, 2),
        ([0, LAST_OF_WINDOW_0, LAST_OF_WINDOW_0 + 1, RANGED_N - 1], 3, 4),
    ])
    @pytest.mark.parametrize("reader", READERS)
    def test_window_edges(self, ranged_file, ranged_values, reader, indices, windows, pages):
        h = open_dataset(ranged_file)
        file_bytes = HEADER_SIZE + RECORD_SIZE * RANGED_N
        with recorded_mappings(reader) as (maps, releases):
            values, stats = h.read_records(np.array(indices))
        gathered = gathered_windows(reader, maps, releases, file_bytes)
        assert values.tobytes() == ranged_values[indices].tobytes()
        assert (stats.read_calls, len(gathered), stats.pages_touched) == (windows, windows, pages)
        assert stats.bytes_read == pages * PAGE_SIZE
        if RANGED_N - 1 in indices:
            assert gathered[-1] == (2 * WINDOW, file_bytes - 2 * WINDOW)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads RssFile from /proc/self/status")
    def test_at_most_one_window_is_resident(self, tmp_path):
        # a dense fetch touches every page of 9 windows; before each release,
        # and before the mapping closes, the process holds at most the window
        # in hand (and fault-around pages) of the file
        n = 8 * WINDOW // RECORD_SIZE + 1000
        h = write_dataset(np.arange(float(n)), tmp_path / "big.rpv")

        def rss_file():
            with open("/proc/self/status") as f:
                line = next(line for line in f if line.startswith("RssFile:"))
            return int(line.split()[1]) * 1024

        indices = np.arange(0, n, 64)  # 8 records a page
        base, readings = rss_file(), []
        with recorded_mappings(at_release=lambda: readings.append(rss_file() - base)) as (
                maps, releases):
            values, stats = h.read_records(indices)
        assert max(readings) <= 2 * WINDOW, [r / 2**20 for r in readings]
        assert (values == indices).all()
        assert stats.read_calls == len(releases) == 9 and len(maps) == 1 and len(readings) == 10

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads RssFile from /proc/self/status")
    def test_a_split_fetch_holds_at_most_two_windows(self, tmp_path):
        # the same dense fetch cut in halves over two threads: each holds
        # at most the window in hand, so the two at most two windows
        n = 8 * WINDOW // RECORD_SIZE + 1000
        h = write_dataset(np.arange(float(n)), tmp_path / "big.rpv")

        def rss_file():
            with open("/proc/self/status") as f:
                line = next(line for line in f if line.startswith("RssFile:"))
            return int(line.split()[1]) * 1024

        indices = np.arange(0, n, 64)
        base, readings = rss_file(), []
        with split_forced(), recorded_gathers() as (_, threads), \
                recorded_mappings(at_release=lambda: readings.append(rss_file() - base)) as (
                    maps, releases):
            values, stats = h.read_records(indices)
        assert threads == ["randpivot-half"]
        assert max(readings) <= 3 * WINDOW, [r / 2**20 for r in readings]
        assert (values == indices).all()
        assert stats.read_calls == len(set(releases)) == len(releases) == 9
        assert len(maps) == 1 and len(readings) == 10

    def test_fetch_memory_is_bounded_by_the_output(self, ranged_file):
        h = open_dataset(ranged_file)
        indices = np.arange(0, RANGED_N, 3)
        tracemalloc.start()
        try:
            values, _ = h.read_records(indices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * values.nbytes  # the output alone is values.nbytes


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
