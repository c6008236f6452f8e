"""Out-of-core datasets and index-only subsampling.

Binary layout (documented in the README, bit-exact):

    magic "RPV1" (4 bytes) | version u32 LE | count u64 LE | count x f64 LE

Because the randomized mean and variance need only the records whose
weight is nonzero, a confidence interval for the full-data mean touches
m draws' worth of distinct records instead of all n.  The reader maps the
file one aligned WINDOW (4 MiB) at a time, only the windows that hold a
sampled record, and gathers the records with one numpy fancy index per
window, so a fetch costs about its records and never maps the whole file.
It is instrumented (records, pages, bytes, windows mapped) so that
frugality is checkable.
"""
from __future__ import annotations

import csv
import io
import math
import mmap
import os
import struct
from contextlib import closing
from dataclasses import asdict, dataclass
from functools import partial
from itertools import chain, islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from ._pool import ordered_map
from .bounds import rate
from .errors import (DatasetFormatError, DatasetTooSmall, MissingColumn, NonFiniteValue,
                     ParseError)
from .edf import _f_mn, ci_edf_from_stats, dkw_bound
from .intervals import ConfidenceInterval, SizingPolicy, ci_xbar, subsample_size
from .pivots import RandomizedStats, _check_finite, randomized_stats_from_nonzero
from .weights import WeightStats, draw_indices, stats_from_nonzero

__all__ = [
    "MAGIC", "VERSION", "HEADER_SIZE", "RECORD_SIZE", "MIN_RECORDS",
    "DatasetHandle", "IndexSample", "ReadStats", "SubsampleReport",
    "write_dataset", "open_dataset", "read_csv_column", "ingest_csv",
    "draw_index_sample", "bigdata_ci_mean", "bigdata_ci_edf",
]

MAGIC = b"RPV1"
VERSION = 1
HEADER_SIZE = 16
RECORD_SIZE = 8
PAGE_SIZE = 4096  # bytes; the unit in which a fetch is counted
WINDOW = 1 << 22  # bytes mapped at a time, at offsets aligned to this size
MIN_RECORDS = 16
# CSV characters parsed per step of an ingest.  numpy's reader is handed
# 4 bytes a character, so a step holds about 0.4 MiB; larger steps parsed
# no faster (1 MiB ones about 20 % slower, measured on 2 cores)
_BLOCK = 1 << 16
_EXACT_CHUNK = 1 << 14  # records per array of the exact parse, after a quote
# Blocks per worker task, and the file size above which workers parse: below
# it a pool's start-up (some 40 ms) costs more than it saves on 2 cores
# (BENCH_1f52b29.json, ingest_pool_cut)
_TASK_BLOCKS = 8
_POOL_BYTES = 6 << 20


@dataclass
class ReadStats:
    """I/O instrumentation for one fetch: records gathered, the bytes of the
    pages they lie on, windows mapped and distinct pages touched."""

    records_read: int = 0
    bytes_read: int = 0
    read_calls: int = 0
    pages_touched: int = 0


@dataclass(frozen=True)
class IndexSample:
    """Sparse multinomial draw: sorted distinct indices with counts."""

    indices: np.ndarray
    counts: np.ndarray
    m: int
    n: int

    def __post_init__(self):
        if int(self.counts.sum()) != self.m:
            raise ValueError("counts must sum to m")
        if self.indices.size and ((self.indices < 0).any() or (self.indices >= self.n).any()):
            raise ValueError("indices out of range")

    @property
    def distinct(self) -> int:
        return int(self.indices.size)


@dataclass(frozen=True)
class SubsampleReport:
    """What a big-data interval computation actually touched."""

    n: int
    m: int
    policy: str
    distinct_records: int
    records_read: int
    bytes_read: int
    read_calls: int
    pages_touched: int
    rate_bound: float
    dkw: float | None = None

    @property
    def file_fraction(self) -> float:
        """Bytes of the pages touched over the n * 8 record bytes of the
        file; above 1 for a file of a few pages, whose last page is partial."""
        return self.bytes_read / (RECORD_SIZE * self.n)

    @property
    def predicted_page_fraction(self) -> float:
        """1 - (1 - 1/P)^m: the expected share of the file's P pages that m
        uniform draws touch."""
        pages = -(-(HEADER_SIZE + RECORD_SIZE * self.n) // PAGE_SIZE)
        if pages == 1:
            return 1.0
        return -math.expm1(self.m * math.log1p(-1.0 / pages))

    def to_dict(self) -> dict[str, Any]:
        fields = asdict(self)
        if self.dkw is None:
            del fields["dkw"]
        return {**fields, "file_fraction": self.file_fraction,
                "predicted_page_fraction": self.predicted_page_fraction}


class DatasetHandle:
    """Read-only random access to a fixed-width binary dataset.

    The handle keeps no file descriptor open between fetches, so it can be
    shared freely across threads; every fetch opens its own cursor.
    """

    def __init__(self, path: str | Path, count: int):
        self.path = Path(path)
        self.count = count

    def read_records(self, indices: np.ndarray) -> tuple[np.ndarray, ReadStats]:
        """Fetch the records at sorted distinct indices.

        Returns the values in the given (ascending) order plus I/O stats.
        The indices are grouped by the aligned WINDOW of the file their
        record lies in.  Each window that holds one is mapped read-only,
        gathered from through np.frombuffer, and unmapped before the next,
        so no more than WINDOW bytes of the file are mapped at once.  A
        whole-file map would leave every page faulted in, together with
        the kernel's fault-around neighbours, counted in the process's
        peak resident set.  Before mapping, the open file's size is checked:
        a file that no longer holds the last index raises
        DatasetFormatError.  Only shrinking the file in place while a fetch
        runs can still fault (SIGBUS); write_dataset replaces a file by
        rename, which never does that to an open one.

        The stats count what the page cache serves: ``read_calls`` is the
        number of windows mapped, ``pages_touched`` the distinct 4 KiB
        pages that hold a fetched record, and ``bytes_read`` is
        pages_touched * PAGE_SIZE.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return np.empty(0, dtype=np.float64), ReadStats()
        if (np.diff(indices) <= 0).any():
            raise ValueError("indices must be strictly increasing")
        if indices[0] < 0 or indices[-1] >= self.count:
            raise ValueError("index out of range")

        offsets = HEADER_SIZE + indices * RECORD_SIZE
        windows = offsets // WINDOW
        cuts = np.flatnonzero(np.diff(windows)) + 1
        bounds = np.concatenate(([0], cuts, [indices.size])).tolist()
        slots = (offsets - windows * WINDOW) // RECORD_SIZE  # records never straddle
        pages = offsets // PAGE_SIZE

        values = np.empty(indices.size, dtype=np.float64)
        with open(self.path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            if int(offsets[-1]) + RECORD_SIZE > size:
                raise DatasetFormatError(f"{self.path}: truncated to {size} bytes")
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                start = int(windows[lo]) * WINDOW
                length = min(WINDOW, size - start)
                with mmap.mmap(f.fileno(), length, access=mmap.ACCESS_READ,
                               offset=start) as window:
                    records = np.frombuffer(window, dtype="<f8", count=length // RECORD_SIZE)
                    values[lo:hi] = records[slots[lo:hi]]
                    del records  # the map cannot close while a view exports it
        touched = int(np.count_nonzero(np.diff(pages))) + 1
        stats = ReadStats(records_read=int(indices.size),
                          bytes_read=touched * PAGE_SIZE,
                          read_calls=len(bounds) - 1,
                          pages_touched=touched)
        return values, stats


def _write_records(chunks: Iterable[np.ndarray], dst: str | Path) -> DatasetHandle:
    """Write float64 chunks, in order, as one dataset and return a handle.

    The only writer of the format.  The records go to a temporary file
    beside dst under a placeholder header; the header's count is patched
    once the last chunk is written, and only then is the file renamed onto
    dst.  So an existing dst is replaced whole or kept, and a failure at
    any point, in a chunk's producer too, leaves no temporary file.
    """
    dst = Path(dst)
    tmp = dst.with_name(f".{dst.name}.{os.urandom(4).hex()}.tmp")
    count = 0
    f = open(tmp, "xb")
    try:
        with f:
            f.write(_header(0))
            for chunk in chunks:
                chunk.astype("<f8", copy=False).tofile(f)
                count += chunk.size
            f.seek(0)
            f.write(_header(count))
        os.replace(tmp, dst)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return DatasetHandle(dst, count)


def _header(count: int) -> bytes:
    return MAGIC + struct.pack("<IQ", VERSION, count)


def write_dataset(values, dst: str | Path) -> DatasetHandle:
    """Write values to the binary format and return a handle.

    Raises NonFiniteValue, naming the first offending record, on NaN or
    infinity.  The records are written uncopied, to a temporary file that
    is then renamed onto dst, so an existing dst is replaced whole or kept.
    """
    values = np.asarray(values, dtype=np.float64)
    _check_finite(values)
    return _write_records([values], dst)


def open_dataset(path: str | Path) -> DatasetHandle:
    """Validate the header and size of an existing dataset file."""
    path = Path(path)
    with open(path, "rb") as f:
        header = f.read(HEADER_SIZE)
    if len(header) != HEADER_SIZE or header[:4] != MAGIC:
        raise DatasetFormatError(f"{path}: bad magic or truncated header")
    version, = struct.unpack("<I", header[4:8])
    if version != VERSION:
        raise DatasetFormatError(f"{path}: unsupported version {version}")
    count, = struct.unpack("<Q", header[8:16])
    actual = path.stat().st_size
    expected = HEADER_SIZE + count * RECORD_SIZE
    if actual != expected:
        raise DatasetFormatError(f"{path}: size {actual} != expected {expected}")
    return DatasetHandle(path, int(count))


def read_csv_column(src: str | Path, column: str | int, header: bool = False,
                    delimiter: str = ",") -> np.ndarray:
    """Parse one CSV column into a float64 array.

    ``column`` is a 0-based position, or a name looked up in the header
    row (a name implies header=True).  The header is the first non-empty
    row.  A cell is stripped of whitespace and converted by float(); a
    cell that fails raises ParseError and a NaN or infinity raises
    NonFiniteValue, each naming the 0-based CSV row (blank rows count).
    """
    with closing(_column_chunks(src, column, header, delimiter)) as chunks:
        return np.concatenate([np.empty(0), *chunks])


def ingest_csv(src: str | Path, column: str | int, dst: str | Path,
               header: bool = False, delimiter: str = ",") -> DatasetHandle:
    """Convert one CSV column to the binary format.

    The column is parsed block by block, as read_csv_column parses it, and
    each block is written as soon as it is checked, so memory stays bounded
    by the blocks in flight however long the file is.  A bad row raises
    before the rename, so an existing dst is kept.
    """
    with closing(_column_chunks(src, column, header, delimiter)) as chunks:
        return _write_records(chunks, dst)


def _column_chunks(src: str | Path, column: str | int, header: bool,
                   delimiter: str) -> Iterator[np.ndarray]:
    """Yield the parsed column as float64 arrays, block by block.

    The values, and any error with its row and content, are those of
    _exact_values run over all the file's records.  The header, the first
    non-empty record, is read first, record by record, and fixes the
    column; the blocks start after it.  A block without a quote character,
    whose lines are then its records, is first handed to numpy's C text
    reader; it parses with PyOS_string_to_double, the routine behind
    float(), after stripping the same whitespace.  What it rejects
    (underscores, non-ASCII digits, short rows, bad cells) is a subset of
    what float() rejects, so when it accepts a block and every value is
    finite, the values are float()'s, bit for bit.  Any other block goes
    through _exact_values from its first row.  From the first block with a
    quote character on, the rest of the file is parsed exactly, because a
    quoted field may hold line ends and so cross a block's end.  Only
    numpy's reading may run in worker processes (_fast_parses), so they
    change no result.
    """
    if isinstance(column, int) and column < 0:
        raise ValueError(f"column index must be 0 or more, got {column}")
    col = column if isinstance(column, int) else None
    row = 0  # records read so far
    with open(src, newline="") as f:
        reader = csv.reader(iter(f.readline, ""), delimiter=delimiter)  # checks the delimiter
        if header or col is None:
            for row, fields in enumerate(reader, 1):
                if fields:
                    if col is None:
                        if column not in fields:
                            raise MissingColumn(row - 1, column)
                        col = fields.index(column)
                    break
        blocks = _blocks(f)
        with closing(_fast_parses(blocks, col, delimiter, os.fstat(f.fileno()).st_size)) as pairs:
            for block, values in pairs:
                if _quoted(block, delimiter):
                    lines = chain.from_iterable(io.StringIO(b, newline="")
                                                for b in chain([block], blocks))
                    records = enumerate(csv.reader(lines, delimiter=delimiter), row)
                    for first in records:  # _EXACT_CHUNK records at a time
                        yield _exact_values(chain([first], islice(records, _EXACT_CHUNK - 1)), col)
                    return
                if values is None:
                    values = _exact_values(enumerate(csv.reader(
                        io.StringIO(block, newline=""), delimiter=delimiter), row), col)
                yield values
                row += _line_ends(block)


def _quoted(block: str, delimiter: str) -> bool:
    """Whether block must go to the exact parse with the rest of the file."""
    return '"' in block or delimiter in "\r\n"


def _fast_parses(blocks: Iterator[str], col: int, delimiter: str,
                 size: int) -> Iterator[tuple[str, np.ndarray | None]]:
    """(block, _fast_values of it) in file order, up to the first quoted
    block, which comes last, paired with None; nothing after it is read.
    A file of more than _POOL_BYTES, with two or more CPUs to run on, is
    parsed in tasks of _TASK_BLOCKS blocks by one worker process a CPU
    (_pool.ordered_map) while this one reads ahead."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = cpus if cpus >= 2 and size > _POOL_BYTES else 0
    stop: list[str] = []  # the first quoted block, if any

    def tasks() -> Iterator[list[str]]:
        task: list[str] = []
        for block in blocks:
            if _quoted(block, delimiter):
                stop.append(block)
                break
            task.append(block)
            if len(task) == (_TASK_BLOCKS if workers else 1):
                yield task
                task = []
        if task:
            yield task

    parse = partial(_fast_task, col=col, delimiter=delimiter)
    with closing(ordered_map(parse, tasks(), workers)) as results:
        for task, values in results:
            yield from zip(task, values)
    yield from ((block, None) for block in stop)


def _fast_task(blocks: list[str], col: int, delimiter: str) -> list[np.ndarray | None]:
    """_fast_values of each block: one task of a worker process."""
    return [_fast_values(block, col, delimiter) for block in blocks]


def _blocks(f) -> Iterator[str]:
    """The text of f in pieces of about _BLOCK characters, each cut after
    a line end.  A \\r that ends a read is held back with the rest of its
    line, since a \\n may follow it."""
    carry = ""
    while text := f.read(_BLOCK):
        text = carry + text
        cut = max(text.rfind("\n"), text.rfind("\r", 0, len(text) - 1)) + 1
        carry = text[cut:]
        if cut:
            yield text[:cut]
    if carry:
        yield carry


def _line_ends(text: str) -> int:
    """The line ends in text: its CSV records, for quote-free text that
    ends at a line end (only the file's last block may not, and no row
    number is needed after it)."""
    ends = text.count("\n")
    if "\r" in text:
        ends += text.count("\r") - text.count("\r\n")
    return ends


def _fast_values(block: str, col: int, delimiter: str) -> np.ndarray | None:
    """The column of a quote-free block through numpy's C reader, or None
    when the block needs the exact parse: the reader rejects it, a value is
    not finite, or the block is longer than the csv module's field limit.
    A block is about _BLOCK characters, so only a long line makes it that
    long, and the exact parse raises for it as csv.reader does."""
    if block.isspace() or len(block) > csv.field_size_limit():
        return None  # no cell, where loadtxt would warn; or a csv error to raise
    try:
        values = np.loadtxt(io.StringIO(block, newline=""), dtype=np.float64,
                            delimiter=delimiter, usecols=col, comments=None,
                            quotechar=None, ndmin=1)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _exact_values(records: Iterable[tuple[int, list[str]]], col: int) -> np.ndarray:
    """The reference parse of numbered csv.reader records, the header
    excluded: strip, float() and a finiteness check per cell."""
    values: list[float] = []
    for row, fields in records:
        if not fields:
            continue
        cell = fields[col].strip() if col < len(fields) else ""
        try:
            v = float(cell)
        except ValueError:
            raise ParseError(row, cell) from None
        if not math.isfinite(v):
            raise NonFiniteValue(row, cell)
        values.append(v)
    return np.array(values, dtype=np.float64)


def draw_index_sample(n: int, m: int, rng: np.random.Generator) -> IndexSample:
    """Sparse multinomial(m; 1/n, ..., 1/n) draw.

    Counts the same uniform index stream as weights.draw_weights, so the
    dense and sparse paths are interchangeable draw for draw.
    """
    idx = draw_indices(n, m, rng)
    indices, counts = np.unique(idx, return_counts=True)
    return IndexSample(indices=indices.astype(np.int64),
                       counts=counts.astype(np.int64), m=m, n=n)


def _query(h: DatasetHandle, policy: SizingPolicy, rng: np.random.Generator,
           interval: Callable[[IndexSample, np.ndarray, WeightStats], ConfidenceInterval],
           dkw_eps: float | None = None) -> tuple[ConfidenceInterval, SubsampleReport]:
    """Size, draw, read and check the sub-sample; then interval(sample,
    values, weight stats) and the report of what was touched."""
    if h.count < MIN_RECORDS:
        raise DatasetTooSmall(f"{h.count} records; need at least {MIN_RECORDS}")
    m = subsample_size(h.count, policy)
    sample = draw_index_sample(h.count, m, rng)
    values, stats = h.read_records(sample.indices)
    _check_finite(values, sample.indices)
    ci = interval(sample, values, stats_from_nonzero(sample.counts, sample.n, sample.m))
    report = SubsampleReport(
        n=sample.n, m=sample.m, policy=str(policy), distinct_records=sample.distinct,
        **asdict(stats), rate_bound=rate(sample.n, sample.m, "D"),
        dkw=None if dkw_eps is None else dkw_bound(sample.n, dkw_eps),
    )
    return ci, report


def bigdata_ci_mean(h: DatasetHandle, alpha: float, policy: SizingPolicy,
                    rng: np.random.Generator,
                    sided: str = "two") -> tuple[ConfidenceInterval, SubsampleReport]:
    """Interval for the full-data mean, touching only the sub-sampled records."""
    def interval(sample, values, wstats):
        rstats = RandomizedStats(*randomized_stats_from_nonzero(values, sample.counts, sample.m))
        return ci_xbar(rstats, wstats, alpha, sided=sided, n=sample.n, m=sample.m)

    return _query(h, policy, rng, interval)


def bigdata_ci_edf(h: DatasetHandle, x: float, alpha: float, policy: SizingPolicy,
                   rng: np.random.Generator, sided: str = "two",
                   dkw_eps: float | None = None) -> tuple[ConfidenceInterval, SubsampleReport]:
    """Pointwise interval for the full-data EDF at x from the sub-sample.

    With a caller-supplied dkw_eps the report carries the uniform bound
    min(1, 2 exp(-2 n eps^2)) quantifying how far F_n can sit from F.
    """
    def interval(sample, values, wstats):
        return ci_edf_from_stats(_f_mn(sample.counts, values <= x, sample.m), wstats, x,
                                 alpha, sided=sided, n=sample.n, m=sample.m)

    return _query(h, policy, rng, interval, dkw_eps)
