"""Out-of-core datasets and index-only subsampling.

Binary layout (documented in the README, bit-exact):

    magic "RPV1" (4 bytes) | version u32 LE | count u64 LE | count x f64 LE

Because the randomized mean and variance need only the records whose
weight is nonzero, a confidence interval for the full-data mean touches
m draws' worth of distinct records instead of all n.  Record r lies in
the file's 8-byte slot r + 2, so one searchsorted over the first records
of aligned WINDOWs (4 MiB) splits a fetch by window.  A fetch maps the
span from its first to its last window once, gathers each window that
holds a sampled record into its slice of the output and releases that
window before the next: a fetch costs about its records, keeps at most
one window of the file resident, and counts records, pages, bytes and
windows gathered.
"""
from __future__ import annotations

import math
import mmap
import os
import struct
from contextlib import closing
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from ._csv import _column_chunks, read_csv_column
from .bounds import rate
from .errors import DatasetFormatError, DatasetTooSmall
from .edf import _check_x, _f_mn, ci_edf_from_stats, dkw_bound
from .intervals import ConfidenceInterval, SizingPolicy, _z_for, ci_xbar, subsample_size
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
WINDOW = 1 << 22  # bytes resident at a time, at offsets aligned to this size
MIN_RECORDS = 16
_SLOT0 = HEADER_SIZE // RECORD_SIZE  # the file's 8-byte slot that holds record 0
_WINDOW_SHIFT = (WINDOW // RECORD_SIZE).bit_length() - 1  # log2 of the slots per window
_PAGE_SHIFT = (PAGE_SIZE // RECORD_SIZE).bit_length() - 1  # log2 of the slots per page


@dataclass
class ReadStats:
    """I/O instrumentation for one fetch: records gathered, the bytes of the
    pages they lie on, windows gathered and released (``read_calls``) and
    distinct pages touched."""

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
        Record r lies in file slot r + 2, whose shifts give its window and
        page, and one np.searchsorted over the windows' first records
        bounds their runs.  The span from the first to the last window that
        holds one is mapped read-only once; each such window is gathered
        into its run's slice of the output and released with
        madvise(MADV_DONTNEED) before the next, so at most one window of
        the file is resident at a time.  A whole-file map left resident
        would keep every faulted page, together with the kernel's
        fault-around neighbours, in the process's peak resident set.  The
        span adds only its page tables: VmPTE rose by 4 kB inside a dense
        fetch of a 458 MiB file on Linux 6.18, as with one mapping per
        window.  Where mmap has no MADV_DONTNEED (Windows), each window is
        mapped on its own and unmapped before the next.  macOS may release
        lazily, and its residency is unmeasured.

        Before mapping, the open file's size is checked: a file that no
        longer holds the last index raises DatasetFormatError.  Only
        shrinking the file in place while a fetch runs can still fault
        (SIGBUS); write_dataset replaces a file by rename, which never does
        that to an open one.

        The stats count what the page cache serves: ``read_calls`` is the
        number of windows gathered and released, ``pages_touched`` the
        distinct 4 KiB pages that hold a fetched record, and ``bytes_read``
        is pages_touched * PAGE_SIZE.  Each window is gathered straight into
        the output by ndarray.take(mode="clip") (mode="raise" would buffer);
        the order, range and size checks keep it from clipping.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return np.empty(0, dtype=np.float64), ReadStats()
        if (indices[1:] <= indices[:-1]).any():
            raise ValueError("indices must be strictly increasing")
        if indices[0] < 0 or indices[-1] >= self.count:
            raise ValueError("index out of range")

        first, last = ((int(indices[i]) + _SLOT0) >> _WINDOW_SHIFT for i in (0, -1))
        bounds = np.searchsorted(indices, (np.arange(first, last + 2) << _WINDOW_SHIFT) - _SLOT0)
        plan = [(w, lo, hi) for w, lo, hi in zip(range(first, last + 1), bounds.tolist(),
                                                  bounds[1:].tolist()) if lo < hi]
        slots = indices + (_SLOT0 - (first << _WINDOW_SHIFT))  # each record's slot in the span
        pages = slots >> _PAGE_SHIFT
        touched = int(np.count_nonzero(pages[1:] != pages[:-1])) + 1
        del pages  # so a fetch holds at most slots, values and one window's gather

        values = np.empty(indices.size, dtype=np.float64)
        release = getattr(mmap, "MADV_DONTNEED", None)
        if release is None:  # Windows: one mapping per window, so slots count from its start
            slots &= (1 << _WINDOW_SHIFT) - 1
        with open(self.path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            if HEADER_SIZE + (int(indices[-1]) + 1) * RECORD_SIZE > size:
                raise DatasetFormatError(f"{self.path}: truncated to {size} bytes")
            for steps in ([plan] if release is not None else [[step] for step in plan]):
                start = steps[0][0] * WINDOW
                length = min((steps[-1][0] + 1) * WINDOW, size) - start
                with mmap.mmap(f.fileno(), length, access=mmap.ACCESS_READ,
                               offset=start) as mapped:
                    records = np.frombuffer(mapped, dtype="<f8", count=length // RECORD_SIZE)
                    for w, lo, hi in steps:
                        # in place; the checks above keep clip mode from ever clipping
                        records.take(slots[lo:hi], out=values[lo:hi], mode="clip")
                        if release is not None:
                            at = w * WINDOW - start
                            mapped.madvise(release, at, min(WINDOW, length - at))
                    del records  # the map cannot close while a view exports it
        return values, ReadStats(records_read=int(indices.size), bytes_read=touched * PAGE_SIZE,
                                 read_calls=len(plan), pages_touched=touched)


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


def draw_index_sample(n: int, m: int, rng: np.random.Generator) -> IndexSample:
    """Sparse multinomial(m; 1/n, ..., 1/n) draw.

    Counts the same uniform index stream as weights.draw_weights, so the
    dense and sparse paths are interchangeable draw for draw.  The draws are
    sorted in place and each run of equal indices is flagged at its first
    draw: np.unique(draws, return_counts=True) as int64, bitwise.  For
    n <= 2^31 draw_indices gives int32 draws, which are sorted and compared
    as int32; only the distinct indices are widened.
    """
    idx = draw_indices(n, m, rng)
    idx.sort()
    first = np.ones(m + 1, dtype=bool)  # the first of each run of equal indices, then m
    np.not_equal(idx[1:], idx[:-1], out=first[1:m])
    bounds = np.flatnonzero(first)
    return IndexSample(idx[bounds[:-1]].astype(np.int64), np.diff(bounds), m, n)


def _query(h: DatasetHandle, policy: SizingPolicy, rng: np.random.Generator,
           interval: Callable[[IndexSample, np.ndarray, WeightStats], ConfidenceInterval],
           dkw_eps: float | None = None) -> tuple[ConfidenceInterval, SubsampleReport]:
    """Size, draw, read and check the sub-sample; then interval(sample,
    values, weight stats) and the report of what was touched.  Bad
    arguments are refused before the draw, so before any fetch."""
    if h.count < MIN_RECORDS:
        raise DatasetTooSmall(f"{h.count} records; need at least {MIN_RECORDS}")
    dkw = None if dkw_eps is None else dkw_bound(h.count, dkw_eps)
    m = subsample_size(h.count, policy)
    sample = draw_index_sample(h.count, m, rng)
    values, stats = h.read_records(sample.indices)
    _check_finite(values, sample.indices)
    ci = interval(sample, values, stats_from_nonzero(sample.counts, sample.n, sample.m))
    report = SubsampleReport(
        n=sample.n, m=sample.m, policy=str(policy), distinct_records=sample.distinct,
        **asdict(stats), rate_bound=rate(sample.n, sample.m, "D"),
        dkw=dkw,
    )
    return ci, report


def bigdata_ci_mean(h: DatasetHandle, alpha: float, policy: SizingPolicy,
                    rng: np.random.Generator,
                    sided: str = "two") -> tuple[ConfidenceInterval, SubsampleReport]:
    """Interval for the full-data mean, touching only the sub-sampled records."""
    _z_for(alpha, sided)

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
    _check_x(x)
    _z_for(alpha, sided)

    def interval(sample, values, wstats):
        return ci_edf_from_stats(_f_mn(sample.counts, values <= x, sample.m), wstats, x,
                                 alpha, sided=sided, n=sample.n, m=sample.m)

    return _query(h, policy, rng, interval, dkw_eps)
