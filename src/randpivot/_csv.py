"""One CSV column parsed into float64 arrays, block by block, whose values,
and any error with its row and content, are those of the reference parse
(_exact_values) of all the file's records.  The header, the first
non-empty record, is read first, record by record, and fixes the column;
the blocks start after it.  Each block is parsed on its own
(_block_values), in worker processes for a big file (_parses), and its
record count numbers the rows after it.  A block whose parse gave None
is parsed again in the calling process from its first row, so every
error is raised there, with the file's row.  That parse feeds csv.reader
the next blocks only while a quoted field runs on past a block's end,
stops at the first record that ends where a block ends, and drops the
parses of the blocks it used up.
"""
from __future__ import annotations

import csv
import io
import math
import os
from contextlib import closing, suppress
from functools import partial
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ._pool import cpus, ordered_map
from .errors import MissingColumn, NonFiniteValue, ParseError

# CSV characters parsed per step of an ingest.  numpy's reader is handed
# 4 bytes a character, so a step holds about 0.4 MiB; larger steps parsed
# no faster (1 MiB ones about 20 % slower, measured on 2 cores)
_BLOCK = 1 << 16
# Blocks per worker task, and the file size above which workers parse: below
# it a pool's start-up (some 40 ms) costs more than it saves on 2 cores
# (BENCH_1f52b29.json, ingest_pool_cut)
_TASK_BLOCKS = 8
_POOL_BYTES = 6 << 20


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


def _column_chunks(src: str | Path, column: str | int, header: bool,
                   delimiter: str) -> Iterator[np.ndarray]:
    if isinstance(column, int) and column < 0:
        raise ValueError(f"column index must be 0 or more, got {column}")
    col = column if isinstance(column, int) else None
    row = 0  # records read so far
    with open(src, newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(iter(f.readline, ""), delimiter=delimiter)  # checks the delimiter
        if header or col is None:
            for row, fields in enumerate(reader, 1):
                if fields:
                    if col is None:
                        if column not in fields:
                            raise MissingColumn(row - 1, column)
                        col = fields.index(column)
                    break
        with closing(_parses(_blocks(f), col, delimiter, os.fstat(f.fileno()).st_size)) as pairs:
            for block, parsed in pairs:
                if parsed is None:  # raises here, or a quoted field runs on
                    parsed = _exact_values(block, (b for b, _ in pairs), row, col, delimiter)[:2]
                values, records = parsed
                yield values
                row += records


def _parses(blocks: Iterator[str], col: int, delimiter: str,
            size: int) -> Iterator[tuple[str, tuple[np.ndarray, int] | None]]:
    """(block, _block_values of it) for each block, in file order: in tasks
    of _TASK_BLOCKS blocks by one worker process a CPU (_pool.ordered_map),
    while this one reads ahead, for a file of more than _POOL_BYTES with two
    or more CPUs to run on, and here a block at a time otherwise."""
    workers = cpus() if size > _POOL_BYTES else 0  # below 2, parsed here
    tasks = iter(lambda: list(islice(blocks, _TASK_BLOCKS if workers >= 2 else 1)), [])
    parse = partial(_block_task, col=col, delimiter=delimiter)
    with closing(ordered_map(parse, tasks, workers)) as results:
        for task, parsed in results:
            yield from zip(task, parsed)


def _block_task(blocks: list[str], col: int,
                delimiter: str) -> list[tuple[np.ndarray, int] | None]:
    """_block_values of each block: one task of a worker process."""
    return [_block_values(block, col, delimiter) for block in blocks]


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


def _lines(text: str) -> int:
    """The lines of text as csv.reader's line_num counts them: one for each
    line end (\\n, \\r\\n or a lone \\r), and one for an unended last line."""
    ends = text.count("\n")
    if "\r" in text:  # str.count scans far slower than "in"
        ends += text.count("\r") - text.count("\r\n")
    return ends + (text[-1:] not in "\r\n")


def _block_values(block: str, col: int, delimiter: str) -> tuple[np.ndarray, int] | None:
    """The column and the record count of a block parsed on its own, or
    None when the exact parse raises or a quoted field runs on past the
    block's end.

    A quote-free block, whose lines are then its records, is first handed
    to numpy's C text reader; it parses with PyOS_string_to_double, the
    routine behind float(), after stripping the same whitespace.  What it
    rejects (underscores, non-ASCII digits, short rows, bad cells) is a
    subset of what float() rejects, so when it accepts the block and every
    value is finite, the values are float()'s, bit for bit.  Blank lines
    have no cell, where loadtxt would warn, and a block longer than the
    csv module's field limit (only a long line makes it that long) may hold
    a field csv.reader refuses: these and any other block get _exact_values.
    """
    if ('"' not in block and delimiter not in "\r\n" and not block.isspace()
            and len(block) <= csv.field_size_limit()):
        with suppress(ValueError):
            values = np.loadtxt(io.StringIO(block, newline=""), dtype=np.float64,
                                delimiter=delimiter, usecols=col, comments=None,
                                quotechar=None, ndmin=1)
            if np.isfinite(values).all():
                return values, _lines(block)
    try:
        values, records, ran_on = _exact_values(block, (), 0, col, delimiter)
    except (ParseError, NonFiniteValue, csv.Error):
        return None
    return None if ran_on else (values, records)


def _exact_values(block: str, rest: Iterable[str], row: int, col: int,
                  delimiter: str) -> tuple[np.ndarray, int, bool]:
    """The reference parse of the records from block's first, numbered from
    row: csv.reader, then strip, float() and a finiteness check per cell,
    the header excluded.  With rest, its blocks are fed to csv.reader only
    while a quoted field runs on, and the parse stops at the first record
    that ends where a block ends.  Returns the values, the record count and,
    without rest, whether a quoted field runs on past block's end."""
    ends = [_lines(block)]  # reader.line_num at the end of each block fed

    def fed(text: str) -> io.StringIO:
        ends.append(ends[-1] + _lines(text))
        return io.StringIO(text, newline="")

    # asking past the last block notes the last record by then; a field ran
    # on if a record came after
    last, asked = row - 1, []
    past = iter(lambda: asked.append(last), None)
    reader = csv.reader(chain(io.StringIO(block, newline=""),
                              chain.from_iterable(map(fed, rest)), past), delimiter=delimiter)
    values: list[float] = []
    for last, fields in enumerate(reader, row):
        if fields:
            cell = fields[col].strip() if col < len(fields) else ""
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(last, cell) from None
            if not math.isfinite(v):
                raise NonFiniteValue(last, cell)
            values.append(v)
        if rest and reader.line_num == ends[-1]:
            break
    return np.array(values, dtype=np.float64), last + 1 - row, asked != [last]

