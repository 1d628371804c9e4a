"""Columnar CSV reading for trajectory ingestion.

A CSV's records arrive in blocks of columns: one object array of field
strings per column, plus each record's line number.  Callers convert and
check whole columns with array operations and report the first fault by
line, so a file is never walked row by row in Python.
"""

from __future__ import annotations

import csv
import os
import warnings
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import ParseError, SchemaError


#: Records per block of the column reader.  Only one block's field strings
#: are alive at a time, and a block's temporary arrays (64 KiB at most) are
#: small enough for the allocator to recycle block after block instead of
#: mapping fresh memory, so a load leaves the process about as small as it
#: found it.  Pool workers forked after the load inherit that size.
_BLOCK_ROWS = 1 << 10

#: Most rows a Column reserves on the reader's estimate of a file's records
#: (see ``read_columns``); a longer file grows its columns as rows arrive.
_COLUMN_ROWS = 1 << 22


def _tee(lines, taken: list[str]):
    """Yield ``lines``, keeping each one in ``taken``."""
    for line in lines:
        taken.append(line)
        yield line


def _split_fields(lines) -> np.ndarray | None:
    """The next _BLOCK_ROWS records of ``lines`` as a 2-D array of field
    strings; None when the field count changes between them."""
    with warnings.catch_warnings():
        # loadtxt warns when a block holds blank lines or the input has ended
        warnings.simplefilter("ignore", UserWarning)
        try:
            return np.loadtxt(lines, delimiter=",", quotechar='"', comments=None,
                              dtype=object, max_rows=_BLOCK_ROWS, ndmin=2)
        except UnicodeDecodeError:  # a ValueError, but not a field count
            raise
        except ValueError:
            return None


def read_columns(csv_path: Path, expected_header: list[str]):
    """Yield a CSV's data records as blocks of columns.

    Each block is ``(lines, cols, expected)``: the line number of each
    record, one object array of field strings per column, and an estimate of
    the file's data records (the records so far, scaled by the file's size
    over the bytes read so far, plus an eighth; 0 when the size is unknown),
    for a caller to reserve its columns before the rows arrive.  Line
    numbers count csv records, the header and blank records included, so a
    record whose quoted field spans several lines takes one number.  Blank
    records are skipped.  A record with the wrong number of fields raises
    ParseError after the records before it have been yielded, so a caller
    that checks each block as it arrives reports the fault on the lowest
    line.

    ``np.loadtxt`` splits the fields (quotes as ``csv`` reads them).  Where a
    block's lines and records do not pair one to one (blank lines, quoted
    line breaks) or a field count is off, ``csv.reader`` re-reads the block's
    lines to number its records and check their widths exactly.  Bytes that
    are not UTF-8 raise ParseError naming the file.
    """
    try:
        fh = open(csv_path, encoding="utf-8", newline="")
    except OSError as e:
        raise ParseError(f"cannot open {csv_path}: {e}") from e
    try:
        yield from _read_blocks(fh, csv_path, expected_header)
    except UnicodeDecodeError as e:
        raise ParseError(f"{csv_path} is not valid UTF-8 text ({e.reason})") from None
    finally:
        fh.close()


def _read_blocks(fh, csv_path: Path, expected_header: list[str]):
    """The body of ``read_columns`` on an open file."""
    width = len(expected_header)
    try:
        header = next(csv.reader(fh))
    except StopIteration:
        raise SchemaError(f"{csv_path} is empty") from None
    if [h.strip() for h in header] != expected_header:
        missing = set(expected_header) - {h.strip() for h in header}
        raise SchemaError(
            f"{csv_path} header {header} does not match {expected_header}"
            + (f" (missing columns: {sorted(missing)})" if missing else "")
        )
    size = os.fstat(fh.fileno()).st_size if fh.seekable() else 0
    last_line = 1
    rows = 0  # data records yielded
    while True:
        taken: list[str] = []
        block = _split_fields(_tee(fh, taken))
        if not taken:
            return
        if block is not None and block.shape == (len(taken), width):
            lines = np.arange(last_line + 1, last_line + 1 + len(taken))
            last_line += len(taken)
            rows += len(taken)
            yield lines, list(block.T), _expected_records(rows, size, fh)
            continue
        records = list(csv.reader(taken))
        numbered = [(last_line + 1 + i, rec) for i, rec in enumerate(records) if rec]
        last_line += len(records)
        bad = next((k for k, (_, rec) in enumerate(numbered) if len(rec) != width), None)
        good = numbered if bad is None else numbered[:bad]
        if good:
            cols = np.array([rec for _, rec in good], dtype=object).reshape(len(good), width)
            rows += len(good)
            yield (np.array([line for line, _ in good]), list(cols.T),
                   _expected_records(rows, size, fh))
        if bad is not None:
            line, rec = numbered[bad]
            raise ParseError(f"expected {width} fields, found {len(rec)}", line=line)


def _expected_records(records: int, size: int, fh) -> int:
    """``records`` scaled by a file's size over its bytes read so far, plus an
    eighth.  The text reader reads ahead of the records by at most a chunk,
    which the eighth covers from the first block of a large file on."""
    if not size:
        return 0
    expected = records * size // max(fh.buffer.tell(), 1)
    return expected + expected // 8


def parse_floats(texts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``float()`` of each string, and a mask of the strings it rejects (NaN there)."""
    try:
        return np.fromiter(map(float, texts), float, len(texts)), np.zeros(len(texts), bool)
    except ValueError:
        values = np.full(len(texts), np.nan)
        bad = np.zeros(len(texts), bool)
        for i, text in enumerate(texts):
            try:
                values[i] = float(text)
            except ValueError:
                bad[i] = True
        return values, bad


def lookup_codes(texts: np.ndarray, table: dict[str, int]) -> np.ndarray:
    """Code of each string in ``table``; -1 for a string not in it."""
    return np.fromiter(map(table.get, texts, repeat(-1)), np.int8, len(texts))


def raise_first(lines: np.ndarray, checks) -> None:
    """Raise for the lowest line that fails a check.

    ``checks`` lists ``(bad, error, message, *fields)`` in the order a row is
    checked: ``bad`` masks the rows that fail, and the exception for row i is
    ``error`` with ``message`` formatted from the fields' row-i values (and
    ``line``).  A ParseError also carries the line.
    """
    any_bad = np.logical_or.reduce([bad for bad, *_ in checks])
    if any_bad.any():
        i = int(np.argmax(any_bad))
        line = int(lines[i])
        for bad, error, message, *fields in checks:
            if bad[i]:
                text = message.format(*(field[i] for field in fields), line=line)
                raise ParseError(text, line=line) if error is ParseError else error(text)


class Column:
    """An array appended to block by block, in file order.

    The first block reserves the reader's estimate of the file's rows (at
    most _COLUMN_ROWS), so the rows of a file whose records keep their
    length are never moved; a column that outgrows its reservation grows to
    the new estimate, or by a quarter at least.  ``array()`` trims the
    unused tail in place.  Fused rows already in grid order keep these
    arrays as the grid; rows in any other order are scattered from them.
    """

    def __init__(self, dtype, width: int | None = None):
        self._data = np.empty((0,) if width is None else (0, width), dtype)
        self._size = 0

    def extend(self, values: np.ndarray, expected: int) -> None:
        end = self._size + len(values)
        if end > len(self._data):
            rows = max(end, min(expected, _COLUMN_ROWS), len(self._data) * 5 // 4)
            grown = np.empty((rows,) + self._data.shape[1:], self._data.dtype)  # untouched
            grown[:self._size] = self._data[:self._size]
            self._data = grown
        self._data[self._size:end] = values
        self._size = end

    def array(self) -> np.ndarray:
        self._data.resize((self._size,) + self._data.shape[1:], refcheck=False)
        return self._data
