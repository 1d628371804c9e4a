"""Columnar CSV reading for trajectory ingestion.

A CSV's records arrive in blocks of columns: one object array of field
strings per column, plus each record's line number.  Callers convert and
check whole columns with array operations and report the first fault by
line, so a file is never walked row by row in Python.
"""

from __future__ import annotations

import csv
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

#: Initial rows of a Column: large enough to be mapped on its own, so that
#: growing it remaps it instead of copying it around the heap.
_COLUMN_ROWS = 1 << 16


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

    Each block is ``(lines, cols)``: the line number of each record and one
    object array of field strings per column.  Line numbers count csv
    records, the header and blank records included, so a record whose quoted
    field spans several lines takes one number.  Blank records are skipped.
    A record with the wrong number of fields raises ParseError after the
    records before it have been yielded, so a caller that checks each block
    as it arrives reports the fault on the lowest line.

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
    last_line = 1
    while True:
        taken: list[str] = []
        block = _split_fields(_tee(fh, taken))
        if not taken:
            return
        if block is not None and block.shape == (len(taken), width):
            lines = np.arange(last_line + 1, last_line + 1 + len(taken))
            last_line += len(taken)
            yield lines, list(block.T)
            continue
        records = list(csv.reader(taken))
        numbered = [(last_line + 1 + i, rec) for i, rec in enumerate(records) if rec]
        last_line += len(records)
        bad = next((k for k, (_, rec) in enumerate(numbered) if len(rec) != width), None)
        good = numbered if bad is None else numbered[:bad]
        if good:
            cols = np.array([rec for _, rec in good], dtype=object).reshape(len(good), width)
            yield np.array([line for line, _ in good]), list(cols.T)
        if bad is not None:
            line, rec = numbered[bad]
            raise ParseError(f"expected {width} fields, found {len(rec)}", line=line)


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
    """An array appended to block by block that grows in place (no per-block copies)."""

    def __init__(self, dtype, width: int | None = None):
        self._data = np.empty((_COLUMN_ROWS,) if width is None else (_COLUMN_ROWS, width), dtype)
        self._size = 0

    def extend(self, values: np.ndarray) -> None:
        end = self._size + len(values)
        if end > len(self._data):
            self._data.resize((max(end, 2 * len(self._data)),) + self._data.shape[1:],
                              refcheck=False)
        self._data[self._size:end] = values
        self._size = end

    def array(self) -> np.ndarray:
        self._data.resize((self._size,) + self._data.shape[1:], refcheck=False)
        return self._data
