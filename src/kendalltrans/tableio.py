"""Delimited-text formats for original, encoded, weight and rank tables.

Readers skip blank lines and take the delimiter from the header line (tab if
it has one, else comma); writers emit comma. Header names may be quoted but
not repeated. Encoded and weight files start with a metadata line recording
the object count and the pair-scheme tag, e.g. ``#kendall n=4 scheme=rowmajor-v1``,
and hold one row per ordered pair whose cells are bare tokens, stripped of
surrounding whitespace: A, D, T and NA for states, numbers for weights. A
quoted body cell is not unquoted; it is reported at its row and column.
Every file is read as UTF-8, less a leading byte-order mark; any other
bytes are an error naming the file and the offset of the first bad byte.

A state body of bare tokens is decoded in bulk, in one numpy pass over its
bytes. A padded or quoted body, or one with any other fault, takes the
per-cell path instead: about 4x slower, with the same states, or the error
that names the first bad row or cell.
"""

from __future__ import annotations

import csv
import math
import operator
import re
from collections import Counter
from itertools import islice, repeat
from typing import Mapping

import numpy as np

from .errors import DomainError
from .transform import PAIR_SCHEME, KendallSequence, Symbol, pair_count

META_PREFIX = "#kendall"
_META_RE = re.compile(r"^#kendall\s+n=(\d+)\s+scheme=(\S+)\s*$")

_LETTER_OF = {
    Symbol.ASC.value: "A",
    Symbol.DESC.value: "D",
    Symbol.TIE.value: "T",
    Symbol.MISSING.value: "NA",
}
_CODE_OF = {letter: code for code, letter in _LETTER_OF.items()}
# state code of each body byte: A, D, T and the N of NA; 255 marks any other byte
_CODE_OF_BYTE = np.full(256, 255, np.uint8)
_CODE_OF_BYTE[[ord(letter[0]) for letter in _CODE_OF]] = list(_CODE_OF.values())
_LETTERS = np.array([_LETTER_OF[c] for c in range(4)], dtype=object)
_MISSING_TOKENS = {"", "NA", "NaN", "nan", "na"}
_WEIGHT_STATES = ("asc", "desc", "tie")


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float) and math.isnan(value):
        return "NA"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _read_lines(path) -> list[str]:
    """Non-blank lines, less a leading ``#`` comment that is not metadata."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        where = f"byte 0x{data[exc.start]:02x} at offset {exc.start}"
        raise DomainError(f"{path}: not UTF-8 text ({where})") from None
    del data  # free the bytes before the lines are built
    lines = list(filter(None, text.removeprefix("\ufeff").splitlines()))  # a leading BOM is dropped
    if lines and lines[0].startswith("#") and not lines[0].startswith(META_PREFIX):
        del lines[0]
    if not lines:
        raise DomainError(f"{path}: empty file")
    return lines


def _csv_rows(path, lines: list[str], delimiter: str, first_row: int) -> list[list[str]]:
    reader = csv.reader(lines, delimiter=delimiter)
    try:
        return list(reader)
    except csv.Error as exc:
        raise DomainError(
            f"{path}: row {first_row + reader.line_num - 1}: {exc}"
        ) from None


def _parse_header(path, line: str, row: int) -> tuple[list[str], str]:
    """Column names and the delimiter of a header line (tab if it has one)."""
    delimiter = "\t" if "\t" in line else ","
    (header,) = _csv_rows(path, [line], delimiter, row)
    repeated = [name for name, seen in Counter(header).items() if seen > 1]
    if repeated:
        raise DomainError(f"{path}: column {repeated[0]!r} appears more than once")
    return header, delimiter


def read_table(path) -> dict[str, np.ndarray]:
    """Read an original data table: header row, one row per object.

    A leading ``#`` line other than encoded-file metadata is a comment.

    Columns whose non-missing cells all parse as numbers become float
    arrays with NaN for missing; any other column becomes an object array
    with None for missing.
    """
    lines = _read_lines(path)
    if lines[0].startswith(META_PREFIX):
        raise DomainError(f"{path}: this is an encoded file, not an original table")
    header, delimiter = _parse_header(path, lines[0], 1)
    data = _csv_rows(path, lines[1:], delimiter, 2)
    if not data:
        raise DomainError(f"{path}: no data rows")
    for i, row in enumerate(data, start=2):
        if len(row) != len(header):
            raise DomainError(
                f"{path}: row {i} has {len(row)} fields, expected {len(header)}"
            )
    columns: dict[str, np.ndarray] = {}
    for j, name in enumerate(header):
        cells = [None if c in _MISSING_TOKENS else c for c in (row[j].strip() for row in data)]
        try:
            columns[name] = np.array([np.nan if c is None else float(c) for c in cells])
        except ValueError:
            columns[name] = np.array(cells, dtype=object)
    return columns


def write_table(path, columns: Mapping[str, object]) -> None:
    """Write a named table (floats, labels, or ranks), comma-delimited."""
    names = list(columns)
    if not names:
        raise DomainError("nothing to write")
    arrays = [np.asarray(columns[name], dtype=object) for name in names]
    length = len(arrays[0])
    for name, arr in zip(names, arrays):
        if len(arr) != length:
            raise DomainError(f"column {name!r} has length {len(arr)}, expected {length}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(length):
            writer.writerow([_fmt(arr[i]) for arr in arrays])


def _read_pair_rows(path, kind: str) -> tuple[int, list[str], str, list[str]]:
    """Object count, header, delimiter and the m body lines; pair row i is row i + 3."""
    lines = _read_lines(path)
    match = _META_RE.match(lines[0])
    if match is None:
        raise DomainError(
            f"{path}: expected a metadata line like '{META_PREFIX} n=<n> scheme={PAIR_SCHEME}'"
        )
    n, scheme = int(match.group(1)), match.group(2)
    if scheme != PAIR_SCHEME:
        raise DomainError(
            f"{path}: pair scheme {scheme!r} not supported (expected {PAIR_SCHEME!r})"
        )
    if n < 2:
        raise DomainError(f"{path}: invalid object count n={n}")
    if len(lines) < 2:
        raise DomainError(f"{path}: missing header row")
    header, delimiter = _parse_header(path, lines[1], 2)
    del lines[:2]
    m = pair_count(n)
    if len(lines) != m:
        raise DomainError(f"{path}: expected {m} {kind} rows for n={n}, found {len(lines)}")
    return n, header, delimiter, lines


def _cells(path, header: list[str], delimiter: str, lines: list[str]) -> list[str]:
    """Flat row-major body cells, stripped, once every row has len(header) fields."""
    widths = np.fromiter(map(str.count, lines, repeat(delimiter)), np.intp, len(lines)) + 1
    bad = np.flatnonzero(widths != len(header))
    if bad.size:
        i = bad[0]
        raise DomainError(
            f"{path}: row {i + 3} has {widths[i]} fields, expected {len(header)}"
        )
    return list(map(str.strip, delimiter.join(lines).split(delimiter)))


def _decode_states(lines: list[str], delimiter: str, width: int) -> np.ndarray | None:
    """(m, width) state codes of a body of bare A/D/T/NA tokens, decoded in bulk;
    None for any other body, which the per-cell path then reads or rejects."""
    raw = np.frombuffer(("\n".join(lines) + "\n").encode(), np.uint8)
    after_n = np.zeros(raw.size, bool)
    np.equal(raw[:-1], ord("N"), out=after_n[1:])
    if (after_n > (raw == ord("A"))).any():  # an N not followed by A
        return None
    grid = raw[~after_n]  # one byte per cell: NA becomes N
    if grid.size != 2 * width * len(lines):
        return None
    grid = grid.reshape(-1, 2 * width)  # letter, delimiter, ..., letter, newline
    if (grid[:, 1:-1:2] != ord(delimiter)).any() or (grid[:, -1] != ord("\n")).any():
        return None
    codes = _CODE_OF_BYTE[grid[:, ::2]]
    return None if (codes == 255).any() else codes


def _cell_error(path, header: list[str], k: int, problem: str) -> DomainError:
    row, col = divmod(int(k), len(header))
    return DomainError(f"{path}: row {row + 3}, column {header[col]!r}: {problem}")


def _convert_cells(path, header, cells, convert, dtype, problem: str) -> np.ndarray:
    """``convert`` of every cell as an (m, len(header)) array; the first cell it
    rejects is the last one taken from the list iterator, which counts the rest."""
    ahead = iter(cells)
    try:
        flat = np.fromiter(map(convert, ahead), dtype, len(cells))
    except (KeyError, ValueError):
        k = len(cells) - operator.length_hint(ahead) - 1
        raise _cell_error(path, header, k, problem.format(cells[k])) from None
    return flat.reshape(-1, len(header))


def _write_pair_rows(path, n: int, header: list[str], columns: list[list[str]]) -> None:
    """Metadata line, header, then rows joined in blocks, never the whole body."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"{META_PREFIX} n={n} scheme={PAIR_SCHEME}\n")
        csv.writer(fh).writerow(header)
        rows = map(",".join, zip(*columns))
        while block := list(islice(rows, 1 << 16)):
            fh.write("\r\n".join(block) + "\r\n")


def read_transformed(path) -> dict[str, KendallSequence]:
    """Read an encoded system: metadata line, header, n*(n-1) state rows."""
    n, header, delimiter, lines = _read_pair_rows(path, "state")
    codes = _decode_states(lines, delimiter, len(header))
    if codes is None:
        codes = _convert_cells(
            path, header, _cells(path, header, delimiter, lines), _CODE_OF.__getitem__, np.uint8,
            "unknown state {!r} (expected A, D, T or NA)",
        )
    return {name: KendallSequence(codes[:, j], n) for j, name in enumerate(header)}


def write_transformed(path, columns: Mapping[str, KendallSequence]) -> None:
    """Write an encoded system with its metadata line."""
    names = list(columns)
    if not names:
        raise DomainError("nothing to write")
    n = columns[names[0]].n
    for name in names:
        if columns[name].n != n:
            raise DomainError(
                f"column {name!r} has n={columns[name].n}, expected {n}"
            )
    _write_pair_rows(
        path, n, names, [_LETTERS[columns[name].codes].tolist() for name in names]
    )


def read_weights(path) -> tuple[dict[str, np.ndarray], int]:
    """Read per-pair state weights: columns ``<feature>:asc/:desc/:tie``.

    Returns (weights keyed by feature, object count n); each weight array
    has shape (n*(n-1), 3) with columns ordered (asc, desc, tie). Every
    weight must be finite and non-negative.
    """
    n, header, delimiter, lines = _read_pair_rows(path, "weight")
    cells = _cells(path, header, delimiter, lines)
    groups: dict[str, dict[str, int]] = {}
    for j, name in enumerate(header):
        feature, colon, state = name.rpartition(":")
        if not colon or state not in _WEIGHT_STATES:
            raise DomainError(f"{path}: weight column {name!r} lacks a ':asc/:desc/:tie' suffix")
        groups.setdefault(feature, {})[state] = j
    values = _convert_cells(path, header, cells, float, float, "not a number: {!r}")
    bad = np.flatnonzero(~(np.isfinite(values) & (values >= 0)))
    if bad.size:
        k = bad[0]
        problem = "is negative" if math.isfinite(values.flat[k]) else "is not finite"
        raise _cell_error(path, header, k, f"weight {problem}: {cells[k]!r}")
    out: dict[str, np.ndarray] = {}
    for feature, cols in groups.items():
        missing = set(_WEIGHT_STATES) - set(cols)
        if missing:
            raise DomainError(
                f"{path}: feature {feature!r} lacks weight columns {sorted(missing)}"
            )
        out[feature] = np.column_stack([values[:, cols[s]] for s in _WEIGHT_STATES])
    return out, n


def write_weights(path, weights: Mapping[str, np.ndarray], n: int) -> None:
    """Write per-pair state weights in the format read_weights expects."""
    m = pair_count(n)
    names = list(weights)
    if not names:
        raise DomainError("nothing to write")
    header: list[str] = []
    cols: list[list[str]] = []
    for name in names:
        w = np.asarray(weights[name], dtype=float)
        if w.shape != (m, 3):
            raise DomainError(f"weights for {name!r} must have shape ({m}, 3), got {w.shape}")
        for k, state in enumerate(_WEIGHT_STATES):
            header.append(f"{name}:{state}")
            cols.append(list(map(repr, w[:, k].tolist())))
    _write_pair_rows(path, n, header, cols)
