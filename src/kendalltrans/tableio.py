"""Delimited-text formats for original, encoded, weight and rank tables.

Readers auto-detect comma or tab delimiters; writers always emit comma.
Encoded and weight files start with a metadata line recording the object
count and the pair-scheme tag, e.g. ``#kendall n=4 scheme=rowmajor-v1``;
states are serialized as A, D, T and NA.
"""

from __future__ import annotations

import csv
import math
import re
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
_MISSING_TOKENS = {"", "NA", "NaN", "nan", "na"}


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float) and math.isnan(value):
        return "NA"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _read_rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines()
    if not lines:
        raise DomainError(f"{path}: empty file")
    meta = None
    if lines[0].startswith("#"):
        meta = lines[0]
        lines = lines[1:]
    body = [ln for ln in lines if ln != ""]
    if not body:
        raise DomainError(f"{path}: no header row")
    delimiter = "\t" if "\t" in body[0] else ","
    rows = list(csv.reader(body, delimiter=delimiter))
    if meta is not None and meta.startswith(META_PREFIX):
        rows.insert(0, [meta])
    return rows


def _parse_meta(path, row) -> int:
    match = _META_RE.match(row[0]) if len(row) == 1 else None
    if match is None:
        raise DomainError(
            f"{path}: expected a metadata line like '{META_PREFIX} n=<n> scheme={PAIR_SCHEME}'"
        )
    n = int(match.group(1))
    scheme = match.group(2)
    if scheme != PAIR_SCHEME:
        raise DomainError(
            f"{path}: pair scheme {scheme!r} not supported (expected {PAIR_SCHEME!r})"
        )
    if n < 2:
        raise DomainError(f"{path}: invalid object count n={n}")
    return n


def read_table(path) -> dict[str, np.ndarray]:
    """Read an original data table: header row, one row per object.

    A leading ``#`` line other than encoded-file metadata is a comment.

    Columns whose non-missing cells all parse as numbers become float
    arrays with NaN for missing; any other column becomes an object array
    with None for missing.
    """
    rows = _read_rows(path)
    if rows and len(rows[0]) == 1 and rows[0][0].startswith(META_PREFIX):
        raise DomainError(f"{path}: this is an encoded file, not an original table")
    header, data = rows[0], rows[1:]
    if not data:
        raise DomainError(f"{path}: no data rows")
    for i, row in enumerate(data, start=2):
        if len(row) != len(header):
            raise DomainError(
                f"{path}: row {i} has {len(row)} fields, expected {len(header)}"
            )
    columns: dict[str, np.ndarray] = {}
    for j, name in enumerate(header):
        cells = [row[j].strip() for row in data]
        parsed: list = []
        numeric = True
        for cell in cells:
            if cell in _MISSING_TOKENS:
                parsed.append(None)
                continue
            try:
                parsed.append(float(cell))
            except ValueError:
                numeric = False
                break
        if numeric:
            columns[name] = np.array(
                [np.nan if v is None else v for v in parsed], dtype=float
            )
        else:
            columns[name] = np.array(
                [None if cell in _MISSING_TOKENS else cell for cell in cells],
                dtype=object,
            )
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


def read_transformed(path) -> dict[str, KendallSequence]:
    """Read an encoded system: metadata line, header, n*(n-1) state rows."""
    rows = _read_rows(path)
    n = _parse_meta(path, rows[0])
    if len(rows) < 2:
        raise DomainError(f"{path}: missing header row")
    header, data = rows[1], rows[2:]
    m = pair_count(n)
    if len(data) != m:
        raise DomainError(
            f"{path}: expected {m} state rows for n={n}, found {len(data)}"
        )
    codes = np.empty((m, len(header)), dtype=np.uint8)
    for i, row in enumerate(data):
        if len(row) != len(header):
            raise DomainError(
                f"{path}: row {i + 3} has {len(row)} fields, expected {len(header)}"
            )
        for j, cell in enumerate(row):
            code = _CODE_OF.get(cell.strip())
            if code is None:
                raise DomainError(
                    f"{path}: row {i + 3}, column {header[j]!r}: "
                    f"unknown state {cell!r} (expected A, D, T or NA)"
                )
            codes[i, j] = code
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
    letters = np.array([_LETTER_OF[c] for c in range(4)])
    cols = [letters[columns[name].codes] for name in names]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"{META_PREFIX} n={n} scheme={PAIR_SCHEME}\n")
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in zip(*cols):
            writer.writerow(row)


def read_weights(path) -> tuple[dict[str, np.ndarray], int]:
    """Read per-pair state weights: columns ``<feature>:asc/:desc/:tie``.

    Returns (weights keyed by feature, object count n); each weight array
    has shape (n*(n-1), 3) with columns ordered (asc, desc, tie).
    """
    rows = _read_rows(path)
    n = _parse_meta(path, rows[0])
    if len(rows) < 2:
        raise DomainError(f"{path}: missing header row")
    header, data = rows[1], rows[2:]
    m = pair_count(n)
    if len(data) != m:
        raise DomainError(f"{path}: expected {m} weight rows for n={n}, found {len(data)}")
    groups: dict[str, dict[str, int]] = {}
    for j, name in enumerate(header):
        if ":" not in name:
            raise DomainError(f"{path}: weight column {name!r} lacks a ':asc/:desc/:tie' suffix")
        feature, state = name.rsplit(":", 1)
        if state not in ("asc", "desc", "tie"):
            raise DomainError(f"{path}: unknown state suffix in column {name!r}")
        groups.setdefault(feature, {})[state] = j
    values = np.empty((m, len(header)))
    for i, row in enumerate(data):
        if len(row) != len(header):
            raise DomainError(f"{path}: row {i + 3} has {len(row)} fields, expected {len(header)}")
        for j, cell in enumerate(row):
            try:
                values[i, j] = float(cell)
            except ValueError:
                raise DomainError(
                    f"{path}: row {i + 3}, column {header[j]!r}: not a number: {cell!r}"
                ) from None
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        raise DomainError(
            f"{path}: row {i + 3}, column {header[j]!r}: weight is not finite: {data[i][j]!r}"
        )
    out: dict[str, np.ndarray] = {}
    for feature, cols in groups.items():
        missing = {"asc", "desc", "tie"} - set(cols)
        if missing:
            raise DomainError(
                f"{path}: feature {feature!r} lacks weight columns {sorted(missing)}"
            )
        out[feature] = np.column_stack(
            [values[:, cols["asc"]], values[:, cols["desc"]], values[:, cols["tie"]]]
        )
    return out, n


def write_weights(path, weights: Mapping[str, np.ndarray], n: int) -> None:
    """Write per-pair state weights in the format read_weights expects."""
    m = pair_count(n)
    names = list(weights)
    if not names:
        raise DomainError("nothing to write")
    header: list[str] = []
    cols: list[np.ndarray] = []
    for name in names:
        w = np.asarray(weights[name], dtype=float)
        if w.shape != (m, 3):
            raise DomainError(f"weights for {name!r} must have shape ({m}, 3), got {w.shape}")
        for k, state in enumerate(("asc", "desc", "tie")):
            header.append(f"{name}:{state}")
            cols.append(w[:, k])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"{META_PREFIX} n={n} scheme={PAIR_SCHEME}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(m):
            writer.writerow([repr(float(c[i])) for c in cols])
