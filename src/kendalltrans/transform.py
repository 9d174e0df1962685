"""Pair-relation encoding of ordinal vectors and its rank-aggregation inverse.

An n-vector is laid out over all m = n*(n-1) ordered pairs of its positions;
each pair carries one of four states: the first value sits below the second
(ASC), above it (DESC), equals it (TIE), or at least one of the two is
unknown (MISSING).  The encoding drops scale but keeps the ranking exactly:
any strictly increasing rescaling of the input yields the same sequence, and
Copeland scoring recovers the ranking from a valid sequence.

All sequences of one system must share the same pair ordering; this module
fixes it as row-major with the diagonal skipped (scheme tag "rowmajor-v1").
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError

#: Identifier of the pair ordering used by every sequence in this package.
PAIR_SCHEME = "rowmajor-v1"


class Symbol(enum.IntEnum):
    """State of one ordered index pair (a, b)."""

    ASC = 0      # x[a] < x[b]
    DESC = 1     # x[a] > x[b]
    TIE = 2      # x[a] == x[b]
    MISSING = 3  # x[a] or x[b] unknown

    @property
    def flipped(self) -> "Symbol":
        """State of the mirrored pair (b, a)."""
        return Symbol(_FLIP[self.value])


# ASC <-> DESC, TIE and MISSING are their own mirrors.
_FLIP = np.array([1, 0, 2, 3], dtype=np.uint8)


def _as_ordinal(values) -> np.ndarray:
    """Coerce to a 1-D float vector; NaN is the missing marker."""
    try:
        x = np.asarray(values, dtype=float)
    except (ValueError, TypeError) as exc:
        raise DomainError(f"expected numeric values: {exc}") from None
    if x.ndim != 1:
        raise DomainError(f"expected a 1-D vector, got shape {x.shape}")
    return x


def _dense_ranks(values: np.ndarray) -> np.ndarray:
    """int64 codes 0..k-1 of the distinct values of a float vector, ascending, -1 for NaN;
    equal values, +-inf and +-0.0 included, share a code."""
    out = np.full(values.size, -1, dtype=np.int64)
    ok = ~np.isnan(values)
    _, out[ok] = np.unique(values[ok], return_inverse=True)
    return out


def _off_diagonal(sq: np.ndarray) -> np.ndarray:
    """View of the off-diagonal of a square array, shape (n-1, n), in scheme order.

    Past the first entry, a row-major n x n array falls into rows of n + 1
    that each end on a diagonal entry; dropping that last column leaves the
    pairs row-major with the diagonal skipped.
    """
    n = sq.shape[0]
    return sq.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :-1]


def pair_count(n: int) -> int:
    """Number of ordered pairs, m = n*(n-1)."""
    if n < 2:
        raise DomainError(f"pair space needs n >= 2, got n={n}")
    return n * (n - 1)


def pair_at(index: int, n: int) -> tuple[int, int]:
    """Ordered pair (a, b) sitting at `index` under the row-major scheme.

    The block of pairs with first element a occupies indices
    a*(n-1) .. a*(n-1) + n - 2, with b running over 0..n-1 and skipping a.
    """
    m = pair_count(n)
    index = int(index)
    if not 0 <= index < m:
        raise DomainError(f"pair index {index} out of range for n={n} (m={m})")
    a, r = divmod(index, n - 1)
    return a, r if r < a else r + 1


def pair_index(a: int, b: int, n: int) -> int:
    """Inverse of :func:`pair_at`: scheme position of the pair (a, b)."""
    pair_count(n)
    a, b = int(a), int(b)
    if not (0 <= a < n and 0 <= b < n):
        raise DomainError(f"object indices ({a}, {b}) out of range for n={n}")
    if a == b:
        raise DomainError(f"pair indices must differ, got ({a}, {b})")
    return a * (n - 1) + (b if b < a else b - 1)


def _pack(codes: np.ndarray) -> np.ndarray:
    """Pack 2-bit state codes four to a byte."""
    pad = (-codes.size) % 4
    if pad:
        codes = np.concatenate([codes, np.zeros(pad, dtype=np.uint8)])
    quads = codes.reshape(-1, 4)
    return (
        quads[:, 0]
        | (quads[:, 1] << 2)
        | (quads[:, 2] << 4)
        | (quads[:, 3] << 6)
    ).astype(np.uint8)


def _unpack(packed: np.ndarray, m: int) -> np.ndarray:
    out = np.empty((packed.size, 4), dtype=np.uint8)
    for k in range(4):
        out[:, k] = (packed >> (2 * k)) & 3
    return out.reshape(-1)[:m]


class KendallSequence:
    """Length m = n*(n-1) state sequence, stored packed at two bits per state.

    m grows quadratically in n, so the packed form is kept as the resting
    representation; `codes` unpacks on demand.
    """

    __slots__ = ("_packed", "_n")

    def __init__(self, codes, n: int):
        n = int(n)
        m = pair_count(n)
        arr = np.asarray(codes)
        if arr.ndim != 1 or arr.size != m:
            raise DomainError(
                f"expected {m} states for n={n}, got shape {arr.shape}"
            )
        if arr.dtype.kind not in "biu":
            arr = arr.astype(float)
            if not np.array_equal(arr, np.trunc(arr)):
                raise DomainError("state codes must be integers")
        if arr.size and (arr.min() < 0 or arr.max() > 3):
            raise DomainError("state codes must lie in 0..3")
        self._n = n
        self._packed = _pack(arr.astype(np.uint8, copy=False))

    @property
    def n(self) -> int:
        """Number of objects in the source vector."""
        return self._n

    @property
    def m(self) -> int:
        return self._n * (self._n - 1)

    @property
    def codes(self) -> np.ndarray:
        """Unpacked uint8 state codes (Symbol values), length m."""
        return _unpack(self._packed, self.m)

    def counts(self) -> np.ndarray:
        """Occurrences of (ASC, DESC, TIE, MISSING), in that order."""
        return np.bincount(self.codes, minlength=4)

    def symbol_at(self, a: int, b: int) -> Symbol:
        return self[pair_index(a, b, self._n)]

    def __len__(self) -> int:
        return self.m

    def __getitem__(self, index: int) -> Symbol:
        index = int(index)
        if not 0 <= index < self.m:
            raise IndexError(index)
        byte = self._packed[index >> 2]
        return Symbol((byte >> (2 * (index & 3))) & 3)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KendallSequence):
            return NotImplemented
        return self._n == other._n and np.array_equal(self._packed, other._packed)

    __hash__ = None  # mutable-array backed

    def __repr__(self) -> str:
        asc, desc, tie, miss = self.counts()
        return (
            f"KendallSequence(n={self._n}, m={self.m}, "
            f"asc={asc}, desc={desc}, tie={tie}, missing={miss})"
        )


def kendall_transform(values) -> KendallSequence:
    """Encode every ordered pair of entries as ASC, DESC or TIE.

    Pairs touching a NaN entry come out MISSING.  The output depends on the
    input only through its ranking: kendall_transform(f(x)) equals
    kendall_transform(x) for any strictly increasing f.
    """
    x = _as_ordinal(values)
    n = x.size
    if n < 2:
        raise DomainError(f"need at least 2 observations to form pairs, got {n}")
    states = np.full((n, n), Symbol.TIE.value, dtype=np.uint8)
    # row a holds x[a] against every x[b]; inf vs inf and NaN compare false
    # both ways, so they stay TIE until masked below
    states[x[None, :] > x[:, None]] = Symbol.ASC.value
    states[x[None, :] < x[:, None]] = Symbol.DESC.value
    nan = np.isnan(x)
    states[nan] = Symbol.MISSING.value
    states[:, nan] = Symbol.MISSING.value
    return KendallSequence(_off_diagonal(states).reshape(-1), n)


def transform_system(table: Mapping[str, Sequence]) -> dict[str, KendallSequence]:
    """Encode every column of a named table under one shared pair scheme."""
    if not table:
        raise DomainError("empty system")
    out: dict[str, KendallSequence] = {}
    n = None
    for name, values in table.items():
        try:
            x = _as_ordinal(values)
        except DomainError as exc:
            raise DomainError(f"column {name!r}: {exc}") from None
        if n is None:
            n = x.size
        elif x.size != n:
            raise DomainError(
                f"column {name!r} has length {x.size}, expected {n}"
            )
        out[name] = kendall_transform(x)
    return out


def _label_codes(values) -> tuple[np.ndarray, list]:
    """First-seen codes 0..k-1 of hashable labels (-1 for None or NaN), and the labels."""
    codes = np.full(len(values), -1, dtype=np.int64)
    labels: dict = {}
    for i, v in enumerate(values):
        if v is None or (isinstance(v, float) and np.isnan(v)):
            continue
        codes[i] = labels.setdefault(v, len(labels))
    return codes, list(labels)


def expand_categorical(values) -> dict[str, np.ndarray]:
    """One 0/1 indicator vector per category, keyed by category label.

    Categories appear in first-seen order.  A two-category input yields a
    single indicator (the second column would be redundant).  Missing
    entries (None or NaN) stay NaN in every indicator.
    """
    codes, categories = _label_codes(np.asarray(values, dtype=object))
    if len(categories) < 2:
        raise DomainError(
            f"need at least 2 categories to carry information, got {len(categories)}"
        )
    if len(categories) == 2:
        categories = categories[:1]
    out: dict[str, np.ndarray] = {}
    for j, cat in enumerate(categories):
        ind = (codes == j).astype(float)
        ind[codes < 0] = np.nan
        out[str(cat)] = ind
    return out


def jitter_ties(values, seed, scale: float) -> np.ndarray:
    """Break ties with seed-deterministic uniform noise in (-scale/2, scale/2).

    Only entries participating in a tie are perturbed; a tie-free vector is
    returned unchanged.  Noise is redrawn until the output is tie-free, so
    relations between values further than `scale` apart are preserved.
    """
    if not 0 < scale < math.inf:
        raise DomainError(f"jitter scale must be positive and finite, got {scale}")
    x = _as_ordinal(values).copy()
    codes = _dense_ranks(x) + 1  # 0 marks NaN
    mask = (codes > 0) & (np.bincount(codes)[codes] > 1)
    if not mask.any():
        return x
    tied_inf = x[mask & np.isinf(x)]
    if tied_inf.size:  # noise leaves an infinity infinite, so redraws cannot help
        raise DomainError(f"jitter cannot separate the tied infinite value {tied_inf.min()}")
    rng = np.random.default_rng(seed)
    for _ in range(100):
        candidate = x.copy()
        candidate[mask] += rng.uniform(-scale / 2, scale / 2, int(mask.sum()))
        if _dense_ranks(candidate).max() + 1 == np.count_nonzero(codes):
            return candidate
    raise DomainError(
        f"jitter scale {scale} failed to separate ties after 100 redraws"
    )


@dataclass(frozen=True, eq=False)
class Ranking:
    """Recovered per-object ranking; rank 1 marks the highest-scored object.

    Equal scores share an average (fractional) rank.
    """

    ranks: np.ndarray
    score: np.ndarray

    def __post_init__(self):
        if len(self.ranks) != len(self.score):
            raise DomainError("ranks and score must have equal length")

    def __len__(self) -> int:
        return len(self.ranks)


def _average_ranks(values) -> np.ndarray:
    """Ranks 1..n of a NaN-free vector, ascending; equal values share their mean rank.

    The c equal values whose sorted places end at place e get
    e - (c - 1) / 2, an exact half-integer.
    """
    codes = _dense_ranks(np.asarray(values, dtype=float))
    c = np.bincount(codes)
    return (np.cumsum(c) - (c - 1) / 2)[codes]


def _ranking_from_scores(score: np.ndarray) -> Ranking:
    return Ranking(ranks=_average_ranks(-np.asarray(score, dtype=float)), score=score)


def copeland_inverse(seq: KendallSequence) -> Ranking:
    """Rank objects by wins minus losses over their first-position pairs.

    Each object's pairs (i, .) contribute +1 per ASC and -1 per DESC; TIE
    and MISSING contribute nothing.  On a valid encoding of a tie-free
    vector the recovered ranks equal the value ranks of the source.  Any
    other sequence (cycles, partial votes) is scored the same way; a cycle
    collapses to shared ranks.
    """
    per_object = seq.codes.reshape(seq.n, seq.n - 1)
    score = (
        (per_object == Symbol.ASC.value).sum(axis=1).astype(np.int64)
        - (per_object == Symbol.DESC.value).sum(axis=1)
    )
    return _ranking_from_scores(score)


def weighted_copeland(votes, n: int) -> Ranking:
    """Copeland ranking from per-pair state weights.

    `votes` has shape (m, 3) with columns (ASC, DESC, TIE) holding finite
    non-negative weights for each ordered pair in scheme order; an all-zero
    row marks an unobserved pair.  score(i) sums w_ASC - w_DESC over the
    pairs (i, .).  One-hot rows reproduce :func:`copeland_inverse`.
    """
    m = pair_count(n)
    w = np.asarray(votes, dtype=float)
    if w.shape != (m, 3):
        raise DomainError(f"votes must have shape ({m}, 3) for n={n}, got {w.shape}")
    if not np.isfinite(w).all() or (w < 0).any():
        raise DomainError("vote weights must be finite and non-negative")
    with np.errstate(over="ignore", invalid="ignore"):
        score = (w[:, 0] - w[:, 1]).reshape(n, n - 1).sum(axis=1)
    if not np.isfinite(score).all():
        raise DomainError("vote weight sums overflow float64")
    return _ranking_from_scores(score)
