"""Plug-in information estimators and the closed forms tied to pair encoding.

Entropy and mutual information use maximum-likelihood (empirical frequency)
estimates over categorical sequences, always skipping positions where any
involved sequence is missing.  The closed forms map ordered-pair correlation,
Gaussian correlation and two-class AUROC onto the mutual information of
pair-encoded variables; for tie-free data they agree with the plug-in
estimates exactly.

A "categorical sequence" is anything with a per-position state: a
KendallSequence, a float array (NaN = missing), an integer or boolean array
(-1 = missing), or a sequence of hashables (None/NaN = missing).  Every
plug-in estimate reads one joint count table of its aligned codes, and its
entropies are sums over that table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .transform import KendallSequence, Symbol, _as_ordinal, _dense_ranks, _label_codes

__all__ = [
    "TauValue",
    "AurocResult",
    "entropy",
    "make_joint",
    "mutual_information",
    "conditional_mi",
    "interaction_information",
    "kendall_tau",
    "mi_from_tau",
    "mi_from_rho",
    "auroc",
    "mi_from_auroc",
]


# ---------------------------------------------------------------------------
# categorical normalization
# ---------------------------------------------------------------------------

def _seq_array(seq) -> np.ndarray:
    """Coerce to a 1-D array; Python sequences become object arrays so that
    hashable labels, tuples included, survive intact."""
    if isinstance(seq, np.ndarray):
        arr = seq
    else:
        items = list(seq)
        arr = np.empty(len(items), dtype=object)
        arr[:] = items
    if arr.ndim != 1:
        raise DomainError(f"expected a 1-D sequence, got shape {arr.shape}")
    return arr


def _as_codes(seq) -> np.ndarray:
    """Non-negative integer states of a categorical sequence; -1 is missing.

    KendallSequence and integer codes pass through, Kendall codes as int8;
    an integer below -1 is an error.  Floats are numbered in sorted order,
    strings and other labels in first-seen order whatever their dtype.
    """
    if isinstance(seq, KendallSequence):
        codes = seq.codes.view(np.int8)
        codes[codes == Symbol.MISSING.value] = -1
        return codes
    arr = _seq_array(seq)
    if arr.dtype.kind == "f":
        return _dense_ranks(arr)
    if arr.dtype.kind in "iub":
        low = arr.min(initial=0)
        if low < -1:
            raise DomainError(f"integer codes must be non-negative or -1 (missing), got {low}")
        return arr.view(np.uint8) if arr.dtype.kind == "b" else arr
    return _label_codes(arr)[0]


def _relabel(codes: np.ndarray) -> np.ndarray:
    return np.unique(codes, return_inverse=True)[1]


def _radix(code_arrays) -> np.ndarray:
    """Joint states of aligned non-negative code arrays, ordered
    lexicographically by their parts.

    A code array or partial joint is renumbered with np.unique only when its
    alphabet would exceed the number of positions.  Codes therefore stay
    below that number, so bincount allocates O(n) and int64 never overflows,
    while small alphabets such as Kendall joints are never sorted.
    """
    size = code_arrays[0].size
    joint, base = None, 1
    for codes in code_arrays:
        k = int(codes.max()) + 1
        if k > size:
            codes = _relabel(codes)
            k = int(codes.max()) + 1
        joint = codes if joint is None else joint.astype(np.int64) * k + codes
        base *= k
        if base > size:
            joint = _relabel(joint)
            base = int(joint.max()) + 1
    return joint


def _entropies(code_arrays, subsets) -> list[float]:
    """Plug-in entropies in nats (0*log 0 := 0) of subsets, given as increasing
    index tuples, of aligned non-negative code arrays.  All are sums over one
    joint count table, dense when the product of the alphabets fits within
    the positions; each adds its terms in the lexicographic order of its parts."""
    size = code_arrays[0].size
    ks = [int(c.max()) + 1 for c in code_arrays]
    if math.prod(ks) <= size:
        table = np.bincount(np.ravel_multi_index(code_arrays, ks), minlength=math.prod(ks))
        others = [tuple(i for i in range(len(ks)) if i not in s) for s in subsets]
        marginals = [table.reshape(ks).sum(axis=axes).ravel() for axes in others]
    else:
        _, first, counts = np.unique(_radix(code_arrays), return_index=True, return_counts=True)
        cells = [c[first] for c in code_arrays]
        marginals = [np.bincount(_radix([cells[i] for i in s]), weights=counts) for s in subsets]
    out = []
    for marginal in marginals:
        p = marginal[marginal > 0] / size
        out.append(float(-(p * np.log(p)).sum()))
    return out


def _complete(seqs) -> tuple[list[np.ndarray], np.ndarray]:
    """Codes of equal-length sequences and their jointly observed positions."""
    if not seqs:
        raise DomainError("need at least one sequence")
    codes = [_as_codes(s) for s in seqs]
    sizes = {c.size for c in codes}
    if len(sizes) != 1:
        raise DomainError(f"sequences have unequal lengths {sorted(sizes)}")
    keep = codes[0] >= 0
    for c in codes[1:]:
        keep &= c >= 0
    return codes, keep


def _aligned_codes(*seqs) -> list[np.ndarray]:
    codes, keep = _complete(seqs)
    if not keep.any():
        raise DomainError("no jointly complete positions")
    return [c[keep] for c in codes]


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def entropy(seq, base: float = math.e) -> float:
    """Plug-in entropy of the observed (non-missing) states, nats by default."""
    if not (base > 0 and base != 1):
        raise DomainError(f"log base must be positive and not 1, got {base}")
    codes = _as_codes(seq)
    obs = codes[codes >= 0]
    if obs.size == 0:
        raise DomainError("entropy of an all-missing sequence is undefined")
    (h,) = _entropies([obs], [(0,)])
    return h if base == math.e else h / math.log(base)


def make_joint(seqs) -> np.ndarray:
    """Position-wise joint states of several sequences as int64 codes.

    The codes order the joint states lexicographically by their parts'
    codes; a missing entry in any constituent makes the joint position
    missing (-1).
    """
    codes, keep = _complete(list(seqs))
    out = np.full(keep.size, -1, dtype=np.int64)
    if keep.any():
        out[keep] = _radix([c[keep] for c in codes])
    return out


def mutual_information(x, y) -> float:
    """Plug-in I(x;y) = H(x) + H(y) - H(x,y) over pairwise-complete positions."""
    hx, hy, hxy = _entropies(_aligned_codes(x, y), [(0,), (1,), (0, 1)])
    return hx + hy - hxy


def conditional_mi(x, y, z) -> float:
    """Plug-in I(x;y|z) = H(x,z) + H(y,z) - H(x,y,z) - H(z).

    Estimated over positions where all three sequences are observed.
    """
    hxz, hyz, hxyz, hz = _entropies(_aligned_codes(x, y, z), [(0, 2), (1, 2), (0, 1, 2), (2,)])
    return hxz + hyz - hxyz - hz


def interaction_information(x, y, z) -> float:
    """Three-way interaction I(x;y) - I(x;y|z); negative values mark synergy.

    All terms are estimated over the jointly complete positions, which keeps
    the quantity symmetric in its three arguments.
    """
    subsets = [(0,), (1,), (0, 1), (0, 2), (1, 2), (0, 1, 2), (2,)]
    hx, hy, hxy, hxz, hyz, hxyz, hz = _entropies(_aligned_codes(x, y, z), subsets)
    return (hx + hy - hxy) - (hxz + hyz - hxyz - hz)


# ---------------------------------------------------------------------------
# ordered-pair correlation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TauValue:
    """Ordered-pair concordance statistic and its raw counts."""

    tau: float
    concordant: int
    discordant: int
    m: int


def _inversions(a: np.ndarray) -> int:
    """Strict inversions (i < j with a[i] > a[j]) by divide and conquer."""
    n = a.size
    if n < 2:
        return 0
    if n <= 48:
        return int(np.triu(a[:, None] > a[None, :], 1).sum())
    mid = n // 2
    left, right = a[:mid], a[mid:]
    inv = _inversions(left) + _inversions(right)
    ls, rs = np.sort(left), np.sort(right)
    # per right element: how many left elements exceed it
    inv += int(ls.size * rs.size - np.searchsorted(ls, rs, side="right").sum())
    return inv


def _tied_pairs(codes: np.ndarray) -> int:
    """Unordered pairs that share a code: the sum of c*(c-1)/2 over code counts."""
    c = np.bincount(codes)
    return int((c * (c - 1) // 2).sum())


def _count_pairs_mergesort(xs: np.ndarray, ys: np.ndarray) -> tuple[int, int]:
    """O(n log n) ordered-pair counter; exact for ties as well."""
    nc = xs.size
    if nc < 2:
        return 0, 0
    rx, ry = _dense_ranks(xs), _dense_ranks(ys)
    ties = _tied_pairs(rx) + _tied_pairs(ry) - _tied_pairs(_radix([rx, ry]))
    # sorted by x then y, so tied-x pairs never count as inversions
    discordant_u = _inversions(ry[np.lexsort((ry, rx))])
    concordant_u = nc * (nc - 1) // 2 - ties - discordant_u
    return 2 * concordant_u, 2 * discordant_u


def kendall_tau(x, y) -> TauValue:
    """Concordance statistic over all m = n*(n-1) ordered pairs.

    Pairs tied in either variable, or touching a missing value, enter
    neither the concordant nor the discordant count but stay in the m
    denominator.  The counts take O(n log n).
    """
    xv = _as_ordinal(x)
    yv = _as_ordinal(y)
    if xv.size != yv.size:
        raise DomainError(f"length mismatch: {xv.size} vs {yv.size}")
    n = xv.size
    if n < 2:
        raise DomainError(f"need at least 2 observations, got {n}")
    keep = ~(np.isnan(xv) | np.isnan(yv))
    xs, ys = xv[keep], yv[keep]
    c, d = _count_pairs_mergesort(xs, ys)
    m = n * (n - 1)
    return TauValue(tau=(c - d) / m, concordant=c, discordant=d, m=m)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _xlogx(v: float) -> float:
    """v*log(v) with the limit 0 at v = 0."""
    return v * math.log(v) if v > 0 else 0.0


def mi_from_tau(tau: float) -> float:
    """MI in nats of two pair-encoded tie-free variables with correlation tau.

    Evaluates 0.5*((1+tau)*log(1+tau) + (1-tau)*log(1-tau)); even in tau,
    zero at independence, and bounded by log 2 at tau = +/-1 (the analytic
    limit is returned at the endpoints).
    """
    t = float(tau)
    if not -1.0 <= t <= 1.0:
        raise DomainError(f"tau must lie in [-1, 1], got {tau}")
    return 0.5 * (_xlogx(1.0 + t) + _xlogx(1.0 - t))


def mi_from_rho(rho: float) -> float:
    """Gaussian-model MI in nats from a correlation coefficient.

    Evaluates -0.5*log(1 - rho^2), which diverges as |rho| -> 1; the open
    interval is therefore enforced.
    """
    r = float(rho)
    if not -1.0 < r < 1.0:
        raise DomainError(f"rho must lie strictly inside (-1, 1), got {rho}")
    return -0.5 * math.log1p(-r * r)


class AurocResult(NamedTuple):
    """Cross-class exceedance rate and the matching rank-sum statistic."""

    auc: float
    positives: int
    negatives: int
    u_stat: float


def auroc(x, y, positive=None) -> AurocResult:
    """Fraction of (positive, negative) pairs whose positive x is larger.

    `y` must carry exactly two classes; `positive` picks which one is
    scored (default: the larger label; labels without an order need it).
    Positions with missing x or y are dropped.  u_stat =
    positives*negatives*(1 - auc) counts the non-exceeding pairs.
    """
    xv = _as_ordinal(x)
    yarr = _seq_array(y)
    if xv.size != yarr.size:
        raise DomainError(f"length mismatch: {xv.size} vs {yarr.size}")
    ycodes = _label_codes(yarr.tolist())[0]
    keep = ~np.isnan(xv) & (ycodes >= 0)
    xs, ys = xv[keep], yarr[keep]
    _, first = np.unique(ycodes[keep], return_index=True)
    classes = ys[first].tolist()
    if len(classes) != 2:
        raise DomainError(f"need exactly two classes, got {len(classes)}")
    if positive is None:
        try:
            positive = max(classes)
        except TypeError:
            raise DomainError(
                f"classes {classes[0]!r} and {classes[1]!r} have no order; pass positive="
            ) from None
    elif positive not in classes:
        raise DomainError(f"positive label {positive!r} not present")
    pos_mask = ys == positive
    xpos, xneg = xs[pos_mask], xs[~pos_mask]
    a, b = int(xpos.size), int(xneg.size)
    exceed = int(np.searchsorted(np.sort(xneg), xpos, side="left").sum())
    return AurocResult(
        auc=exceed / (a * b),
        positives=a,
        negatives=b,
        u_stat=float(a * b - exceed),
    )


def mi_from_auroc(auc: float, positives: int, negatives: int) -> float:
    """MI in nats of a tie-free ordinal against a two-class label.

    Closed form (2ab / (n(n-1))) * (log 2 + A log A + (1-A) log(1-A)) with
    a, b the class sizes, n = a + b and A the cross-pair exceedance rate;
    symmetric under A <-> 1-A, with analytic limits at the endpoints.  For
    tie-free x this equals the plug-in MI of the pair encodings exactly.
    """
    a, b = int(positives), int(negatives)
    if a < 1 or b < 1:
        raise DomainError("both classes must be non-empty")
    av = float(auc)
    if not 0.0 <= av <= 1.0:
        raise DomainError(f"auc must lie in [0, 1], got {auc}")
    n = a + b
    term = math.log(2.0) + (_xlogx(av) + _xlogx(1.0 - av))
    return (2.0 * a * b / (n * (n - 1))) * term
