"""Discretisation baselines, MI feature ranking, agreement metrics and the
seeded simulation harnesses.

The simulations draw from counter-based Philox streams keyed by
(seed, replicate), so serial and parallel execution produce identical
replicate values, and every result carries enough state to recompute its
percentile bands.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError
from .infotheory import (
    conditional_mi,
    interaction_information,
    make_joint,
    mi_from_rho,
    mutual_information,
)
from .integrate import merge_transformed
from .transform import (
    _as_ordinal,
    _average_ranks,
    _dense_ranks,
    _label_codes,
    _off_diagonal,
    kendall_transform,
)

__all__ = [
    "FeatureRanking",
    "SimResult",
    "bin_equal_width",
    "bin_equal_frequency",
    "rank_features",
    "jaccard_max",
    "spearman_rho",
    "simulate_bivariate",
    "simulate_multivariate",
    "simulate_integration",
    "split_merge_rankings",
    "make_correlated_table",
]

PERCENTILE_LEVELS = (5, 25, 50, 75, 95)


# ---------------------------------------------------------------------------
# discretisation baselines
# ---------------------------------------------------------------------------

def _bin_labels(values, k: int, inner_edges, side: str) -> np.ndarray:
    """Labels 0..k-1 of the values against the k-1 edges `inner_edges(v)`; NaN stays -1.

    Infinities count as the largest finite floats.  Edges of values above a
    quarter of that come from the values divided by 4 and scaled back (an
    exact power of two), so that max - min cannot overflow.
    """
    x = _as_ordinal(values)
    if k < 2:
        raise DomainError(f"need at least 2 bins, got {k}")
    observed = ~np.isnan(x)
    v = np.nan_to_num(x[observed])
    out = np.full(x.size, -1, dtype=np.int64)
    if v.size:
        s = 4.0 if np.abs(v).max() > np.finfo(float).max / 4 else 1.0
        out[observed] = np.searchsorted(s * inner_edges(v / s), v, side=side)
    return out


def bin_equal_width(values, k: int) -> np.ndarray:
    """Labels 0..k-1 over k equal-width intervals spanning [min, max].

    Intervals are closed on the left, the last one on both sides, so a
    constant column falls into the last bin; NaN stays missing (-1).
    Unlike the pair encoding, the labels are not invariant under nonlinear
    increasing rescalings of the input.
    """
    return _bin_labels(values, k, lambda v: np.linspace(v.min(), v.max(), k + 1)[1:-1], "right")


def bin_equal_frequency(values, k: int) -> np.ndarray:
    """Labels 0..k-1 with edges at the i/k quantiles (linear interpolation).

    Values equal to an edge fall into the lower bin, so a tie block never
    straddles an edge and a constant column falls into bin 0.  NaN stays
    missing (-1).
    """
    return _bin_labels(values, k, lambda v: np.quantile(v, np.arange(1, k) / k), "left")


# ---------------------------------------------------------------------------
# feature ranking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureRanking:
    """Features with their MI scores in nats, best first.

    Equal scores keep the input column order, so rankings are deterministic
    for a given table.
    """

    entries: tuple[tuple[str, float], ...]
    method: str

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)

    @property
    def scores(self) -> dict[str, float]:
        return dict(self.entries)


def _try_ordinal(values):
    """Float view of a column, or None if it is categorical."""
    try:
        return _as_ordinal(values)
    except DomainError:
        return None


def _decision_sequence(values, binner=None):
    """The one encoding of a decision column: pair states, bins or label codes.

    A numeric decision is pair-encoded, or binned by `binner` when given.
    A categorical one is numbered in first-seen order; with a binner those
    codes are the sequence.  Without one, the pair (a, b) of K categories
    gets K*cat[b] + cat[a] when the labels differ, K*K when they agree and
    -1 when either is missing.  That is the partition of pairs that joining
    the K indicator encodings gives, at O(m) for any K; the code order
    makes two categories count exactly like their single indicator.  Pair
    codes take the smallest signed integer type that holds K*K.
    """
    x = _try_ordinal(values)
    if x is not None:
        if _dense_ranks(x).max(initial=-1) < 1:
            raise DomainError("decision column is constant")
        return (binner or kendall_transform)(x)
    cat, labels = _label_codes(np.asarray(values, dtype=object))
    k = len(labels)
    if k < 2:
        raise DomainError("decision column is constant")
    if binner is not None:
        return cat
    dtype = np.min_scalar_type(-k * k - 1)
    cat = cat.astype(dtype)
    ca, cb = cat[:, None], cat[None, :]
    codes = np.where(ca == cb, dtype.type(k * k), dtype.type(k) * cb + ca)
    miss = cat < 0
    codes[miss] = -1
    codes[:, miss] = -1
    return _off_diagonal(codes).reshape(-1)


def _features(table: Mapping[str, Sequence], decision: str) -> dict[str, np.ndarray]:
    """The float feature columns of a table, checked against its decision column."""
    if decision not in table:
        raise DomainError(f"decision column {decision!r} not in table")
    features = {name: v for name, v in table.items() if name != decision}
    if not features:
        raise DomainError("no feature columns besides the decision")
    n = len(np.asarray(table[decision]))
    for name, v in features.items():
        if len(np.asarray(v)) != n:
            raise DomainError(f"column {name!r} has length {len(np.asarray(v))}, expected {n}")
        features[name] = _try_ordinal(v)
        if features[name] is None:
            raise DomainError(f"feature column {name!r} is not numeric")
    return features


def _ranking_from_sequences(
    feature_seqs: Mapping[str, object], decision_seq, method: str
) -> FeatureRanking:
    scored = []
    for name, seq in feature_seqs.items():
        try:
            scored.append((name, float(mutual_information(seq, decision_seq))))
        except DomainError as exc:
            raise DomainError(f"feature column {name!r}: {exc}") from None
    order = sorted(range(len(scored)), key=lambda i: -scored[i][1])
    return FeatureRanking(entries=tuple(scored[i] for i in order), method=method)


_BINNERS = {"width": bin_equal_width, "freq": bin_equal_frequency}


def rank_features(
    table: Mapping[str, Sequence],
    decision: str,
    method: str = "kendall",
) -> FeatureRanking:
    """Rank feature columns by plug-in MI against the decision column.

    method "kendall" pair-encodes the columns (a numeric decision is encoded
    too; a categorical one gets one code per ordered pair of labels).
    Methods "width:<k>" and "freq:<k>" discretise numeric columns into k
    equal-width or equal-frequency bins instead; a categorical decision is
    then used as-is.
    """
    binner = None
    if method != "kendall":
        prefix, colon, count = method.partition(":")
        if not colon or prefix not in _BINNERS:
            raise DomainError(
                f"unknown method {method!r} (expected kendall, width:<k> or freq:<k>)"
            )
        try:
            bins = int(count)
        except ValueError:
            raise DomainError(f"bad bin count in method {method!r}") from None
        binner = functools.partial(_BINNERS[prefix], k=bins)
        method = f"{prefix}:{bins}"
    features = _features(table, decision)
    dec_seq = _decision_sequence(table[decision], binner)
    encode = binner or kendall_transform  # looked up per call, so tracers see it
    seqs = {name: encode(v) for name, v in features.items()}
    return _ranking_from_sequences(seqs, dec_seq, method)


def jaccard_max(ranking: FeatureRanking, reference) -> float:
    """Best Jaccard overlap between any head of the ranking and a reference set."""
    ref = set(reference)
    if not ref:
        raise DomainError("reference set is empty")
    names = ranking.names
    unknown = ref - set(names)
    if unknown:
        raise DomainError(f"reference contains unranked features: {sorted(unknown)}")
    best = 0.0
    head: set = set()
    for name in names:
        head.add(name)
        best = max(best, len(head & ref) / len(head | ref))
    return best


def spearman_rho(x, y) -> float:
    """Pearson correlation of average ranks; positions missing either value are dropped."""
    xv = _as_ordinal(x)
    yv = _as_ordinal(y)
    if xv.size != yv.size:
        raise DomainError(f"length mismatch: {xv.size} vs {yv.size}")
    keep = ~(np.isnan(xv) | np.isnan(yv))
    xs, ys = xv[keep], yv[keep]
    if xs.size < 2:
        raise DomainError("need at least 2 complete observations")
    rx, ry = _average_ranks(xs), _average_ranks(ys)
    if np.ptp(rx) == 0 or np.ptp(ry) == 0:
        raise DomainError("rank correlation of a constant vector is undefined")
    return float(np.corrcoef(rx, ry)[0, 1])


# ---------------------------------------------------------------------------
# simulation harnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SimResult:
    """Per-replicate estimates plus nearest-rank percentile bands."""

    estimates: dict[str, np.ndarray]
    percentiles: dict[str, dict[int, float]]


def _five_point(values: np.ndarray) -> dict[int, float]:
    # nearest-rank (lower) so every band value is an actual replicate
    qs = np.percentile(values, PERCENTILE_LEVELS, method="lower")
    return {level: float(q) for level, q in zip(PERCENTILE_LEVELS, qs)}


def _summarize(estimates: dict[str, np.ndarray]) -> SimResult:
    return SimResult(
        estimates=estimates,
        percentiles={k: _five_point(v) for k, v in estimates.items()},
    )


def _rng(seed, *stream) -> np.random.Generator:
    """Philox generator keyed by (seed, stream...)."""
    key = [int(s) for s in seed] if isinstance(seed, (list, tuple)) else [int(seed)]
    key.extend(int(s) for s in stream)
    if min(key) < 0:
        raise DomainError(f"seed must be non-negative, got {min(key)}")
    return np.random.Generator(np.random.Philox(seed=key))


def _replicates(draw, reps: int, seed) -> dict[str, np.ndarray]:
    """`draw(key)` once per replicate, key = [*seed, rep]; one array per named value."""
    if reps < 1:
        raise DomainError(f"need at least 1 replicate, got {reps}")
    prefix = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    draws = [draw([*prefix, rep]) for rep in range(reps)]
    return {name: np.array([d[name] for d in draws]) for name in draws[0]}


def _standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    # inverse-CDF sampling keeps the draw count fixed per replicate
    from scipy.special import ndtri  # imported here to keep the package import light

    u = rng.random(shape)
    return ndtri(np.maximum(u, 1e-300))


def simulate_bivariate(r: float, n: int, reps: int = 100, seed: int = 0) -> SimResult:
    """MI estimates for correlated standard-normal pairs, one value per replicate.

    Estimators: "kendall" (plug-in MI of the pair encodings), "width3" and
    "width5" (plug-in MI after equal-width binning), and "gauss" (the
    Gaussian closed form on the sample Pearson correlation).
    """
    if not -1.0 < r < 1.0:
        raise DomainError(f"correlation must lie in (-1, 1), got {r}")
    if n < 5:
        raise DomainError(f"need n >= 5, got {n}")
    root = math.sqrt(1.0 - r * r)

    def draw(key):
        z = _standard_normal(_rng(key), (n, 2))
        x = z[:, 0]
        y = r * z[:, 0] + root * z[:, 1]
        return {
            "kendall": mutual_information(kendall_transform(x), kendall_transform(y)),
            "width3": mutual_information(bin_equal_width(x, 3), bin_equal_width(y, 3)),
            "width5": mutual_information(bin_equal_width(x, 5), bin_equal_width(y, 5)),
            "gauss": mi_from_rho(float(np.corrcoef(x, y)[0, 1])),
        }

    return _summarize(_replicates(draw, reps, seed))


def simulate_multivariate(
    lam: float, kind: str = "linear", n: int = 200, seed: int = 0
) -> dict[str, float]:
    """Information scores of one synthetic three-feature draw.

    Draws a, b, c ~ U(0,1) and builds the decision y = lam*a + (1-lam)*b
    (kind "linear") or y = max(lam*a, (1-lam)*b) (kind "max"); c stays
    irrelevant and serves as the conditional baseline.  All scores are
    plug-in estimates on the pair encodings, in nats.
    """
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"mixing weight must lie in [0, 1], got {lam}")
    if n < 20:
        raise DomainError(f"need n >= 20, got {n}")
    if kind not in ("linear", "max"):
        raise DomainError(f"unknown decision kind {kind!r}")
    rng = _rng(seed)
    u = rng.random((n, 3))
    a, b, c = u[:, 0], u[:, 1], u[:, 2]
    y = lam * a + (1.0 - lam) * b if kind == "linear" else np.maximum(lam * a, (1.0 - lam) * b)
    ka, kb, kc, ky = (kendall_transform(v) for v in (a, b, c, y))
    kab = make_joint([ka, kb])
    return {
        "mi_a_y": mutual_information(ka, ky),
        "mi_b_y": mutual_information(kb, ky),
        "mi_ab_y": mutual_information(kab, ky),
        "cmi_a_b_given_y": conditional_mi(ka, kb, ky),
        "cmi_a_c_given_y": conditional_mi(ka, kc, ky),
        "interaction_a_b_y": interaction_information(ka, kb, ky),
    }


def split_merge_rankings(
    table: Mapping[str, Sequence],
    decision: str,
    scale: float,
    rng: np.random.Generator,
) -> tuple[FeatureRanking, FeatureRanking]:
    """One split-and-rescale perturbation, ranked two ways.

    The objects are split in half at random and every feature value in the
    first half is multiplied by `scale`, which must be positive and finite
    and keep every scaled value finite (the decision is left alone).  The
    "naive" ranking re-encodes the fused perturbed columns; the "merged"
    ranking encodes each half separately and fuses the encodings, leaving
    cross-half pairs missing.
    """
    if not 0 < scale < math.inf:
        raise DomainError(f"scale must be positive and finite, got {scale}")
    features = _features(table, decision)
    y = np.asarray(table[decision])
    n = len(y)
    if n < 4:
        raise DomainError(f"need at least 4 objects to split into two halves of 2, got {n}")
    for name, v in features.items():
        top = float(np.abs(v[~np.isnan(v)]).max(initial=0.0))
        if not math.isfinite(scale * top):
            raise DomainError(
                f"feature column {name!r}: scale {scale} times its largest magnitude {top} "
                "is not finite"
            )
    perm = rng.permutation(n)
    first, second = perm[: n // 2], perm[n // 2:]
    factor = np.ones(n)
    factor[first] = scale
    scaled = {name: v * factor for name, v in features.items()}
    dec_seq = _decision_sequence(y)
    naive = _ranking_from_sequences(
        {name: kendall_transform(v) for name, v in scaled.items()}, dec_seq, "kendall"
    )
    # cross-half pairs of every merged feature are MISSING, so only
    # within-half pairs count, and there the decision in split order has
    # the states of its per-half encodings
    merged_seqs = {
        name: merge_transformed([kendall_transform(v[first]), kendall_transform(v[second])])
        for name, v in scaled.items()
    }
    merged = _ranking_from_sequences(
        merged_seqs, _decision_sequence(y[perm]), "kendall-merged"
    )
    return naive, merged


def _ranking_agreement(candidate: FeatureRanking, reference: FeatureRanking) -> float:
    ref_scores = reference.scores
    cand_scores = candidate.scores
    a = [cand_scores[name] for name in reference.names]
    b = [ref_scores[name] for name in reference.names]
    try:
        return spearman_rho(a, b)
    except DomainError:
        return 0.0  # a degenerate (constant) ranking carries no agreement


def simulate_integration(
    table: Mapping[str, Sequence],
    decision: str,
    scale: float = 3.0,
    reps: int = 100,
    seed: int = 0,
) -> SimResult:
    """Ranking agreement under a simulated loss of calibration.

    Per replicate, :func:`split_merge_rankings` perturbs a random half of
    the objects and both processings are compared to the ranking of the
    clean table via Spearman correlation of the per-feature scores.  Keys:
    "naive" and "merged".
    """
    reference = rank_features(table, decision)

    def draw(key):
        naive, merged = split_merge_rankings(table, decision, scale, _rng(key))
        return {
            "naive": _ranking_agreement(naive, reference),
            "merged": _ranking_agreement(merged, reference),
        }

    return _summarize(_replicates(draw, reps, seed))


def make_correlated_table(
    n: int = 40, features: int = 20, seed: int = 0, decision: str = "y"
) -> dict[str, np.ndarray]:
    """Synthetic positive-valued table with graded feature relevance.

    Every feature loads on one latent factor with a strength ramping from
    weak to strong across columns; the decision column is a noisy read-out
    of the factor.  Feature values are exponentiated with per-feature
    scales, mimicking concentration-style measurements of very different
    magnitudes.
    """
    if n < 4 or features < 2:
        raise DomainError("need at least 4 objects and 2 features")
    rng = _rng(seed)
    latent = _standard_normal(rng, n)
    loadings = np.linspace(0.1, 0.9, features)
    spreads = np.exp(rng.uniform(np.log(0.2), np.log(2.5), features))
    cols: dict[str, np.ndarray] = {}
    for j, (alpha, spread) in enumerate(zip(loadings, spreads)):
        noise = _standard_normal(rng, n)
        cols[f"f{j:02d}"] = np.exp(spread * (alpha * latent + (1.0 - alpha) * noise))
    cols[decision] = latent + 0.25 * _standard_normal(rng, n)
    return cols
