"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance is pinned here and nowhere else.
"""

import itertools
import math

import numpy as np
from scipy.stats import rankdata

from kendalltrans import (
    FeatureRanking,
    KendallSequence,
    Symbol,
    auroc,
    copeland_inverse,
    jaccard_max,
    kendall_tau,
    kendall_transform,
    entropy,
    mi_from_auroc,
    mi_from_tau,
    mutual_information,
    rank_features,
    simulate_bivariate,
    simulate_integration,
    simulate_multivariate,
    make_correlated_table,
    split_merge_rankings,
    transform_system,
)
from kendalltrans.analysis import _rng
from oracle import _count_pairs_brute

A, D = Symbol.ASC, Symbol.DESC

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)


def report(num, message):
    print(f"ACCEPTANCE {num:>2} PASS: {message}")


def increasing_map(rng, x):
    finite = x[~np.isnan(x)]
    lo, hi = finite.min() - 1.0, finite.max() + 1.0
    knots = np.concatenate([[lo], np.sort(rng.uniform(lo, hi, 6)), [hi]])
    values = np.cumsum(rng.uniform(0.1, 2.0, knots.size))
    return np.interp(x, knots, values)


def test_01_closed_form_identity():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 51))
        x = rng.permutation(4 * n)[:n].astype(float)
        y = rng.permutation(4 * n)[:n].astype(float)
        plug_in = mutual_information(kendall_transform(x), kendall_transform(y))
        closed = mi_from_tau(kendall_tau(x, y).tau)
        worst = max(worst, abs(plug_in - closed))
    assert worst < 1e-12
    report(1, f"plug-in MI matches the tau closed form on 1000 pairs (max dev {worst:.2e})")


def test_02_entropy_facts():
    rng = np.random.default_rng(1002)
    for n in (2, 3, 10, 40):
        x = rng.permutation(3 * n)[:n].astype(float)
        assert entropy(kendall_transform(x)) == LOG2
    assert entropy(kendall_transform([6.0, 6.0, 6.0, 6.0])) == 0.0
    assert abs(entropy(kendall_transform([1.0, 1.0, 2.0])) - LOG3) < 1e-15
    report(2, "encoded entropies hit log 2 (tie-free), 0 (constant), log 3 (balanced ties)")


def test_03_auroc_equivalence_exhaustive():
    rng = np.random.default_rng(1003)
    cases = 0
    worst = 0.0
    for n in range(2, 9):
        x = rng.permutation(3 * n)[:n].astype(float)
        kx = kendall_transform(x)
        for bits in itertools.product((0, 1), repeat=n):
            y = np.array(bits)
            if y.min() == y.max():
                continue
            result = auroc(x, y, positive=1)
            closed = mi_from_auroc(result.auc, result.positives, result.negatives)
            plug_in = mutual_information(kx, kendall_transform(y.astype(float)))
            worst = max(worst, abs(closed - plug_in))
            brute_u = sum(
                1
                for i in range(n)
                for j in range(n)
                if y[i] == 1 and y[j] == 0 and x[i] < x[j]
            )
            assert result.u_stat == brute_u
            # same identity evaluated in floats rounds by at most an ulp
            algebraic = result.positives * result.negatives * (1 - result.auc)
            assert abs(result.u_stat - algebraic) < 1e-9
            cases += 1
    assert worst < 1e-12
    report(3, f"AUROC closed form matches plug-in MI on {cases} labelings (max dev {worst:.2e})")


def test_04_inverse_round_trip_exhaustive():
    cases = 0
    for n in range(2, 7):
        for perm in itertools.permutations(range(n)):
            x = np.array(perm, dtype=float)
            ranking = copeland_inverse(kendall_transform(x))
            np.testing.assert_array_equal(ranking.ranks, rankdata(x))
            cases += 1
    cycle = KendallSequence([A, D, D, A, A, D], 3)
    np.testing.assert_array_equal(copeland_inverse(cycle).ranks, [2.0, 2.0, 2.0])
    report(4, f"Copeland inverse recovers the ranking for all {cases} permutations; 3-cycle ties all")


def test_05_monotone_invariance_end_to_end():
    rng = np.random.default_rng(1005)
    for trial in range(100):
        n = 12
        y = rng.normal(size=n)
        table = {
            "f1": y + rng.normal(size=n),
            "f2": rng.normal(size=n),
            "f3": rng.integers(0, 4, n).astype(float),
            "y": y,
        }
        warped = {
            name: increasing_map(rng, np.asarray(v, float))
            for name, v in table.items()
        }
        assert transform_system(table) == transform_system(warped)
        assert rank_features(table, "y") == rank_features(warped, "y")
        _, merged_plain = split_merge_rankings(table, "y", 1.0, _rng(1005, trial))
        _, merged_warped = split_merge_rankings(warped, "y", 1.0, _rng(1005, trial))
        assert merged_plain == merged_warped
    report(5, "encodings, rankings and merged rankings identical under 100 increasing warps")


def test_06_bivariate_normal_patterns():
    null = simulate_bivariate(0.0, 500, reps=100, seed=1006)
    kendall_med = null.percentiles["kendall"][50]
    assert kendall_med < 0.01
    assert null.percentiles["width3"][50] > kendall_med
    assert null.percentiles["width5"][50] > kendall_med

    strong = simulate_bivariate(0.9, 1000, reps=100, seed=1066)
    target = mi_from_tau(2.0 / math.pi * math.asin(0.9))
    dev = abs(strong.percentiles["kendall"][50] - target)
    assert dev < 0.02
    report(
        6,
        "independence medians: pair encoding "
        f"{kendall_med:.5f} < 0.01 < binned bias pattern; r=0.9 median off oracle by {dev:.4f}",
    )


def test_07_three_feature_interaction_patterns():
    dominance = joint_gain = synergy = 0
    for rep in range(100):
        scores = simulate_multivariate(0.5, "linear", n=200, seed=[1007, rep])
        dominance += scores["cmi_a_b_given_y"] > scores["cmi_a_c_given_y"]
        joint_gain += scores["mi_ab_y"] >= max(scores["mi_a_y"], scores["mi_b_y"])
        synergy += scores["interaction_a_b_y"] < 0
    assert dominance >= 95
    assert joint_gain >= 90
    assert synergy >= 90
    report(
        7,
        f"interacting-pair scores dominate in {dominance}/100, joint>=marginals in "
        f"{joint_gain}/100, negative interaction in {synergy}/100",
    )


def test_08_integration_dominance_and_scale_invariance():
    table = make_correlated_table(40, 20, seed=1008)
    result = simulate_integration(table, "y", scale=3.0, reps=100, seed=42)
    wins = int((result.estimates["merged"] > result.estimates["naive"]).sum())
    assert wins >= 95

    for rep in range(5):
        rankings = [
            split_merge_rankings(table, "y", scale, _rng(43, rep))[1]
            for scale in (0.1, 3.0, 1000.0)
        ]
        assert rankings[0] == rankings[1] == rankings[2]
    report(
        8,
        f"merged encoding beats naive re-encoding in {wins}/100 splits; "
        f"merged rankings identical across scales (medians {result.percentiles['merged'][50]:.3f} "
        f"vs {result.percentiles['naive'][50]:.3f})",
    )


def test_09_tau_counter_equivalence():
    rng = np.random.default_rng(1009)
    for _ in range(10_000):
        n = int(rng.integers(5, 501))
        x = rng.permutation(4 * n)[:n].astype(float)
        y = rng.permutation(4 * n)[:n].astype(float)
        fast = kendall_tau(x, y)
        concordant, discordant = _count_pairs_brute(x, y)
        assert (fast.concordant, fast.discordant, fast.m) == (
            concordant,
            discordant,
            n * (n - 1),
        )
        assert fast.tau == (concordant - discordant) / (n * (n - 1))
    report(9, "merge-sort and direct pair counters agree exactly on 10000 instances")


def test_10_ranking_agreement_fixtures():
    # external-data benchmarks are out of reach; hand-enumerated overlap
    # fixtures plus criteria 5 and 8 stand in for them
    names = [f"f{i}" for i in range(10)]
    scores = np.linspace(1.0, 0.1, 10)
    ranking = FeatureRanking(
        entries=tuple((n, float(s)) for n, s in zip(names, scores)),
        method="kendall",
    )
    assert jaccard_max(ranking, {"f0", "f1", "f2"}) == 1.0
    assert jaccard_max(ranking, {"f9"}) == 0.1
    assert jaccard_max(ranking, {"f0", "f9"}) == 0.5
    assert jaccard_max(ranking, {"f1", "f2"}) == 2 / 3
    report(10, "ranking-agreement fixtures hold (stand-in for external-data benchmarks)")
