"""Tests for binning, ranking, agreement metrics and the simulation harnesses."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from kendalltrans import (
    DomainError,
    FeatureRanking,
    bin_equal_frequency,
    bin_equal_width,
    entropy,
    expand_categorical,
    jaccard_max,
    kendall_transform,
    make_correlated_table,
    make_joint,
    merge_transformed,
    mutual_information,
    rank_features,
    simulate_bivariate,
    simulate_integration,
    simulate_multivariate,
    spearman_rho,
    split_merge_rankings,
)
from kendalltrans.analysis import PERCENTILE_LEVELS, _decision_sequence, _rng

LOG2 = math.log(2.0)


def increasing_map(rng, x):
    finite = x[~np.isnan(x)]
    lo, hi = finite.min() - 1.0, finite.max() + 1.0
    knots = np.concatenate([[lo], np.sort(rng.uniform(lo, hi, 6)), [hi]])
    values = np.cumsum(rng.uniform(0.1, 2.0, knots.size))
    return np.interp(x, knots, values)


class TestEqualWidth:
    def test_boundary_goes_to_upper_bin(self):
        np.testing.assert_array_equal(bin_equal_width([0.0, 0.5, 1.0], 2), [0, 1, 1])

    def test_labels_within_range(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=100)
        labels = bin_equal_width(x, 3)
        assert set(np.unique(labels)) <= {0, 1, 2}

    def test_not_monotone_invariant(self):
        x = np.array([0.0, 1.0, 2.0])
        before = bin_equal_width(x, 2)
        after = bin_equal_width(np.exp(x), 2)
        assert not np.array_equal(before, after)

    def test_nan_stays_missing(self):
        labels = bin_equal_width([0.0, np.nan, 1.0], 2)
        assert labels[1] == -1

    def test_constant_falls_into_last_bin(self):
        np.testing.assert_array_equal(bin_equal_width([2.0, np.nan, 2.0], 3), [2, -1, 2])
        np.testing.assert_array_equal(bin_equal_width([np.nan, np.nan], 3), [-1, -1])
        with pytest.raises(DomainError):
            bin_equal_width([1.0, 2.0], 1)

    def test_infinite_and_huge_values_bin_without_warning(self):
        # infinities count as the largest finite floats; max - min of the
        # third input overflows float64
        x = [1.0, 2.0, 3.0, np.inf, 5.0, -np.inf]
        np.testing.assert_array_equal(bin_equal_width(x, 3), [1, 1, 1, 2, 1, 0])
        np.testing.assert_array_equal(bin_equal_width([np.inf, np.inf], 2), [1, 1])
        np.testing.assert_array_equal(bin_equal_width([1e308, -1e308, 0.0], 3), [2, 0, 1])
        np.testing.assert_array_equal(bin_equal_frequency([1e308, -1e308, 0.0], 3), [2, 0, 1])
        np.testing.assert_array_equal(
            bin_equal_frequency([np.inf, 1.0, np.inf, 2.0, -np.inf, np.inf], 2),
            [1, 0, 1, 0, 0, 1],
        )


class TestEqualFrequency:
    def test_exact_tertiles(self):
        labels = bin_equal_frequency(np.arange(1.0, 10.0), 3)
        np.testing.assert_array_equal(labels, [0, 0, 0, 1, 1, 1, 2, 2, 2])

    def test_monotone_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=30)
            before = bin_equal_frequency(x, 4)
            after = bin_equal_frequency(increasing_map(rng, x), 4)
            np.testing.assert_array_equal(before, after)

    def test_tie_block_falls_into_lower_bin(self):
        labels = bin_equal_frequency([1.0, 2.0, 2.0, 2.0, 3.0], 2)
        np.testing.assert_array_equal(labels, [0, 0, 0, 0, 1])

    def test_constant_falls_into_bin_zero(self):
        np.testing.assert_array_equal(bin_equal_frequency([5.0, np.nan, 5.0], 2), [0, -1, 0])
        with pytest.raises(DomainError):
            bin_equal_frequency([1.0, 2.0], 1)


class TestRankFeatures:
    def test_identical_feature_tops_with_log2(self):
        rng = np.random.default_rng(2)
        y = rng.permutation(12).astype(float)
        table = {"noise": rng.normal(size=12), "copy": y.copy(), "y": y}
        ranking = rank_features(table, "y")
        assert ranking.names[0] == "copy"
        assert ranking.scores["copy"] == LOG2

    def test_independent_features_score_near_zero(self):
        rng = np.random.default_rng(3)
        table = {
            "a": rng.normal(size=300),
            "b": rng.normal(size=300),
            "y": rng.normal(size=300),
        }
        ranking = rank_features(table, "y")
        assert all(score < 0.02 for score in ranking.scores.values())

    def test_monotone_invariance_of_scores_and_order(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=15)
        table = {
            "f1": y + rng.normal(size=15),
            "f2": rng.normal(size=15),
            "y": y,
        }
        base = rank_features(table, "y")
        warped = {name: increasing_map(rng, np.asarray(v, float)) for name, v in table.items()}
        assert rank_features(warped, "y") == base

    def test_tie_break_keeps_column_order(self):
        y = np.arange(8.0)
        table = {"beta": y.copy(), "alpha": y.copy(), "y": y}
        ranking = rank_features(table, "y")
        assert ranking.names == ("beta", "alpha")

    def test_binary_categorical_decision_matches_numeric_indicator(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=14)
        labels = np.array(["hi" if v > 0 else "lo" for v in x], dtype=object)
        numeric = np.array([1.0 if v > 0 else 0.0 for v in x])
        table_cat = {"f": x, "y": labels}
        table_num = {"f": x, "y": numeric}
        got = rank_features(table_cat, "y")
        want = rank_features(table_num, "y")
        assert got.entries == want.entries
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(10, 40))
            f = rng.integers(0, 6, n).astype(float)
            f[rng.random(n) < 0.1] = np.nan
            labels = np.array(["hi" if v > 0 else "lo" for v in rng.normal(size=n)], dtype=object)
            first_seen = (labels == labels[0]).astype(float)
            got = rank_features({"f": f, "y": labels}, "y")
            assert got.entries == rank_features({"f": f, "y": first_seen}, "y").entries

    def test_multiclass_categorical_decision(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=30)
        labels = np.array(
            ["low" if v < -0.5 else "high" if v > 0.5 else "mid" for v in x],
            dtype=object,
        )
        ranking = rank_features({"f": x, "noise": rng.normal(size=30), "y": labels}, "y")
        assert ranking.names[0] == "f"

    def test_multiclass_decision_matches_indicator_joint(self):
        rng = np.random.default_rng(11)
        for k in (3, 4, 7):
            for _ in range(5):
                x = rng.integers(0, 6, 24).astype(float)
                labels = np.array([f"c{v}" for v in rng.integers(0, k, 24)], dtype=object)
                labels[rng.random(24) < 0.1] = None
                indicators = expand_categorical(labels).values()
                joint = make_joint([kendall_transform(v) for v in indicators])
                want = mutual_information(kendall_transform(x), joint)
                got = rank_features({"f": x, "y": labels}, "y").scores["f"]
                assert abs(got - want) <= 2e-15

    def test_categorical_decision_codes_are_narrow(self):
        rng = np.random.default_rng(13)
        for k in (3, 12, 182):
            labels = np.array([f"c{v}" for v in np.arange(400) % k], dtype=object)
            labels[rng.random(400) < 0.05] = None
            codes = _decision_sequence(labels)
            first_seen: dict = {}
            cat = np.array([
                -1 if v is None else first_seen.setdefault(v, len(first_seen))
                for v in labels
            ])
            k = len(first_seen)
            want = np.where(cat[:, None] == cat[None, :], k * k, k * cat[None, :] + cat[:, None])
            want[(cat[:, None] < 0) | (cat[None, :] < 0)] = -1
            np.testing.assert_array_equal(codes, want[~np.eye(400, dtype=bool)])
            assert codes.dtype == np.min_scalar_type(-k * k - 1)
        n = 2000
        labels = np.array(["a", "b", "c"], dtype=object)[rng.integers(0, 3, n)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            codes = _decision_sequence(labels)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held <= 2 * n * (n - 1)

    def test_one_label_per_object(self):
        rng = np.random.default_rng(12)
        x = rng.integers(0, 10, 200).astype(float)
        labels = np.array([f"id{i}" for i in range(200)], dtype=object)
        score = rank_features({"f": x, "y": labels}, "y").scores["f"]
        # the decision tells every pair apart, so it carries all of H(f)
        assert abs(score - entropy(kendall_transform(x))) < 1e-12

    def test_binned_method_tags_and_difference(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=40)
        feat = increasing_map(rng, y)
        feat_out = feat.copy()
        feat_out[0] += 1e4  # outlier collapses its equal-width bins
        noisy = y + 0.4 * rng.normal(size=40)
        table = {"mono": feat_out, "noisy": noisy, "y": y}
        kend = rank_features(table, "y", method="kendall")
        width = rank_features(table, "y", method="width:3")
        assert kend.method == "kendall"
        assert width.method == "width:3"
        assert kend.names[0] == "mono"
        assert width.names[0] == "noisy"

    def test_errors(self):
        y = np.arange(6.0)
        with pytest.raises(DomainError):
            rank_features({"f": y, "y": y}, "missing")
        with pytest.raises(DomainError):
            rank_features({"y": y}, "y")
        with pytest.raises(DomainError):
            rank_features({"f": y, "y": np.ones(6)}, "y")
        with pytest.raises(DomainError):
            rank_features({"f": y[:5], "y": y}, "y")
        for method in ("magic", "width", "kendall:3"):
            with pytest.raises(DomainError, match="unknown method"):
                rank_features({"f": y, "y": y}, "y", method=method)
        with pytest.raises(DomainError, match="bad bin count"):
            rank_features({"f": y, "y": y}, "y", method="freq:x")
        words = np.array(["a", "b", "c", "d", "e", "f"], dtype=object)
        for method in ("kendall", "width:3"):
            with pytest.raises(DomainError, match="'w'"):
                rank_features({"w": words, "y": y}, "y", method=method)

    def test_degenerate_decision_rejected_in_binned_methods(self):
        y = np.arange(6.0)
        constant_labels = np.array(["same"] * 6, dtype=object)
        # one label once the missing entry is dropped
        gapped = np.array(["a", "a", np.nan, "a", "a", "a"], dtype=object)
        for dec in (np.ones(6), np.full(6, np.nan), constant_labels, gapped):
            for method in ("kendall", "width:3", "freq:3"):
                with pytest.raises(DomainError, match="decision column is constant"):
                    rank_features({"f": y, "y": dec}, "y", method=method)


class TestJaccardMax:
    def ranking(self, *names):
        scores = np.linspace(1.0, 0.1, len(names))
        return FeatureRanking(
            entries=tuple((n, float(s)) for n, s in zip(names, scores)),
            method="kendall",
        )

    def test_perfect_head_agreement(self):
        ranking = self.ranking("a", "b", "c", "d")
        assert jaccard_max(ranking, {"a", "b"}) == 1.0

    def test_singleton_ranked_first(self):
        assert jaccard_max(self.ranking("a", "b", "c"), {"a"}) == 1.0

    def test_singleton_ranked_last_of_ten(self):
        names = [f"f{i}" for i in range(10)]
        assert jaccard_max(self.ranking(*names), {"f9"}) == pytest.approx(0.1)

    def test_errors(self):
        with pytest.raises(DomainError):
            jaccard_max(self.ranking("a", "b"), set())
        with pytest.raises(DomainError):
            jaccard_max(self.ranking("a", "b"), {"zzz"})


class TestSpearmanRho:
    def test_perfect_and_inverse(self):
        x = [3.0, 1.0, 2.0, 5.0]
        assert spearman_rho(x, x) == pytest.approx(1.0)
        assert spearman_rho(x, [-v for v in x]) == pytest.approx(-1.0)

    def test_hand_computed(self):
        assert spearman_rho([1, 2, 3], [2, 1, 3]) == pytest.approx(0.5)

    def test_constant_rejected(self):
        with pytest.raises(DomainError):
            spearman_rho([1, 2, 3], [4, 4, 4])


class TestSimulateBivariate:
    def test_deterministic_per_seed(self):
        a = simulate_bivariate(0.5, 30, reps=5, seed=11)
        b = simulate_bivariate(0.5, 30, reps=5, seed=11)
        for key in a.estimates:
            np.testing.assert_array_equal(a.estimates[key], b.estimates[key])
        assert a.percentiles == b.percentiles

    def test_estimator_keys_and_shape(self):
        result = simulate_bivariate(0.3, 25, reps=7, seed=0)
        assert set(result.estimates) == {"kendall", "width3", "width5", "gauss"}
        assert all(v.shape == (7,) for v in result.estimates.values())

    def test_percentiles_are_order_statistics(self):
        result = simulate_bivariate(0.7, 25, reps=9, seed=1)
        for key, bands in result.percentiles.items():
            sample = set(result.estimates[key].tolist())
            assert set(bands) == set(PERCENTILE_LEVELS)
            assert all(v in sample for v in bands.values())

    def test_first_replicates_do_not_depend_on_the_count(self):
        three = simulate_bivariate(0.6, 20, reps=3, seed=4)
        five = simulate_bivariate(0.6, 20, reps=5, seed=4)
        assert list(three.estimates) == list(five.estimates)
        for key, values in three.estimates.items():
            np.testing.assert_array_equal(values, five.estimates[key][:3])

    def test_domain(self):
        with pytest.raises(DomainError):
            simulate_bivariate(1.0, 30)
        with pytest.raises(DomainError):
            simulate_bivariate(0.5, 3)


class TestSimulateMultivariate:
    def test_pure_first_component_is_fully_informative(self):
        scores = simulate_multivariate(1.0, "linear", n=50, seed=3)
        assert scores["mi_a_y"] == LOG2

    def test_deterministic_and_keyed(self):
        a = simulate_multivariate(0.4, "max", n=30, seed=5)
        b = simulate_multivariate(0.4, "max", n=30, seed=5)
        assert a == b
        assert set(a) == {
            "mi_a_y", "mi_b_y", "mi_ab_y",
            "cmi_a_b_given_y", "cmi_a_c_given_y", "interaction_a_b_y",
        }

    def test_domain(self):
        with pytest.raises(DomainError):
            simulate_multivariate(1.5, "linear", n=30)
        with pytest.raises(DomainError):
            simulate_multivariate(0.5, "linear", n=10)
        with pytest.raises(DomainError):
            simulate_multivariate(0.5, "cubic", n=30)


class TestSimulateIntegration:
    def test_identity_scale_keeps_naive_perfect(self):
        table = make_correlated_table(16, 6, seed=2)
        result = simulate_integration(table, "y", scale=1.0, reps=5, seed=7)
        np.testing.assert_allclose(result.estimates["naive"], 1.0, atol=1e-12)

    def test_merged_rankings_scale_invariant(self):
        table = make_correlated_table(16, 6, seed=2)
        rankings = []
        for scale in (0.1, 3.0, 1000.0):
            _, merged = split_merge_rankings(table, "y", scale, _rng(7, 0))
            rankings.append(merged)
        assert rankings[0] == rankings[1] == rankings[2]

    def test_merged_ranking_equals_merging_the_decision_halves(self):
        # oracle: encode the decision per half and merge it like a feature
        for t in range(12):
            rng = np.random.default_rng(t)
            n = int(rng.integers(8, 30))
            table = {}
            for j in range(3):
                v = rng.integers(0, 5, n) * rng.uniform(0.1, 3.0)
                v[rng.random(n) < 0.15] = np.nan
                table[f"f{j}"] = v
            y = rng.integers(0, 3, n).astype(float)  # heavily tied
            y[rng.random(n) < 0.2] = np.nan
            y[:2] = 0.0, 2.0
            table["y"] = y
            scale = float(rng.uniform(0.1, 5.0))
            _, merged = split_merge_rankings(table, "y", scale, _rng(t, 0))

            perm = _rng(t, 0).permutation(n)
            first, second = perm[: n // 2], perm[n // 2:]

            def fused(v, s):
                return merge_transformed(
                    [kendall_transform(v[first] * s), kendall_transform(v[second])]
                )

            dec = fused(y, 1.0)
            scores = [
                (name, float(mutual_information(fused(table[name], scale), dec)))
                for name in ("f0", "f1", "f2")
            ]
            expected = sorted(scores, key=lambda e: -e[1])
            assert merged.entries == tuple(expected)
            assert merged.method == "kendall-merged"

    def test_callers_table_comes_back_unchanged(self):
        table = make_correlated_table(16, 6, seed=2)
        before = {name: v.copy() for name, v in table.items()}
        split_merge_rankings(table, "y", 3.0, _rng(0))
        for name, v in table.items():
            np.testing.assert_array_equal(v, before[name])

    def test_deterministic(self):
        table = make_correlated_table(16, 6, seed=2)
        a = simulate_integration(table, "y", scale=3.0, reps=4, seed=1)
        b = simulate_integration(table, "y", scale=3.0, reps=4, seed=1)
        for key in a.estimates:
            np.testing.assert_array_equal(a.estimates[key], b.estimates[key])

    def test_domain(self):
        table = make_correlated_table(16, 6, seed=2)
        with pytest.raises(DomainError):
            simulate_integration(table, "y", scale=0.0)
        with pytest.raises(DomainError):
            simulate_integration(table, "y", reps=0)
        words = np.array(list("abcdefghijklmnop"), dtype=object)
        with pytest.raises(DomainError, match="feature column 'w' is not numeric"):
            split_merge_rankings({**table, "w": words}, "y", 2.0, _rng(0))

    def test_short_feature_is_a_domain_error(self):
        table = make_correlated_table(16, 6, seed=2)
        table["f02"] = table["f02"][:-1]
        with pytest.raises(DomainError, match="column 'f02' has length 15, expected 16"):
            split_merge_rankings(table, "y", 2.0, _rng(0))

    def test_unknown_decision_is_a_domain_error(self):
        table = make_correlated_table(16, 6, seed=2)
        with pytest.raises(DomainError, match="decision column 'z' not in table"):
            split_merge_rankings(table, "z", 2.0, _rng(0))

    @pytest.mark.parametrize("big", [1e308, -1e308, math.inf])
    def test_overflowing_feature_is_rejected_before_scaling(self, big):
        table = make_correlated_table(16, 6, seed=2)
        table["f03"][5] = big
        message = re.escape(
            f"feature column 'f03': scale 3.0 times its largest magnitude {abs(big)} is not finite"
        )
        with pytest.raises(DomainError, match=message):
            split_merge_rankings(table, "y", 3.0, _rng(0))
        if math.isfinite(big):  # under scale 1 the same value stays finite
            split_merge_rankings(table, "y", 1.0, _rng(0))

    @pytest.mark.parametrize("n", [2, 3])
    def test_too_few_objects_to_split(self, n):
        table = {"f": np.arange(n, dtype=float), "y": np.arange(n, dtype=float)}
        message = f"^need at least 4 objects to split into two halves of 2, got {n}$"
        with pytest.raises(DomainError, match=message):
            split_merge_rankings(table, "y", 2.0, _rng(0))

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_scale_must_be_positive_and_finite(self, scale):
        table = make_correlated_table(16, 6, seed=2)
        with pytest.raises(DomainError, match=f"positive and finite, got {scale}$"):
            split_merge_rankings(table, "y", scale, _rng(0))


class TestMakeCorrelatedTable:
    def test_shape_names_and_determinism(self):
        t1 = make_correlated_table(12, 5, seed=9)
        t2 = make_correlated_table(12, 5, seed=9)
        assert list(t1) == ["f00", "f01", "f02", "f03", "f04", "y"]
        for key in t1:
            np.testing.assert_array_equal(t1[key], t2[key])
        assert all(len(v) == 12 for v in t1.values())
        assert all((t1[k] > 0).all() for k in t1 if k != "y")


@pytest.mark.parametrize(
    "call",
    [
        lambda: simulate_bivariate(0.5, 10, reps=2, seed=-1),
        lambda: simulate_multivariate(0.5, "linear", 20, seed=[3, -1]),
        lambda: simulate_integration(make_correlated_table(16, 4, seed=1), "y", reps=2, seed=-1),
        lambda: make_correlated_table(seed=-1),
    ],
    ids=["bivariate", "multivariate", "integration", "correlated-table"],
)
def test_negative_seed_is_a_domain_error(call):
    with pytest.raises(DomainError, match="^seed must be non-negative, got -1$"):
        call()
