"""Tests for the plug-in estimators, pair counting and the closed forms."""

import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

import oracle
from kendalltrans import (
    DomainError,
    Symbol,
    auroc,
    bin_equal_width,
    conditional_mi,
    entropy,
    interaction_information,
    kendall_tau,
    kendall_transform,
    make_joint,
    merge_transformed,
    mi_from_auroc,
    mi_from_rho,
    mi_from_tau,
    mutual_information,
)
from kendalltrans.analysis import _decision_sequence
from kendalltrans.infotheory import _aligned_codes
from oracle import _count_pairs_brute

A, D, T, M = Symbol.ASC, Symbol.DESC, Symbol.TIE, Symbol.MISSING

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)


def oracle_entropy(labels):
    """Independent plug-in entropy: Counter over non-missing labels."""
    obs = [v for v in labels if v is not None]
    counts = Counter(obs)
    n = len(obs)
    return -sum(c / n * math.log(c / n) for c in counts.values())


def oracle_mi(xs, ys):
    """Independent plug-in MI via three Counter entropies."""
    pairs = [(x, y) for x, y in zip(xs, ys) if x is not None and y is not None]
    return (
        oracle_entropy([p[0] for p in pairs])
        + oracle_entropy([p[1] for p in pairs])
        - oracle_entropy(pairs)
    )


def labels_of(seq):
    return [None if c == M else Symbol(c) for c in seq.codes]


def random_categorical(rng, n, k=3, missing=0.0):
    vals = rng.integers(0, k, n).astype(float)
    if missing:
        vals[rng.random(n) < missing] = np.nan
    return vals


class TestEntropy:
    def test_tie_free_transform_is_log2_exactly(self):
        for n in (2, 5, 17):
            x = np.random.default_rng(n).permutation(n).astype(float)
            assert entropy(kendall_transform(x)) == LOG2

    def test_constant_transform_is_zero(self):
        assert entropy(kendall_transform([4, 4, 4])) == 0.0

    def test_balanced_tie_mixture_reaches_log3(self):
        h = entropy(kendall_transform([1, 1, 2]))
        assert abs(h - LOG3) < 1e-15

    def test_matches_counter_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = random_categorical(rng, 30, missing=0.2)
            if np.isnan(x).all():
                continue
            got = entropy(x)
            want = oracle_entropy([None if np.isnan(v) else v for v in x])
            assert abs(got - want) < 1e-12

    def test_entropy_with_ties_bounded_by_log3(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 15))
            x = rng.integers(0, max(2, n // 2), n).astype(float)
            h = entropy(kendall_transform(x))
            assert -1e-15 <= h <= LOG3 + 1e-15

    def test_base_conversion(self):
        x = [1.0, 2.0, 3.0]
        assert abs(entropy(kendall_transform(x), base=2) - 1.0) < 1e-15

    def test_invalid_base_rejected(self):
        kx = kendall_transform([1.0, 2.0, 3.0])
        for bad in (1, 1.0, 0.0, -2.0, float("nan")):
            with pytest.raises(DomainError):
                entropy(kx, base=bad)

    def test_all_missing_rejected(self):
        with pytest.raises(DomainError):
            entropy(np.array([np.nan, np.nan]))


def assert_joint_matches_tuples(joint, label_lists):
    """Joint codes against a tuple oracle: same partition, missing -> -1,
    and codes ordered like the tuples they stand for."""
    tuples = list(zip(*label_lists))
    observed = [None not in t for t in tuples]
    assert (joint >= 0).tolist() == observed
    code_of = {}
    for code, tup, ok in zip(joint.tolist(), tuples, observed):
        if ok:
            assert code_of.setdefault(tup, code) == code
    codes = list(code_of.values())
    assert len(set(codes)) == len(codes)
    assert sorted(code_of, key=code_of.get) == sorted(code_of)


class TestMakeJoint:
    def test_pairs_of_states(self):
        kx = kendall_transform([1, 2, 2, 4])
        ky = kendall_transform([1.0, np.nan, 3.0, 0.5])
        joint = make_joint([kx, ky])
        assert joint.dtype == np.int64
        assert_joint_matches_tuples(joint, [labels_of(kx), labels_of(ky)])

    def test_single_input_identity_alphabet(self):
        kx = kendall_transform([3, 1, 4, 1, 5])
        joint = make_joint([kx])
        np.testing.assert_array_equal(joint, kx.codes)
        assert entropy(joint) == entropy(kx)

    def test_missing_propagates(self):
        kx = kendall_transform([1.0, np.nan, 2.0])
        out = make_joint([kx, kendall_transform([1.0, 2.0, 3.0])])
        # pairs (0,1) (0,2) (1,0) (1,2) (2,0) (2,1): all but (0,2), (2,0) touch the NaN
        assert (out == -1).tolist() == [True, False, True, True, False, True]
        assert out[1] < out[4]  # (A, A) before (D, D)

    def test_ragged_rejected(self):
        with pytest.raises(DomainError):
            make_joint([[A, D], [A, D, T]])

    def test_fifty_sequences_stay_below_position_count(self):
        rng = np.random.default_rng(16)
        n = 12
        seqs = []
        for _ in range(50):
            x = rng.integers(0, 4, n).astype(float)
            x[rng.random(n) < 0.05] = np.nan
            seqs.append(kendall_transform(x))
        joint = make_joint(seqs)  # 3**50 radix states would overflow int64
        assert joint.max() < joint.size
        assert_joint_matches_tuples(joint, [labels_of(k) for k in seqs])


class TestMutualInformation:
    def test_self_information_is_marginal_entropy(self):
        kx = kendall_transform([2, 7, 1, 8])
        assert abs(mutual_information(kx, kx) - LOG2) < 1e-15

    def test_hand_built_contingency_example(self):
        kx = kendall_transform([1, 2, 3, 4])
        ky = kendall_transform([1, 3, 2, 4])
        counts = Counter(zip(labels_of(kx), labels_of(ky)))
        assert counts == {(A, A): 5, (D, D): 5, (A, D): 1, (D, A): 1}
        got = mutual_information(kx, ky)
        assert abs(got - oracle_mi(labels_of(kx), labels_of(ky))) < 1e-14
        assert abs(got - 0.2425860) < 1e-6
        assert abs(got - mi_from_tau(2 / 3)) < 1e-12

    def test_constant_marginal_gives_zero(self):
        kx = kendall_transform([5, 5, 5, 5])
        ky = kendall_transform([1, 2, 3, 4])
        assert mutual_information(kx, ky) == 0.0

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            x = random_categorical(rng, 40, missing=0.1)
            y = random_categorical(rng, 40, missing=0.1)
            mi = mutual_information(x, y)
            assert abs(mi - mutual_information(y, x)) < 1e-14
            assert -1e-12 <= mi <= min(entropy(x), entropy(y)) + 1e-12

    def test_matches_counter_oracle_with_missing(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = random_categorical(rng, 25, missing=0.2)
            y = random_categorical(rng, 25, missing=0.2)
            lx = [None if np.isnan(v) else v for v in x]
            ly = [None if np.isnan(v) else v for v in y]
            assert abs(mutual_information(x, y) - oracle_mi(lx, ly)) < 1e-12

    def test_string_labels_count_alike_in_any_dtype(self):
        # numpy string and object arrays of the same labels get the same
        # codes, so the MI does not move even in the last bit
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(10, 60))
            x = rng.integers(0, 5, n).astype(float)
            words = np.array(["pear", "fig", "apple", "kiwi"])[rng.integers(0, 4, n)]
            for labels in (words, words.astype("S")):
                assert mutual_information(x, labels) == mutual_information(
                    x, labels.astype(object)
                )

    def test_distinct_values_stay_linear_in_memory(self):
        rng = np.random.default_rng(17)
        x, y = rng.random(3000), rng.random(3000)
        tracemalloc.start()
        try:
            mi = mutual_information(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(mi - math.log(3000)) < 1e-12
        assert peak < 1_000_000  # a 3000 x 3000 product alphabet needs 72 MB

    def test_no_complete_positions_rejected(self):
        with pytest.raises(DomainError):
            mutual_information(
                np.array([np.nan, 1.0]), np.array([1.0, np.nan])
            )
        with pytest.raises(DomainError):
            mutual_information(np.array([1.0, 2.0]), np.array([1.0]))


class TestConditionalMi:
    def test_constant_condition_equals_mi(self):
        rng = np.random.default_rng(5)
        x = random_categorical(rng, 30)
        y = random_categorical(rng, 30)
        z = np.zeros(30)
        assert abs(conditional_mi(x, y, z) - mutual_information(x, y)) < 1e-14

    def test_self_conditional_is_conditional_entropy(self):
        rng = np.random.default_rng(6)
        x = random_categorical(rng, 30)
        z = random_categorical(rng, 30)
        want = oracle_entropy(list(zip(x, z))) - oracle_entropy(list(z))
        assert abs(conditional_mi(x, x, z) - want) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            x = random_categorical(rng, 20, missing=0.1)
            y = random_categorical(rng, 20, missing=0.1)
            z = random_categorical(rng, 20, missing=0.1)
            assert conditional_mi(x, y, z) >= -1e-12


class TestInteractionInformation:
    def test_constant_condition_gives_zero(self):
        rng = np.random.default_rng(8)
        x = random_categorical(rng, 25)
        y = random_categorical(rng, 25)
        assert abs(interaction_information(x, y, np.ones(25))) < 1e-14

    def test_synergy_is_negative(self):
        rng = np.random.default_rng(9)
        x = rng.integers(0, 2, 400).astype(float)
        y = rng.integers(0, 2, 400).astype(float)
        z = (x.astype(int) ^ y.astype(int)).astype(float)
        assert interaction_information(x, y, z) < -0.5

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            x = random_categorical(rng, 30, missing=0.1)
            y = random_categorical(rng, 30, missing=0.1)
            z = random_categorical(rng, 30, missing=0.1)
            xyz = interaction_information(x, y, z)
            xzy = mutual_information_on_complete(x, z, y)
            assert abs(xyz - xzy) < 1e-12


# values of one object: ties, NaN, infinities and distinct finite values
VALUES = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, 1.0, 2.0]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


def draw_values(draw, n):
    return np.array(draw(st.lists(VALUES, min_size=n, max_size=n)))


def draw_merged(draw, n):
    if n < 4:
        return kendall_transform(draw_values(draw, n))
    cut = draw(st.integers(2, n - 2))
    return merge_transformed(
        [kendall_transform(draw_values(draw, cut)), kendall_transform(draw_values(draw, n - cut))]
    )


def draw_decision_codes(draw, n):
    labels = draw(st.lists(st.sampled_from("abcdef") | st.none(), min_size=n, max_size=n))
    return _decision_sequence(np.array(["a", "b"] + labels[2:], dtype=object))


def draw_integers(draw, size):
    high = draw(st.integers(0, 3 * size))  # small and large alphabets
    return np.array(draw(st.lists(st.integers(-1, high), min_size=size, max_size=size)))


# sequences over the m = n*(n-1) pairs, and sequences over the n objects
PAIR_KINDS = [
    lambda draw, n: kendall_transform(draw_values(draw, n)),
    draw_merged,
    draw_decision_codes,
    lambda draw, n: draw_integers(draw, n * (n - 1)),
]
OBJECT_KINDS = [
    draw_values,
    lambda draw, n: draw_integers(draw, n),
    lambda draw, n: draw(st.lists(st.sampled_from(["a", ("t", 1), None]), min_size=n, max_size=n)),
    lambda draw, n: bin_equal_width(draw_values(draw, n), draw(st.integers(2, 5))),
]


@st.composite
def aligned_sequences(draw):
    n = draw(st.integers(2, 12))
    kinds = draw(st.sampled_from([PAIR_KINDS, OBJECT_KINDS]))
    return [draw(st.sampled_from(kinds))(draw, n) for _ in range(3)]


class TestOneCountTable:
    """Every estimate reads one joint count table, and still sums its terms
    in the order of the per-entropy oracle, so the values agree to the bit."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(aligned_sequences())
    def test_estimators_equal_the_per_entropy_oracle_exactly(self, seqs):
        x, y, z = seqs
        cases = [
            (entropy, [x], oracle.plug_in_entropy),
            (mutual_information, [x, y], oracle.plug_in_mi),
            (conditional_mi, [x, y, z], oracle.plug_in_cmi),
            (interaction_information, [x, y, z], oracle.plug_in_interaction),
        ]
        for estimate, args, want in cases:
            try:
                codes = _aligned_codes(*args)
            except DomainError:
                with pytest.raises(DomainError):
                    estimate(*args)
                continue
            assert estimate(*args).hex() == want(*codes).hex()

    def test_peak_bytes_per_pair(self):
        n = 2000
        rng = np.random.default_rng(33)
        x, y, z = (kendall_transform(rng.permutation(n).astype(float)) for _ in range(3))
        for estimate, args, bound in (
            (mutual_information, (x, y), 10.5),
            (conditional_mi, (x, y, z), 12.0),
        ):
            tracemalloc.start()
            try:
                estimate(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak / (n * (n - 1)) <= bound, estimate.__name__


class TestIntegerCodes:
    def test_minus_one_is_missing(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert mutual_information(x, np.array([-1, 1, 1, -1])) == 0.0
        assert entropy(np.array([-1, 0, 1])) == LOG2

    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_below_minus_one_is_an_error_naming_the_value(self, dtype):
        codes = np.array([-2, 1, 1, -2], dtype=dtype)
        message = r"^integer codes must be non-negative or -1 \(missing\), got -2$"
        for call in (
            lambda: mutual_information([1.0, 2.0, 3.0, 4.0], codes),
            lambda: entropy(codes),
            lambda: make_joint([codes, codes]),
        ):
            with pytest.raises(DomainError, match=message):
                call()


def mutual_information_on_complete(x, y, z):
    """I(x;z) - I(x;z|y) restricted to triple-complete positions."""
    keep = ~(np.isnan(x) | np.isnan(y) | np.isnan(z))
    xs, ys, zs = x[keep], y[keep], z[keep]
    return mutual_information(xs, zs) - conditional_mi(xs, zs, ys)


def brute_tau(x, y):
    """Independent oracle: loop over all ordered pairs."""
    n = len(x)
    c = d = 0
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            if any(math.isnan(v) for v in (x[a], x[b], y[a], y[b])):
                continue
            dx = int(x[a] > x[b]) - int(x[a] < x[b])
            dy = int(y[a] > y[b]) - int(y[a] < y[b])
            if dx * dy > 0:
                c += 1
            elif dx * dy < 0:
                d += 1
    return c, d, n * (n - 1)


class TestKendallTau:
    def test_perfect_concordance_and_discordance(self):
        x = [3.0, 1.0, 4.0, 1.5, 5.0]
        assert kendall_tau(x, x).tau == 1.0
        assert kendall_tau(x, [-v for v in x]).tau == -1.0

    def test_hand_counted_example(self):
        tv = kendall_tau([1, 2, 3, 4], [1, 3, 2, 4])
        assert (tv.concordant, tv.discordant, tv.m) == (10, 2, 12)
        assert tv.tau == pytest.approx(2 / 3, abs=1e-15)

    def test_counters_agree_with_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 25))
            x = rng.integers(0, 8, n).astype(float)
            y = rng.integers(0, 8, n).astype(float)
            x[rng.random(n) < 0.15] = np.nan
            y[rng.random(n) < 0.15] = np.nan
            want = brute_tau(list(x), list(y))
            tv = kendall_tau(x, y)
            assert (tv.concordant, tv.discordant, tv.m) == want
            keep = ~(np.isnan(x) | np.isnan(y))
            assert _count_pairs_brute(x[keep], y[keep]) == want[:2]

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([np.inf, -np.inf, 0.0, -0.0, 1.0, -2.5, np.nan]),
                st.sampled_from([np.inf, -np.inf, 0.0, -0.0, 3.0, np.nan]),
            ),
            min_size=2,
            max_size=60,
        )
    )
    def test_counts_equal_brute_with_infinities_and_signed_zeros(self, pairs):
        # NaN compares false both ways, so the brute counter skips its pairs
        x, y = np.array(pairs).T
        tv = kendall_tau(x, y)
        assert (tv.concordant, tv.discordant) == _count_pairs_brute(x, y)

    def test_tied_infinities_count_as_ties(self):
        tv = kendall_tau([np.inf, np.inf, 1.0], [1.0, 2.0, 3.0])
        assert (tv.concordant, tv.discordant, tv.m) == (0, 4, 6)

    def test_tau_quantization_for_permutations(self):
        n = 4
        taus = {
            kendall_tau(np.arange(n), perm).tau
            for perm in itertools.permutations(range(n))
        }
        assert len(taus) == n * (n - 1) // 2 + 1

    def test_length_errors(self):
        with pytest.raises(DomainError):
            kendall_tau([1.0], [2.0])
        with pytest.raises(DomainError):
            kendall_tau([1, 2], [1, 2, 3])


class TestMiFromTau:
    def test_independence_point(self):
        assert mi_from_tau(0.0) == 0.0

    def test_endpoints_reach_log2(self):
        assert abs(mi_from_tau(1.0) - LOG2) < 1e-15
        assert abs(mi_from_tau(-1.0) - LOG2) < 1e-15

    def test_frozen_midpoint(self):
        assert abs(mi_from_tau(0.5) - 0.1308120359411370) < 1e-15

    def test_even_and_increasing(self):
        grid = np.linspace(0.0, 1.0, 101)
        values = [mi_from_tau(t) for t in grid]
        assert all(
            mi_from_tau(-t) == mi_from_tau(t) for t in grid
        )
        assert all(b > a for a, b in zip(values, values[1:]))
        assert max(values) <= LOG2 + 1e-15

    def test_identity_with_plug_in(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(3, 51))
            x = rng.permutation(n).astype(float)
            y = rng.permutation(n).astype(float)
            mi = mutual_information(kendall_transform(x), kendall_transform(y))
            assert abs(mi - mi_from_tau(kendall_tau(x, y).tau)) < 1e-12

    def test_bit_identical_to_xlogy_form(self):
        rng = np.random.default_rng(41)
        grid = np.concatenate(
            [rng.uniform(-1.0, 1.0, 5000), [0.0, 1.0, -1.0, 1 - 1e-16, -(1 - 1e-16)]]
        )
        for t in grid.tolist():
            want = 0.5 * float(xlogy(1.0 + t, 1.0 + t) + xlogy(1.0 - t, 1.0 - t))
            assert mi_from_tau(t) == want

    def test_domain(self):
        with pytest.raises(DomainError):
            mi_from_tau(1.0001)
        with pytest.raises(DomainError):
            mi_from_tau(float("nan"))


class TestMiFromRho:
    def test_values(self):
        assert mi_from_rho(0.0) == 0.0
        assert abs(mi_from_rho(0.6) - 0.2231435513142097) < 1e-15

    def test_small_value_agreement_with_pair_form(self):
        r = 0.01
        assert abs(mi_from_rho(r) / mi_from_tau(r) - 1.0) < 0.01

    def test_divergence_guard(self):
        for bad in (1.0, -1.0, 1.5):
            with pytest.raises(DomainError):
                mi_from_rho(bad)


class TestAuroc:
    def test_separated_classes(self):
        result = auroc([1, 2, 3, 4], [0, 0, 1, 1])
        assert result == (1.0, 2, 2, 0.0)

    def test_hand_counted_example(self):
        result = auroc([1, 3, 2, 4], [0, 0, 1, 1])
        assert result.auc == 0.75
        assert result.u_stat == 1.0
        assert (result.positives, result.negatives) == (2, 2)

    def test_label_swap_mirrors_auc(self):
        rng = np.random.default_rng(13)
        x = rng.permutation(10).astype(float)
        y = rng.integers(0, 2, 10)
        while len(set(y)) < 2:
            y = rng.integers(0, 2, 10)
        direct = auroc(x, y, positive=1)
        swapped = auroc(x, y, positive=0)
        assert abs(direct.auc - (1.0 - swapped.auc)) < 1e-15

    def test_single_class_rejected(self):
        with pytest.raises(DomainError):
            auroc([1, 2, 3], [1, 1, 1])

    def test_labels_are_coded_as_the_estimators_code_them(self):
        # NaN is a missing label, and -1 in a list is a label, as in
        # mutual_information
        assert auroc([1, 2, 3, 4], ["a", np.nan, "b", "a"]) == (0.5, 1, 2, 1.0)
        assert auroc([1, 2, 3, 4], [-1, 1, 1, -1]) == (0.5, 2, 2, 2.0)
        with pytest.raises(DomainError, match="no order"):
            auroc([1, 2, 3, 4], ["a", 1, "a", 1])
        assert auroc([1, 2, 3, 4], ["a", 1, "a", 1], positive=1) == (0.75, 2, 2, 1.0)

    def test_labels_are_coded_by_value_whatever_the_container(self):
        for y in ([-1, 1, 1, -1], np.array([-1, 1, 1, -1]), np.array([-1, 1, 1, -1], np.int8)):
            assert auroc([1, 2, 3, 4], y) == (0.5, 2, 2, 2.0)
        for y in ([0.0, np.nan, 1.0, 0.0], np.array([0.0, np.nan, 1.0, 0.0], np.float32)):
            assert auroc([1, 2, 3, 4], y) == (0.5, 1, 2, 1.0)
        flags = [True, False, True, False]
        assert auroc([1, 2, 3, 4], np.array(flags)) == auroc([1, 2, 3, 4], flags)

    def test_u_is_brute_force_pair_count(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(3, 12))
            x = rng.permutation(n * 3)[:n].astype(float)
            y = rng.integers(0, 2, n)
            if len(set(y)) < 2:
                continue
            result = auroc(x, y, positive=1)
            brute = sum(
                1
                for i in range(n)
                for j in range(n)
                if y[i] == 1 and y[j] == 0 and x[i] < x[j]
            )
            assert result.u_stat == brute

    def test_memory_stays_linear(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=6000)
        y = np.repeat([0, 1], 3000)
        tracemalloc.start()
        try:
            result = auroc(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.positives == result.negatives == 3000
        assert peak < 1_000_000  # a 3000 x 3000 comparison matrix needs 9 MB


class TestMiFromAuroc:
    def test_uninformative_point(self):
        assert mi_from_auroc(0.5, 3, 5) == 0.0

    def test_frozen_example(self):
        # (2*2*2 / (4*3)) * (0.75*log 3 + log 0.5)
        want = (2 / 3) * (0.75 * LOG3 - LOG2)
        assert abs(mi_from_auroc(0.75, 2, 2) - want) < 1e-15
        assert abs(want - 0.0872080) < 1e-7

    def test_matches_plug_in(self):
        kx = kendall_transform([1, 3, 2, 4])
        ky = kendall_transform([0, 0, 1, 1])
        assert abs(mi_from_auroc(0.75, 2, 2) - mutual_information(kx, ky)) < 1e-12

    def test_symmetric_under_label_swap(self):
        for a_val in np.linspace(0.0, 1.0, 21):
            assert abs(
                mi_from_auroc(a_val, 3, 4) - mi_from_auroc(1.0 - a_val, 3, 4)
            ) < 1e-15

    def test_endpoint_limit(self):
        assert abs(mi_from_auroc(1.0, 2, 2) - (2 / 3) * LOG2) < 1e-15

    def test_bit_identical_to_xlogy_form(self):
        rng = np.random.default_rng(43)
        grid = np.concatenate([rng.uniform(0.0, 1.0, 5000), [0.0, 1.0, 1 - 1e-16]])
        for av in grid.tolist():
            a, b = (int(k) for k in rng.integers(1, 60, 2))
            n = a + b
            term = math.log(2.0) + float(xlogy(av, av) + xlogy(1.0 - av, 1.0 - av))
            assert mi_from_auroc(av, a, b) == (2.0 * a * b / (n * (n - 1))) * term

    def test_empty_class_rejected(self):
        with pytest.raises(DomainError):
            mi_from_auroc(0.7, 0, 4)
        with pytest.raises(DomainError):
            mi_from_auroc(1.2, 2, 2)
