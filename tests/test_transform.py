"""Tests for the pair scheme, the encoding, tie utilities and the inverse."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from kendalltrans import (
    DomainError,
    KendallSequence,
    Symbol,
    bin_equal_frequency,
    bin_equal_width,
    copeland_inverse,
    expand_categorical,
    jitter_ties,
    kendall_tau,
    kendall_transform,
    pair_at,
    pair_count,
    pair_index,
    spearman_rho,
    transform_system,
    weighted_copeland,
)
from kendalltrans.transform import _average_ranks, _dense_ranks, _off_diagonal

A, D, T, M = Symbol.ASC, Symbol.DESC, Symbol.TIE, Symbol.MISSING


def brute_transform(x):
    """Independent oracle: explicit double loop over ordered pairs."""
    x = [float(v) for v in x]
    n = len(x)
    out = []
    for a in range(n):
        for b in range(n):
            if b == a:
                continue
            if math.isnan(x[a]) or math.isnan(x[b]):
                out.append(M)
            elif x[b] > x[a]:
                out.append(A)
            elif x[a] > x[b]:
                out.append(D)
            else:
                out.append(T)
    return out


def symbols(seq):
    return [Symbol(c) for c in seq.codes]


def increasing_map(rng, x):
    """Random strictly increasing piecewise-linear map covering the data range."""
    finite = x[~np.isnan(x)]
    lo, hi = finite.min() - 1.0, finite.max() + 1.0
    knots = np.sort(rng.uniform(lo, hi, 6))
    knots = np.concatenate([[lo], knots, [hi]])
    values = np.cumsum(rng.uniform(0.1, 2.0, knots.size))
    return np.interp(x, knots, values)


class TestPairScheme:
    def test_first_and_last_pair_for_three_objects(self):
        assert pair_at(0, 3) == (0, 1)
        assert pair_at(5, 3) == (2, 1)

    def test_round_trip_n4(self):
        for k in range(12):
            a, b = pair_at(k, 4)
            assert pair_index(a, b, 4) == k

    def test_bijection_exhaustive_up_to_32(self):
        for n in range(2, 33):
            seen = set()
            for k in range(pair_count(n)):
                a, b = pair_at(k, n)
                assert a != b and 0 <= a < n and 0 <= b < n
                assert pair_index(a, b, n) == k
                seen.add((a, b))
            assert len(seen) == n * (n - 1)

    def test_out_of_range_errors(self):
        with pytest.raises(DomainError):
            pair_at(6, 3)
        with pytest.raises(DomainError):
            pair_at(-1, 3)
        with pytest.raises(DomainError):
            pair_at(0, 1)
        with pytest.raises(DomainError):
            pair_index(0, 0, 3)
        with pytest.raises(DomainError):
            pair_index(0, 3, 3)

    def test_off_diagonal_matches_pair_at(self):
        for n in range(2, 33):
            flat = _off_diagonal(np.arange(n * n).reshape(n, n)).reshape(-1)
            assert [divmod(int(i), n) for i in flat] == [
                pair_at(k, n) for k in range(pair_count(n))
            ]


class TestKendallTransform:
    def test_hand_enumerated_examples(self):
        assert symbols(kendall_transform([3, 1, 2])) == [D, D, A, A, A, D]
        assert symbols(kendall_transform([1, 1, 2])) == [T, A, T, A, D, D]

    def test_matches_brute_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = rng.integers(2, 12)
            x = rng.integers(0, 6, n).astype(float)  # ties likely
            x[rng.random(n) < 0.2] = np.nan
            if np.isnan(x).all():
                continue
            assert symbols(kendall_transform(x)) == brute_transform(x)
        # sizes around 256 and 512, with infinities
        for n in (255, 256, 257, 513):
            x = rng.integers(-6, 6, n) * 0.3
            x[rng.random(n) < 0.05] = np.nan
            x[rng.random(n) < 0.03] = np.inf
            x[rng.random(n) < 0.03] = -np.inf
            assert kendall_transform(x).codes.tolist() == brute_transform(x)

    def test_monotone_invariance_cubic(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.normal(size=8)
            assert kendall_transform(x) == kendall_transform(x**3 + 5)

    def test_monotone_invariance_random_piecewise_linear(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.normal(size=10)
            assert kendall_transform(x) == kendall_transform(increasing_map(rng, x))

    def test_antisymmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            x = rng.integers(0, 4, n).astype(float)
            x[rng.random(n) < 0.2] = np.nan
            seq = kendall_transform(x)
            for a in range(n):
                for b in range(n):
                    if a != b:
                        assert seq.symbol_at(a, b) == seq.symbol_at(b, a).flipped

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(-4, 4).map(lambda v: v / 2),
                st.sampled_from([math.nan, math.inf, -math.inf]),
            ),
            min_size=2,
            max_size=40,
        )
    )
    def test_antisymmetry_property(self, x):
        seq = kendall_transform(x)
        for a in range(seq.n):
            for b in range(seq.n):
                if a != b:
                    assert seq.symbol_at(a, b) == seq.symbol_at(b, a).flipped

    def test_memory_per_pair(self):
        n = 2000
        m = n * (n - 1)
        x = np.random.default_rng(9).normal(size=n)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            seq = kendall_transform(x)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - start) / m <= 4.0
        # only the packed result stays: no per-n cache outlives the call
        assert (held - start - seq._packed.nbytes) / m < 0.01

    def test_tie_free_balance(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 7, 20):
            x = rng.permutation(n).astype(float)
            counts = kendall_transform(x).counts()
            assert counts[A] == counts[D] == n * (n - 1) // 2
            assert counts[T] == counts[M] == 0

    def test_missing_propagation(self):
        seq = kendall_transform([1.0, np.nan, 3.0])
        for a in range(3):
            for b in range(3):
                if a == b:
                    continue
                expected = M if 1 in (a, b) else (A if a < b else D)
                assert seq.symbol_at(a, b) == expected

    def test_too_short(self):
        with pytest.raises(DomainError):
            kendall_transform([1.0])

    def test_infinities_tie_without_warning(self):
        # the last input overflows if the encoder subtracts values
        for x in ([np.inf, -np.inf, np.inf, 1.0, -np.inf], [1e308, -1e308, 0.0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                seq = kendall_transform(x)
            assert symbols(seq) == brute_transform(x)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        st.lists(
            st.one_of(
                # quarters cube and scale exactly, so f stays strictly increasing
                st.integers(-40, 40).map(lambda v: v / 4),
                st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
            ),
            min_size=2,
            max_size=40,
        ),
        st.sampled_from([0.25, 3.0, 1e6]),
        st.integers(-100, 100),
    )
    def test_monotone_invariance_property(self, x, scale, shift):
        x = np.array(x)
        packed = kendall_transform(x)._packed.tobytes()
        assert kendall_transform(scale * x + shift)._packed.tobytes() == packed
        assert kendall_transform(x**3)._packed.tobytes() == packed


class TestTransformSystem:
    def test_shapes_and_order(self):
        table = {"a": [1, 2, 3, 4], "b": [4, 3, 2, 1], "c": [1, 1, 2, 2]}
        out = transform_system(table)
        assert list(out) == ["a", "b", "c"]
        assert all(seq.m == 12 for seq in out.values())

    def test_constant_column_is_all_tie(self):
        out = transform_system({"const": [5, 5, 5]})
        assert symbols(out["const"]) == [T] * 6

    def test_ragged_columns_rejected(self):
        with pytest.raises(DomainError, match="'b'"):
            transform_system({"a": [1, 2, 3], "b": [1, 2]})


class TestExpandCategorical:
    def test_three_categories(self):
        out = expand_categorical(["red", "blue", "red", "green"])
        assert list(out) == ["red", "blue", "green"]
        np.testing.assert_array_equal(out["red"], [1, 0, 1, 0])
        np.testing.assert_array_equal(out["blue"], [0, 1, 0, 0])
        np.testing.assert_array_equal(out["green"], [0, 0, 0, 1])

    def test_binary_single_indicator(self):
        out = expand_categorical(["yes", "no", "yes"])
        assert list(out) == ["yes"]
        np.testing.assert_array_equal(out["yes"], [1, 0, 1])

    def test_constant_rejected(self):
        with pytest.raises(DomainError):
            expand_categorical(["only", "only"])

    def test_missing_propagates(self):
        out = expand_categorical(["a", None, "b", "a"])
        assert np.isnan(out["a"][1])

    def test_indicator_transform_alphabet(self):
        out = expand_categorical(["x", "y", "x", "z"])
        for indicator in out.values():
            seq = kendall_transform(indicator)
            assert seq.counts()[M] == 0
            # within-class pairs are ties
            same = [
                (a, b)
                for a in range(4)
                for b in range(4)
                if a != b and indicator[a] == indicator[b]
            ]
            for a, b in same:
                assert seq.symbol_at(a, b) == T


class TestJitterTies:
    def test_tie_free_unchanged(self):
        x = np.array([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(jitter_ties(x, 1, 0.5), x)

    def test_breaks_ties_preserving_relations(self):
        for seed in range(5):
            out = jitter_ties([1.0, 1.0, 2.0], seed, 0.5)
            assert np.unique(out).size == 3
            assert out[0] < out[2] and out[1] < out[2]

    def test_deterministic(self):
        a = jitter_ties([1, 1, 2, 2, 3], 99, 0.1)
        b = jitter_ties([1, 1, 2, 2, 3], 99, 0.1)
        np.testing.assert_array_equal(a, b)

    def test_heavy_ties_fully_separated(self):
        out = jitter_ties([1.0] * 50, 0, 1e-6)
        assert np.unique(out).size == 50

    def test_nan_untouched(self):
        out = jitter_ties([1.0, 1.0, np.nan], 0, 0.1)
        assert np.isnan(out[2])

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(DomainError):
            jitter_ties([1, 1], 0, 0.0)


class TestCopelandInverse:
    def test_hand_scored_example(self):
        ranking = copeland_inverse(kendall_transform([3, 1, 2]))
        np.testing.assert_array_equal(ranking.score, [-2, 2, 0])
        np.testing.assert_array_equal(ranking.ranks, [3, 1, 2])

    def test_three_cycle_collapses_to_shared_rank(self):
        cycle = KendallSequence([A, D, D, A, A, D], 3)
        ranking = copeland_inverse(cycle)
        np.testing.assert_array_equal(ranking.score, [0, 0, 0])
        np.testing.assert_array_equal(ranking.ranks, [2, 2, 2])

    def test_all_tie_input(self):
        ranking = copeland_inverse(kendall_transform([7, 7, 7, 7]))
        assert np.unique(ranking.ranks).size == 1

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, width=64), min_size=2, max_size=40, unique=True
        )
    )
    def test_round_trip_property(self, x):
        # tie-free: the smallest value has the top score n - 1 and rank 1
        x = np.array(x)
        ranking = copeland_inverse(kendall_transform(x))
        np.testing.assert_array_equal(ranking.ranks, _average_ranks(x))
        np.testing.assert_array_equal(ranking.score, x.size + 1 - 2 * ranking.ranks)

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 30))
            x = rng.permutation(n * 10)[:n].astype(float)
            ranking = copeland_inverse(kendall_transform(x))
            np.testing.assert_array_equal(ranking.ranks, rankdata(x))

    def test_rank_invariants(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            codes = rng.integers(0, 4, n * (n - 1))
            ranking = copeland_inverse(KendallSequence(codes, n))
            order = np.argsort(-ranking.score, kind="stable")
            assert (np.diff(ranking.ranks[order]) >= 0).all()
            for i in range(n):
                for j in range(n):
                    if ranking.score[i] == ranking.score[j]:
                        assert ranking.ranks[i] == ranking.ranks[j]


class TestAverageRanks:
    def test_matches_rankdata(self):
        rng = np.random.default_rng(29)
        cases = [
            np.array([5.0]),
            np.full(7, 2.5),
            np.array([0.0, -0.0, 0.0, -1.0, -0.0]),
            np.array([np.inf, -np.inf, 1.0, np.inf, -np.inf, -3.0]),
            -np.arange(9.0),
        ]
        cases += [rng.integers(-4, 5, int(rng.integers(1, 40))).astype(float) for _ in range(300)]
        for v in cases:
            got = _average_ranks(v)
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, rankdata(v, method="average"))


class TestDenseRanks:
    def test_contract(self):
        x = np.array([0.0, np.inf, -0.0, np.nan, -np.inf, 2.5, np.inf, -np.inf, 0.0])
        codes = _dense_ranks(x)
        assert codes.dtype == np.int64
        np.testing.assert_array_equal(codes, [1, 3, 1, -1, 0, 2, 3, 0, 1])
        np.testing.assert_array_equal(_dense_ranks(np.full(3, np.nan)), [-1, -1, -1])
        assert _dense_ranks(np.empty(0)).size == 0


def test_non_numeric_ordinal_input_is_a_domain_error():
    words = ["a", "b", "c"]
    calls = [
        lambda: kendall_transform(words),
        lambda: kendall_tau(words, [1, 2, 3]),
        lambda: kendall_tau([1, 2, 3], [1, None, object()]),
        lambda: spearman_rho([1, 2, 3], words),
        lambda: jitter_ties(words, 0, 0.1),
        lambda: bin_equal_width(words, 2),
        lambda: bin_equal_frequency(words, 2),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="expected numeric values"):
            call()


class TestWeightedCopeland:
    def test_one_hot_degenerates_to_inverse(self):
        rng = np.random.default_rng(17)
        x = rng.permutation(6).astype(float)
        seq = kendall_transform(x)
        votes = np.zeros((seq.m, 3))
        for j, code in enumerate(seq.codes):
            votes[j, code] = 1.0
        expected = copeland_inverse(seq)
        got = weighted_copeland(votes, seq.n)
        np.testing.assert_array_equal(got.ranks, expected.ranks)
        np.testing.assert_allclose(got.score, expected.score)

    def test_uniform_votes_tie_everything(self):
        votes = np.full((12, 3), 1 / 3)
        ranking = weighted_copeland(votes, 4)
        assert np.unique(ranking.ranks).size == 1

    def test_single_confident_pair_orders_three_objects(self):
        # pair (0,1) votes 0.9 ascending (mirrored on (1,0)); others uniform
        votes = np.full((6, 3), 1 / 3)
        votes[pair_index(0, 1, 3)] = [0.9, 0.05, 0.05]
        votes[pair_index(1, 0, 3)] = [0.05, 0.9, 0.05]
        ranking = weighted_copeland(votes, 3)
        np.testing.assert_array_equal(ranking.ranks, [1, 3, 2])

    def test_zero_rows_allowed_negative_rejected(self):
        votes = np.zeros((6, 3))
        assert np.unique(weighted_copeland(votes, 3).ranks).size == 1
        votes[0, 0] = -0.1
        with pytest.raises(DomainError):
            weighted_copeland(votes, 3)
        with pytest.raises(DomainError):
            weighted_copeland(np.zeros((5, 3)), 3)

    def test_non_finite_weights_rejected(self):
        for bad in (np.inf, np.nan):
            votes = np.zeros((6, 3))
            votes[2] = [bad, bad, 0.0]
            with pytest.raises(DomainError, match="finite"):
                weighted_copeland(votes, 3)
        # finite weights whose per-object sums overflow to inf - inf
        votes = np.zeros((20, 3))
        votes[:2, 0] = 1e308
        votes[2:4, 1] = 1e308
        with pytest.raises(DomainError, match="overflow"):
            weighted_copeland(votes, 5)


class TestKendallSequenceContainer:
    def test_packing_round_trip(self):
        rng = np.random.default_rng(23)
        for n in (2, 3, 5, 8, 13):
            codes = rng.integers(0, 4, n * (n - 1)).astype(np.uint8)
            seq = KendallSequence(codes, n)
            np.testing.assert_array_equal(seq.codes, codes)
            assert len(seq) == n * (n - 1)
            assert seq[0] == Symbol(codes[0])
            assert seq == KendallSequence(codes.copy(), n)

    def test_iteration_yields_every_symbol(self):
        seq = kendall_transform([2.0, np.nan, 1.0, 2.0])
        assert list(seq) == [seq[i] for i in range(seq.m)]
        assert all(isinstance(s, Symbol) for s in seq)

    def test_memory_is_quarter_byte_per_state(self):
        seq = kendall_transform(np.arange(100, dtype=float))
        assert seq._packed.nbytes <= seq.m // 4 + 1

    def test_validation(self):
        with pytest.raises(DomainError):
            KendallSequence([0, 1, 2], 3)  # wrong length
        with pytest.raises(DomainError):
            KendallSequence([0, 1, 2, 3, 4, 0], 3)  # code out of range
        for fractional in ([0.5, 1.9], [0.0, np.nan]):
            with pytest.raises(DomainError):
                KendallSequence(fractional, 2)
        with pytest.raises(IndexError):
            kendall_transform([1, 2])[2]
