"""Tests for batch fusion of independently encoded sequences."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kendalltrans import (
    DomainError,
    Symbol,
    complete_fraction,
    entropy,
    kendall_transform,
    merge_transformed,
    mutual_information,
    pair_index,
)

M = Symbol.MISSING


def masked_full_transform(parts):
    """Oracle: encode the concatenation, then blank out cross-batch pairs."""
    full = np.concatenate(parts)
    seq = kendall_transform(full)
    sizes = [len(p) for p in parts]
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    batch_of = np.searchsorted(offsets, np.arange(len(full)), side="right") - 1
    codes = seq.codes
    n = len(full)
    for a in range(n):
        for b in range(n):
            if a != b and batch_of[a] != batch_of[b]:
                codes[pair_index(a, b, n)] = M.value
    return codes


class TestMergeTransformed:
    def test_two_pairs_of_two(self):
        merged = merge_transformed(
            [kendall_transform([1.0, 2.0]), kendall_transform([5.0, 3.0])]
        )
        assert merged.m == 12
        counts = merged.counts()
        assert counts[M] == 8
        assert counts.sum() - counts[M] == 4

    def test_matches_masked_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            sizes = rng.integers(2, 6, rng.integers(2, 4))
            parts = [rng.normal(size=s) for s in sizes]
            merged = merge_transformed([kendall_transform(p) for p in parts])
            np.testing.assert_array_equal(merged.codes, masked_full_transform(parts))

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.one_of(st.integers(0, 3).map(float), st.just(math.nan)),
                min_size=2,
                max_size=12,
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_matches_masked_oracle_property(self, parts):
        parts = [np.array(p) for p in parts]
        merged = merge_transformed([kendall_transform(p) for p in parts])
        np.testing.assert_array_equal(merged.codes, masked_full_transform(parts))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            merge_transformed([])

    def test_memory_per_pair(self):
        rng = np.random.default_rng(12)
        seqs = [kendall_transform(rng.normal(size=1000)) for _ in range(2)]
        m = 2000 * 1999
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            merged = merge_transformed(seqs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert merged.m == m
        assert (peak - start) / m <= 4.0

    def test_single_batch_identity(self):
        seq = kendall_transform([3.0, 1.0, 2.0])
        assert merge_transformed([seq]) == seq

    def test_antisymmetry_preserved(self):
        merged = merge_transformed(
            [kendall_transform([1, 3, 2]), kendall_transform([2, 2, 5])]
        )
        for a in range(merged.n):
            for b in range(merged.n):
                if a != b:
                    assert merged.symbol_at(a, b) == merged.symbol_at(b, a).flipped

    def test_discalibration_invariance(self):
        rng = np.random.default_rng(37)
        parts = [rng.normal(size=5), rng.normal(size=4), rng.normal(size=6)]
        plain = merge_transformed([kendall_transform(p) for p in parts])
        warped = merge_transformed(
            [
                kendall_transform(np.exp(parts[0])),
                kendall_transform(parts[1] ** 3 + 11.0),
                kendall_transform(np.arctan(parts[2])),
            ]
        )
        assert warped == plain

    def test_pooled_entropy(self):
        rng = np.random.default_rng(41)
        parts = [rng.integers(0, 3, 5).astype(float) for _ in range(2)]
        encoded = [kendall_transform(p) for p in parts]
        merged = merge_transformed(encoded)
        pooled = np.concatenate([seq.codes for seq in encoded]).astype(np.int64)
        assert entropy(merged) == entropy(pooled)

    def test_mi_equals_count_pooled_estimate(self):
        rng = np.random.default_rng(43)
        x_parts = [rng.normal(size=6), rng.normal(size=5)]
        y_parts = [x + 0.5 * rng.normal(size=x.size) for x in x_parts]
        mx = merge_transformed([kendall_transform(p) for p in x_parts])
        my = merge_transformed([kendall_transform(p) for p in y_parts])
        pooled_x = np.concatenate(
            [kendall_transform(p).codes for p in x_parts]
        ).astype(np.int64)
        pooled_y = np.concatenate(
            [kendall_transform(p).codes for p in y_parts]
        ).astype(np.int64)
        assert mutual_information(mx, my) == mutual_information(pooled_x, pooled_y)


class TestCompleteFraction:
    def test_single_batch_is_complete(self):
        assert complete_fraction(kendall_transform([1, 2, 3])) == 1.0

    def test_two_equal_halves(self):
        for half in (2, 5, 20):
            n = 2 * half
            merged = merge_transformed(
                [
                    kendall_transform(np.arange(half, dtype=float)),
                    kendall_transform(np.arange(half, dtype=float)),
                ]
            )
            want = 2 * half * (half - 1) / (n * (n - 1))
            assert complete_fraction(merged) == pytest.approx(want, abs=1e-15)

    def test_all_missing(self):
        assert complete_fraction(kendall_transform([np.nan, np.nan])) == 0.0
        # only the (2,3) and (3,2) pairs avoid the two NaN objects
        seq = kendall_transform([np.nan, np.nan, 1.0, 2.0])
        assert complete_fraction(seq) == pytest.approx(2 / 12, abs=1e-15)
