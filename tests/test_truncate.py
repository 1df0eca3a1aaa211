"""Prefix truncation: the O(n) canonical path against the sorting reference.

``DailyObservations.truncated`` and ``ObservationStore.truncated`` skip
the sort because a day's addresses are canonical (sorted, distinct) and
prefix masking keeps that order.  These tests hold them byte for byte to
``truncate_array`` fed a shuffled copy of the same day — input that is
not canonical, so it takes the sorting merge — and to a plain
Python-int reference, at the prefix-length limits and on empty,
single-address and all-ones days.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import store as obstore
from repro.data.store import DailyObservations, ObservationStore

ALL_ONES = (1 << 128) - 1
PREFIX_LENGTHS = (0, 1, 48, 63, 64, 65, 112, 127, 128)

#: Addresses biased toward the limits: zero, all-ones, and values that
#: differ only below or just above the /64 boundary.
addresses = st.one_of(
    st.integers(min_value=0, max_value=ALL_ONES),
    st.sampled_from([0, 1, ALL_ONES, ALL_ONES - 1, 1 << 64, (1 << 64) - 1]),
    st.integers(min_value=0, max_value=0xFF).map(lambda low: (0x20010DB8 << 96) | low),
)
day_sets = st.lists(addresses, min_size=0, max_size=60)


def _reference(values, prefix_len):
    """Sorted distinct prefixes, computed on Python ints."""
    shift = 128 - prefix_len
    prefixes = sorted({(value >> shift) << shift for value in values})
    return obstore.to_array(prefixes)


def _shuffled(array, seed):
    """A non-canonical copy of ``array``: reversed or shuffled, with a repeat."""
    order = list(range(array.shape[0]))
    random.Random(seed).shuffle(order)
    order = order[::-1] + order[:1]
    return array[np.asarray(order, dtype=np.intp)]


def _assert_same(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestCanonicalTruncation:
    @settings(max_examples=60, deadline=None)
    @given(day_sets, st.sampled_from(PREFIX_LENGTHS), st.integers(0, 1000))
    def test_day_truncation_matches_unique_reference(self, values, prefix_len, seed):
        day = DailyObservations(5, values)
        got = day.truncated(prefix_len)
        assert got.day == 5
        unsorted = _shuffled(day.addresses, seed)
        if unsorted.shape[0] > 1:
            assert not obstore.strictly_increasing(unsorted["hi"], unsorted["lo"])
        _assert_same(got.addresses, obstore.truncate_array(unsorted, prefix_len))
        _assert_same(got.addresses, _reference(values, prefix_len))

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(day_sets, min_size=1, max_size=4),
        st.sampled_from(PREFIX_LENGTHS),
    )
    def test_store_truncation_matches_per_day_reference(self, days, prefix_len):
        store = ObservationStore()
        for day, values in enumerate(days):
            store.add_day(day, values)
        truncated = store.truncated(prefix_len)
        assert truncated.days() == store.days()
        for day, values in enumerate(days):
            _assert_same(
                truncated.array(day),
                obstore.truncate_array(_shuffled(store.array(day), day), prefix_len),
            )
            _assert_same(truncated.array(day), _reference(values, prefix_len))

    @pytest.mark.parametrize("prefix_len", PREFIX_LENGTHS)
    @pytest.mark.parametrize(
        "values",
        [[], [ALL_ONES], [0], [ALL_ONES, ALL_ONES - 1, 0]],
        ids=["empty", "all-ones", "zero", "limits"],
    )
    def test_limit_days(self, values, prefix_len):
        got = DailyObservations(1, values).truncated(prefix_len).addresses
        _assert_same(got, _reference(values, prefix_len))
        _assert_same(got, obstore.truncate_array(obstore.to_array(values), prefix_len))

    @pytest.mark.parametrize("prefix_len", [-1, 129])
    def test_prefix_length_out_of_range(self, prefix_len):
        with pytest.raises(ValueError):
            DailyObservations(1, [1]).truncated(prefix_len)
        with pytest.raises(ValueError):
            obstore.truncate_array(obstore.to_array([1]), prefix_len)


class TestTruncateArrayArbitraryInput:
    @settings(max_examples=60, deadline=None)
    @given(day_sets, st.sampled_from(PREFIX_LENGTHS))
    def test_non_canonical_input_is_deduped_and_sorted(self, values, prefix_len):
        raw = np.empty(len(values) * 2, dtype=obstore.ADDRESS_DTYPE)
        hi = [value >> 64 for value in values]
        lo = [value & ((1 << 64) - 1) for value in values]
        # Reversed, then every address again: unsorted with duplicates.
        raw["hi"] = np.asarray(hi[::-1] + hi, dtype=np.uint64)
        raw["lo"] = np.asarray(lo[::-1] + lo, dtype=np.uint64)
        _assert_same(obstore.truncate_array(raw, prefix_len), _reference(values, prefix_len))

    def test_input_is_not_modified(self):
        array = obstore.to_array([ALL_ONES, 5 << 64])
        before = array.copy()
        obstore.truncate_array(array, 48)
        obstore.truncate_array(array[::-1].copy(), 48)
        _assert_same(array, before)

    def test_strictly_increasing(self):
        canonical = obstore.to_array([1, 2, 1 << 64, ALL_ONES])
        assert obstore.strictly_increasing(canonical["hi"], canonical["lo"])
        repeated = canonical[[0, 1, 1, 2]]
        assert not obstore.strictly_increasing(repeated["hi"], repeated["lo"])
        reversed_ = canonical[::-1]
        assert not obstore.strictly_increasing(reversed_["hi"], reversed_["lo"])
        empty = canonical[:0]
        assert obstore.strictly_increasing(empty["hi"], empty["lo"])
