"""Unit tests for repro.data.store: the observation store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import store as obstore
from repro.data.store import DailyObservations, ObservationStore, day_date, day_number
from repro.net import addr


def p(text: str) -> int:
    return addr.parse(text)


class TestDayNumbers:
    def test_epoch(self):
        assert day_number("2014-01-01") == 0

    def test_paper_epochs_ordering(self):
        march14 = day_number("2014-03-17")
        sept14 = day_number("2014-09-17")
        march15 = day_number("2015-03-17")
        assert march14 < sept14 < march15
        assert sept14 - march14 == 184
        assert march15 - sept14 == 181

    def test_roundtrip(self):
        assert day_number(day_date(440)) == 440

    def test_accepts_date_objects(self):
        import datetime

        assert day_number(datetime.date(2014, 1, 2)) == 1


def _unique_merge_reference(hi, lo, hits):
    """The merge as the data layer used to spell it: a structured
    ``np.unique`` plus ``np.add.at`` — the reference for ``merge_halves``."""
    raw = np.empty(hi.shape[0], dtype=obstore.ADDRESS_DTYPE)
    raw["hi"] = hi
    raw["lo"] = lo
    unique, inverse = np.unique(raw, return_inverse=True)
    summed = np.zeros(unique.shape[0], dtype=np.uint64)
    np.add.at(summed, inverse, hits)
    return unique["hi"], unique["lo"], summed


def _assert_merge_matches_reference(hi, lo, hits):
    hi = np.asarray(hi, dtype=np.uint64)
    lo = np.asarray(lo, dtype=np.uint64)
    hits = np.asarray(hits, dtype=np.uint64)
    got = obstore.merge_halves(hi, lo, hits)
    want = _unique_merge_reference(hi, lo, hits)
    for a, b in zip(got, want):
        assert a.dtype == np.uint64
        np.testing.assert_array_equal(a, b)
    got_hi, got_lo, no_hits = obstore.merge_halves(hi, lo)
    assert no_hits is None
    np.testing.assert_array_equal(got_hi, want[0])
    np.testing.assert_array_equal(got_lo, want[1])


class TestMergeHalves:
    TOP = (1 << 64) - 1

    def test_empty(self):
        _assert_merge_matches_reference([], [], [])

    def test_all_duplicates(self):
        _assert_merge_matches_reference([7] * 50, [self.TOP] * 50, range(50))

    def test_hit_sums_wrap_modulo_2_64(self):
        hi, lo, hits = obstore.merge_halves(
            np.array([1, 0, 1, 1], dtype=np.uint64),
            np.array([2, 5, 2, 2], dtype=np.uint64),
            np.array([self.TOP, 4, 3, self.TOP], dtype=np.uint64),
        )
        assert hits.tolist() == [4, (2 * self.TOP + 3) % (1 << 64)]
        _assert_merge_matches_reference(
            [1, 0, 1, 1], [2, 5, 2, 2], [self.TOP, 4, 3, self.TOP]
        )

    def test_hi_dominates_lo(self):
        _assert_merge_matches_reference(
            [1, 0, self.TOP, 0, 1], [0, self.TOP, 0, self.TOP, 0], [1, 2, 3, 4, 5]
        )

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0, 1, 2**63, (1 << 64) - 1]),
                st.integers(0, (1 << 64) - 1) | st.sampled_from([0, 1]),
                st.integers(0, (1 << 64) - 1),
            ),
            max_size=80,
        )
    )
    def test_matches_unique_reference(self, rows):
        columns = list(zip(*rows)) if rows else [(), (), ()]
        _assert_merge_matches_reference(*columns)


class TestArrays:
    def test_to_array_sorts_and_dedupes(self):
        array = obstore.to_array([5, 1, 5, 3])
        assert obstore.from_array(array) == [1, 3, 5]

    def test_roundtrip_preserves_128_bits(self):
        values = [0, 1, (1 << 128) - 1, 1 << 64, (1 << 64) - 1]
        assert obstore.from_array(obstore.to_array(values)) == sorted(values)

    def test_sorted_order_is_numeric(self):
        # hi must dominate lo in the sort.
        values = [(1 << 64) | 0, 0xFFFFFFFFFFFFFFFF]
        assert obstore.from_array(obstore.to_array(values)) == sorted(values)

    def test_set_operations(self):
        a = obstore.to_array([1, 2, 3])
        b = obstore.to_array([2, 3, 4])
        assert obstore.from_array(obstore.intersect(a, b)) == [2, 3]
        assert obstore.from_array(obstore.union(a, b)) == [1, 2, 3, 4]
        assert obstore.from_array(obstore.difference(a, b)) == [1]

    def test_member_mask(self):
        a = obstore.to_array([1, 2, 3])
        b = obstore.to_array([2, 9])
        assert obstore.member_mask(a, b).tolist() == [False, True, False]

    def test_member_mask_empty_haystack(self):
        a = obstore.to_array([1, 2])
        empty = obstore.to_array([])
        assert obstore.member_mask(a, empty).tolist() == [False, False]

    def test_union_many_empty(self):
        assert obstore.array_size(obstore.union_many([])) == 0


#: 128-bit values at the edges of the halves and of the byte order.
EDGE_VALUES = [0, 1, 2**64 - 1, 2**64, 2**127, 2**128 - 1]


@st.composite
def _union_values(draw):
    """An edge value, a random one, one with zero trailing bytes (its
    big-endian key ends in NULs), or one in a few shared /64s."""
    value = draw(st.integers(min_value=0, max_value=2**128 - 1))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(st.sampled_from(EDGE_VALUES))
    if kind == 1:
        trailing = 8 * draw(st.integers(1, 15))
        return value >> trailing << trailing
    if kind == 2:
        return draw(st.sampled_from(EDGE_VALUES)) >> 64 << 64 | value >> 64
    return value


class TestUnionMany:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(_union_values(), max_size=20), max_size=6))
    def test_matches_set_union(self, days):
        arrays = [obstore.to_array(values) for values in days]
        union = obstore.union_many(arrays)
        assert union.dtype == obstore.ADDRESS_DTYPE
        assert obstore.from_array(union) == sorted(set().union(*days))

    def test_trailing_zero_bytes_and_top_bit(self):
        days = [[2**127, 2**64, 256, 0], [2**128 - 1, 2**127 + 1, 256], [2**64 - 1]]
        union = obstore.union_many([obstore.to_array(values) for values in days])
        assert obstore.from_array(union) == sorted(set().union(*days))


TOP64 = 2**64 - 1

#: A 64-bit half: an edge value, a random one, or one of two values a
#: few rows share (so equal halves pair with unequal ones).
_halves = st.sampled_from([0, 1, 2**63, TOP64]) | st.integers(0, TOP64) | st.sampled_from(
    [0x2001_0DB8_0000_0000, 0x2001_0DB8_0000_0001]
)


def _columns(rows):
    """``(hi, lo, hits)`` uint64 columns of ``(hi, lo, hits)`` tuples."""
    return tuple(np.array([row[k] for row in rows], dtype=np.uint64) for k in range(3))


def _dict_merge(rows):
    """``merge_halves`` by a Python ``dict``: sums modulo 2**64, in
    128-bit order."""
    sums = {}
    for hi, lo, hits in rows:
        sums[(hi, lo)] = (sums.get((hi, lo), 0) + hits) % 2**64
    return sorted(sums.items())


class TestAddressIds:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_halves, _halves), min_size=1, max_size=60))
    def test_dense_equal_and_ordered(self, pairs):
        hi = np.array([pair[0] for pair in pairs], dtype=np.uint64)
        lo = np.array([pair[1] for pair in pairs], dtype=np.uint64)
        ids, count = obstore.address_ids(hi, lo)
        assert ids.shape == hi.shape
        assert count == len(set(pairs))
        assert sorted(set(ids.tolist())) == list(range(count))
        values = [h << 64 | l for h, l in pairs]
        for i, value in enumerate(values):
            for j, other in enumerate(values):
                assert (ids[i] == ids[j]) == (value == other)
                assert (ids[i] < ids[j]) == (value < other)

    def test_hi_dominates_lo(self):
        hi = np.array([1, 0, TOP64, 0], dtype=np.uint64)
        lo = np.array([0, TOP64, 0, TOP64], dtype=np.uint64)
        ids, count = obstore.address_ids(hi, lo)
        assert (ids.tolist(), count) == ([1, 0, 2, 0], 3)


class TestMergeHalvesDictOracle:
    CASES = {
        "empty": [],
        "one_row": [(5, 6, 7)],
        "all_equal": [(TOP64, 0, 3)] * 9,
        "edge_values": [(TOP64, TOP64, 1), (0, 0, 2), (0, TOP64, 3), (TOP64, 0, 4)],
        "shared_hi": [(9, 3, 1), (9, 1, 2), (9, TOP64, 3), (9, 0, 4), (9, 1, 5)],
        "shared_lo": [(3, 9, 1), (1, 9, 2), (TOP64, 9, 3), (0, 9, 4), (3, 9, 5)],
        "wrapping_sums": [(1, 2, TOP64), (1, 2, TOP64), (1, 2, 5), (0, 0, TOP64)],
    }

    @staticmethod
    def _check(rows):
        hi, lo, hits = _columns(rows)
        got_hi, got_lo, got_hits = obstore.merge_halves(hi, lo, hits)
        for column in (got_hi, got_lo, got_hits):
            assert column.dtype == np.uint64
        got = [
            ((h, l), s)
            for h, l, s in zip(got_hi.tolist(), got_lo.tolist(), got_hits.tolist())
        ]
        assert got == _dict_merge(rows)
        bare_hi, bare_lo, no_hits = obstore.merge_halves(hi, lo)
        assert no_hits is None
        assert bare_hi.tolist() == got_hi.tolist()
        assert bare_lo.tolist() == got_lo.tolist()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_case(self, case):
        self._check(self.CASES[case])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                _halves,
                _halves,
                st.sampled_from([0, 1, TOP64, 2**63]) | st.integers(0, TOP64),
            ),
            max_size=60,
        )
    )
    def test_matches_dict_oracle(self, rows):
        self._check(rows)


class TestTruncation:
    def test_truncate_to_64(self):
        values = [p("2001:db8::1"), p("2001:db8::2"), p("2001:db9::1")]
        truncated = obstore.truncate_array(obstore.to_array(values), 64)
        assert obstore.from_array(truncated) == [p("2001:db8::"), p("2001:db9::")]

    def test_truncate_above_64(self):
        values = [p("2001:db8::1"), p("2001:db8::2"), p("2001:db8::1:0")]
        truncated = obstore.truncate_array(obstore.to_array(values), 112)
        assert obstore.from_array(truncated) == [p("2001:db8::"), p("2001:db8::1:0")]

    def test_truncate_to_zero_collapses(self):
        values = [p("2001:db8::1"), p("2a00::1")]
        truncated = obstore.truncate_array(obstore.to_array(values), 0)
        assert obstore.from_array(truncated) == [0]

    def test_truncate_128_identity(self):
        array = obstore.to_array([1, 2, 3])
        assert obstore.from_array(obstore.truncate_array(array, 128)) == [1, 2, 3]

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            obstore.truncate_array(obstore.to_array([1]), 129)


class TestDailyObservations:
    def test_basic(self):
        day = DailyObservations(5, [3, 1, 3])
        assert day.day == 5
        assert len(day) == 2
        assert day.as_ints() == [1, 3]

    def test_hits_summed_per_unique_address(self):
        day = DailyObservations(0, [1, 2, 1], hits=[10, 5, 7])
        assert day.as_ints() == [1, 2]
        assert day.hits.tolist() == [17, 5]

    def test_hits_length_mismatch(self):
        with pytest.raises(ValueError):
            DailyObservations(0, [1, 2], hits=[1])

    def test_truncated(self):
        day = DailyObservations(0, [p("2001:db8::1"), p("2001:db8::2")])
        assert day.truncated(64).as_ints() == [p("2001:db8::")]


class TestObservationStore:
    def test_add_and_get(self):
        store = ObservationStore()
        store.add_day(3, [1, 2])
        assert 3 in store
        assert 4 not in store
        assert store.days() == [3]
        assert obstore.from_array(store.array(3)) == [1, 2]

    def test_missing_day_is_empty(self):
        store = ObservationStore()
        assert obstore.array_size(store.array(9)) == 0
        assert store.get(9) is None

    def test_union_over(self):
        store = ObservationStore()
        store.add_day(0, [1, 2])
        store.add_day(1, [2, 3])
        assert obstore.from_array(store.union_over([0, 1, 7])) == [1, 2, 3]

    def test_truncated_store(self):
        store = ObservationStore()
        store.add_day(0, [p("2001:db8::1"), p("2001:db8::2")])
        derived = store.truncated(64)
        assert obstore.from_array(derived.array(0)) == [p("2001:db8::")]

    def test_iter_days_chronological(self):
        store = ObservationStore()
        store.add_day(5, [1])
        store.add_day(2, [1])
        assert [d.day for d in store.iter_days()] == [2, 5]

    def test_save_load_roundtrip(self, tmp_path):
        store = ObservationStore()
        store.add_day(0, [p("2001:db8::1"), 1], hits=[4, 2])
        store.add_day(1, [2])
        path = str(tmp_path / "store.npz")
        store.save(path)
        loaded = ObservationStore.load(path)
        assert loaded.days() == [0, 1]
        assert obstore.from_array(loaded.array(0)) == [1, p("2001:db8::1")]
        assert loaded.get(0).hits.tolist() == [2, 4]
        assert loaded.get(1).hits is None
