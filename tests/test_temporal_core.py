"""The sort-free temporal core at its limits.

``SweepState`` merges each pushed day into its sorted window (a
``searchsorted`` on ``hi`` plus a vectorized bisection on ``lo``) and
masks evicted days out; the batch sweep orders observations with one
packed-key ``argsort`` (``_address_day_order``).  These tests hold the
stream, the bare window state and ``sweep_days`` to per-day
``classify_day`` on stores built to stress exactly those steps:
addresses from small ``hi`` and ``lo`` alphabets (equal ``hi`` with
different ``lo``, equal ``lo`` under different ``hi``), the all-ones
address, empty days, day gaps wider than the window and the window
shapes ``(0, 0)``, ``(0, k)`` and ``(k, 0)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.streaming import StabilityStream
from repro.core.sweep import (
    SweepState,
    _address_day_order,
    _concat_columns,
    grouped_spans,
    sweep_days,
)
from repro.core.temporal import classify_day
from repro.data import store as obstore
from repro.data.store import ObservationStore

ALL_ONES = (1 << 128) - 1
U64_MAX = (1 << 64) - 1

#: Few ``hi`` values, so equal-``hi`` ranges are long and the bisection
#: on ``lo`` goes deep; ``lo`` values repeat under every ``hi``.
HI_ALPHABET = (0, 1, 0x20010DB8 << 32, U64_MAX)
lo_values = st.one_of(
    st.sampled_from([0, 1, 2, 1 << 63, U64_MAX - 1, U64_MAX]),
    st.integers(min_value=0, max_value=40),
)
addresses = st.builds(
    lambda hi, lo: (hi << 64) | lo, st.sampled_from(HI_ALPHABET), lo_values
)
#: Day steps up to 25 leave gaps wider than any window drawn below.
days_strategy = st.lists(
    st.tuples(st.integers(min_value=1, max_value=25), st.lists(addresses, max_size=40)),
    min_size=1,
    max_size=14,
)
windows = st.one_of(
    st.just((0, 0)),
    st.integers(min_value=1, max_value=6).map(lambda k: (0, k)),
    st.integers(min_value=1, max_value=6).map(lambda k: (k, 0)),
    st.tuples(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6)),
)


def _schedule(steps):
    """``[(day, canonical array)]`` from (day step, address list) pairs."""
    day = -1
    out = []
    for step, values in steps:
        day += step
        out.append((day, obstore.to_array(values)))
    return out


def _store(schedule):
    store = ObservationStore()
    for day, array in schedule:
        store.add_day(day, obstore.from_array(array))
    return store


def _assert_result_equal(result, baseline):
    assert result.reference_day == baseline.reference_day
    assert result.window == baseline.window
    assert result.active.dtype == baseline.active.dtype
    assert result.gaps.dtype == baseline.gaps.dtype
    assert np.array_equal(result.active, baseline.active)
    assert np.array_equal(result.gaps, baseline.gaps)


def _stream(schedule, before, after):
    stream = StabilityStream(before, after)
    emitted = []
    for day, array in schedule:
        emitted.extend(stream.push(day, obstore.from_array(array)))
    emitted.extend(stream.flush())
    return emitted


@settings(max_examples=80, deadline=None)
@given(days_strategy, windows)
def test_stream_equals_classify_day(steps, window):
    schedule = _schedule(steps)
    store = _store(schedule)
    before, after = window
    emitted = _stream(schedule, before, after)
    assert [r.reference_day for r in emitted] == [day for day, _ in schedule]
    for result in emitted:
        _assert_result_equal(
            result, classify_day(store, result.reference_day, before, after)
        )


@settings(max_examples=80, deadline=None)
@given(days_strategy, windows, st.data())
def test_bare_state_equals_classify_day(steps, window, data):
    """Every buffered day classifies exactly, evicted or not, including
    buffered days outside the reference window."""
    schedule = _schedule(steps)
    store = _store(schedule)
    before, after = window
    state = SweepState(before, after)
    for day, array in schedule:
        state.push_day(day, array)
    assert state.days_held == len(schedule)
    for day, _ in schedule:
        _assert_result_equal(
            state.classify(day), classify_day(store, day, before, after)
        )
    # Evicting days that no later window reaches keeps later days exact.
    cut = data.draw(st.sampled_from([day for day, _ in schedule]))
    state.evict_before(cut)
    for day, _ in schedule:
        if day - before >= cut:
            _assert_result_equal(
                state.classify(day), classify_day(store, day, before, after)
            )


@settings(max_examples=60, deadline=None)
@given(days_strategy, windows, st.integers(min_value=1, max_value=30))
def test_sweep_days_equals_classify_day(steps, window, chunk_days):
    store = _store(_schedule(steps))
    before, after = window
    for result in sweep_days(store, None, before, after, chunk_days=chunk_days):
        _assert_result_equal(
            result, classify_day(store, result.reference_day, before, after)
        )


@settings(max_examples=80, deadline=None)
@given(days_strategy)
def test_address_day_order_equals_lexsort(steps):
    schedule = _schedule(steps)
    hi, lo, day = _concat_columns(
        [array for _, array in schedule], [day for day, _ in schedule]
    )
    assert np.array_equal(_address_day_order(hi, lo, day), np.lexsort((day, lo, hi)))


def test_deep_bisection_in_one_hi_range():
    """Thousands of observations under one ``hi``: the merge bisects
    ``lo`` through every level of a long range."""
    rng = np.random.default_rng(7)
    lo_pool = rng.choice(1 << 40, size=3000, replace=False)
    hi = 0x20010DB8 << 32
    schedule = []
    for day in range(0, 24, 2):
        chosen = rng.choice(lo_pool, size=900, replace=False)
        schedule.append(
            (day, obstore.to_array([(hi << 64) | int(lo) for lo in chosen]))
        )
    store = _store(schedule)
    for result in _stream(schedule, 3, 5):
        _assert_result_equal(result, classify_day(store, result.reference_day, 3, 5))


def test_all_ones_address_is_ordered_last():
    schedule = [
        (0, obstore.to_array([ALL_ONES, 0, ALL_ONES >> 64])),
        (1, obstore.to_array([ALL_ONES - 1, ALL_ONES])),
        (3, obstore.to_array([ALL_ONES])),
    ]
    store = _store(schedule)
    emitted = _stream(schedule, 2, 2)
    for result in emitted:
        _assert_result_equal(result, classify_day(store, result.reference_day, 2, 2))
    # Day 3 is outside day 0's window but inside day 1's.
    assert emitted[0].gaps.tolist() == [0, 0, 1]
    assert emitted[1].gaps.tolist() == [0, 3]


@pytest.mark.parametrize("mangle", ["reversed", "duplicated", "both"])
def test_push_day_canonicalizes_its_input(mangle):
    """An unsorted or duplicated day merges exactly like the canonical
    day, and both match ``classify_day`` over a store built with
    ``add_day``."""
    rng = np.random.default_rng(3)
    schedule = []
    for day in (0, 1, 2, 4, 5, 9):
        values = sorted({int(v) for v in rng.integers(0, 1 << 12, size=60)})
        schedule.append((day, [(int(v) % 5) << 64 | v for v in values]))
    store = ObservationStore()
    for day, values in schedule:
        store.add_day(day, values)

    def mangled(array):
        if mangle in ("reversed", "both"):
            array = array[::-1]
        if mangle in ("duplicated", "both"):
            array = np.concatenate([array, array[:7]])
        return array

    canonical = SweepState(2, 2)
    raw = SweepState(2, 2)
    for day, values in schedule:
        array = obstore.to_array(values)
        canonical.push_day(day, array)
        raw.push_day(day, mangled(array))
    for day, _ in schedule:
        expected = classify_day(store, day, 2, 2)
        _assert_result_equal(canonical.classify(day), expected)
        _assert_result_equal(raw.classify(day), expected)


def test_sweep_key_overflow_names_chunk_days():
    """Days ``0`` and ``2**61`` in one chunk cannot be packed into int64
    keys: the sweep refuses instead of wrapping."""
    store = ObservationStore()
    for day in (0, 1 << 61):
        store.add_day(day, [1, 2, (5 << 64) | 3])
    with pytest.raises(ValueError, match="chunk_days"):
        sweep_days(store, chunk_days=1 << 62)
    with pytest.raises(ValueError, match="chunk_days"):
        grouped_spans([store.array(0), store.array(1 << 61)], [0, 1 << 61])
    state = SweepState()
    state.push_day(0, store.array(0))
    state.push_day(1 << 61, store.array(1 << 61))
    with pytest.raises(ValueError, match="chunk_days"):
        state.classify(0)
    # Chunks that keep the two days apart stay exact.
    for result in sweep_days(store, chunk_days=64):
        _assert_result_equal(result, classify_day(store, result.reference_day))
