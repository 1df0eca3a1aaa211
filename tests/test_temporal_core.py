"""The presence-word temporal core at its limits.

``SweepState`` keeps a sorted table of the buffered addresses (new ones
inserted with a ``searchsorted`` on ``hi`` plus a vectorized bisection
on ``lo``) with one ``uint64`` presence word each; the batch sweep ORs
each window day's bit into per-chunk dense address ids.  Both read gaps
through one kernel, ``_window_gaps``.  These tests hold the stream, the
bare window state and ``sweep_days`` to per-day ``classify_day`` on
stores built to stress exactly those steps: addresses from small ``hi``
and ``lo`` alphabets (equal ``hi`` with different ``lo``, equal ``lo``
under different ``hi``), the all-ones address, empty days, day gaps
wider than the window, the window shapes ``(0, 0)``, ``(0, k)`` and
``(k, 0)``, and windows of exactly 64 days.  The kernel and
``grouped_spans`` are checked against pure-Python oracles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main_sweep
from repro.core.streaming import StabilityStream
from repro.core.sweep import (
    WORD_DAYS,
    SweepState,
    _window_gaps,
    grouped_spans,
    sweep_days,
    sweep_granularities,
)
from repro.core.temporal import classify_day
from repro.data import store as obstore
from repro.data.store import ObservationStore
from repro.runtime.checkpoint import SweepCheckpoint, sweep_signature
from repro.runtime.exitcodes import EXIT_INPUT

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


def test_days_far_apart_stay_exact():
    """Days ``0`` and ``2**61`` in one chunk, one window state and one span
    table: bits index days by position, so their distance costs nothing."""
    far = 1 << 61
    values = [1, 2, (5 << 64) | 3]
    store = ObservationStore()
    for day in (0, far):
        store.add_day(day, values)
    results = sweep_days(store, chunk_days=1 << 62)
    assert [r.reference_day for r in results] == [0, far]
    for result in results:
        _assert_result_equal(result, classify_day(store, result.reference_day))
    state = SweepState()
    state.push_day(0, store.array(0))
    state.push_day(far, store.array(far))
    for day in (0, far):
        _assert_result_equal(state.classify(day), classify_day(store, day))
    addresses, first, last, seen = grouped_spans(
        [store.array(0), store.array(far)], [0, far]
    )
    assert obstore.from_array(addresses) == values
    assert first.tolist() == [0, 0, 0]
    assert last.tolist() == [far, far, far]
    assert seen.tolist() == [2, 2, 2]


def _full_window_schedule(num_days):
    """Consecutive days ``0 .. num_days - 1``, every one non-empty.

    A small pool (with the all-ones address) gives gaps of every length;
    one address is seen only on days 0 and 63, so a 64-day window reads
    bit 0 and bit 63 of the same word.
    """
    rng = np.random.default_rng(64)
    pool = [
        (HI_ALPHABET[int(hi)] << 64) | int(lo)
        for hi, lo in zip(
            rng.integers(0, len(HI_ALPHABET), 60), rng.integers(0, 40, 60)
        )
    ] + [ALL_ONES]
    edges = (0x20010DB8 << 96) | 0xED6E
    schedule = []
    for day in range(num_days):
        values = [v for v in pool if rng.random() < 0.3]
        if day in (0, 63):
            values.append(edges)
        schedule.append((day, obstore.to_array(values)))
    return schedule


@pytest.mark.parametrize("window", [(31, 32), (63, 0), (0, 63)])
def test_64_day_windows_equal_classify_day(window):
    before, after = window
    schedule = _full_window_schedule(80)
    store = _store(schedule)
    swept = sweep_days(store, None, before, after)
    streamed = _stream(schedule, before, after)
    assert [r.reference_day for r in streamed] == store.days()
    for result in swept + streamed:
        _assert_result_equal(
            result, classify_day(store, result.reference_day, before, after)
        )
    # The word of the day-0 and day-63 address uses both bit 0 and bit 63.
    assert max(int(r.gaps.max()) for r in swept) == 63
    # A bare state buffering all 64 days, none evicted.
    held = schedule[:WORD_DAYS]
    held_store = _store(held)
    state = SweepState(before, after)
    for day, array in held:
        state.push_day(day, array)
    for day, _ in held:
        _assert_result_equal(
            state.classify(day), classify_day(held_store, day, before, after)
        )


@pytest.mark.parametrize("window", [(32, 32), (64, 0), (0, 64)])
def test_65_day_window_is_refused(window):
    store = _store([(0, obstore.to_array([1]))])
    with pytest.raises(ValueError, match="64-day"):
        sweep_days(store, None, *window)
    with pytest.raises(ValueError, match="64-day"):
        sweep_granularities(store, [128, 64], None, *window)
    with pytest.raises(ValueError, match="64-day"):
        SweepState(*window)
    with pytest.raises(ValueError, match="64-day"):
        StabilityStream(*window)


def test_sixty_fifth_buffered_day_is_refused():
    state = SweepState(0, 0)
    for day in range(WORD_DAYS):
        state.push_day(day, obstore.to_array([day]))
    with pytest.raises(ValueError, match="64 days"):
        state.push_day(WORD_DAYS, obstore.to_array([1]))
    state.evict_before(1)
    state.push_day(WORD_DAYS, obstore.to_array([1]))
    assert state.days_held == WORD_DAYS
    assert state.classify(1).gaps.tolist() == [0]


def test_sweep_cli_refuses_65_day_window(capsys):
    """``--window 32`` fails like ``--window -1``: the input exit code and
    one line on stderr, no traceback."""
    codes = []
    for window in ("32", "-1"):
        with pytest.raises(SystemExit) as info:
            main_sweep(["--simulate", "0.005", "--window", window])
        codes.append(info.value.code)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("repro-sweep: error:")
    assert codes[0] == codes[1] == EXIT_INPUT


def test_chunk_days_is_an_upper_bound():
    """``chunk_days=64`` at the paper's window plans 50-day chunks and
    equals one-day chunks."""
    rng = np.random.default_rng(9)
    pool = [int(v) for v in rng.integers(1, 1 << 20, size=200)]
    store = ObservationStore()
    for day in range(0, 160):
        if rng.random() < 0.85:
            store.add_day(day, [v for v in pool if rng.random() < 0.2])
    wide = sweep_days(store, chunk_days=64)
    narrow = sweep_days(store, chunk_days=1)
    assert len(wide) == len(narrow) == len(store.days())
    for a, b in zip(wide, narrow):
        _assert_result_equal(a, b)


def _reference_gaps(words, days, low, high):
    """Pure-Python ``_window_gaps``: last minus first in-window held day."""
    out = []
    for word in words:
        seen = [
            day
            for bit, day in enumerate(days)
            if (word >> bit) & 1 and low <= day <= high
        ]
        out.append(max(seen) - min(seen) if seen else 0)
    return out


words_strategy = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=U64_MAX),
        st.sampled_from([0, 1, 1 << 63, (1 << 63) | 1, U64_MAX]),
        st.integers(min_value=0, max_value=63).map(lambda k: 1 << k),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=-(1 << 40), max_value=1 << 40),
    st.lists(st.integers(min_value=1, max_value=1 << 40), max_size=63),
    words_strategy,
    st.data(),
)
def test_window_gaps_equals_reference(start, steps, words, data):
    days = [start]
    for step in steps:
        days.append(days[-1] + step)
    # Window ends at, next to, and far outside the held days.
    ends = [days[0] - (1 << 41), days[-1] + (1 << 41)]
    ends += [day + shift for day in days for shift in (-1, 0, 1)]
    low = data.draw(st.sampled_from(ends))
    high = data.draw(st.sampled_from(ends))
    gaps = _window_gaps(
        np.array(words, dtype=np.uint64), np.array(days, dtype=np.int64), low, high
    )
    assert gaps.dtype == np.int64
    assert gaps.tolist() == _reference_gaps(words, days, low, high)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-(1 << 40), max_value=1 << 40),
            st.lists(addresses, max_size=30),
        ),
        max_size=12,
        unique_by=lambda pair: pair[0],
    )
)
def test_grouped_spans_equals_dict_oracle(day_lists):
    """Days in any order, empty days included: per address the first and
    last day and the number of days seen."""
    expected = {}
    for day, values in day_lists:
        for value in set(values):
            first, last, count = expected.get(value, (day, day, 0))
            expected[value] = (min(first, day), max(last, day), count + 1)
    addresses_, first, last, seen = grouped_spans(
        [obstore.to_array(values) for _, values in day_lists],
        [day for day, _ in day_lists],
    )
    assert first.dtype == last.dtype == seen.dtype == np.int64
    assert obstore.from_array(addresses_) == sorted(expected)
    assert list(zip(first.tolist(), last.tolist(), seen.tolist())) == [
        expected[value] for value in sorted(expected)
    ]


def test_checkpoints_follow_the_chunk_plan(tmp_path):
    """Checkpoints are signed with the chunk span actually planned.

    At ±7, ``chunk_days`` 64 and 50 both plan 50-day chunks and share
    their checkpoints.  An entry signed for 64-day chunks (the plan
    before chunks were capped at the word) is never resumed: the bogus
    gaps planted in it do not reach the results.
    """
    store = ObservationStore()
    for day in range(120):
        store.add_day(day, [day % 5 + 1, 100 + day])
    expected = [classify_day(store, day) for day in store.days()]
    stale = SweepCheckpoint(
        str(tmp_path), sweep_signature({128: store}, store.days(), 7, 7, 64)
    )
    stale.save_chunk(
        128, 0, [(day, np.full(2, 99, dtype=np.int64)) for day in range(64)]
    )
    first = sweep_days(store, chunk_days=64, checkpoint_dir=str(tmp_path))
    sink = []
    again = sweep_days(
        store, chunk_days=50, checkpoint_dir=str(tmp_path), report_sink=sink
    )
    assert sink and sink[0].tasks == 0
    for results in (first, again):
        for result, baseline in zip(results, expected):
            _assert_result_equal(result, baseline)
