"""Sliding-window sweep engine for temporal classification (§5.1).

:func:`repro.core.temporal.classify_day` answers one question — "which of
this day's addresses are nd-stable?" — by re-scanning every day of the
``(-before, +after)`` window.  Classifying *every* day of a store that way
touches each day array ``window``-many times.

For an address active on reference day ``r`` the classifier needs only
the first and last days the address was seen in ``[r - before,
r + after]``.  This module holds that as *presence words*: one
``uint64`` per distinct address, where bit ``k`` means "seen on the
``k``-th day held".  Bits index days by position, not by day number, so
day gaps and large day numbers cost nothing.  One kernel,
:func:`_window_gaps`, masks each word to a window and returns
``days[highest set bit] - days[lowest set bit]``; the batch sweep and
the streaming state both compute every gap through it.

* **Batch** (:func:`sweep_days`, :func:`sweep_granularities`): reference
  days are split into chunks whose window spans at most
  :data:`WORD_DAYS` days.  Each distinct address of a chunk gets a dense
  id, each window day ORs its bit into the words of its ids, and each
  reference day's gaps are read in that day's own array order, so
  nothing is scattered back.  The ids depend only on the window days'
  contents, so for a store loaded through a day cache they are kept in
  that cache (:mod:`repro.data.daycache` ids entries) and a warm rerun
  loads them instead of sorting.  Chunks are the unit of checkpointing
  and of the fork-based fan-out (one task per chunk, covering every
  granularity it still lacks).
* **Streaming** (:class:`SweepState`): a table of the distinct buffered
  addresses, sorted by ``(hi, lo)``, with their words.  A pushed day
  inserts only addresses not yet in the table; evicting days shifts the
  words right and drops the addresses whose word became zero.
  :class:`repro.core.streaming.StabilityStream` is built on it.

A window spans at most ``WORD_DAYS = 64`` days (``before + after + 1``);
the paper's is 15.  Results are bit-identical to per-day
:func:`classify_day` (tested).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.mra import _as_address_array
from repro.core.temporal import (
    DEFAULT_WINDOW_AFTER,
    DEFAULT_WINDOW_BEFORE,
    StabilityResult,
)
from repro.data import daycache
from repro.data.store import ADDRESS_DTYPE, ObservationStore, address_ids
from repro.runtime.checkpoint import SweepCheckpoint, sweep_signature
from repro.runtime.pool import PoolConfig, RunReport, supervised_map

#: Days one presence word can hold: the widest window, and the most days
#: a chunk's window or a :class:`SweepState` may span.  Not a knob.
WORD_DAYS = 64

#: Reference days per chunk, an upper bound: chunks hold at most
#: ``WORD_DAYS - before - after`` reference days.  Bounds peak memory (a
#: chunk loads its window's day arrays) and is the unit of parallelism.
DEFAULT_CHUNK_DAYS = 50

_ONE = np.uint64(1)

#: The 128-bit ordering kernel (:func:`repro.data.store.address_ids`),
#: called through this module global so a caller can count or forbid
#: the sweep's ranking.
_address_ids = address_ids

#: Rows a chunk window may hold for its ids to be persisted as int32.
_INT32_MAX = int(np.iinfo(np.int32).max)


def _check_window(window_before: int, window_after: int) -> None:
    if window_before < 0 or window_after < 0:
        raise ValueError("window spans must be non-negative")
    if window_before + window_after + 1 > WORD_DAYS:
        raise ValueError(
            f"window of {window_before + window_after + 1} days exceeds "
            f"the {WORD_DAYS}-day limit"
        )


def _window_gaps(
    words: np.ndarray, days: np.ndarray, low: int, high: int
) -> np.ndarray:
    """``days[highest bit] - days[lowest bit]`` of each presence word,
    counting only bits whose day lies in ``[low, high]``.

    ``days`` are the held days in increasing order (bit ``k`` stands for
    ``days[k]``).  Both bits are isolated as powers of two, which
    convert to float64 exactly, so ``frexp`` reads their indices.  A word
    with no bit in the window yields 0.
    """
    first = int(np.searchsorted(days, low, side="left"))
    stop = max(first, int(np.searchsorted(days, high, side="right")))
    masked = words & np.uint64((1 << stop) - (1 << first))
    lowest = np.invert(masked)
    lowest += _ONE
    lowest &= masked
    # Smear the highest bit downwards, then keep only it.
    for shift in (1, 2, 4, 8, 16, 32):
        masked |= masked >> np.uint64(shift)
    masked ^= masked >> _ONE
    low_bit = np.frexp(lowest.astype(np.float64))[1] - 1
    high_bit = np.frexp(masked.astype(np.float64))[1] - 1
    return days[high_bit] - days[low_bit]


def grouped_spans(
    arrays: Sequence[np.ndarray], days: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-address (addresses, first, last, days_seen) over day arrays.

    Numbers the observations by dense address id and reduces by id
    without sorting them: every row of an id holds the same address, so
    the addresses are scattered to their ids, ``np.minimum.at`` /
    ``np.maximum.at`` give the first and last day and ``np.bincount``
    the days seen.  Days may be given in any order and span any range.
    Backs :func:`repro.core.churn.observation_spans`.
    """
    sizes = [array.shape[0] for array in arrays]
    total = sum(sizes)
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return np.empty(0, dtype=ADDRESS_DTYPE), empty, empty.copy(), empty.copy()
    hi = np.concatenate([array["hi"] for array in arrays])
    lo = np.concatenate([array["lo"] for array in arrays])
    ids, count = _address_ids(hi, lo)
    day = np.repeat(np.asarray([int(d) for d in days], dtype=np.int64), sizes)
    addresses = np.empty(count, dtype=ADDRESS_DTYPE)
    addresses["hi"][ids] = hi
    addresses["lo"][ids] = lo
    first = np.full(count, np.iinfo(np.int64).max, dtype=np.int64)
    last = np.full(count, np.iinfo(np.int64).min, dtype=np.int64)
    np.minimum.at(first, ids, day)
    np.maximum.at(last, ids, day)
    days_seen = np.bincount(ids, minlength=count).astype(np.int64, copy=False)
    return addresses, first, last, days_seen


def _plan_chunks(ref_days: Sequence[int], chunk_days: int) -> List[List[int]]:
    """Split sorted reference days into chunks of bounded day span."""
    chunks: List[List[int]] = []
    current = [ref_days[0]]
    for day in ref_days[1:]:
        if day - current[0] >= chunk_days:
            chunks.append(current)
            current = [day]
        else:
            current.append(day)
    chunks.append(current)
    return chunks


def _window_digests(
    observations: ObservationStore, window_days: Sequence[int]
) -> Optional[Tuple[int, List[Tuple[int, str]]]]:
    """``(prefix_len, [(day, digest), ...])`` when every window day is a
    day-cache entry cut to one prefix length, else None."""
    pairs: List[Tuple[int, str]] = []
    lengths: "set[int]" = set()
    for day in window_days:
        held = observations.get(day)
        tag = None if held is None else held.cache_tag
        if tag is None:
            return None
        pairs.append((day, tag[0]))
        lengths.add(tag[1])
    if len(lengths) != 1:
        return None
    return lengths.pop(), pairs


def _window_ids(arrays: Sequence[np.ndarray]) -> Tuple[np.ndarray, int]:
    """:func:`_address_ids` of the arrays' rows, concatenated.

    The concatenated columns are temporaries of the ranking call, so
    they are freed as soon as it returns.  A ``del`` inside the kernel
    would not free them on CPython 3.10, which keeps a call's arguments
    alive in the caller's frame until the call returns.
    """
    return _address_ids(
        np.concatenate([array["hi"] for array in arrays]),
        np.concatenate([array["lo"] for array in arrays]),
    )


def _chunk_ids(
    observations: ObservationStore,
    window_days: Sequence[int],
    arrays: Sequence[np.ndarray],
    rows: int,
) -> Tuple[np.ndarray, int]:
    """:func:`_address_ids` of a chunk window's concatenated rows, kept
    in the store's day cache when every window day is a cache entry.

    A valid ids entry is served as int32 ids without concatenating or
    sorting anything.  A miss, or an entry that fails validation, is
    computed and written back; a write that fails (read-only cache,
    full disk) only means the next run computes the ids again.
    """
    cache_dir = observations.cache_dir
    tagged = _window_digests(observations, window_days)
    if cache_dir is None or tagged is None or rows > _INT32_MAX:
        return _window_ids(arrays)
    key = daycache.ids_key(*tagged)
    cached = daycache.load_ids(cache_dir, key, rows)
    if cached is not None:
        return cached
    ids, count = _window_ids(arrays)
    ids = ids.astype(np.int32, copy=False)  # the kernel's ids are int32 here
    try:
        daycache.store_ids(cache_dir, key, tagged[1], ids, count)
    except OSError:
        pass  # not persisted: the next run computes these ids again
    return ids, count


def _sweep_chunk(
    observations: ObservationStore,
    ref_days: Sequence[int],
    window_before: int,
    window_after: int,
) -> List[Tuple[int, np.ndarray]]:
    """Classify one chunk of reference days; return (day, gaps) pairs.

    The chunk's window, ``[ref_days[0] - before, ref_days[-1] + after]``,
    must hold at most :data:`WORD_DAYS` store days.  Gaps arrays are
    parallel to each reference day's sorted address array; absent days
    yield empty arrays, matching ``classify_day``.
    """
    low = ref_days[0] - window_before
    high = ref_days[-1] + window_after
    window_days = [day for day in observations.days() if low <= day <= high]
    arrays = [observations.array(day) for day in window_days]
    sizes = [array.shape[0] for array in arrays]
    if sum(sizes) == 0:
        return [(day, np.empty(0, dtype=np.int64)) for day in ref_days]
    ids, count = _chunk_ids(observations, window_days, arrays, sum(sizes))
    starts = np.concatenate([[0], np.cumsum(sizes)])
    # Canonical days hold no repeated ids, so the fancy-index OR is exact.
    words = np.zeros(count, dtype=np.uint64)
    for bit in range(len(window_days)):
        words[ids[starts[bit] : starts[bit + 1]]] |= np.uint64(1 << bit)
    held = np.asarray(window_days, dtype=np.int64)
    position = {day: i for i, day in enumerate(window_days)}
    out: List[Tuple[int, np.ndarray]] = []
    for day in ref_days:
        i = position.get(day)
        if i is None:
            out.append((day, np.empty(0, dtype=np.int64)))
        else:
            gaps = _window_gaps(
                words[ids[starts[i] : starts[i + 1]]],
                held,
                day - window_before,
                day + window_after,
            )
            out.append((day, gaps))
    return out


# ---------------------------------------------------------------------------
# Parallel fan-out: chunks (and granularities) over fork-based workers.
# ---------------------------------------------------------------------------


def _normalized_days(
    observations: ObservationStore, days: Optional[Sequence[int]]
) -> List[int]:
    """The sorted, deduplicated reference day list for a sweep."""
    if days is None:
        return observations.days()
    return sorted({int(day) for day in days})


def sweep_days(
    observations: ObservationStore,
    days: Optional[Sequence[int]] = None,
    window_before: int = DEFAULT_WINDOW_BEFORE,
    window_after: int = DEFAULT_WINDOW_AFTER,
    jobs: Optional[int] = None,
    chunk_days: int = DEFAULT_CHUNK_DAYS,
    checkpoint_dir: Optional[str] = None,
    report_sink: Optional[List[RunReport]] = None,
) -> List[StabilityResult]:
    """Classify every requested day of the store in one rolling pass.

    Equivalent to ``[classify_day(observations, d, ...) for d in days]``
    — bit-identical results — but each day array is touched O(1) times
    instead of once per overlapping window.  ``days`` defaults to every
    day in the store; days absent from the store yield empty results.

    ``jobs`` fans chunks of at most ``chunk_days`` reference days out
    over supervised fork-based worker processes (``0`` = all CPUs,
    ``None``/``1`` = serial); ``checkpoint_dir`` persists each completed
    chunk atomically so a killed sweep resumes from its last checkpoint;
    ``report_sink`` receives the pool's
    :class:`repro.runtime.pool.RunReport`.  Results are independent of
    ``jobs``, ``chunk_days``, checkpointing, and resumption.  This is
    :func:`sweep_granularities` at the single granularity /128.
    """
    return sweep_granularities(
        observations,
        [128],
        days,
        window_before,
        window_after,
        jobs,
        chunk_days,
        checkpoint_dir=checkpoint_dir,
        report_sink=report_sink,
    )[128]


def sweep_granularities(
    observations: ObservationStore,
    prefix_lens: Iterable[int],
    days: Optional[Sequence[int]] = None,
    window_before: int = DEFAULT_WINDOW_BEFORE,
    window_after: int = DEFAULT_WINDOW_AFTER,
    jobs: Optional[int] = None,
    chunk_days: int = DEFAULT_CHUNK_DAYS,
    checkpoint_dir: Optional[str] = None,
    report_sink: Optional[List[RunReport]] = None,
) -> Dict[int, List[StabilityResult]]:
    """Sweep several prefix granularities of one store at once.

    ``prefix_lens`` names the granularities (128 = full addresses; 64 =
    the paper's /64 prefixes; any length works).  Returns
    ``{prefix_len: results}`` with each list equal to
    :func:`sweep_days` on the derived store.

    Each chunk is one task of a single
    :func:`repro.runtime.pool.supervised_map` call that sweeps every
    granularity the chunk still lacks.  The mapped function is a closure
    over the derived stores, which forked workers inherit copy-on-write;
    only each chunk's gaps travel back, as ``int8`` (a gap is at most
    ``before + after`` < :data:`WORD_DAYS` days), widened to ``int64``
    here.  A store loaded through a day cache keeps each chunk's address
    ids there (see :func:`_chunk_ids`), so a warm rerun sorts nothing.
    ``checkpoint_dir`` and ``report_sink`` behave as in
    :func:`sweep_days` (the report has ``tasks=0`` when every chunk came
    from checkpoints); checkpoint entries are keyed by granularity and
    chunk index, so a chunk resumed with one granularity on disk
    computes only the other.  A window wider than :data:`WORD_DAYS`
    days raises ``ValueError``.
    """
    _check_window(window_before, window_after)
    if chunk_days < 1:
        raise ValueError(f"chunk_days must be >= 1: {chunk_days}")
    stores = {
        int(p): observations if int(p) >= 128 else observations.truncated(int(p))
        for p in prefix_lens
    }
    ref_days = _normalized_days(observations, days)
    if not ref_days:
        return {p: [] for p in stores}
    # Each chunk's window must fit one presence word.
    span = min(chunk_days, WORD_DAYS - window_before - window_after)
    chunks = _plan_chunks(ref_days, span)
    checkpoint: Optional[SweepCheckpoint] = None
    if checkpoint_dir is not None:
        checkpoint = SweepCheckpoint(
            checkpoint_dir,
            sweep_signature(stores, ref_days, window_before, window_after, span),
        )
    gaps: Dict[int, Dict[int, np.ndarray]] = {key: {} for key in stores}
    #: (chunk index, chunk, store keys still to compute) of every chunk
    #: with work left.
    tasks: List[Tuple[int, List[int], List[int]]] = []
    for chunk_index, chunk in enumerate(chunks):
        missing: List[int] = []
        for key in stores:
            cached = None
            if checkpoint is not None:
                cached = checkpoint.load_chunk(key, chunk_index, chunk)
            if cached is None:
                missing.append(key)
            else:
                gaps[key].update(cached)
        if missing:
            tasks.append((chunk_index, chunk, missing))

    def sweep_chunk(
        task: Tuple[int, List[int], List[int]]
    ) -> List[List[Tuple[int, np.ndarray]]]:
        _chunk_index, chunk, keys = task
        # A gap is at most before + after <= 63 days: int8 travels back.
        return [
            [
                (day, day_gaps.astype(np.int8))
                for day, day_gaps in _sweep_chunk(
                    stores[key], chunk, window_before, window_after
                )
            ]
            for key in keys
        ]

    def on_result(index: int, per_key: List[List[Tuple[int, np.ndarray]]]) -> None:
        chunk_index, _chunk, keys = tasks[index]
        for key, pairs in zip(keys, per_key):
            widened = [(day, day_gaps.astype(np.int64)) for day, day_gaps in pairs]
            gaps[key].update(widened)
            if checkpoint is not None:
                checkpoint.save_chunk(key, chunk_index, widened)

    supervised_map(
        sweep_chunk,
        tasks,
        jobs=jobs,
        config=PoolConfig(label="sweep"),
        on_result=on_result,
        report_sink=report_sink,
    )
    return {
        p: [
            StabilityResult(
                reference_day=day,
                window=(window_before, window_after),
                active=store.array(day),
                gaps=gaps[p][day],
            )
            for day in ref_days
        ]
        for p, store in stores.items()
    }


def _insertion_points(
    hi: np.ndarray, lo: np.ndarray, new_hi: np.ndarray, new_lo: np.ndarray
) -> np.ndarray:
    """Where each new address goes in columns sorted by ``(hi, lo)``:
    after every entry not greater than it (``side="right"``).

    One ``searchsorted`` on ``hi`` brackets each new address's equal-``hi``
    range; a vectorized bisection on ``lo`` then narrows every range at
    once, each round carrying only the ranges still open.
    """
    points = np.searchsorted(hi, new_hi, side="left")
    stop = np.searchsorted(hi, new_hi, side="right")
    open_ = np.nonzero(points < stop)[0]
    low, high, target = points[open_], stop[open_], new_lo[open_]
    while open_.shape[0]:
        mid = (low + high) >> 1
        after = lo[mid] <= target
        low = np.where(after, mid + 1, low)
        high = np.where(after, high, mid)
        points[open_] = low
        still = low < high
        open_, low, high, target = open_[still], low[still], high[still], target[still]
    return points


class SweepState:
    """The sweep engine's incremental window state, for streaming use.

    Days enter with :meth:`push_day` (chronological order) and leave with
    :meth:`evict_before`; :meth:`classify` answers for any buffered
    reference day, bit-identical to ``classify_day`` over a store holding
    the same days.  The state is a table of the distinct buffered
    addresses sorted by ``(hi, lo)`` with one presence word each; bit
    ``k`` stands for the ``k``-th buffered day, so a buffered day's
    addresses are the rows with its bit set.  At most :data:`WORD_DAYS`
    days can be buffered at once.
    """

    def __init__(
        self,
        window_before: int = DEFAULT_WINDOW_BEFORE,
        window_after: int = DEFAULT_WINDOW_AFTER,
    ) -> None:
        _check_window(window_before, window_after)
        self.window_before = window_before
        self.window_after = window_after
        #: Buffered days, oldest first; position = bit index.
        self._days: List[int] = []
        self._hi = np.empty(0, dtype=np.uint64)
        self._lo = np.empty(0, dtype=np.uint64)
        self._words = np.empty(0, dtype=np.uint64)
        self._last_day: Optional[int] = None

    @property
    def days_held(self) -> int:
        """Number of days currently buffered."""
        return len(self._days)

    @property
    def last_day(self) -> Optional[int]:
        """The most recently pushed day (evicted or not), if any."""
        return self._last_day

    def push_day(self, day: int, addresses: np.ndarray) -> None:
        """Add one day's addresses to the live window."""
        day = int(day)
        if self._last_day is not None and day <= self._last_day:
            raise ValueError(
                f"days must be pushed in increasing order: {day} after "
                f"{self._last_day}"
            )
        if len(self._days) == WORD_DAYS:
            raise ValueError(
                f"cannot buffer more than {WORD_DAYS} days; evict before pushing"
            )
        array = _as_address_array(addresses)
        bit = np.uint64(1 << len(self._days))
        self._days.append(day)
        self._last_day = day
        if array.shape[0] == 0:
            return
        new_hi, new_lo = array["hi"], array["lo"]
        points = _insertion_points(self._hi, self._lo, new_hi, new_lo)
        # An address already held sits just before its insertion point.
        prev = np.maximum(points - 1, 0)
        seen = points > 0
        if self._hi.shape[0]:
            seen &= (self._hi[prev] == new_hi) & (self._lo[prev] == new_lo)
        self._words[prev[seen]] |= bit
        fresh = np.nonzero(~seen)[0]
        if fresh.shape[0] == 0:
            return
        slots = points[fresh] + np.arange(fresh.shape[0])
        total = self._words.shape[0] + fresh.shape[0]
        old = np.ones(total, dtype=bool)
        old[slots] = False
        hi = np.empty(total, dtype=np.uint64)
        hi[slots] = new_hi[fresh]
        hi[old] = self._hi
        lo = np.empty(total, dtype=np.uint64)
        lo[slots] = new_lo[fresh]
        lo[old] = self._lo
        words = np.empty(total, dtype=np.uint64)
        words[slots] = bit
        words[old] = self._words
        self._hi, self._lo, self._words = hi, lo, words

    def evict_before(self, day: int) -> None:
        """Drop buffered days earlier than ``day`` from the window."""
        dropped = bisect_left(self._days, day)
        if dropped == 0:
            return
        del self._days[:dropped]
        if not self._days:  # no row is live (and a 64-bit shift is undefined)
            self._hi, self._lo = self._hi[:0], self._lo[:0]
            self._words = self._words[:0]
            return
        words = self._words >> np.uint64(dropped)
        live = words != 0
        self._hi = self._hi[live]
        self._lo = self._lo[live]
        self._words = words[live]

    def classify(self, reference: int) -> StabilityResult:
        """Classify a buffered reference day within the live window.

        Days outside ``[reference - before, reference + after]`` that are
        still buffered (e.g. after a gap jump) are masked out of the
        words, not evicted, so classification never depends on eviction
        timing.  A day not buffered classifies as empty.
        """
        reference = int(reference)
        position = bisect_left(self._days, reference)
        if position < len(self._days) and self._days[position] == reference:
            rows = np.nonzero(self._words & np.uint64(1 << position))[0]
        else:
            rows = np.empty(0, dtype=np.intp)
        active = np.empty(rows.shape[0], dtype=ADDRESS_DTYPE)
        active["hi"] = self._hi[rows]
        active["lo"] = self._lo[rows]
        gaps = _window_gaps(
            self._words[rows],
            np.asarray(self._days, dtype=np.int64),
            reference - self.window_before,
            reference + self.window_after,
        )
        return StabilityResult(
            reference_day=reference,
            window=(self.window_before, self.window_after),
            active=active,
            gaps=gaps,
        )
