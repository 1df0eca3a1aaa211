"""Incremental sliding-window sweep engine for temporal classification (§5.1).

:func:`repro.core.temporal.classify_day` answers one question — "which of
this day's addresses are nd-stable?" — by re-scanning every day of the
``(-before, +after)`` window.  Classifying *every* day of a store that way
touches each day array ``window``-many times, which dominates the runtime
of full-campaign analyses now that ingestion is fast.

This module classifies every requested day in one chronological pass.
The core observation: for an address active on reference day ``r``, the
classifier's per-address extremes are exactly the first and last days the
address was observed within ``[r - before, r + after]`` — and because the
address *is* observed on ``r``, those extremes can be read off the
address's global observation sequence with two binary searches.  So the
engine:

1. concatenates the window days' ``(hi, lo)`` address columns with a
   parallel day column (each day array touched once);
2. sorts the observations by ``(address, day)`` with one unstable
   ``argsort`` of a packed int64 key (:func:`_address_day_order`: the
   dense ranks of ``hi`` and ``lo`` and the day offset, unique per
   observation) — no structured-dtype comparisons and no multi-key
   sort on the hot path;
3. assigns run ids to equal-address runs and builds integer keys
   ``run_id * scale + day`` so that *per-address* day ranges can be
   found with plain global ``searchsorted`` calls;
4. answers every (observation, window) query at once with two vectorized
   binary searches, then scatters the gaps back to each day's array
   order.

The emitted :class:`~repro.core.temporal.StabilityResult` objects are
bit-identical to per-day :func:`classify_day` output (tested), while each
day array is touched O(1) times instead of O(window).

Long campaigns are processed in bounded-memory chunks of reference days
(overlapping by the window so results stay exact), and chunks can be
fanned out over ``fork``-based worker processes — across disjoint day
ranges and, via :func:`sweep_granularities`, across prefix granularities
(/128 addresses and /64 prefixes) simultaneously.

:class:`SweepState` is the engine's incremental form for streaming: a
window state that days enter (``push_day``) and leave (``evict_before``).
It holds the live window as merged ``(hi, lo, day)`` columns that never
need sorting: each new day is merged in at its insertion points (it is
later than every buffered day) and evicted days are masked out, both in
O(window), so any buffered day can be classified without rebuilding a
store.  :class:`repro.core.streaming.StabilityStream` is built on it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.mra import _as_address_array
from repro.core.temporal import (
    DEFAULT_WINDOW_AFTER,
    DEFAULT_WINDOW_BEFORE,
    StabilityResult,
)
from repro.data.store import ADDRESS_DTYPE, ObservationStore
from repro.runtime.checkpoint import SweepCheckpoint, sweep_signature
from repro.runtime.pool import PoolConfig, RunReport, supervised_map

#: Reference days per chunk: bounds peak memory (a chunk loads
#: ``chunk + before + after`` day arrays) and is the unit of parallelism.
DEFAULT_CHUNK_DAYS = 64

#: Packed sort keys and window keys stay below this bound (int64 headroom).
_KEY_LIMIT = 2**62

_KEY_OVERFLOW = "day span too large for sweep keys; reduce chunk_days"


def _dense_rank(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """0-based rank of each value among the distinct values, and their
    count."""
    order = np.argsort(values)
    ordered = values[order]
    fresh = np.empty(ordered.shape[0], dtype=bool)
    fresh[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    ranks_in_order = np.cumsum(fresh, dtype=np.int64) - 1
    ranks = np.empty_like(ranks_in_order)
    ranks[order] = ranks_in_order
    return ranks, int(ranks_in_order[-1]) + 1


def _address_day_order(
    hi: np.ndarray, lo: np.ndarray, day: np.ndarray
) -> np.ndarray:
    """The permutation that sorts observations by ``(hi, lo, day)``.

    Packs each observation into one int64,
    ``(hi_rank * n_lo + lo_rank) * span + (day - offset)``, from the
    dense ranks of ``hi`` and ``lo``, and runs a single unstable
    ``argsort`` on it.  For distinct ``(address, day)`` observations
    (every caller concatenates canonical day arrays) the key is unique,
    so the permutation is the one a stable lexicographic sort on
    ``(hi, lo, day)`` gives.  Raises ``ValueError`` when the key would
    reach 2**62.
    """
    if day.shape[0] == 0:
        return np.empty(0, dtype=np.intp)
    key, n_hi = _dense_rank(hi)
    lo_rank, n_lo = _dense_rank(lo)
    offset = int(day.min())
    span = int(day.max()) - offset + 1
    if n_hi * n_lo * span >= _KEY_LIMIT:
        raise ValueError(_KEY_OVERFLOW)
    key *= n_lo
    key += lo_rank
    del lo_rank
    key *= span
    key += day - offset
    return np.argsort(key)


class _SortedWindow:
    """Observations of several days, sorted by (address, day).

    ``hi``/``lo``/``day`` are the sorted columns; ``gid`` numbers
    equal-address runs; ``key = gid * scale + day-offset`` lets
    per-address day ranges be located with global ``searchsorted``.

    The columns must already be in ``(hi, lo, day)`` order: the batch
    sweep orders them with :func:`_address_day_order`, the streaming
    state keeps its window that way.  ``margin`` must be at least
    ``before + after + 1`` of any window later queried, so that
    out-of-range query keys cannot cross into a neighbouring address's
    key range.
    """

    __slots__ = ("hi", "lo", "day", "gid", "key", "scale", "offset")

    def __init__(
        self, hi: np.ndarray, lo: np.ndarray, day: np.ndarray, margin: int
    ) -> None:
        self.hi = hi
        self.lo = lo
        self.day = day
        n = day.shape[0]
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        boundary[1:] = (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
        self.gid = np.cumsum(boundary, dtype=np.int64) - 1
        self.offset = int(day.min())
        span = int(day.max()) - self.offset + 1
        self.scale = span + int(margin)
        if (int(self.gid[-1]) + 1) * self.scale >= _KEY_LIMIT:
            raise ValueError(_KEY_OVERFLOW)
        self.key = self.gid * self.scale + (day - self.offset)

    def extremes(
        self,
        positions: np.ndarray,
        low: "np.ndarray | int",
        high: "np.ndarray | int",
    ) -> Tuple[np.ndarray, np.ndarray]:
        """First and last observation day, within ``[low, high]``, of the
        address at each queried (sorted-order) position.

        ``low``/``high`` may be scalars or arrays parallel to
        ``positions``.  Each queried position's own day must lie inside
        its ``[low, high]`` (true for window queries: the reference day
        observation is its own witness), which guarantees both searches
        land inside the address's run.
        """
        base = self.gid[positions] * self.scale
        first = np.searchsorted(self.key, base + (low - self.offset), side="left")
        last = (
            np.searchsorted(self.key, base + (high - self.offset), side="right") - 1
        )
        return self.day[first], self.day[last]


def _concat_columns(
    arrays: Sequence[np.ndarray], days: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate day arrays into (hi, lo, day) columns."""
    sizes = [array.shape[0] for array in arrays]
    hi = np.concatenate([array["hi"] for array in arrays])
    lo = np.concatenate([array["lo"] for array in arrays])
    day = np.repeat(np.asarray(days, dtype=np.int64), sizes)
    return hi, lo, day


def grouped_spans(
    arrays: Sequence[np.ndarray], days: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-address (addresses, first, last, days_seen) over day arrays.

    The sweep engine's grouped pass without a window: one packed-key
    sort by (address, day) (:func:`_address_day_order`) instead of a
    structured ``np.unique`` plus scalar-dispatch ``ufunc.at`` updates.
    Backs :func:`repro.core.churn.observation_spans`.
    """
    total = sum(array.shape[0] for array in arrays)
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return np.empty(0, dtype=ADDRESS_DTYPE), empty, empty.copy(), empty.copy()
    hi, lo, day = _concat_columns(arrays, [int(d) for d in days])
    order = _address_day_order(hi, lo, day)
    shi, slo, sday = hi[order], lo[order], day[order]
    boundary = np.empty(total, dtype=bool)
    boundary[0] = True
    boundary[1:] = (shi[1:] != shi[:-1]) | (slo[1:] != slo[:-1])
    starts = np.nonzero(boundary)[0]
    ends = np.concatenate([starts[1:], [total]])
    addresses = np.empty(starts.shape[0], dtype=ADDRESS_DTYPE)
    addresses["hi"] = shi[starts]
    addresses["lo"] = slo[starts]
    return addresses, sday[starts], sday[ends - 1], ends - starts


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


def _sweep_chunk(
    observations: ObservationStore,
    ref_days: Sequence[int],
    window_before: int,
    window_after: int,
) -> List[Tuple[int, np.ndarray]]:
    """Classify one chunk of reference days; return (day, gaps) pairs.

    Gaps arrays are parallel to each reference day's sorted address
    array; absent days yield empty arrays, matching ``classify_day``.
    """
    low = ref_days[0] - window_before
    high = ref_days[-1] + window_after
    window_days = [day for day in observations.days() if low <= day <= high]
    arrays = [observations.array(day) for day in window_days]
    sizes = [array.shape[0] for array in arrays]
    total = sum(sizes)
    if total == 0:
        return [(day, np.empty(0, dtype=np.int64)) for day in ref_days]
    hi, lo, day_col = _concat_columns(arrays, window_days)
    order = _address_day_order(hi, lo, day_col)
    window = _SortedWindow(
        hi[order], lo[order], day_col[order], margin=window_before + window_after + 1
    )
    # Mark which sorted positions belong to reference days (boundary days
    # are context only — their own windows extend outside this chunk).
    span = int(window.day.max()) - window.offset + 1
    is_ref = np.zeros(span, dtype=bool)
    for day in ref_days:
        if 0 <= day - window.offset < span:
            is_ref[day - window.offset] = True
    qpos = np.nonzero(is_ref[window.day - window.offset])[0]
    gaps_all = np.empty(total, dtype=np.int64)
    if qpos.shape[0]:
        qday = window.day[qpos]
        first, last = window.extremes(qpos, qday - window_before, qday + window_after)
        gaps_all[order[qpos]] = last - first
    starts = np.concatenate([[0], np.cumsum(sizes)])
    day_index = {day: i for i, day in enumerate(window_days)}
    out: List[Tuple[int, np.ndarray]] = []
    for day in ref_days:
        i = day_index.get(day)
        if i is None:
            out.append((day, np.empty(0, dtype=np.int64)))
        else:
            out.append((day, gaps_all[starts[i] : starts[i + 1]]))
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

    ``jobs`` fans chunks of ``chunk_days`` reference days out over
    supervised fork-based worker processes (``0`` = all CPUs,
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

    Every (granularity, chunk) pair is one task of a single
    :func:`repro.runtime.pool.supervised_map` call, so parallelism spans
    both disjoint day ranges and prefix granularities, and a
    two-granularity year sweep keeps ``jobs`` workers busy throughout.
    The mapped function is a closure over the derived stores, which
    forked workers inherit copy-on-write; only each chunk's gaps travel
    back.  ``checkpoint_dir`` and ``report_sink`` behave as in
    :func:`sweep_days` (the report has ``tasks=0`` when every chunk came
    from checkpoints); checkpoint entries are keyed by granularity and
    chunk index.
    """
    if window_before < 0 or window_after < 0:
        raise ValueError("window spans must be non-negative")
    if chunk_days < 1:
        raise ValueError(f"chunk_days must be >= 1: {chunk_days}")
    stores = {
        int(p): observations if int(p) >= 128 else observations.truncated(int(p))
        for p in prefix_lens
    }
    ref_days = _normalized_days(observations, days)
    if not ref_days:
        return {p: [] for p in stores}
    chunks = _plan_chunks(ref_days, chunk_days)
    checkpoint: Optional[SweepCheckpoint] = None
    if checkpoint_dir is not None:
        checkpoint = SweepCheckpoint(
            checkpoint_dir,
            sweep_signature(
                stores, ref_days, window_before, window_after, chunk_days
            ),
        )
    gaps: Dict[int, Dict[int, np.ndarray]] = {key: {} for key in stores}
    #: (store key, chunk index, chunk) of every chunk still to compute.
    tasks: List[Tuple[int, int, List[int]]] = []
    for key in stores:
        for chunk_index, chunk in enumerate(chunks):
            if checkpoint is not None:
                cached = checkpoint.load_chunk(key, chunk_index, chunk)
                if cached is not None:
                    gaps[key].update(cached)
                    continue
            tasks.append((key, chunk_index, chunk))

    def sweep_chunk(task: Tuple[int, int, List[int]]) -> List[Tuple[int, np.ndarray]]:
        key, _chunk_index, chunk = task
        return _sweep_chunk(stores[key], chunk, window_before, window_after)

    def on_result(index: int, chunk_result: List[Tuple[int, np.ndarray]]) -> None:
        key, chunk_index, _chunk = tasks[index]
        gaps[key].update(chunk_result)
        if checkpoint is not None:
            checkpoint.save_chunk(key, chunk_index, chunk_result)

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
    the same days.  The buffered observations are kept as merged
    ``(hi, lo, day)`` columns in that sort order.  Nothing is ever
    re-sorted: a pushed day is later than every buffered day, so its
    addresses go after their equal-address runs and are scattered in at
    their insertion points; eviction masks old days out, which keeps the
    order.  Both cost O(window) per day.
    """

    def __init__(
        self,
        window_before: int = DEFAULT_WINDOW_BEFORE,
        window_after: int = DEFAULT_WINDOW_AFTER,
    ) -> None:
        if window_before < 0 or window_after < 0:
            raise ValueError("window spans must be non-negative")
        self.window_before = window_before
        self.window_after = window_after
        #: (day, observation count) of every buffered day, oldest first.
        self._days: Deque[Tuple[int, int]] = deque()
        self._hi = np.empty(0, dtype=np.uint64)
        self._lo = np.empty(0, dtype=np.uint64)
        self._day = np.empty(0, dtype=np.int64)
        self._window: Optional[_SortedWindow] = None

    @property
    def days_held(self) -> int:
        """Number of days currently buffered."""
        return len(self._days)

    def push_day(self, day: int, addresses: np.ndarray) -> None:
        """Merge one day's addresses into the live window."""
        day = int(day)
        if self._days and day <= self._days[-1][0]:
            raise ValueError(
                f"days must be pushed in increasing order: {day} after "
                f"{self._days[-1][0]}"
            )
        array = _as_address_array(addresses)
        new = array.shape[0]
        self._days.append((day, new))
        if new == 0:
            return
        slots = _insertion_points(self._hi, self._lo, array["hi"], array["lo"])
        slots += np.arange(new)
        total = self._day.shape[0] + new
        old = np.ones(total, dtype=bool)
        old[slots] = False
        hi = np.empty(total, dtype=np.uint64)
        hi[slots] = array["hi"]
        hi[old] = self._hi
        lo = np.empty(total, dtype=np.uint64)
        lo[slots] = array["lo"]
        lo[old] = self._lo
        days = np.empty(total, dtype=np.int64)
        days[slots] = day
        days[old] = self._day
        self._hi, self._lo, self._day = hi, lo, days
        self._window = None

    def evict_before(self, day: int) -> None:
        """Drop buffered days earlier than ``day`` from the window."""
        dropped = 0
        while self._days and self._days[0][0] < day:
            dropped += self._days.popleft()[1]
        if dropped:
            keep = self._day >= day
            self._hi = self._hi[keep]
            self._lo = self._lo[keep]
            self._day = self._day[keep]
            self._window = None

    def _sorted_window(self) -> Optional[_SortedWindow]:
        if self._window is None and self._day.shape[0]:
            self._window = _SortedWindow(
                self._hi,
                self._lo,
                self._day,
                margin=self.window_before + self.window_after + 1,
            )
        return self._window

    def classify(self, reference: int) -> StabilityResult:
        """Classify a buffered reference day within the live window.

        Days outside ``[reference - before, reference + after]`` that are
        still buffered (e.g. after a gap jump) are excluded by the key
        query, not by eviction, so classification never depends on
        eviction timing.
        """
        reference = int(reference)
        window = self._sorted_window()
        if window is None:
            qpos = np.empty(0, dtype=np.int64)
        else:
            qpos = np.nonzero(window.day == reference)[0]
        active = np.empty(qpos.shape[0], dtype=ADDRESS_DTYPE)
        if qpos.shape[0]:
            active["hi"] = window.hi[qpos]
            active["lo"] = window.lo[qpos]
            first, last = window.extremes(
                qpos, reference - self.window_before, reference + self.window_after
            )
            gaps = last - first
        else:
            gaps = np.empty(0, dtype=np.int64)
        return StabilityResult(
            reference_day=reference,
            window=(self.window_before, self.window_after),
            active=active,
            gaps=gaps,
        )
