"""Day-indexed observation storage for active-address analysis.

The paper's input is a sequence of *daily aggregated logs*: for each day, the
set of client addresses observed (with hit counts).  This module provides the
column-oriented store the temporal classifier runs over.

Addresses are held as numpy structured arrays with two unsigned 64-bit
columns ``(hi, lo)`` — the high and low halves of the 128-bit address —
sorted lexicographically and deduplicated.  numpy's ``intersect1d`` /
``union1d`` / ``isin`` then give the per-day set algebra in vectorized form,
which is what makes window-based stability analysis over millions of
addresses per day practical in pure Python.

Days are plain integers (day numbers); use any epoch you like, as the
classifiers only ever take differences.  :func:`day_number` converts ISO
dates for convenience.
"""

from __future__ import annotations

import datetime
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.net import batchparse

#: Structured dtype for address columns: high then low 64 bits, so that the
#: lexicographic order numpy uses for structured comparison equals numeric
#: order of the 128-bit value.
ADDRESS_DTYPE = np.dtype([("hi", "<u8"), ("lo", "<u8")])

_EPOCH = datetime.date(2014, 1, 1)


def day_number(date: "str | datetime.date") -> int:
    """Convert an ISO date (or date object) to a day number.

    Day 0 is 2014-01-01, placing the paper's three measurement epochs at
    small positive numbers; only differences ever matter.
    """
    if isinstance(date, str):
        date = datetime.date.fromisoformat(date)
    return (date - _EPOCH).days


def day_date(day: int) -> datetime.date:
    """Inverse of :func:`day_number`."""
    return _EPOCH + datetime.timedelta(days=int(day))


def _pack_halves(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Pack uint64 halves into an address array as they are (no sort)."""
    array = np.empty(np.shape(hi)[0], dtype=ADDRESS_DTYPE)
    array["hi"] = hi
    array["lo"] = lo
    return array


#: Most rows whose ranks and ids come back as int32 (every rank is below
#: the row count); longer inputs get int64.  A private limit, not a knob.
_INT32_ROWS = int(np.iinfo(np.int32).max)


def _dense_rank(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """0-based rank of each value among the distinct values, and their
    count.  ``values`` must be non-empty.  Ranks are int32 up to
    :data:`_INT32_ROWS` values, else int64.

    Each temporary is dropped as soon as it is dead: beside its input
    and result the kernel holds at most 17 bytes a row (the argsort
    order, the sorted copy and the run-start mask).
    """
    order = np.argsort(values)
    ordered = values[order]
    fresh = np.empty(ordered.shape[0], dtype=bool)
    fresh[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    del ordered
    rank_type = np.int32 if fresh.shape[0] <= _INT32_ROWS else np.int64
    in_order = np.cumsum(fresh, dtype=rank_type)
    del fresh
    in_order -= 1
    ranks = np.empty_like(in_order)
    ranks[order] = in_order
    return ranks, int(in_order[-1]) + 1


def address_ids(hi: np.ndarray, lo: np.ndarray) -> Tuple[np.ndarray, int]:
    """Dense id of each ``(hi, lo)`` address, numbered in address order,
    and the number of distinct addresses.  Inputs must be non-empty.

    The one 128-bit ordering kernel: three unstable ``argsort``s (numpy
    runs them as SIMD quicksorts), ranking ``hi``, ``lo`` and then the
    packed rank pair ``rank_hi * n_lo + rank_lo``.  Both ranks are below
    the row count ``n``, so the pair stays exact in int64 while
    ``n * n < 2**63``, i.e. below ~3.0e9 rows.  Equal pairs get equal
    ids, and ids increase with the 128-bit value.  Ids are int32 below
    2**31 rows, else int64.

    Memory: beside its inputs the kernel peaks at 25 bytes a row, while
    it ranks the packed pair (measured with ``tracemalloc``; the budget
    in ``tests/test_kernel_memory.py`` is 33).  A caller that builds the
    inputs only for this call should pass them as temporaries, so they
    are freed when it returns.
    """
    pair = _dense_rank(hi)[0].astype(np.int64, copy=False)
    lo_rank, n_lo = _dense_rank(lo)
    pair *= n_lo
    pair += lo_rank
    del lo_rank
    return _dense_rank(pair)


def merge_halves(
    hi: np.ndarray, lo: np.ndarray, hits: "Optional[np.ndarray]" = None
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Sort ``(hi, lo)`` pairs, keep each distinct pair once, sum its hits.

    The one merge of the data layer: :func:`address_ids` numbers the
    distinct pairs in 128-bit order, each pair is scattered to its id
    (equal pairs write the same value), and ``hits`` (when given) are
    summed per id with ``np.add.at`` into uint64, wrapping modulo 2**64
    like any uint64 sum.  Returns ``(hi, lo, hits)``; ``hits`` is None
    when none were given.

    Memory: 28 bytes a row on a shuffled day with 1% repeated rows, the
    ranking's temporaries and the merged columns included
    (``tracemalloc``; the budget in ``tests/test_kernel_memory.py`` is
    35).
    """
    if hi.shape[0] == 0:
        summed = None if hits is None else np.zeros(0, dtype=np.uint64)
        return hi.copy(), lo.copy(), summed
    ids, count = address_ids(hi, lo)
    merged_hi = np.empty(count, dtype=np.uint64)
    merged_lo = np.empty(count, dtype=np.uint64)
    merged_hi[ids] = hi
    merged_lo[ids] = lo
    summed = None
    if hits is not None:
        summed = np.zeros(count, dtype=np.uint64)
        np.add.at(summed, ids, np.asarray(hits, dtype=np.uint64))
    return merged_hi, merged_lo, summed


def to_array(addresses: Iterable[int]) -> np.ndarray:
    """Build a sorted, deduplicated address array from integer addresses."""
    return halves_to_array(*batchparse.ints_to_halves(addresses))


def halves_to_array(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Build a sorted, deduplicated address array from uint64 halves."""
    hi, lo, _hits = merge_halves(
        np.asarray(hi, dtype=np.uint64), np.asarray(lo, dtype=np.uint64)
    )
    return _pack_halves(hi, lo)


def from_array(array: np.ndarray) -> List[int]:
    """Convert an address array back to a list of 128-bit integers."""
    return batchparse.halves_to_ints(array["hi"], array["lo"])


def array_size(array: np.ndarray) -> int:
    """Number of addresses in an address array."""
    return int(array.shape[0])


def intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Set intersection of two sorted address arrays."""
    return np.intersect1d(a, b, assume_unique=True)


def union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Set union of two sorted address arrays."""
    return np.union1d(a, b)


def difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Addresses in ``a`` but not in ``b``."""
    return np.setdiff1d(a, b, assume_unique=True)


def member_mask(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean mask over ``a``: which elements also appear in ``b``.

    Both arrays must be sorted and unique; uses ``searchsorted`` rather
    than ``np.isin`` because structured ``isin`` falls back to slow paths.
    """
    if array_size(b) == 0:
        return np.zeros(array_size(a), dtype=bool)
    positions = np.searchsorted(b, a)
    positions = np.clip(positions, 0, array_size(b) - 1)
    return b[positions] == a


def union_many(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Union of any number of address arrays (empty input gives empty set).

    The arrays are copied one after another into big-endian ``(hi, lo)``
    rows, whose 16 bytes compare (as ``S16``, byte by byte) in the
    order of the 128-bit values.  A stable sort of that view merges the
    sorted arrays as runs.  The rows are then swapped to native order in
    place and the first row of each run of equal rows is copied out, so
    the result is the only copy made after the sort.  (The view is only
    sorted, never read as scalars: numpy strips trailing NUL bytes from
    an ``S16`` scalar.)

    Memory: 16 bytes per input row for the rows, the sort's merge buffer
    and one mask byte, then the kept rows; 33 bytes per input row at
    most (``tracemalloc``; the budget in ``tests/test_kernel_memory.py``
    is 42).
    """
    keys = np.empty(
        sum(array.shape[0] for array in arrays),
        dtype=ADDRESS_DTYPE.newbyteorder(">"),
    )
    row = 0
    for array in arrays:
        keys["hi"][row : row + array.shape[0]] = array["hi"]
        keys["lo"][row : row + array.shape[0]] = array["lo"]
        row += array.shape[0]
    keys.view("S16").sort(kind="stable")
    rows = keys.byteswap(inplace=True).view(ADDRESS_DTYPE)
    hi, lo = rows["hi"], rows["lo"]
    first = np.ones(hi.shape[0], dtype=bool)
    np.not_equal(hi[1:], hi[:-1], out=first[1:])
    first[1:] |= lo[1:] != lo[:-1]
    return rows[first]


def strictly_increasing(hi: np.ndarray, lo: np.ndarray) -> bool:
    """True when the ``(hi, lo)`` pairs are sorted and distinct (canonical).

    One vectorized pass: each pair must exceed its predecessor.
    """
    if hi.shape[0] < 2:
        return True
    greater = (hi[1:] > hi[:-1]) | ((hi[1:] == hi[:-1]) & (lo[1:] > lo[:-1]))
    return bool(greater.all())


def _masked(array: np.ndarray, prefix_len: int) -> np.ndarray:
    """A copy of ``array`` with every address cut to ``prefix_len`` bits."""
    if not 0 <= prefix_len <= 128:
        raise ValueError(f"prefix length out of range: {prefix_len}")
    result = array.copy()
    if prefix_len <= 64:
        if prefix_len == 0:
            hi_mask = np.uint64(0)
        else:
            hi_mask = np.uint64(((1 << prefix_len) - 1) << (64 - prefix_len))
        result["hi"] = result["hi"] & hi_mask
        result["lo"] = 0
    else:
        low_bits = prefix_len - 64
        if low_bits == 64:
            lo_mask = np.uint64(0xFFFFFFFFFFFFFFFF)
        else:
            lo_mask = np.uint64(((1 << low_bits) - 1) << (64 - low_bits))
        result["lo"] = result["lo"] & lo_mask
    return result


def _truncate_canonical(array: np.ndarray, prefix_len: int) -> np.ndarray:
    """:func:`truncate_array` for a canonical (sorted, distinct) array, in O(n).

    Prefix masking is monotone, so the masked array is still sorted and
    equal prefixes sit next to each other: keeping each element that
    differs from its predecessor dedupes it without a sort.
    """
    masked = _masked(array, prefix_len)
    hi, lo = masked["hi"], masked["lo"]
    keep = np.ones(hi.shape[0], dtype=bool)
    keep[1:] = (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
    return masked[keep]


def truncate_array(array: np.ndarray, prefix_len: int) -> np.ndarray:
    """Truncate every address to ``prefix_len`` bits; dedupe and sort.

    Truncating to /64 reduces the problem to distinct ``hi`` values with
    ``lo`` zero — the "/64 prefixes" the paper tracks alongside full
    addresses.  Any input is accepted; one that is already canonical
    skips the sort.
    """
    canonical = array.dtype == ADDRESS_DTYPE and strictly_increasing(
        array["hi"], array["lo"]
    )
    if canonical:
        return _truncate_canonical(array, prefix_len)
    masked = _masked(array, prefix_len)
    return halves_to_array(masked["hi"], masked["lo"])


class DailyObservations:
    """One day's worth of observed addresses, with optional hit counts.

    Addresses are stored sorted and deduplicated; hit counts, when given,
    are summed per unique address and kept in a parallel array.

    ``cache_tag`` is ``(digest, prefix_len)`` when the addresses are the
    day-cache entry of that content digest cut to ``prefix_len`` bits
    (set by :func:`repro.data.logfile.load_store`), else None.  The
    sweep keys its persisted address ids by it; a day built any other
    way is untagged, so replacing a store's day drops its tag.
    """

    cache_tag: Optional[Tuple[str, int]] = None

    def __init__(
        self,
        day: int,
        addresses: Iterable[int],
        hits: Optional[Iterable[int]] = None,
    ) -> None:
        self.day = int(day)
        hi, lo = batchparse.ints_to_halves(addresses)
        hit_list = None
        if hits is not None:
            hit_list = np.asarray(list(hits), dtype=np.uint64)
            if hit_list.shape[0] != hi.shape[0]:
                raise ValueError("hits must parallel addresses")
        hi, lo, self.hits = merge_halves(hi, lo, hit_list)
        self.addresses = _pack_halves(hi, lo)

    @classmethod
    def from_array(cls, day: int, array: np.ndarray) -> "DailyObservations":
        """Wrap a prebuilt (sorted, unique) address array without copying."""
        instance = cls.__new__(cls)
        instance.day = int(day)
        instance.addresses = array
        instance.hits = None
        return instance

    @classmethod
    def from_halves(
        cls,
        day: int,
        hi: np.ndarray,
        lo: np.ndarray,
        hits: "Optional[np.ndarray]" = None,
        merged: bool = False,
    ) -> "DailyObservations":
        """Build a day directly from columnar uint64 halves.

        This is the zero-copy-ish entry point of the fast ingestion
        pipeline: the batch parser and the day-log cache both produce
        ``(hi, lo[, hits])`` columns.  With ``merged=True`` the columns
        are trusted to be sorted and duplicate-free already (the cache
        stores them that way) and are wrapped without re-deduplication.
        """
        instance = cls.__new__(cls)
        instance.day = int(day)
        hit_array = None if hits is None else np.asarray(hits, dtype=np.uint64)
        if not merged:
            if hit_array is not None and hit_array.shape[0] != np.shape(hi)[0]:
                raise ValueError("hits must parallel addresses")
            hi, lo, hit_array = merge_halves(
                np.asarray(hi, dtype=np.uint64),
                np.asarray(lo, dtype=np.uint64),
                hit_array,
            )
        instance.addresses = _pack_halves(hi, lo)
        instance.hits = hit_array
        return instance

    def __len__(self) -> int:
        return array_size(self.addresses)

    def as_ints(self) -> List[int]:
        """The day's addresses as 128-bit integers."""
        return from_array(self.addresses)

    def truncated(self, prefix_len: int) -> "DailyObservations":
        """This day's observations reduced to distinct /prefix_len networks.

        O(n): the day's addresses are canonical by construction, so no
        sort is needed (see :func:`_truncate_canonical`).
        """
        derived = DailyObservations.from_array(
            self.day, _truncate_canonical(self.addresses, prefix_len)
        )
        if self.cache_tag is not None:
            digest, bits = self.cache_tag
            derived.cache_tag = (digest, min(bits, prefix_len))
        return derived


class ObservationStore:
    """A day-indexed collection of :class:`DailyObservations`.

    The unit the temporal classifier consumes.  Also supports deriving a
    prefix-level store (e.g. /64s) and unions over day ranges.
    ``cache_dir`` is the day-cache directory the store was loaded
    through, if any; the sweep keeps its address ids there for days
    that carry a ``cache_tag``.
    """

    def __init__(self) -> None:
        self._days: Dict[int, DailyObservations] = {}
        self.cache_dir: Optional[str] = None

    def add_day(
        self,
        day: int,
        addresses: Iterable[int],
        hits: Optional[Iterable[int]] = None,
    ) -> DailyObservations:
        """Insert (or replace) one day of observations."""
        observations = DailyObservations(day, addresses, hits)
        self._days[observations.day] = observations
        return observations

    def add_observations(self, observations: DailyObservations) -> None:
        """Insert a prebuilt day of observations."""
        self._days[observations.day] = observations

    def days(self) -> List[int]:
        """Sorted list of days present in the store."""
        return sorted(self._days)

    def __contains__(self, day: int) -> bool:
        return int(day) in self._days

    def __len__(self) -> int:
        return len(self._days)

    def get(self, day: int) -> Optional[DailyObservations]:
        """The observations for ``day``, or None when absent."""
        return self._days.get(int(day))

    def array(self, day: int) -> np.ndarray:
        """The sorted address array for ``day`` (empty when absent)."""
        observations = self._days.get(int(day))
        if observations is None:
            return np.empty(0, dtype=ADDRESS_DTYPE)
        return observations.addresses

    def union_over(self, days: Iterable[int]) -> np.ndarray:
        """Union of the address sets of the given days."""
        return union_many([self.array(day) for day in days])

    def truncated(self, prefix_len: int) -> "ObservationStore":
        """Derive a store whose members are /prefix_len networks."""
        derived = ObservationStore()
        derived.cache_dir = self.cache_dir
        for day, observations in self._days.items():
            derived.add_observations(observations.truncated(prefix_len))
        return derived

    def iter_days(self) -> Iterator[DailyObservations]:
        """Iterate the days in chronological order."""
        for day in self.days():
            yield self._days[day]

    def save(self, path: str) -> None:
        """Persist the store to an ``.npz`` file."""
        payload: Dict[str, np.ndarray] = {}
        for day, observations in self._days.items():
            payload[f"hi_{day}"] = observations.addresses["hi"]
            payload[f"lo_{day}"] = observations.addresses["lo"]
            if observations.hits is not None:
                payload[f"hits_{day}"] = observations.hits
        np.savez_compressed(path, **payload)

    @classmethod
    def load(cls, path: str) -> "ObservationStore":
        """Load a store saved with :meth:`save`."""
        store = cls()
        with np.load(path) as data:
            days = sorted(
                int(name[3:]) for name in data.files if name.startswith("hi_")
            )
            for day in days:
                observations = DailyObservations.from_array(
                    day, _pack_halves(data[f"hi_{day}"], data[f"lo_{day}"])
                )
                hits_key = f"hits_{day}"
                if hits_key in data.files:
                    observations.hits = data[hits_key]
                store.add_observations(observations)
        return store
