"""Array-native spatial classification engine (§5.2).

The paper's spatial methods — MRA count ratios (§5.2.1), aggregate
population CCDFs (§5.2.2) and the aguri-style *densify* operation behind
Table 3 (§5.2.3) — all interrogate the same object: the prefix structure
of a sorted address set.  The tree implementation
(:mod:`repro.trie.aguri`) materializes that structure as one Python
``RadixNode`` per address, which cannot densify a year-scale store in
reasonable time.  This engine computes the identical answers directly on
the canonical ``(hi, lo)`` columnar address arrays:

* One vectorized **adjacent-LCP scan**
  (:func:`repro.core.mra.adjacent_common_prefix_lengths`) is shared by
  every spatial question about a set.
* **Fixed-length /p groups** are the runs between LCP entries below p
  (:func:`prefix_runs`), giving Table 3 rows and aggregate populations
  without re-truncating and re-sorting per length.
* **Patricia branch points** are exactly the LCP entries: the branch
  node split at adjacent pair i has prefix length ``lcp[i]``, and its
  subtree spans the maximal run of pairs with LCP >= ``lcp[i]``.  The
  nearest-smaller-value bounds of an entry therefore recover its node's
  (length, count), and the paper's *general densify* reduces to an
  interval sweep: report the dense nodes not covered by any dense
  ancestor interval (:func:`general_dense_prefixes`) — bit-identical to
  building the 2M-node radix tree and folding it (tested and asserted
  in ``benchmarks/bench_spatial.py``).  Bounds are computed only for
  the branch nodes that can be dense: a count never exceeds the set's
  size, so the threshold table cuts every pair shorter than the first
  length whose threshold fits it, and the bounds of the rest come from
  pointer doubling on a compressed array whose rounds shrink as indices
  resolve.

Per-day spatial profiles over a whole store run through
:func:`sweep_spatial`, which mirrors :mod:`repro.core.sweep`'s
fork-based ``jobs=N`` fan-out and can apply the paper's census culling
step (§4.1) so the spatial classes describe the native "Other" subset,
as in the paper's Section 6 results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.mra import (
    ArrayOrAddresses,
    _as_address_array,
    adjacent_common_prefix_lengths,
    counts_from_lengths,
)
from repro.core.sweep import _normalized_days
from repro.data.store import ObservationStore
from repro.net import addr
from repro.net.prefix import check_length
from repro.runtime.pool import PoolConfig, RunReport, resolve_jobs, supervised_map

#: Counts are array sizes, far below 2**62; thresholds above this cap can
#: never be met, so the table stays within int64.
_THRESHOLD_CAP = 1 << 62


def density_threshold(n: int, p: int, length: int) -> int:
    """Minimum count for a length-``length`` prefix to meet n@/p density.

    The desired minimum density is ``n / 2**(128 - p)``.  A length-``q``
    prefix spans ``2**(128 - q)`` addresses, so it meets the density when
    its count is at least ``n * 2**(p - q)`` — which for ``q > p`` is a
    fraction, i.e. any single observation suffices.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1: {n}")
    check_length(p)
    check_length(length)
    if length >= p:
        shift = length - p
        # ceil(n / 2**shift), never below 1.
        return max(1, (n + (1 << shift) - 1) >> shift)
    return n << (p - length)


def widen_dense_prefixes(
    found: Iterable[Tuple[int, int, int]], p: int
) -> List[Tuple[int, int, int]]:
    """Widen reported prefixes longer than ``p`` to exactly /p and merge.

    Prefixes longer than ``p`` are truncated to /p, and clusters landing
    on the same /p have their counts summed.  Prefixes already shorter
    than (or equal to) ``p`` are kept as-is — and because widening only
    *shortens* lengths down to ``p``, a widened /p can come to sit inside
    a kept shorter prefix when the input list contains nested prefixes
    (e.g. tree reports built with
    :meth:`repro.trie.radix.RadixTree.add_prefix`, or dense
    lists merged across days).  Such nested entries are dropped after
    widening: a containing prefix's count already includes the addresses
    of everything below it, so keeping both would double-count.  The
    result is guaranteed non-overlapping whenever containing prefixes
    carry subtree-total counts (as all densify reports do).
    """
    check_length(p)
    merged: Dict[Tuple[int, int], int] = {}
    for network, length, count in found:
        if length > p:
            network, length = addr.truncate(network, p), p
        key = (network, length)
        merged[key] = merged.get(key, 0) + count
    result: List[Tuple[int, int, int]] = []
    # Sorted by (network, length), a nested prefix immediately follows a
    # prefix that contains it or is disjoint from every kept one, so a
    # single look-back at the last kept entry suffices.
    for (network, length), count in sorted(merged.items()):
        if result:
            kept_network, kept_length, _kept_count = result[-1]
            if kept_length <= length and addr.truncate(network, kept_length) == kept_network:
                continue
        result.append((network, length, count))
    return result


def threshold_table(n: int, p: int) -> np.ndarray:
    """Density thresholds for every node length, as an int64 lookup table.

    ``table[length]`` is the minimum subtree count for a length-``length``
    node to meet the ``n@/p`` density, per :func:`density_threshold`;
    astronomically large thresholds (short lengths far above ``p``) are
    clipped to an unreachable cap so the table fits int64.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1: {n}")
    check_length(p)
    return np.array(
        [min(density_threshold(n, p, length), _THRESHOLD_CAP) for length in range(129)],
        dtype=np.int64,
    )


def _nearest_smaller_left(values: np.ndarray) -> np.ndarray:
    """Index of the nearest strictly smaller value to the left (-1 if none).

    Vectorized pointer doubling: every unresolved index jumps to its
    candidate's candidate, so chains of equal-or-larger values collapse
    geometrically.  Each round carries only the indices still open, so
    the rounds shrink as the chains resolve; the jump is simultaneous
    (every new pointer is read before any is written).
    """
    size = values.shape[0]
    out = np.arange(-1, size - 1, dtype=np.int64)
    open_ = np.arange(1, size, dtype=np.int64)
    target = values[1:]
    while open_.shape[0]:
        candidate = out[open_]
        still = values[candidate] >= target
        open_, candidate, target = open_[still], candidate[still], target[still]
        jumped = out[candidate]
        out[open_] = jumped
        live = jumped >= 0
        open_, target = open_[live], target[live]
    return out


def _nearest_smaller_right(values: np.ndarray) -> np.ndarray:
    """Index of the nearest strictly smaller value to the right (``size`` if none)."""
    size = values.shape[0]
    return (size - 1) - _nearest_smaller_left(values[::-1])[::-1]


def _check_lengths(lengths: np.ndarray, size: int) -> None:
    """Reject an adjacent-LCP array that cannot belong to ``size`` addresses."""
    expected = (max(size - 1, 0),)
    if lengths.shape != expected:
        raise ValueError(
            f"lengths must have shape (size - 1,) = {expected} for {size} "
            f"addresses, got {lengths.shape}"
        )


def prefix_runs(
    array: np.ndarray, p: int, lengths: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Run-length encode a canonical address array into /p groups.

    Returns ``(starts, counts)``: index of each active /p prefix's first
    address, and the number of distinct addresses it contains, in
    ascending network order.  Adjacent addresses share a /p exactly when
    their common prefix is at least p long, so group boundaries are the
    LCP entries below p — no per-length truncate/sort/unique pass.
    ``lengths``, when given, must be the set's adjacent-LCP array (shape
    ``(size - 1,)``).
    """
    check_length(p)
    size = int(array.shape[0])
    if lengths is None:
        lengths = adjacent_common_prefix_lengths(array)
    else:
        _check_lengths(lengths, size)
    if size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    boundaries = np.nonzero(lengths < p)[0]
    starts = np.concatenate([[0], boundaries + 1])
    ends = np.concatenate([boundaries + 1, [size]])
    return starts, ends - starts


def _prefix_entries(
    array: np.ndarray, starts: np.ndarray, lengths: List[int], counts: np.ndarray
) -> List[Tuple[int, int, int]]:
    """``(network, length, count)`` triples as Python ints, one per entry:
    the /length network holding the address at each of ``starts``."""
    tops = array["hi"][starts].tolist()
    bottoms = array["lo"][starts].tolist()
    return [
        (addr.truncate((top << 64) | bottom, length), length, count)
        for top, bottom, length, count in zip(tops, bottoms, lengths, counts.tolist())
    ]


def dense_runs(
    array: np.ndarray,
    n: int,
    p: int,
    lengths: Optional[np.ndarray] = None,
) -> Tuple[List[Tuple[int, int, int]], int]:
    """Fixed-length dense search: /p groups holding at least n addresses.

    Returns the dense (network, p, count) list in ascending network order
    and the total number of observed addresses inside dense groups — the
    two quantities a Table 3 row accounts for.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1: {n}")
    starts, counts = prefix_runs(array, p, lengths)
    dense = counts >= n
    dense_counts = counts[dense]
    prefixes = _prefix_entries(
        array, starts[dense], [p] * dense_counts.shape[0], dense_counts
    )
    return prefixes, int(dense_counts.sum())


def _candidate_bounds(
    lengths: np.ndarray, table: np.ndarray, size: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nearest-smaller bounds of the branch nodes that can be dense.

    A node's count never exceeds ``size`` and ``table`` does not increase
    with length, so the candidate pairs are exactly those with ``lengths``
    at least the first length whose threshold is at most ``size``.  Every
    other pair is smaller than every candidate, so the pair just before
    or after a run of candidates is that run's exact barrier: the bounds
    are computed on the candidates plus those neighbours only.

    Returns ``(kept, pos, left, right)``: the kept pair indices, the
    candidates' positions in ``kept``, and each candidate's bounds as
    positions in ``kept`` (-1 and ``len(kept)`` when there is none).
    """
    qualifying = np.flatnonzero(table <= size)
    if not qualifying.shape[0]:
        # No length can be dense (np.argmax of this all-False mask would
        # be 0 and keep every pair).
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, empty
    candidate = lengths >= qualifying[0]
    keep = candidate.copy()
    keep[1:] |= candidate[:-1]
    keep[:-1] |= candidate[1:]
    kept = np.flatnonzero(keep)
    pos = np.flatnonzero(candidate[kept])
    values = lengths[kept]
    left = _nearest_smaller_left(values)[pos]
    right = _nearest_smaller_right(values)[pos]
    return kept, pos, left, right


def _dense_report(
    array: np.ndarray,
    n: int,
    lengths: np.ndarray,
    table: np.ndarray,
    bounds: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> List[Tuple[int, int, int]]:
    """The dense candidates covered by no dense ancestor, with >= n addresses.

    ``bounds`` comes from :func:`_candidate_bounds`.  Coverage runs over
    the kept positions, which hold every candidate, so each candidate
    sees exactly the dense intervals that contain it.
    """
    kept, pos, left, right = bounds
    width = kept.shape[0]
    # Pair index of each kept position, with the -1 / num_pairs sentinels.
    pairs = np.concatenate(([-1], kept, [lengths.shape[0]]))
    before = pairs[left + 1]
    counts = pairs[right + 1] - before  # addresses spanned by each node
    node_lengths = lengths[kept[pos]]
    dense = counts >= table[node_lengths]
    coverage_delta = np.bincount(left[dense] + 1, minlength=width + 1) - np.bincount(
        right[dense], minlength=width + 1
    )
    coverage = np.cumsum(coverage_delta[:width])[pos]
    reported = dense & (coverage == 1) & (counts >= n)
    found = _prefix_entries(
        array, before[reported] + 1, node_lengths[reported].tolist(), counts[reported]
    )
    found.sort()
    return found


def general_dense_prefixes(
    addresses: ArrayOrAddresses,
    n: int,
    p: int,
    widen: bool = False,
    lengths: Optional[np.ndarray] = None,
) -> List[Tuple[int, int, int]]:
    """Vectorized general densify: the paper's §5.2.3 on columnar arrays.

    Bit-identical to
    ``repro.trie.aguri.compute_dense_prefixes(addresses, n, p, widen)``
    — the least-specific non-overlapping prefixes meeting density
    ``n / 2**(128 - p)`` with at least n observed addresses — but
    computed from the adjacent-LCP array instead of a per-address radix
    tree:

    1. every Patricia branch node is an LCP entry; its subtree count is
       the width of the maximal surrounding run of LCPs at least as long.
       A count never exceeds the set's size, so only the nodes whose
       length has a threshold within it can be dense: the bounds are
       computed for those candidates alone, on a compressed array of the
       candidates and the barriers beside their runs
       (:func:`_candidate_bounds`; pointer doubling whose rounds carry
       only the unresolved indices);
    2. a candidate is *dense* when its count meets the density threshold
       for its own length (the densify fold condition);
    3. the reported nodes are the dense nodes whose pair-interval is
       covered by no other dense interval — absorbing folds every dense
       node into its shallowest dense ancestor, so exactly the
       coverage-1 intervals survive (one difference-array cumsum over
       the compressed array).

    ``lengths``, when given, must be the set's adjacent-LCP array (shape
    ``(size - 1,)``).  The tree implementation remains as the reference;
    the equivalence is asserted property-style in the tests and in
    ``bench_spatial.py``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1: {n}")
    check_length(p)
    array = _as_address_array(addresses)
    size = int(array.shape[0])
    if lengths is None:
        lengths = adjacent_common_prefix_lengths(array)
    else:
        _check_lengths(lengths, size)
    if size == 0:
        return []
    table = threshold_table(n, p)
    root_threshold = int(table[0])
    if size == 1:
        # Lone address: the only internal node is the root itself.
        if size >= root_threshold and size >= n:
            return [(0, 0, size)]
        return []
    if int(lengths.min()) > 0 and size >= root_threshold:
        # The root is not a branch point but meets the density: it
        # absorbs the entire tree, exactly as the post-order fold does.
        return [(0, 0, size)] if size >= n else []
    found = _dense_report(
        array, n, lengths, table, _candidate_bounds(lengths, table, size)
    )
    if widen:
        return widen_dense_prefixes(found, p)
    return found


# ---------------------------------------------------------------------------
# Per-day spatial sweep: one engine pass per day, fork-based fan-out.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DenseSummary:
    """The Table 3 accounting of one density class on one address set."""

    n: int
    p: int
    num_prefixes: int
    contained_addresses: int

    @property
    def label(self) -> str:
        """The paper's notation, e.g. ``"2 @ /112"``."""
        return f"{self.n} @ /{self.p}"

    @property
    def possible_addresses(self) -> int:
        """Total addresses spanned: the active-probing target budget."""
        return self.num_prefixes * (1 << (128 - self.p))

    @property
    def address_density(self) -> float:
        """Observed contained addresses divided by possible addresses."""
        if self.possible_addresses == 0:
            return 0.0
        return self.contained_addresses / self.possible_addresses


@dataclass
class SpatialDayResult:
    """One day's spatial profile: MRA counts plus per-class dense rows.

    Attributes:
        day: the profiled day number.
        total: distinct addresses profiled (after any culling).
        mra_counts: the full ``n_0..n_128`` aggregate-count vector
            (``None`` when the sweep ran with ``mra=False``).
        dense: one :class:`DenseSummary` per requested density class.
        prefixes: the dense (network, length, count) lists per class
            label, kept only with ``keep_prefixes=True`` (they can be
            large; the summaries are what year-scale sweeps aggregate).
    """

    day: int
    total: int
    mra_counts: Optional[np.ndarray]
    dense: List[DenseSummary]
    prefixes: Optional[Dict[str, List[Tuple[int, int, int]]]] = None


def _class_params(density_class: object) -> Tuple[int, int]:
    """Accept DensityClass-like objects or plain (n, p) tuples."""
    n = getattr(density_class, "n", None)
    p = getattr(density_class, "p", None)
    if n is None or p is None:
        n, p = density_class  # type: ignore[misc]
    return int(n), int(p)


def day_spatial_summary(
    addresses: ArrayOrAddresses,
    classes: Sequence[object],
    day: int = 0,
    mra: bool = True,
    keep_prefixes: bool = False,
) -> SpatialDayResult:
    """Profile one address set: shared LCP scan, then every spatial leg.

    The LCP array is computed once and feeds the MRA count vector and
    every density class's run encoding — each extra class costs one
    vectorized comparison over the LCP array, not a fresh sort.
    """
    array = _as_address_array(addresses)
    size = int(array.shape[0])
    lengths = (
        adjacent_common_prefix_lengths(array) if size else np.empty(0, dtype=np.int64)
    )
    mra_counts = counts_from_lengths(lengths, size) if mra else None
    dense: List[DenseSummary] = []
    prefixes: Optional[Dict[str, List[Tuple[int, int, int]]]] = (
        {} if keep_prefixes else None
    )
    for density_class in classes:
        n, p = _class_params(density_class)
        found, contained = dense_runs(array, n, p, lengths)
        summary = DenseSummary(
            n=n, p=p, num_prefixes=len(found), contained_addresses=contained
        )
        dense.append(summary)
        if prefixes is not None:
            prefixes[summary.label] = found
    return SpatialDayResult(
        day=int(day),
        total=size,
        mra_counts=mra_counts,
        dense=dense,
        prefixes=prefixes,
    )


def _cull_other(array: np.ndarray) -> np.ndarray:
    """The native ("Other") subset of a day array, per the census step."""
    from repro.core.census import other_mask

    return array[other_mask(array)]


def sweep_spatial(
    observations: ObservationStore,
    days: Optional[Sequence[int]] = None,
    classes: Optional[Sequence[object]] = None,
    jobs: Optional[int] = None,
    mra: bool = True,
    keep_prefixes: bool = False,
    cull: bool = False,
    report_sink: "Optional[List[RunReport]]" = None,
) -> List[SpatialDayResult]:
    """Spatial profile of every requested day of a store.

    The spatial mirror of :func:`repro.core.sweep.sweep_days`: one
    :class:`SpatialDayResult` per day.  Batches of days are mapped
    through one :func:`repro.runtime.pool.supervised_map` call, with
    ``jobs`` supervised fork-based worker processes (``0`` = all CPUs,
    ``None``/``1`` = serial, inline; crashed or wedged workers are
    retried, then re-run serially); the mapped function is a closure
    over the store, which forked workers inherit copy-on-write, so only
    the profiles travel back.  Results are independent of ``jobs``.
    ``report_sink`` receives the pool's
    :class:`repro.runtime.pool.RunReport` at every ``jobs``.
    ``classes`` defaults to the twelve Table 3 classes.  With
    ``cull=True`` each day is first reduced to its native "Other"
    subset (the paper's §4.1 hand-off from the census to the
    classifiers).  Days absent from the store yield empty profiles.
    """
    from repro.core.density import TABLE3_CLASSES

    density_classes = TABLE3_CLASSES if classes is None else classes
    day_list = _normalized_days(observations, days)
    if not day_list:
        return []
    workers = min(resolve_jobs(jobs), len(day_list))
    batches = [
        list(batch) for batch in np.array_split(day_list, workers * 4) if len(batch)
    ]

    def profile(batch: List[int]) -> List[SpatialDayResult]:
        results: List[SpatialDayResult] = []
        for day in batch:
            array = observations.array(day)
            if cull:
                array = _cull_other(array)
            results.append(
                day_spatial_summary(
                    array,
                    density_classes,
                    day=day,
                    mra=mra,
                    keep_prefixes=keep_prefixes,
                )
            )
        return results

    outputs = supervised_map(
        profile,
        batches,
        jobs=workers,
        config=PoolConfig(label="spatial-sweep"),
        report_sink=report_sink,
    )
    return [result for batch_results in outputs for result in batch_results]
