"""Plan-aware subscriber estimation (§7.1 operationalized).

The paper concludes: "estimating IPv6 user or device counts should be
informed by addressing practice on a per-network or per-prefix basis" —
raw active-/64 counts miscount by up to 100x in either direction.  This
module implements the correction the paper calls for, entirely from
passive data:

1. discover each network's *plan boundary* with the longest-stable-
   prefix method (§7.2, :mod:`repro.core.stableprefix`);
2. count the **stable prefixes at that boundary** instead of raw /64s:
   * boundary < 64 → network ids below the boundary churn (rotating ids
     or pools); the boundary prefixes are the durable subscriber-ish
     unit — but a boundary *region* can serve many subscribers, so the
     estimate degrades to a capacity bound there and is flagged;
   * boundary == 64 → stable /64s approximate subscribers directly;
   * boundary > 64 → multiple users share each /64 (the department);
     count stable addresses instead.

Returned estimates carry their method tag so consumers know which
regime produced each number.  ``benchmarks/bench_estimate.py`` scores
naive versus plan-aware estimation against simulator ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.stableprefix import longest_stable_prefixes
from repro.data import store as obstore
from repro.data.store import ObservationStore


@dataclass(frozen=True)
class SubscriberEstimate:
    """One network's subscriber estimate.

    Attributes:
        boundary: the detected plan-boundary prefix length (0 = none).
        naive_64s: the raw weekly active /64 count (the naive estimate).
        estimate: the plan-aware estimate.
        method: how the estimate was formed — "stable-64s",
            "boundary-prefixes" (with the capacity caveat),
            "stable-addresses", or "naive-fallback".
    """

    boundary: int
    naive_64s: int
    estimate: int
    method: str


def estimate_subscribers(
    observations: ObservationStore,
    days: Sequence[int],
    n: int = 3,
    min_days: Optional[int] = None,
    lengths: Optional[Sequence[int]] = None,
) -> SubscriberEstimate:
    """Plan-aware subscriber estimate for one network's daily logs.

    ``observations`` should contain a single network's activity (filter
    by BGP prefix first); ``days`` is the analysis span — at least two
    weeks, and longer than any suspected rotation period.

    ``min_days`` (the stable-prefix evidence threshold) defaults to 40%
    of the span: coincidental recurrences of deeper-than-plan prefixes
    grow with the number of day pairs, so the evidence bar must grow
    with the window or the detected boundary drifts too deep.
    """
    if lengths is None:
        lengths = tuple(range(128, 28, -4))
    day_list = sorted(days)
    if min_days is None:
        min_days = max(4, (len(day_list) * 2) // 5)
    sixty_fours = observations.truncated(64)
    naive_64s = obstore.array_size(sixty_fours.union_over(day_list))
    report = longest_stable_prefixes(
        observations, n=n, lengths=lengths, min_days=min_days
    )
    boundary = report.dominant_length()
    histogram = report.by_length()

    if boundary == 0:
        return SubscriberEstimate(
            boundary=0,
            naive_64s=naive_64s,
            estimate=naive_64s,
            method="naive-fallback",
        )

    if boundary == 64:
        # Stable /64s are the subscriber-ish unit; this also covers
        # capacity pools, where the stable /64s equal the pool slots —
        # closer to concurrent capacity than raw weekly unions.
        estimate = sum(
            count for length, count in histogram.items() if length <= 64
        )
        return SubscriberEstimate(
            boundary=boundary,
            naive_64s=naive_64s,
            estimate=estimate,
            method="stable-64s",
        )

    if boundary < 64:
        # Network ids churn below the boundary: the boundary prefixes
        # are durable, but each may serve many subscribers, so this is a
        # structure count, not a head count; scale by the typical daily
        # active /64s per boundary prefix as a first-order correction.
        boundary_count = sum(
            count for length, count in histogram.items() if length <= 64
        )
        daily_64 = [
            obstore.array_size(sixty_fours.array(day)) for day in day_list
        ]
        typical_daily = sorted(daily_64)[len(daily_64) // 2] if daily_64 else 0
        estimate = max(boundary_count, typical_daily)
        return SubscriberEstimate(
            boundary=boundary,
            naive_64s=naive_64s,
            estimate=estimate,
            method="boundary-prefixes",
        )

    # boundary > 64: users share /64s — count stable addresses.
    estimate = sum(count for _length, count in histogram.items())
    return SubscriberEstimate(
        boundary=boundary,
        naive_64s=naive_64s,
        estimate=estimate,
        method="stable-addresses",
    )


def estimation_error(estimate: int, truth: int) -> float:
    """Symmetric multiplicative error: max(e/t, t/e) - 1 (0 = exact)."""
    if truth <= 0 or estimate <= 0:
        return float("inf")
    ratio = estimate / truth
    return max(ratio, 1.0 / ratio) - 1.0
