"""Streaming (online) stability classification.

§5.1: "we wish to perform stability analysis on an ongoing basis" — the
production setting is a pipeline that receives one aggregated log per
day, forever, and must classify each day as soon as its trailing window
completes, holding only a bounded number of days in memory.

:class:`StabilityStream` implements that: feed days in chronological
order with :meth:`push`; whenever a day's ``(-before, +after)`` window
is complete, the classification for that day is emitted.  Memory is
bounded by the window length — old days are dropped as the window
slides — so the stream can run over unbounded log sequences.

Classification rides on the sweep engine's incremental window state
(:class:`repro.core.sweep.SweepState`): a sorted table of the distinct
buffered addresses with one presence word each (bit ``k`` = seen on the
``k``-th buffered day).  A push inserts only the addresses the table
does not hold yet and eviction shifts the words right, so nothing is
ever re-sorted; emitting a day masks its words to the day's window and
reads the first and last set bits.  The stream never buffers more than
``before + after + 1`` days, so a window may span at most
:data:`repro.core.sweep.WORD_DAYS` days.  Pending days wait in a
``deque``, so draining is O(1) per emission.

The emitted results are identical to the batch classifier's
(:func:`repro.core.temporal.classify_day` over a store holding the same
days), which a test asserts.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, Iterator, List

from repro.core.sweep import SweepState
from repro.core.temporal import (
    DEFAULT_WINDOW_AFTER,
    DEFAULT_WINDOW_BEFORE,
    StabilityResult,
)
from repro.data.store import DailyObservations


class StabilityStream:
    """Online nd-stable classification with bounded memory.

    Args:
        window_before: days of history each classification needs.
        window_after: days of future each classification waits for.
    """

    def __init__(
        self,
        window_before: int = DEFAULT_WINDOW_BEFORE,
        window_after: int = DEFAULT_WINDOW_AFTER,
    ) -> None:
        self._state = SweepState(window_before, window_after)
        self.window_before = window_before
        self.window_after = window_after
        self._pending: Deque[int] = deque()  # days awaiting their window

    def push(self, day: int, addresses: Iterable[int]) -> List[StabilityResult]:
        """Ingest one day's log; return any newly complete classifications.

        Days must arrive in strictly increasing order (the aggregation
        pipeline's natural order); gaps are allowed and simply count as
        empty days.
        """
        return self.push_observations(DailyObservations(day, addresses))

    def push_observations(
        self, observations: DailyObservations
    ) -> List[StabilityResult]:
        """Ingest one prebuilt day of observations (no re-parsing).

        The fast path for pipelines that already hold
        :class:`DailyObservations` (e.g. from the day-log cache); same
        ordering contract and emissions as :meth:`push`.
        """
        self._state.push_day(observations.day, observations.addresses)
        self._pending.append(observations.day)
        return self._drain()

    def _drain(self) -> List[StabilityResult]:
        """Classify every pending day whose trailing window has arrived."""
        results: List[StabilityResult] = []
        last_day = self._state.last_day
        while self._pending:
            reference = self._pending[0]
            if last_day < reference + self.window_after:
                break
            self._pending.popleft()
            results.append(self._state.classify(reference))
            # Drop days that no pending classification can still need.
            self._state.evict_before(reference + 1 - self.window_before)
        return results

    def flush(self) -> List[StabilityResult]:
        """Classify the trailing days whose future window will never fill.

        Call at end of stream: remaining days are classified with
        whatever future context exists (fewer following days than the
        window requests — exactly what a live pipeline would do at the
        data's edge).
        """
        results: List[StabilityResult] = []
        while self._pending:
            results.append(self._state.classify(self._pending.popleft()))
        return results

    @property
    def days_held(self) -> int:
        """How many days are currently buffered (bounded by the window)."""
        return self._state.days_held


def stream_classify(
    days: Iterable[tuple],
    window_before: int = DEFAULT_WINDOW_BEFORE,
    window_after: int = DEFAULT_WINDOW_AFTER,
) -> Iterator[StabilityResult]:
    """Run a whole (day, addresses) sequence through a stability stream.

    Yields classifications in day order, including the flushed tail.
    """
    stream = StabilityStream(window_before, window_after)
    for day, addresses in days:
        yield from stream.push(day, addresses)
    yield from stream.flush()
