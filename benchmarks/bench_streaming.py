"""Performance: streaming versus batch stability classification.

The streaming classifier (§5.1's "ongoing basis") must match the batch
results exactly while holding only a window's worth of days; this bench
times both over the same month of logs and checks the equivalence and
the memory bound.  pytest-benchmark's timing table is the deliverable:
the stream keeps one presence word per distinct buffered address,
inserts only each day's unseen addresses and shifts the words on
eviction (no sort, no per-day re-scan), buying bounded memory for
unbounded feeds.
"""

import pytest

from repro.core.streaming import StabilityStream
from repro.core.temporal import classify_day
from repro.data import store as obstore
from repro.sim import EPOCH_2015_03

DAYS = list(range(EPOCH_2015_03 - 8, EPOCH_2015_03 + 8))


@pytest.fixture(scope="module")
def month_of_logs(epoch_stores):
    store = epoch_stores[EPOCH_2015_03]
    return [(day, obstore.from_array(store.array(day))) for day in DAYS]


@pytest.mark.benchmark(group="streaming")
def test_batch_classification_cost(benchmark, epoch_stores, report):
    store = epoch_stores[EPOCH_2015_03]

    def run_batch():
        return [classify_day(store, day) for day in DAYS[8:-7]]

    results = benchmark(run_batch)
    report.section("Batch classification over preloaded store")
    report.add(f"classified {len(results)} days")
    assert results


@pytest.mark.benchmark(group="streaming")
def test_streaming_classification_cost(benchmark, month_of_logs, report):
    def run_stream():
        stream = StabilityStream()
        out = []
        for day, addresses in month_of_logs:
            out.extend(stream.push(day, addresses))
        return out, stream.days_held

    (results, held) = benchmark.pedantic(run_stream, rounds=3, iterations=1)
    report.section("Streaming classification over a live feed")
    report.add(f"classified {len(results)} days; {held} days buffered at end")
    # The window bound: never more than before+after+slack days in memory.
    assert held <= 16
    assert results

    # Equivalence with batch on the overlapping days.
    from repro.data.store import ObservationStore

    full = ObservationStore()
    for day, addresses in month_of_logs:
        full.add_day(day, addresses)
    for result in results:
        batch = classify_day(full, result.reference_day)
        assert result.active_count == batch.active_count
        assert result.stable_count(3) == batch.stable_count(3)
