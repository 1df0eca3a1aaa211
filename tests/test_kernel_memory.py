"""Peak-memory budgets of the array kernels, in bytes per row.

``tracemalloc`` sees numpy's data buffers, so the traced peak of one call
is the memory the kernel holds at its worst moment: its temporaries and
its result.  The inputs are built before tracing starts, so they are not
counted.  Each budget is written into its kernel's docstring; the
kernels measure a few bytes per row under it (``benchmarks/bench_ingest.py``
records the measured values in ``BENCH_ingest.json``).
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.mra import adjacent_common_prefix_lengths
from repro.data import store as obstore

ROWS = 200_000

#: Peak traced bytes per row (per input row for ``union_many``, per
#: adjacent pair for the LCP scan).
BUDGETS = {
    "address_ids": 33,
    "merge_halves": 35,
    "union_many": 42,
    "adjacent_common_prefix_lengths": 42,
}


def _day_rows(rows, seed):
    """Shuffled ``(hi, lo, hits)`` rows of one synthetic day: addresses
    drawn under a pool of /64s, 1% of the rows repeated."""
    rng = np.random.default_rng(seed)
    networks = rng.integers(0, 1 << 48, size=max(rows // 8, 1), dtype=np.uint64)
    networks = (networks << np.uint64(16)) | (np.uint64(0x2000) << np.uint64(48))
    distinct = rows - rows // 100
    hi = rng.choice(networks, size=distinct)
    lo = rng.integers(0, 1 << 62, size=distinct, dtype=np.uint64)
    index = np.concatenate([np.arange(distinct), rng.choice(distinct, rows - distinct)])
    index = index[rng.permutation(rows)]
    hits = rng.integers(1, 1000, size=rows, dtype=np.uint64)
    return hi[index], lo[index], hits


def _peak_bytes(call):
    """Traced peak of ``call()``, its result included."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del result
    return peak


@pytest.fixture(scope="module")
def rows():
    return _day_rows(ROWS, seed=0)


def _check(kernel, peak, units):
    per_row = peak / units
    assert per_row <= BUDGETS[kernel], (
        f"{kernel} peaked at {per_row:.1f} B/row, budget {BUDGETS[kernel]}"
    )


def test_address_ids_budget(rows):
    hi, lo, _hits = rows
    _check("address_ids", _peak_bytes(lambda: obstore.address_ids(hi, lo)), ROWS)


def test_merge_halves_budget(rows):
    hi, lo, hits = rows
    peak = _peak_bytes(lambda: obstore.merge_halves(hi, lo, hits))
    _check("merge_halves", peak, ROWS)


def test_union_many_budget():
    days = [
        obstore.halves_to_array(*_day_rows(ROWS // 7, seed=10 + day)[:2])
        for day in range(7)
    ]
    inputs = sum(day.shape[0] for day in days)
    _check("union_many", _peak_bytes(lambda: obstore.union_many(days)), inputs)


def test_adjacent_common_prefix_lengths_budget(rows):
    hi, lo, _hits = rows
    array = obstore.halves_to_array(hi, lo)
    peak = _peak_bytes(lambda: adjacent_common_prefix_lengths(array))
    _check("adjacent_common_prefix_lengths", peak, array.shape[0] - 1)
