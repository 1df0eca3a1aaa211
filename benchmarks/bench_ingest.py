"""Ingestion pipeline benchmark: text parsing, cache, and parallel loading.

Measures the fast ingestion subsystem against the seed's scalar path on
a synthetic multi-day store of daily aggregated logs:

* **seed_cold** — the original pure-Python path: per-line ``str.split``,
  scalar ``addr.parse`` per address, per-element structured-array fill.
* **fast_cold** — the vectorized columnar reader
  (:func:`repro.data.logfile.read_daily_log_arrays`).
* **cache_build** — fast cold parse plus writing the binary columnar
  day cache (:mod:`repro.data.daycache`).
* **cache_warm** — re-loading everything from the memory-mapped cache.
* **parallel_cold** / **parallel_warm** — fanning days out over worker
  processes with ``load_store(jobs=N)``.
* **\\*_shuffled** — the cold paths again on the same days written the
  way an aggregator that flushes twice writes them: lines shuffled and
  1% repeated.  Canonical logs are sorted and unique, so the reader
  skips its merge; these logs make it run.

Every store is checked against a reference built from the generated
columns with a structured ``np.unique`` (independent of the library's
merge).  ``stages`` splits the serial text parse of each log set into
tokenize / addresses / hits / merge seconds, summed over days, and
``stage_minor_faults`` gives each stage's minor page faults
(``getrusage`` ``ru_minflt``) over the same parse.

``kernel_peak_bytes_per_row`` is the ``tracemalloc`` peak of four array
kernels on 100k synthetic rows, in bytes per row (per input row for
``union_many``, per adjacent pair for the LCP scan): ``address_ids``
and ``merge_halves`` on a shuffled day, ``union_many`` over 7 canonical
days and ``adjacent_common_prefix_lengths`` on a canonical day.  Both
modes measure the same rows, and bytes per row do not depend on the
machine's speed, so ``--quick`` compares them with the recorded run and
exits 1 when a kernel exceeds its recorded value by more than 10%.

Usage::

    PYTHONPATH=src python benchmarks/bench_ingest.py            # full: 30 days x 100k
    PYTHONPATH=src python benchmarks/bench_ingest.py --quick    # CI smoke: 4 days x 5k
    PYTHONPATH=src python benchmarks/bench_ingest.py --out BENCH_ingest.json

The results (durations, speedups, configuration) are written as JSON;
the repo keeps a reference run in ``BENCH_ingest.json``.  Not a pytest
module — run it as a script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import time
import tracemalloc
from typing import Dict, List, Optional, Tuple

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.core.mra import adjacent_common_prefix_lengths  # noqa: E402
from repro.data import logfile  # noqa: E402
from repro.data.store import (  # noqa: E402
    ADDRESS_DTYPE,
    DailyObservations,
    ObservationStore,
    address_ids,
    halves_to_array,
    merge_halves,
    strictly_increasing,
    union_many,
)
from repro.net import addr, batchparse  # noqa: E402


# --------------------------------------------------------------------------
# Seed-equivalent scalar path, kept verbatim so the comparison stays honest
# even as the library's own ingestion keeps improving.
# --------------------------------------------------------------------------


def _seed_read_daily_log(path: str) -> Tuple[Optional[int], List[Tuple[int, int]]]:
    day: Optional[int] = None
    entries: List[Tuple[int, int]] = []
    with open(path, "r", encoding="ascii") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "day=" in line and day is None:
                    try:
                        day = int(line.split("day=", 1)[1].split()[0])
                    except (ValueError, IndexError):
                        pass
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{line_number}: bad line")
            address = addr.parse(parts[0])
            if not parts[1].isdigit():
                raise ValueError(f"{path}:{line_number}: bad hits")
            entries.append((address, int(parts[1])))
    return day, entries


def _seed_daily_observations(
    day: int, addresses: List[int], hits: List[int]
) -> DailyObservations:
    raw = np.empty(len(addresses), dtype=ADDRESS_DTYPE)
    for index, value in enumerate(addresses):
        addr.check_address(value)
        raw[index] = (value >> 64, value & addr.IID_MASK)
    hit_list = np.asarray(list(hits), dtype=np.uint64)
    unique, inverse = np.unique(raw, return_inverse=True)
    summed = np.zeros(unique.shape[0], dtype=np.uint64)
    np.add.at(summed, inverse, hit_list)
    observations = DailyObservations.from_array(day, unique)
    observations.hits = summed
    return observations


def _seed_load_store(paths: List[str]) -> ObservationStore:
    store = ObservationStore()
    next_day = 0
    for path in paths:
        day, entries = _seed_read_daily_log(path)
        if day is None:
            day = next_day
        addresses = [address for address, _hits in entries]
        hits = [hits for _address, hits in entries]
        store.add_observations(_seed_daily_observations(day, addresses, hits))
        next_day = day + 1
    return store


# --------------------------------------------------------------------------
# Synthetic data + measurement
# --------------------------------------------------------------------------


def _synthetic_days(
    days: int, addrs_per_day: int, seed: int
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per day, (hi, lo, hits) of random-but-structured addresses."""
    rng = np.random.default_rng(seed)
    # A pool of /64 networks so days share prefixes like real client logs.
    networks = rng.integers(0, 1 << 48, size=max(addrs_per_day // 8, 1), dtype=np.uint64)
    networks = (networks << np.uint64(16)) | np.uint64(0x2000) << np.uint64(48)
    columns = []
    for _day in range(days):
        hi = rng.choice(networks, size=addrs_per_day)
        lo = rng.integers(0, 1 << 62, size=addrs_per_day, dtype=np.uint64)
        hits = rng.integers(1, 1000, size=addrs_per_day, dtype=np.uint64)
        columns.append((hi, lo, hits))
    return columns


def _write_canonical_logs(
    directory: str, columns: List[Tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> List[str]:
    """Sorted, duplicate-free logs, as ``save_store`` writes them."""
    paths = []
    for day, (hi, lo, hits) in enumerate(columns):
        path = os.path.join(directory, f"log-{day}.txt")
        logfile.write_daily_log_arrays(path, day, hi, lo, hits)
        paths.append(path)
    return paths


def _write_shuffled_logs(
    directory: str,
    columns: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    seed: int,
) -> Tuple[List[str], List[Tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Shuffled logs with 1% of lines repeated; returns paths and rows."""
    rng = np.random.default_rng(seed + 1)
    paths, rows = [], []
    for day, (hi, lo, hits) in enumerate(columns):
        repeats = rng.choice(hi.shape[0], size=max(hi.shape[0] // 100, 1))
        order = rng.permutation(hi.shape[0] + repeats.shape[0])
        index = np.concatenate([np.arange(hi.shape[0]), repeats])[order]
        day_hi, day_lo, day_hits = hi[index], lo[index], hits[index]
        texts = batchparse.format_batch(day_hi, day_lo)
        path = os.path.join(directory, f"log-{day}.txt")
        with open(path, "w", encoding="ascii") as handle:
            handle.write(f"# repro aggregated log day={day}\n")
            handle.writelines(f"{t} {int(h)}\n" for t, h in zip(texts, day_hits))
        paths.append(path)
        rows.append((day_hi, day_lo, day_hits))
    return paths, rows


def _reference_store(
    columns: List[Tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> ObservationStore:
    """The expected store: a structured ``np.unique`` merge per day."""
    store = ObservationStore()
    for day, (hi, lo, hits) in enumerate(columns):
        raw = np.empty(hi.shape[0], dtype=ADDRESS_DTYPE)
        raw["hi"] = hi
        raw["lo"] = lo
        unique, inverse = np.unique(raw, return_inverse=True)
        summed = np.zeros(unique.shape[0], dtype=np.uint64)
        np.add.at(summed, inverse, hits)
        observations = DailyObservations.from_array(day, unique)
        observations.hits = summed
        store.add_observations(observations)
    return store


def _mark() -> Tuple[float, int]:
    """Wall clock and this process's minor page-fault count, now."""
    return time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _stage_split(paths: List[str]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Serial parse seconds and minor page faults per reader stage.

    Runs the stages of ``logfile.read_daily_log_arrays`` (the three of
    its row stage, then the merge) one by one over ``paths``, sums each
    stage's seconds and ``ru_minflt`` delta over the days, and checks
    that together the stages give the reader's result.
    """
    names = ("tokenize", "addresses", "hits", "merge")
    seconds = dict.fromkeys(names, 0.0)
    faults = dict.fromkeys(names, 0)
    for path in paths:
        with open(path, "rb") as handle:
            data = handle.read()
        raw = np.frombuffer(data, dtype=np.uint8)
        marks = [_mark()]
        day, a_starts, a_ends, h_starts, h_ends, lines = logfile._entry_spans(
            data, path, False, None
        )
        marks.append(_mark())
        hi, lo, bad = logfile._address_column(
            raw, a_starts, a_ends, lines, path, False, None
        )
        marks.append(_mark())
        hits = logfile._hit_column(
            raw, h_starts, h_ends, lines, bad, path, False, None
        )
        marks.append(_mark())
        if not strictly_increasing(hi, lo):
            hi, lo, hits = merge_halves(hi, lo, hits)
        marks.append(_mark())
        for name, (start, end) in zip(names, zip(marks, marks[1:])):
            seconds[name] += end[0] - start[0]
            faults[name] += end[1] - start[1]
        want = logfile.read_daily_log_arrays(path)
        if day != want[0] or not all(
            np.array_equal(a, b) for a, b in zip((hi, lo, hits), want[1:])
        ):
            raise AssertionError(f"stage split differs from the reader on {path}")
    return seconds, faults


#: Rows of the kernel memory measurement, in every mode.
KERNEL_ROWS = 100_000

#: How far ``--quick`` lets a kernel exceed the bytes per row recorded in
#: ``BENCH_ingest.json``.
KERNEL_TOLERANCE = 0.10


def _traced_peak(fn) -> int:
    """``tracemalloc`` peak of ``fn()``, its result included."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del result
    return peak


def _kernel_peaks() -> Dict[str, float]:
    """Peak traced bytes per row of the four array kernels.

    The inputs are built before tracing starts, so only each kernel's
    temporaries and result count.  The day is shuffled with 1% of its
    rows repeated, as in the shuffled logs.
    """
    hi, lo, hits = _synthetic_days(1, KERNEL_ROWS, seed=0)[0]
    rng = np.random.default_rng(1)
    distinct = KERNEL_ROWS - KERNEL_ROWS // 100
    index = np.concatenate(
        [np.arange(distinct), rng.choice(distinct, KERNEL_ROWS - distinct)]
    )[rng.permutation(KERNEL_ROWS)]
    hi, lo = hi[index], lo[index]
    days = [
        halves_to_array(day_hi, day_lo)
        for day_hi, day_lo, _hits in _synthetic_days(7, KERNEL_ROWS // 7, seed=2)
    ]
    canonical = halves_to_array(hi, lo)
    per_row = {
        "address_ids": _traced_peak(lambda: address_ids(hi, lo)) / KERNEL_ROWS,
        "merge_halves": _traced_peak(lambda: merge_halves(hi, lo, hits)) / KERNEL_ROWS,
        "union_many": _traced_peak(lambda: union_many(days))
        / sum(day.shape[0] for day in days),
        "adjacent_common_prefix_lengths": _traced_peak(
            lambda: adjacent_common_prefix_lengths(canonical)
        )
        / (canonical.shape[0] - 1),
    }
    return {name: round(value, 2) for name, value in per_row.items()}


def _kernel_regressions(measured: Dict[str, float]) -> List[str]:
    """Kernels whose bytes per row exceed the reference run's by more
    than :data:`KERNEL_TOLERANCE` (or that it does not record), one line
    each."""
    with open(os.path.join(REPO, "BENCH_ingest.json"), "r", encoding="utf-8") as handle:
        recorded = json.load(handle).get("kernel_peak_bytes_per_row", {})
    allowed = 1 + KERNEL_TOLERANCE
    return [
        f"{name}: {value} B/row, recorded {recorded.get(name)} (x{allowed:g} allowed)"
        for name, value in measured.items()
        if name not in recorded or value > recorded[name] * allowed
    ]


def _timed(fn, repeats: int = 1) -> Tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, result


def _stores_equal(a: ObservationStore, b: ObservationStore) -> bool:
    if a.days() != b.days():
        return False
    for day in a.days():
        obs_a, obs_b = a.get(day), b.get(day)
        if not np.array_equal(obs_a.addresses, np.asarray(obs_b.addresses)):
            return False
        if not np.array_equal(
            np.asarray(obs_a.hits, dtype=np.uint64),
            np.asarray(obs_b.hits, dtype=np.uint64),
        ):
            return False
    return True


def run_benchmark(
    days: int, addrs_per_day: int, jobs: int, seed: int, skip_seed_baseline: bool
) -> Dict:
    results: Dict[str, float] = {}
    stages: Dict[str, Dict[str, float]] = {}
    stage_faults: Dict[str, Dict[str, int]] = {}
    columns = _synthetic_days(days, addrs_per_day, seed)
    with tempfile.TemporaryDirectory(prefix="bench-ingest-") as directory:
        log_dir = os.path.join(directory, "logs")
        shuffled_dir = os.path.join(directory, "shuffled")
        cache_dir = os.path.join(directory, "cache")
        os.makedirs(log_dir)
        os.makedirs(shuffled_dir)
        paths = _write_canonical_logs(log_dir, columns)
        shuffled_paths, shuffled_rows = _write_shuffled_logs(
            shuffled_dir, columns, seed
        )

        stores: Dict[str, ObservationStore] = {}
        if not skip_seed_baseline:
            results["seed_cold"], stores["seed_cold"] = _timed(
                lambda: _seed_load_store(paths)
            )
        results["fast_cold"], stores["fast_cold"] = _timed(
            lambda: logfile.load_store(paths)
        )
        results["cache_build"], stores["cache_build"] = _timed(
            lambda: logfile.load_store(paths, cache_dir=cache_dir)
        )
        results["cache_warm"], stores["cache_warm"] = _timed(
            lambda: logfile.load_store(paths, cache_dir=cache_dir)
        )
        results["parallel_cold"], stores["parallel_cold"] = _timed(
            lambda: logfile.load_store(paths, jobs=jobs)
        )
        results["parallel_warm"], stores["parallel_warm"] = _timed(
            lambda: logfile.load_store(paths, jobs=jobs, cache_dir=cache_dir)
        )
        shuffled: Dict[str, ObservationStore] = {}
        if not skip_seed_baseline:
            results["seed_cold_shuffled"], shuffled["seed_cold_shuffled"] = _timed(
                lambda: _seed_load_store(shuffled_paths)
            )
        results["fast_cold_shuffled"], shuffled["fast_cold_shuffled"] = _timed(
            lambda: logfile.load_store(shuffled_paths)
        )
        results["parallel_cold_shuffled"], shuffled["parallel_cold_shuffled"] = (
            _timed(lambda: logfile.load_store(shuffled_paths, jobs=jobs))
        )
        stages["canonical"], stage_faults["canonical"] = _stage_split(paths)
        stages["shuffled"], stage_faults["shuffled"] = _stage_split(shuffled_paths)

    for expected, group in [
        (_reference_store(columns), stores),
        (_reference_store(shuffled_rows), shuffled),
    ]:
        for name, store in group.items():
            if not _stores_equal(expected, store):
                raise AssertionError(f"{name} store differs from the reference")

    speedups = {}
    if "seed_cold" in results:
        speedups["cold_text_vs_seed"] = results["seed_cold"] / results["fast_cold"]
        speedups["warm_cache_vs_seed"] = results["seed_cold"] / results["cache_warm"]
        speedups["cold_shuffled_vs_seed"] = (
            results["seed_cold_shuffled"] / results["fast_cold_shuffled"]
        )
    speedups["warm_cache_vs_fast_cold"] = results["fast_cold"] / results["cache_warm"]
    speedups["parallel_vs_serial_cold"] = results["fast_cold"] / results["parallel_cold"]

    return {
        "config": {
            "days": days,
            "addrs_per_day": addrs_per_day,
            "jobs": jobs,
            "seed": seed,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
        "seconds": {k: round(v, 4) for k, v in results.items()},
        "stages": {
            logs: {k: round(v, 4) for k, v in split.items()}
            for logs, split in stages.items()
        },
        "stage_minor_faults": stage_faults,
        "kernel_peak_bytes_per_row": _kernel_peaks(),
        "speedups": {k: round(v, 2) for k, v in speedups.items()},
        "targets": {
            "warm_cache_vs_seed >= 10x": speedups.get("warm_cache_vs_seed"),
            "cold_text_vs_seed >= 3x": speedups.get("cold_text_vs_seed"),
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--days", type=int, default=30)
    parser.add_argument("--addrs", type=int, default=100_000, help="addresses per day")
    parser.add_argument("--jobs", type=int, default=min(os.cpu_count() or 1, 8))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--quick", action="store_true", help="tiny run for CI smoke (4 days x 5k)"
    )
    parser.add_argument(
        "--no-seed-baseline",
        action="store_true",
        help="skip the slow seed-path measurement",
    )
    parser.add_argument("--out", default=None, help="write results JSON here")
    args = parser.parse_args(argv)
    if args.quick:
        args.days, args.addrs = 4, 5_000

    report = run_benchmark(
        args.days, args.addrs, args.jobs, args.seed, args.no_seed_baseline
    )
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    for label, value in report["speedups"].items():
        print(f"  {label}: {value:.2f}x", file=sys.stderr)
    if args.quick:
        regressions = _kernel_regressions(report["kernel_peak_bytes_per_row"])
        for line in regressions:
            print(f"kernel memory regression: {line}", file=sys.stderr)
        if regressions:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
