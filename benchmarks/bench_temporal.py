"""Temporal classification benchmark: sweep engine versus per-day scans.

Measures the §5.1 stability classifier over a year-long synthetic store
(persistent + ephemeral address populations, so the stability classes
are non-trivial):

* **per_day_seed** — the pre-sweep per-day path kept verbatim: for every
  reference day, re-scan all window days with membership tests and
  scalar-dispatch ``np.minimum.at``/``np.maximum.at`` updates.
* **per_day** — the current :func:`repro.core.temporal.classify_day`
  (vectorized ``np.where`` updates) called once per day — the baseline
  the sweep is judged against.
* **sweep_serial** — :func:`repro.core.sweep.sweep_days` in one process.
* **sweep_jobs** — the same sweep fanned out over worker processes.
* **sweep_both_granularities** — /128 and /64 sweeps sharing one pool
  (:func:`repro.core.sweep.sweep_granularities`).
* **stream** — :class:`repro.core.streaming.StabilityStream` fed day by
  day (the online path, including its flush tail).
* **sweep_cached_cold** / **sweep_cached_warm** — serial ``sweep_days``
  over the store written with ``save_store`` and loaded with
  ``load_store`` through a day cache: cold computes each chunk's
  address ids and writes them to the cache, warm loads them.  Each runs
  in a fresh process (a warm ``repro-sweep`` on a cached store), which
  reports its peak RSS and the digests of its results.

All sweep and stream outputs are asserted bit-identical to the per-day
baseline before any speedup is reported.  ``stream_vs_sweep_serial``
compares the online path with the batch sweep (target: the stream
within 1.5x of the sweep, i.e. at least 0.67).

Usage::

    PYTHONPATH=src python benchmarks/bench_temporal.py            # 365 days x 100k
    PYTHONPATH=src python benchmarks/bench_temporal.py --quick    # CI smoke: 40 x 3k
    PYTHONPATH=src python benchmarks/bench_temporal.py --out BENCH_temporal.json

The results (durations, speedups, configuration) are written as JSON;
the repo keeps a reference run in ``BENCH_temporal.json``.  Not a pytest
module — run it as a script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Tuple

import numpy as np

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.core.streaming import StabilityStream  # noqa: E402
from repro.core.sweep import sweep_days, sweep_granularities  # noqa: E402
from repro.core.temporal import StabilityResult, classify_day  # noqa: E402
from repro.data import store as obstore  # noqa: E402
from repro.data.logfile import load_store, save_store  # noqa: E402
from repro.data.store import DailyObservations, ObservationStore  # noqa: E402


# --------------------------------------------------------------------------
# Pre-sweep per-day path, kept verbatim so the comparison stays honest
# even as the library's own classifier keeps improving.
# --------------------------------------------------------------------------


def _seed_classify_day(
    observations: ObservationStore,
    reference_day: int,
    window_before: int = 7,
    window_after: int = 7,
) -> StabilityResult:
    active = observations.array(reference_day)
    size = obstore.array_size(active)
    min_day = np.full(size, reference_day, dtype=np.int64)
    max_day = np.full(size, reference_day, dtype=np.int64)
    for day in range(reference_day - window_before, reference_day + window_after + 1):
        if day == reference_day or day not in observations:
            continue
        present = obstore.member_mask(active, observations.array(day))
        if day < reference_day:
            np.minimum.at(min_day, np.nonzero(present)[0], day)
        else:
            np.maximum.at(max_day, np.nonzero(present)[0], day)
    return StabilityResult(
        reference_day=reference_day,
        window=(window_before, window_after),
        active=active,
        gaps=max_day - min_day,
    )


# --------------------------------------------------------------------------
# Synthetic data + measurement
# --------------------------------------------------------------------------


def build_synthetic_store(
    days: int, addrs_per_day: int, seed: int
) -> ObservationStore:
    """A store with realistic temporal structure.

    A quarter of each day's budget comes from a persistent pool (each
    pool address active on any day with p=0.8 — the stable hosts); the
    rest are fresh privacy-style addresses never seen again.  Addresses
    share a pool of /64 networks so the /64 granularity aggregates.
    """
    rng = np.random.default_rng(seed)
    networks = rng.integers(
        0, 1 << 48, size=max(addrs_per_day // 8, 1), dtype=np.uint64
    )
    networks = (networks << np.uint64(16)) | np.uint64(0x2000) << np.uint64(48)
    pool_size = max(addrs_per_day // 4, 1)
    pool_hi = rng.choice(networks, size=pool_size)
    pool_lo = rng.integers(0, 1 << 62, size=pool_size, dtype=np.uint64)
    store = ObservationStore()
    for day in range(days):
        keep = rng.random(pool_size) < 0.8
        ephemeral = addrs_per_day - int(np.count_nonzero(keep))
        eph_hi = rng.choice(networks, size=ephemeral)
        eph_lo = rng.integers(1 << 62, 1 << 63, size=ephemeral, dtype=np.uint64)
        hi = np.concatenate([pool_hi[keep], eph_hi])
        lo = np.concatenate([pool_lo[keep], eph_lo])
        store.add_observations(DailyObservations.from_halves(day, hi, lo))
    return store


def _timed(fn) -> Tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _assert_identical(
    name: str, baseline: List[StabilityResult], candidate: List[StabilityResult]
) -> None:
    assert len(baseline) == len(candidate), name
    for base, other in zip(baseline, candidate):
        assert base.reference_day == other.reference_day, name
        assert np.array_equal(base.active, other.active), (
            f"{name}: active differs on day {base.reference_day}"
        )
        assert np.array_equal(base.gaps, other.gaps), (
            f"{name}: gaps differ on day {base.reference_day}"
        )


def _digests(results: List[StabilityResult]) -> List[str]:
    return [
        hashlib.sha256(
            f"{r.reference_day}:".encode()
            + r.active.tobytes()
            + r.gaps.astype(np.int64).tobytes()
        ).hexdigest()
        for r in results
    ]


def _peak_rss_mb() -> float:
    """This process's peak RSS.

    Linux's ``VmHWM`` belongs to the running program alone;
    ``ru_maxrss`` (KiB on Linux, B on macOS) also counts the RSS of the
    process this one was forked from before its ``exec``.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024


def _cached_sweep(paths: List[str], cache_dir: str) -> Dict:
    """Load the logs through the day cache and time a serial sweep.

    Runs in a fresh process, so its peak RSS is that of one cached
    ``repro-sweep`` run alone (the cold run's includes parsing the
    text into the day cache).
    """
    start = time.perf_counter()
    store = load_store(paths, cache_dir=cache_dir)
    load_s = time.perf_counter() - start
    seconds, swept = _timed(lambda: sweep_days(store))
    return {
        "load_s": load_s,
        "sweep_s": seconds,
        "peak_rss_mb": _peak_rss_mb(),
        "digests": _digests(swept),
    }


def _cache_bytes(cache_dir: str, kind: str) -> int:
    return sum(
        os.path.getsize(os.path.join(cache_dir, name))
        for name in os.listdir(cache_dir)
        if name.startswith(kind + "-")
    )


def run_cached(
    store: ObservationStore, baseline: List[str], results: Dict[str, float]
) -> Dict:
    """The ``sweep_cached_cold``/``_warm`` rows, checked against the
    per-day baseline's digests; returns their load times, peak RSS and
    cache sizes."""
    spawn = multiprocessing.get_context("spawn")
    detail: Dict[str, float] = {}
    with tempfile.TemporaryDirectory() as workdir:
        paths = save_store(store, os.path.join(workdir, "logs"))
        cache_dir = os.path.join(workdir, "cache")
        for row in ("cold", "warm"):
            with ProcessPoolExecutor(1, mp_context=spawn) as pool:
                run = pool.submit(_cached_sweep, paths, cache_dir).result()
            assert run["digests"] == baseline, f"sweep_cached_{row} differs"
            results[f"sweep_cached_{row}"] = run["sweep_s"]
            detail[f"{row}_load_s"] = round(run["load_s"], 4)
            detail[f"{row}_peak_rss_mb"] = round(run["peak_rss_mb"], 1)
        day_bytes = _cache_bytes(cache_dir, "day")
        ids_bytes = _cache_bytes(cache_dir, "ids")
    detail["day_entries_mb"] = round(day_bytes / (1 << 20), 1)
    detail["ids_entries_mb"] = round(ids_bytes / (1 << 20), 1)
    detail["cache_growth"] = round(ids_bytes / day_bytes, 3)
    return detail


def run_benchmark(
    days: int,
    addrs_per_day: int,
    jobs: int,
    seed: int,
    skip_seed_baseline: bool,
) -> Dict:
    store = build_synthetic_store(days, addrs_per_day, seed)
    day_list = store.days()
    results: Dict[str, float] = {}

    if not skip_seed_baseline:
        results["per_day_seed"], seed_results = _timed(
            lambda: [_seed_classify_day(store, day) for day in day_list]
        )
    else:
        seed_results = None

    results["per_day"], per_day = _timed(
        lambda: [classify_day(store, day) for day in day_list]
    )
    if seed_results is not None:
        _assert_identical("per_day_seed", per_day, seed_results)
        seed_results = None

    def run_stream():
        stream = StabilityStream()
        emitted: List[StabilityResult] = []
        for observations in store.iter_days():
            emitted.extend(stream.push_observations(observations))
        emitted.extend(stream.flush())
        return emitted

    # Each candidate is checked and released before the next one runs,
    # so memory holds the store, the baseline and one candidate's results.
    results["sweep_serial"], swept = _timed(lambda: sweep_days(store))
    _assert_identical("sweep_serial", per_day, swept)
    swept = None
    results["sweep_jobs"], swept = _timed(lambda: sweep_days(store, jobs=jobs))
    _assert_identical("sweep_jobs", per_day, swept)
    swept = None
    results["sweep_both_granularities"], both = _timed(
        lambda: sweep_granularities(store, [128, 64], jobs=jobs)
    )
    _assert_identical("sweep_granularities[128]", per_day, both[128])
    both = None
    results["stream"], streamed = _timed(run_stream)
    _assert_identical("stream", per_day, streamed)
    streamed = None
    cached = run_cached(store, _digests(per_day), results)

    speedups = {
        "sweep_vs_per_day": results["per_day"] / results["sweep_serial"],
        "sweep_jobs_vs_per_day": results["per_day"] / results["sweep_jobs"],
        "sweep_jobs_vs_serial": results["sweep_serial"] / results["sweep_jobs"],
        "stream_vs_per_day": results["per_day"] / results["stream"],
        "stream_vs_sweep_serial": results["sweep_serial"] / results["stream"],
        "sweep_cached_warm_vs_serial": results["sweep_serial"]
        / results["sweep_cached_warm"],
    }
    if "per_day_seed" in results:
        speedups["per_day_vs_seed"] = results["per_day_seed"] / results["per_day"]
        speedups["sweep_vs_seed"] = results["per_day_seed"] / results["sweep_serial"]

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
        "speedups": {k: round(v, 2) for k, v in speedups.items()},
        "cached": cached,
        "verified": "bit-identical to per-day classify_day",
        "targets": {
            "sweep_vs_per_day >= 5x": round(speedups["sweep_vs_per_day"], 2),
            "stream_vs_sweep_serial >= 0.67": round(
                speedups["stream_vs_sweep_serial"], 2
            ),
            "sweep_cached_warm_vs_serial >= 3x": round(
                speedups["sweep_cached_warm_vs_serial"], 2
            ),
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--days", type=int, default=365)
    parser.add_argument("--addrs", type=int, default=100_000, help="addresses per day")
    parser.add_argument("--jobs", type=int, default=min(os.cpu_count() or 1, 8))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--quick", action="store_true", help="tiny run for CI smoke (40 days x 3k)"
    )
    parser.add_argument(
        "--no-seed-baseline",
        action="store_true",
        help="skip the slow pre-sweep per-day measurement",
    )
    parser.add_argument("--out", default=None, help="write results JSON here")
    args = parser.parse_args(argv)
    if args.quick:
        args.days, args.addrs = 40, 3_000

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
    return 0


if __name__ == "__main__":
    sys.exit(main())
