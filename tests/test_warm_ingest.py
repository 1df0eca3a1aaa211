"""``load_store`` over a warm, half-warm or damaged day cache.

Day-cache hits are served in the parent; only misses and corrupt
entries go to the supervised pool.  Whatever the mix, the store must be
bit-identical to an uncached text load at ``jobs`` 1 and 2, and the
pool's ``RunReport`` must count only the days that needed parsing.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.data import daycache, logfile
from repro.runtime.quarantine import ERRORS_QUARANTINE, QuarantineReport

N_DAYS = 6

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork start method",
)


def _campaign(tmp_path, n_days=N_DAYS):
    paths = []
    for day in range(n_days):
        path = str(tmp_path / f"log-{day}.txt")
        lines = [f"# repro aggregated log day={100 + day}"]
        # Unsorted, with one repeated address, so the reader's merge runs.
        lines += [f"2001:db8:{day:x}::{i:x} {i + 1}" for i in range(40, 0, -1)]
        lines.append(f"2001:db8:{day:x}::7 3")
        with open(path, "w", encoding="ascii") as handle:
            handle.write("\n".join(lines) + "\n")
        paths.append(path)
    return paths


def _assert_identical(got, want):
    assert got.days() == want.days()
    for day in want.days():
        a, b = got.get(day), want.get(day)
        assert a.addresses.dtype == b.addresses.dtype
        assert a.addresses.tobytes() == b.addresses.tobytes()
        assert a.hits.dtype == b.hits.dtype
        assert a.hits.tobytes() == b.hits.tobytes()


def _maps_a_file(array):
    while array is not None:
        if isinstance(array, np.memmap):
            return True
        array = array.base if isinstance(array, np.ndarray) else None
    return False


@pytest.fixture
def campaign(tmp_path):
    paths = _campaign(tmp_path)
    return paths, str(tmp_path / "cache"), logfile.load_store(paths)


@needs_fork
class TestWarmLoad:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fully_warm_runs_no_pool_tasks(self, campaign, jobs):
        paths, cache, uncached = campaign
        logfile.load_store(paths, cache_dir=cache)  # cold fill
        sink = []
        warm = logfile.load_store(paths, jobs=jobs, cache_dir=cache, report_sink=sink)
        assert len(sink) == 1
        assert sink[0].label == "load-store"
        assert sink[0].tasks == 0
        assert sink[0].attempts == []
        _assert_identical(warm, uncached)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_half_warm_runs_only_the_misses(self, campaign, jobs):
        paths, cache, uncached = campaign
        logfile.load_store(paths[::2], cache_dir=cache)
        sink = []
        mixed = logfile.load_store(paths, jobs=jobs, cache_dir=cache, report_sink=sink)
        assert sink[0].tasks == len(paths[1::2])
        assert sink[0].clean
        _assert_identical(mixed, uncached)
        # The misses were written back: the next load is fully warm.
        again = []
        logfile.load_store(paths, jobs=2, cache_dir=cache, report_sink=again)
        assert again[0].tasks == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_corrupt_entry_is_rebuilt_and_recorded(self, campaign, jobs):
        paths, cache, uncached = campaign
        logfile.load_store(paths, cache_dir=cache)
        npy_path, _meta = daycache.cache_paths(cache, daycache.content_hash(paths[2]))
        with open(npy_path, "r+b") as handle:
            handle.truncate(os.path.getsize(npy_path) // 2)
        report = QuarantineReport()
        sink = []
        rebuilt = logfile.load_store(
            paths,
            jobs=jobs,
            cache_dir=cache,
            errors=ERRORS_QUARANTINE,
            report=report,
            report_sink=sink,
        )
        assert sink[0].tasks == 1
        assert [(r.source, r.rule) for r in report.records] == [
            (npy_path, "cache-rebuilt")
        ]
        assert report.total_line_faults == 0
        _assert_identical(rebuilt, uncached)
        again = []
        logfile.load_store(paths, jobs=2, cache_dir=cache, report_sink=again)
        assert again[0].tasks == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_served_hits_hold_no_cache_mapping(self, campaign, jobs):
        paths, cache, _uncached = campaign
        logfile.load_store(paths, cache_dir=cache)
        warm = logfile.load_store(paths, jobs=jobs, cache_dir=cache)
        for day in warm.days():
            observations = warm.get(day)
            assert not _maps_a_file(observations.addresses)
            assert not _maps_a_file(observations.hits)


class TestProbeOnce:
    def test_each_file_is_hashed_once(self, campaign, monkeypatch):
        paths, cache, uncached = campaign
        logfile.load_store(paths[:3], cache_dir=cache)
        hashed = []
        original = daycache.content_hash

        def counting(path):
            hashed.append(path)
            return original(path)

        monkeypatch.setattr(daycache, "content_hash", counting)
        mixed = logfile.load_store(paths, cache_dir=cache)
        assert sorted(hashed) == sorted(paths)
        _assert_identical(mixed, uncached)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unreadable_day_keeps_its_semantics(self, campaign, jobs):
        paths, cache, _uncached = campaign
        logfile.load_store(paths, cache_dir=cache)
        missing = paths[:2] + [paths[2] + ".gone"] + paths[3:]
        with pytest.raises(OSError):
            logfile.load_store(missing, jobs=jobs, cache_dir=cache)
        report = QuarantineReport()
        sink = []
        gapped = logfile.load_store(
            missing,
            jobs=jobs,
            cache_dir=cache,
            errors=ERRORS_QUARANTINE,
            report=report,
            report_sink=sink,
        )
        assert sink[0].tasks == 1
        assert report.day_faults == [missing[2]]
        assert report.by_rule() == {"unreadable-file": 1}
        assert len(gapped) == len(paths) - 1
