"""Address ids kept in the day cache: the sweep's failure model.

A store loaded through a day cache tags each day with its entry's
content digest; the sweep then keeps each chunk window's dense address
ids beside the day entries and loads them on warm reruns.  Whatever the
cache holds — nothing, valid entries, damaged entries, entries of
another granularity — results must be bit-identical to an uncached
sweep, and a damaged or unwritable cache must never fail a sweep.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro.core import sweep as sweep_mod
from repro.data import daycache, logfile
from repro.data.store import DailyObservations, ObservationStore
from repro.runtime.checkpoint import KILL_AFTER_CHECKPOINTS_ENV
from repro.runtime.quarantine import ERRORS_QUARANTINE, QuarantineReport

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

N_DAYS = 40

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork start method",
)


def _make_store(n_days=N_DAYS, seed=3):
    """Churning addresses over a shared pool of /64s, with gap days."""
    rng = np.random.default_rng(seed)
    networks = (rng.integers(0, 1 << 32, size=12, dtype=np.uint64) << np.uint64(16)) | (
        np.uint64(0x2001) << np.uint64(48)
    )
    pool_hi = rng.choice(networks, size=150)
    pool_lo = rng.integers(0, 1 << 62, size=150, dtype=np.uint64)
    store = ObservationStore()
    for day in range(n_days):
        if day in (5, 17, 18):
            continue
        keep = rng.random(150) < 0.6
        fresh = int(rng.integers(10, 60))
        hi = np.concatenate([pool_hi[keep], rng.choice(networks, size=fresh)])
        lo = np.concatenate(
            [pool_lo[keep], rng.integers(1 << 62, 1 << 63, size=fresh, dtype=np.uint64)]
        )
        store.add_observations(DailyObservations.from_halves(day, hi, lo))
    return store


@pytest.fixture
def campaign(tmp_path):
    """``(paths, cache_dir)`` of the store's day logs and an empty cache."""
    paths = logfile.save_store(_make_store(), str(tmp_path / "logs"))
    return paths, str(tmp_path / "cache")


def _ids_entries(cache_dir):
    return sorted(n for n in os.listdir(cache_dir) if n.startswith("ids-") and n.endswith(".npy"))


def _assert_identical(got, want):
    assert [r.reference_day for r in got] == [r.reference_day for r in want]
    for a, b in zip(got, want):
        assert a.active.tobytes() == b.active.tobytes()
        assert a.gaps.dtype == b.gaps.dtype == np.int64
        assert np.array_equal(a.gaps, b.gaps)


def _count_address_ids(monkeypatch):
    """Count the calls of the sorting id path (in this process)."""
    calls = []
    real = sweep_mod._address_ids

    def counted(hi, lo):
        calls.append(hi.shape[0])
        return real(hi, lo)

    monkeypatch.setattr(sweep_mod, "_address_ids", counted)
    return calls


def _forbid_address_ids(monkeypatch):
    def refuse(hi, lo):
        raise AssertionError("warm sweep re-ranked addresses")

    monkeypatch.setattr(sweep_mod, "_address_ids", refuse)


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
@pytest.mark.parametrize("chunk_days", [1, 7, 50])
class TestBitIdentity:
    def test_sweep_days(self, campaign, jobs, chunk_days):
        paths, cache = campaign
        plain = sweep_mod.sweep_days(logfile.load_store(paths), chunk_days=chunk_days)
        store = logfile.load_store(paths, cache_dir=cache)
        cold = sweep_mod.sweep_days(store, jobs=jobs, chunk_days=chunk_days)
        assert _ids_entries(cache)
        warm = sweep_mod.sweep_days(
            logfile.load_store(paths, cache_dir=cache), jobs=jobs, chunk_days=chunk_days
        )
        _assert_identical(cold, plain)
        _assert_identical(warm, plain)

    def test_sweep_granularities(self, campaign, jobs, chunk_days):
        paths, cache = campaign
        plain = sweep_mod.sweep_granularities(
            logfile.load_store(paths), [128, 64], chunk_days=chunk_days
        )
        cold = sweep_mod.sweep_granularities(
            logfile.load_store(paths, cache_dir=cache), [128, 64],
            jobs=jobs, chunk_days=chunk_days,
        )
        warm = sweep_mod.sweep_granularities(
            logfile.load_store(paths, cache_dir=cache), [128, 64],
            jobs=jobs, chunk_days=chunk_days,
        )
        for prefix_len in (128, 64):
            _assert_identical(cold[prefix_len], plain[prefix_len])
            _assert_identical(warm[prefix_len], plain[prefix_len])


class TestWarmRerun:
    def test_warm_rerun_never_ranks(self, campaign, monkeypatch):
        paths, cache = campaign
        cold = sweep_mod.sweep_granularities(
            logfile.load_store(paths, cache_dir=cache), [128, 64], chunk_days=7
        )
        _forbid_address_ids(monkeypatch)
        warm = sweep_mod.sweep_granularities(
            logfile.load_store(paths, cache_dir=cache), [128, 64], chunk_days=7
        )
        for prefix_len in (128, 64):
            _assert_identical(warm[prefix_len], cold[prefix_len])

    @needs_fork
    def test_warm_rerun_never_ranks_in_workers(self, campaign, monkeypatch):
        paths, cache = campaign
        cold = sweep_mod.sweep_days(logfile.load_store(paths, cache_dir=cache), chunk_days=7)
        _forbid_address_ids(monkeypatch)  # forked workers inherit it
        sink = []
        warm = sweep_mod.sweep_days(
            logfile.load_store(paths, cache_dir=cache), jobs=2, chunk_days=7,
            report_sink=sink,
        )
        _assert_identical(warm, cold)
        assert sink[0].clean and not sink[0].fallbacks

    def test_untagged_store_writes_nothing(self, campaign, tmp_path):
        paths, cache = campaign
        store = logfile.load_store(paths)
        assert store.cache_dir is None
        assert all(store.get(day).cache_tag is None for day in store.days())
        store.cache_dir = cache  # a cache, but no day is one of its entries
        os.makedirs(cache)
        sweep_mod.sweep_days(store, chunk_days=7)
        assert _ids_entries(cache) == []

    def test_tags_follow_truncation_and_replacement(self, campaign):
        paths, cache = campaign
        store = logfile.load_store(paths, cache_dir=cache)
        day = store.days()[0]
        digest = daycache.content_hash(paths[0])
        assert store.cache_dir == cache
        assert store.get(day).cache_tag == (digest, 128)
        derived = store.truncated(64)
        assert derived.cache_dir == cache
        assert derived.get(day).cache_tag == (digest, 64)
        assert derived.truncated(96).get(day).cache_tag == (digest, 64)
        store.add_day(day, [1, 2, 3])
        assert store.get(day).cache_tag is None


def _entry_paths(cache):
    (name,) = _ids_entries(cache)[:1]
    npy_path = os.path.join(cache, name)
    return npy_path, npy_path[: -len(".npy")] + ".meta.json"


def _corrupt_byte(npy_path, meta_path):
    """Flip the low bit of a middle id: still in range, so only the
    payload hash can tell."""
    with open(meta_path, encoding="utf-8") as handle:
        rows = json.load(handle)["rows"]
    with open(npy_path, "r+b") as handle:
        handle.seek(-4 * (rows // 2), os.SEEK_END)
        byte = handle.read(1)
        handle.seek(-4 * (rows // 2), os.SEEK_END)
        handle.write(bytes([byte[0] ^ 0x01]))


def _truncate(npy_path, _meta_path):
    with open(npy_path, "r+b") as handle:
        handle.truncate(os.path.getsize(npy_path) // 2)


def _meta_rows_string(_npy_path, meta_path):
    with open(meta_path, encoding="utf-8") as handle:
        meta = json.load(handle)
    meta["rows"] = str(meta["rows"])
    with open(meta_path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle)


def _meta_count_list(_npy_path, meta_path):
    with open(meta_path, encoding="utf-8") as handle:
        meta = json.load(handle)
    meta["count"] = [meta["count"]]
    with open(meta_path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle)


def _meta_is_list(_npy_path, meta_path):
    with open(meta_path, "w", encoding="utf-8") as handle:
        json.dump([1, 2], handle)


class TestDamagedEntries:
    @pytest.mark.parametrize(
        "damage",
        [_corrupt_byte, _truncate, _meta_rows_string, _meta_count_list, _meta_is_list],
        ids=["payload-byte", "truncated-npy", "rows-string", "count-list", "meta-list"],
    )
    def test_damaged_entry_is_recomputed_and_rewritten(self, campaign, monkeypatch, damage):
        paths, cache = campaign
        cold = sweep_mod.sweep_days(logfile.load_store(paths, cache_dir=cache), chunk_days=50)
        npy_path, meta_path = _entry_paths(cache)
        with open(npy_path, "rb") as handle:
            pristine = handle.read()
        damage(npy_path, meta_path)
        calls = _count_address_ids(monkeypatch)
        again = sweep_mod.sweep_days(logfile.load_store(paths, cache_dir=cache), chunk_days=50)
        _assert_identical(again, cold)
        assert len(calls) == 1  # only the damaged chunk was ranked again
        with open(npy_path, "rb") as handle:
            assert handle.read() == pristine  # rewritten
        calls.clear()
        sweep_mod.sweep_days(logfile.load_store(paths, cache_dir=cache), chunk_days=50)
        assert calls == []

    def test_out_of_range_ids_are_rejected(self, tmp_path):
        cache = str(tmp_path)
        ids = np.array([0, 1, 5], dtype=np.int32)
        daycache.store_ids(cache, "k" * 64, [(0, "d" * 64)], ids, 2)
        assert daycache.load_ids(cache, "k" * 64, 3) is None
        assert daycache.load_ids(cache, "k" * 64, 4) is None  # row count differs

    def test_unwritable_cache_never_fails_the_sweep(self, campaign, monkeypatch):
        paths, cache = campaign
        store = logfile.load_store(paths, cache_dir=cache)
        plain = sweep_mod.sweep_granularities(logfile.load_store(paths), [128, 64], chunk_days=7)

        def refuse(path, payload):
            raise PermissionError(13, "Permission denied", path)

        # chmod does not bind root, so refuse the writes as well.
        monkeypatch.setattr(daycache, "atomic_write_bytes", refuse)
        os.chmod(cache, 0o555)
        try:
            swept = sweep_mod.sweep_granularities(store, [128, 64], chunk_days=7)
        finally:
            os.chmod(cache, 0o755)
        for prefix_len in (128, 64):
            _assert_identical(swept[prefix_len], plain[prefix_len])
        assert _ids_entries(cache) == []


class TestKeying:
    def test_editing_one_log_recomputes_only_covering_chunks(self, campaign, monkeypatch):
        paths, cache = campaign
        chunk_days = 7
        sweep_mod.sweep_days(logfile.load_store(paths, cache_dir=cache), chunk_days=chunk_days)
        edited_day = 20
        edited = [p for p in paths if p.endswith(f"-{edited_day}.txt")][0]
        with open(edited, "a", encoding="ascii") as handle:
            handle.write("2001:db8:ffff::1 1\n")
        store = logfile.load_store(paths, cache_dir=cache)
        chunks = sweep_mod._plan_chunks(store.days(), chunk_days)
        covering = [
            chunk for chunk in chunks
            if chunk[0] - sweep_mod.DEFAULT_WINDOW_BEFORE
            <= edited_day
            <= chunk[-1] + sweep_mod.DEFAULT_WINDOW_AFTER
        ]
        assert 0 < len(covering) < len(chunks)
        calls = _count_address_ids(monkeypatch)
        swept = sweep_mod.sweep_days(store, chunk_days=chunk_days)
        assert len(calls) == len(covering)
        _assert_identical(swept, sweep_mod.sweep_days(logfile.load_store(paths)))

    def test_a_64_entry_is_never_served_to_128(self, campaign, monkeypatch):
        paths, cache = campaign
        sweep_mod.sweep_granularities(
            logfile.load_store(paths, cache_dir=cache), [64], chunk_days=50
        )
        entries_64 = _ids_entries(cache)
        calls = _count_address_ids(monkeypatch)
        swept = sweep_mod.sweep_days(logfile.load_store(paths, cache_dir=cache), chunk_days=50)
        assert len(calls) == len(entries_64)  # every /128 chunk ranked afresh
        assert len(_ids_entries(cache)) == 2 * len(entries_64)
        _assert_identical(swept, sweep_mod.sweep_days(logfile.load_store(paths)))

    def test_quarantined_day_is_never_persisted(self, campaign):
        paths, cache = campaign
        dirty_day = 30
        dirty = [p for p in paths if p.endswith(f"-{dirty_day}.txt")][0]
        with open(dirty, "a", encoding="ascii") as handle:
            handle.write("not-an-address 1\n")
        report = QuarantineReport()
        store = logfile.load_store(
            paths, cache_dir=cache, errors=ERRORS_QUARANTINE, report=report
        )
        assert store.get(dirty_day).cache_tag is None
        assert all(store.get(d).cache_tag is not None for d in store.days() if d != dirty_day)
        chunk_days = 7
        sweep_mod.sweep_days(store, chunk_days=chunk_days)
        clean_chunks = [
            chunk for chunk in sweep_mod._plan_chunks(store.days(), chunk_days)
            if not chunk[0] - sweep_mod.DEFAULT_WINDOW_BEFORE
            <= dirty_day
            <= chunk[-1] + sweep_mod.DEFAULT_WINDOW_AFTER
        ]
        assert len(_ids_entries(cache)) == len(clean_chunks)
        dirty_digest = daycache.content_hash(dirty)
        for name in _ids_entries(cache):
            meta_path = os.path.join(cache, name[: -len(".npy")] + ".meta.json")
            with open(meta_path, encoding="utf-8") as handle:
                assert dirty_digest not in json.load(handle)["digests"]


@needs_fork
class TestCheckpointsWithIds:
    def test_gaps_are_int64_at_two_jobs(self, campaign):
        paths, cache = campaign
        store = logfile.load_store(paths, cache_dir=cache)
        for _run in range(2):  # cold, then warm
            swept = sweep_mod.sweep_granularities(store, [128, 64], jobs=2, chunk_days=7)
            for results in swept.values():
                assert all(r.gaps.dtype == np.int64 for r in results)

    def test_sigkill_then_resume_is_bit_identical(self, campaign, tmp_path, monkeypatch):
        paths, cache = campaign
        ck_dir = str(tmp_path / "checkpoints")
        script = (
            "import sys\n"
            "from repro.core.sweep import sweep_granularities\n"
            "from repro.data.logfile import load_store\n"
            "store = load_store(sys.argv[3:], cache_dir=sys.argv[1])\n"
            "sweep_granularities(store, [128, 64], jobs=2, chunk_days=7,"
            " checkpoint_dir=sys.argv[2])\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        env[KILL_AFTER_CHECKPOINTS_ENV] = "1"
        env.pop("REPRO_FAULTS", None)
        child = subprocess.run(
            [sys.executable, "-c", script, cache, ck_dir, *paths],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert child.returncode == -signal.SIGKILL, child.stderr
        # Died after the /128 checkpoint of its first chunk: that chunk's
        # /64 half is still missing.
        assert len([n for n in os.listdir(ck_dir) if n.endswith(".npz")]) == 1

        store = logfile.load_store(paths, cache_dir=cache)
        swept = []
        real = sweep_mod._sweep_chunk

        def counted(observations, ref_days, *window):
            swept.append(ref_days[0])
            return real(observations, ref_days, *window)

        monkeypatch.setattr(sweep_mod, "_sweep_chunk", counted)
        resumed = sweep_mod.sweep_granularities(
            store, [128, 64], chunk_days=7, checkpoint_dir=ck_dir
        )
        n_chunks = len(sweep_mod._plan_chunks(store.days(), 7))
        assert len(swept) == 2 * n_chunks - 1  # the checkpointed half is reused
        plain = sweep_mod.sweep_granularities(logfile.load_store(paths), [128, 64], chunk_days=7)
        for prefix_len in (128, 64):
            _assert_identical(resumed[prefix_len], plain[prefix_len])
