"""Both rank widths of the 128-bit ordering kernel give the same answers.

``store.address_ids`` returns int32 ids below a private row limit and
int64 ids above it.  Patching the limit to 0 forces the int64 path on
small inputs; ids, counts, merges, spans and sweep results must not
change.  The sweep persists chunk ids only below its own int32 limit;
patching that one forces the path that ranks without persisting.
"""

import os

import numpy as np
import pytest

from repro.core import sweep as sweep_mod
from repro.data import logfile
from repro.data import store as obstore
from repro.data.store import DailyObservations, ObservationStore


def _rows(seed, n=3_000):
    """Shuffled halves over a few /64s, with repeated pairs and edge values."""
    rng = np.random.default_rng(seed)
    networks = rng.integers(0, 1 << 63, size=40, dtype=np.uint64)
    hi = np.concatenate(
        [rng.choice(networks, size=n), np.array([0, 2**64 - 1], dtype=np.uint64)]
    )
    lo = np.concatenate(
        [rng.integers(0, 64, size=n, dtype=np.uint64),
         np.array([2**64 - 1, 0], dtype=np.uint64)]
    )
    hits = rng.integers(0, 2**64 - 1, size=hi.shape[0], dtype=np.uint64)
    return hi, lo, hits


def _store(n_days=30, seed=7):
    rng = np.random.default_rng(seed)
    pool_hi = rng.integers(0, 1 << 20, size=200, dtype=np.uint64) << np.uint64(40)
    pool_lo = rng.integers(0, 1 << 62, size=200, dtype=np.uint64)
    store = ObservationStore()
    for day in range(n_days):
        if day in (4, 11):
            continue
        keep = rng.random(200) < 0.5
        store.add_observations(
            DailyObservations.from_halves(day, pool_hi[keep], pool_lo[keep])
        )
    return store


def _identical(got, want):
    assert [r.reference_day for r in got] == [r.reference_day for r in want]
    for a, b in zip(got, want):
        assert a.active.tobytes() == b.active.tobytes()
        assert a.gaps.dtype == b.gaps.dtype == np.int64
        assert np.array_equal(a.gaps, b.gaps)


@pytest.mark.parametrize("seed", range(4))
def test_ids_counts_and_merge(seed, monkeypatch):
    hi, lo, hits = _rows(seed)
    ids32, count32 = obstore.address_ids(hi, lo)
    merged32 = obstore.merge_halves(hi, lo, hits)
    monkeypatch.setattr(obstore, "_INT32_ROWS", 0)
    ids64, count64 = obstore.address_ids(hi, lo)
    merged64 = obstore.merge_halves(hi, lo, hits)
    assert (ids32.dtype, ids64.dtype) == (np.int32, np.int64)
    assert count32 == count64
    assert np.array_equal(ids32, ids64)
    for a, b in zip(merged32, merged64):
        assert a.dtype == b.dtype == np.uint64
        assert np.array_equal(a, b)


def test_limit_is_inclusive(monkeypatch):
    hi, lo, _hits = _rows(0, n=10)
    monkeypatch.setattr(obstore, "_INT32_ROWS", hi.shape[0])
    assert obstore.address_ids(hi, lo)[0].dtype == np.int32
    monkeypatch.setattr(obstore, "_INT32_ROWS", hi.shape[0] - 1)
    assert obstore.address_ids(hi, lo)[0].dtype == np.int64


def test_grouped_spans(monkeypatch):
    store = _store()
    days = store.days()
    arrays = [store.array(day) for day in days]
    want = sweep_mod.grouped_spans(arrays, days)
    monkeypatch.setattr(obstore, "_INT32_ROWS", 0)
    got = sweep_mod.grouped_spans(arrays, days)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def test_sweep_results(monkeypatch):
    store = _store()
    want = sweep_mod.sweep_granularities(store, [128, 64], chunk_days=7)
    monkeypatch.setattr(obstore, "_INT32_ROWS", 0)
    got = sweep_mod.sweep_granularities(store, [128, 64], chunk_days=7)
    for prefix_len in (128, 64):
        _identical(got[prefix_len], want[prefix_len])


def _ids_entries(cache_dir):
    return sorted(name for name in os.listdir(cache_dir) if name.startswith("ids-"))


def test_cached_sweep_persists_int64_ids_as_int32(tmp_path, monkeypatch):
    paths = logfile.save_store(_store(), str(tmp_path / "logs"))
    cache = str(tmp_path / "cache")
    want = sweep_mod.sweep_days(logfile.load_store(paths), chunk_days=7)
    monkeypatch.setattr(obstore, "_INT32_ROWS", 0)
    cold = sweep_mod.sweep_days(logfile.load_store(paths, cache_dir=cache), chunk_days=7)
    assert _ids_entries(cache)
    warm = sweep_mod.sweep_days(logfile.load_store(paths, cache_dir=cache), chunk_days=7)
    _identical(cold, want)
    _identical(warm, want)


@pytest.mark.parametrize("kernel_limit", ["int32", "int64"])
def test_window_over_the_int32_limit_is_ranked_not_persisted(
    kernel_limit, tmp_path, monkeypatch
):
    paths = logfile.save_store(_store(), str(tmp_path / "logs"))
    cache = str(tmp_path / "cache")
    want = sweep_mod.sweep_days(logfile.load_store(paths), chunk_days=7)
    if kernel_limit == "int64":
        monkeypatch.setattr(obstore, "_INT32_ROWS", 0)
    monkeypatch.setattr(sweep_mod, "_INT32_MAX", 10)
    got = sweep_mod.sweep_days(logfile.load_store(paths, cache_dir=cache), chunk_days=7)
    _identical(got, want)
    assert not _ids_entries(cache)
