"""Tests for the binary columnar day-log cache.

The invariants under test: a cache hit returns arrays identical to a
fresh text parse; editing the source log busts its entry (content-hash
keying means a stale entry can never be served); corrupt or truncated
entries fall back to parsing instead of failing or lying.
"""

import hashlib
import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.data import daycache, logfile
from repro.net import addr


def _write_log(path, day, entries):
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"# repro aggregated log day={day}\n")
        for value, hits in entries:
            handle.write(f"{addr.format_address(value)} {hits}\n")


@pytest.fixture
def log_and_cache(tmp_path):
    log = str(tmp_path / "day.txt")
    cache = str(tmp_path / "cache")
    _write_log(log, 7, [(0x20010DB8 << 96 | n, n + 1) for n in range(100)])
    return log, cache


class TestCacheHitAndMiss:
    def test_cached_equals_text_parsed(self, log_and_cache):
        log, cache = log_and_cache
        expected = logfile.read_daily_log_arrays(log)
        cold = daycache.load_day(log, cache)
        warm = daycache.load_day(log, cache)
        for got in (cold, warm):
            assert got[0] == expected[0]
            for got_col, want_col in zip(got[1:], expected[1:]):
                assert np.array_equal(np.asarray(got_col), want_col)

    def test_warm_load_skips_text_parse(self, log_and_cache, monkeypatch):
        log, cache = log_and_cache
        daycache.load_day(log, cache)  # populate

        calls = []
        original = logfile.read_daily_log_arrays

        def counting(path):
            calls.append(path)
            return original(path)

        monkeypatch.setattr(daycache.logfile, "read_daily_log_arrays", counting)
        daycache.load_day(log, cache)
        assert calls == []

    def test_cold_load_writes_entry(self, log_and_cache):
        log, cache = log_and_cache
        daycache.load_day(log, cache)
        digest = daycache.content_hash(log)
        npy_path, meta_path = daycache.cache_paths(cache, digest)
        assert os.path.exists(npy_path) and os.path.exists(meta_path)
        meta = json.load(open(meta_path))
        assert meta["sha256"] == digest
        assert meta["day"] == 7

    def test_warm_arrays_are_memory_mapped(self, log_and_cache):
        log, cache = log_and_cache
        daycache.load_day(log, cache)
        _day, hi, _lo, _hits = daycache.load_day(log, cache)
        assert isinstance(hi.base, np.memmap) or isinstance(hi, np.memmap)


class TestInvalidation:
    def test_editing_source_busts_cache(self, log_and_cache):
        log, cache = log_and_cache
        daycache.load_day(log, cache)
        old_digest = daycache.content_hash(log)

        # Append one address; the old entry must not be served.
        with open(log, "a", encoding="ascii") as handle:
            handle.write("2001:db8::ffff 5\n")
        assert daycache.content_hash(log) != old_digest

        day, hi, lo, hits = daycache.load_day(log, cache)
        expected = logfile.read_daily_log_arrays(log)
        assert np.array_equal(np.asarray(hi), expected[1])
        assert np.array_equal(np.asarray(lo), expected[2])
        assert np.array_equal(np.asarray(hits), expected[3])

    def test_same_content_different_path_shares_entry(self, tmp_path):
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        cache = str(tmp_path / "cache")
        _write_log(a, 1, [(n, 1) for n in range(10)])
        _write_log(b, 1, [(n, 1) for n in range(10)])
        daycache.load_day(a, cache)
        # b has identical bytes, so its load is a hit on a's entry.
        assert daycache.content_hash(a) == daycache.content_hash(b)
        day, hi, _lo, _hits = daycache.load_day(b, cache)
        assert day == 1 and hi.shape == (10,)

    def test_digest_mismatch_in_meta_rejected(self, log_and_cache):
        log, cache = log_and_cache
        daycache.load_day(log, cache)
        digest = daycache.content_hash(log)
        _npy, meta_path = daycache.cache_paths(cache, digest)
        meta = json.load(open(meta_path))
        meta["sha256"] = "0" * len(meta["sha256"])
        with open(meta_path, "w") as handle:
            json.dump(meta, handle)
        payload, reason = daycache._try_load(_npy, meta_path, digest)
        assert payload is None and reason is None  # clean miss, not corruption
        # load_day still works by reparsing + rewriting.
        day, hi, _lo, _hits = daycache.load_day(log, cache)
        assert day == 7 and hi.shape == (100,)


class TestRewriteDuringLoad:
    """A log rewritten while it loads is cached under the bytes parsed.

    Each case rewrites the file between the cache probe and the parse;
    the entry written must be keyed by the digest of the content the
    loader parsed, never by another read's digest.
    """

    OLD = [(0x20010DB8 << 96 | n, n + 1) for n in range(100)]
    NEW = [(0x20010DB9 << 96 | n, 2) for n in range(40)]

    @staticmethod
    def _digest(path):
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()

    def test_load_day_parses_the_bytes_it_hashed(self, log_and_cache, monkeypatch):
        log, cache = log_and_cache
        old_digest = self._digest(log)
        expected = logfile.read_daily_log_arrays(log)
        probe = daycache._try_load

        def probe_then_rewrite(npy_path, meta_path, digest):
            _write_log(log, 8, self.NEW)
            return probe(npy_path, meta_path, digest)

        monkeypatch.setattr(daycache, "_try_load", probe_then_rewrite)
        day, hi, lo, hits = daycache.load_day(log, cache)
        monkeypatch.undo()
        assert day == 7 and np.array_equal(hi, expected[1])
        cached, _reason = daycache._try_load(
            *daycache.cache_paths(cache, old_digest), old_digest
        )
        assert cached is not None and cached[0] == 7
        assert np.array_equal(np.asarray(cached[2]), expected[2])
        new_digest = self._digest(log)
        assert not os.path.exists(daycache.cache_paths(cache, new_digest)[0])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_load_store_keys_entry_by_parsed_bytes(self, tmp_path, monkeypatch, jobs):
        if jobs > 1 and "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork start method")
        cache = str(tmp_path / "cache")
        first, second = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        _write_log(first, 7, self.OLD)
        _write_log(second, 9, self.OLD[:10])
        old_digest = self._digest(first)
        probe = daycache.lookup

        def probe_then_rewrite(path, cache_dir):
            found = probe(path, cache_dir)
            if path == first:
                _write_log(first, 8, self.NEW)
            return found

        monkeypatch.setattr(daycache, "lookup", probe_then_rewrite)
        store = logfile.load_store([first, second], jobs=jobs, cache_dir=cache)
        monkeypatch.undo()
        new_digest = self._digest(first)
        assert store.days() == [8, 9]
        expected = logfile.read_daily_log_arrays(first)
        assert np.array_equal(store.get(8).addresses["lo"], expected[2])
        assert store.get(8).cache_tag == (new_digest, 128)
        assert not os.path.exists(daycache.cache_paths(cache, old_digest)[0])
        cached, _reason = daycache._try_load(
            *daycache.cache_paths(cache, new_digest), new_digest
        )
        assert cached is not None and cached[0] == 8
        assert np.array_equal(np.asarray(cached[2]), expected[2])


class TestCorruption:
    def test_truncated_npy_falls_back(self, log_and_cache):
        log, cache = log_and_cache
        daycache.load_day(log, cache)
        digest = daycache.content_hash(log)
        npy_path, _meta = daycache.cache_paths(cache, digest)
        payload = open(npy_path, "rb").read()
        with open(npy_path, "wb") as handle:
            handle.write(payload[: len(payload) // 2])

        day, hi, _lo, _hits = daycache.load_day(log, cache)
        assert day == 7 and hi.shape == (100,)

    def test_garbage_meta_falls_back(self, log_and_cache):
        log, cache = log_and_cache
        daycache.load_day(log, cache)
        digest = daycache.content_hash(log)
        _npy, meta_path = daycache.cache_paths(cache, digest)
        with open(meta_path, "w") as handle:
            handle.write("not json{")
        day, hi, _lo, _hits = daycache.load_day(log, cache)
        assert day == 7 and hi.shape == (100,)

    def test_version_bump_invalidates(self, log_and_cache, monkeypatch):
        log, cache = log_and_cache
        daycache.load_day(log, cache)
        monkeypatch.setattr(daycache, "CACHE_VERSION", daycache.CACHE_VERSION + 1)
        digest = daycache.content_hash(log)
        payload, reason = daycache._try_load(
            *daycache.cache_paths(cache, digest), digest
        )
        assert payload is None and reason is None  # stale layout, not corruption


class TestMetaTypeRegression:
    """Wrong-*type* meta entries must be a miss + rebuild, never a TypeError.

    Regression for the historical bug where a ``.meta.json`` holding a
    JSON list (or a field of the wrong type) crashed ``load_day`` with
    a TypeError instead of being treated as corruption.
    """

    def _meta_path(self, log, cache):
        digest = daycache.content_hash(log)
        _npy, meta_path = daycache.cache_paths(cache, digest)
        return meta_path

    def _assert_rebuilds(self, log, cache):
        from repro.runtime.quarantine import ERRORS_QUARANTINE, QuarantineReport

        report = QuarantineReport()
        day, hi, _lo, _hits = daycache.load_day(
            log, cache, errors=ERRORS_QUARANTINE, report=report
        )
        assert day == 7 and hi.shape == (100,)
        assert "cache-rebuilt" in report.by_rule()
        # Strict mode rebuilds too (silently) — corruption is recoverable.
        day, hi, _lo, _hits = daycache.load_day(log, cache)
        assert day == 7 and hi.shape == (100,)

    def test_meta_is_a_json_list(self, log_and_cache):
        log, cache = log_and_cache
        daycache.load_day(log, cache)
        with open(self._meta_path(log, cache), "w") as handle:
            json.dump(["not", "a", "dict"], handle)
        self._assert_rebuilds(log, cache)

    def test_rows_field_is_a_string(self, log_and_cache):
        log, cache = log_and_cache
        daycache.load_day(log, cache)
        meta_path = self._meta_path(log, cache)
        meta = json.load(open(meta_path))
        meta["rows"] = "one hundred"
        json.dump(meta, open(meta_path, "w"))
        self._assert_rebuilds(log, cache)

    def test_rows_field_is_a_bool(self, log_and_cache):
        # bool is an int subclass; it must still be rejected, not used
        # as a row count.
        log, cache = log_and_cache
        daycache.load_day(log, cache)
        meta_path = self._meta_path(log, cache)
        meta = json.load(open(meta_path))
        meta["rows"] = True
        json.dump(meta, open(meta_path, "w"))
        self._assert_rebuilds(log, cache)

    def test_day_field_is_a_dict(self, log_and_cache):
        log, cache = log_and_cache
        daycache.load_day(log, cache)
        meta_path = self._meta_path(log, cache)
        meta = json.load(open(meta_path))
        meta["day"] = {"value": 7}
        json.dump(meta, open(meta_path, "w"))
        self._assert_rebuilds(log, cache)


class TestQuarantineInteraction:
    def test_dirty_parse_is_never_cached(self, tmp_path):
        # A quarantined (cleaned) parse must not be written to the
        # cache: a later *strict* load of the same bytes must parse the
        # text again and raise, not get cleaned arrays from a hit.
        from repro.runtime.quarantine import ERRORS_QUARANTINE, QuarantineReport

        log = str(tmp_path / "day.txt")
        cache = str(tmp_path / "cache")
        with open(log, "w", encoding="ascii") as handle:
            handle.write("# repro aggregated log day=7\n")
            handle.write("2001:db8::1 3\n")
            handle.write("not-an-address 5\n")
        report = QuarantineReport()
        day, hi, _lo, _hits = daycache.load_day(
            log, cache, errors=ERRORS_QUARANTINE, report=report
        )
        assert day == 7 and hi.shape == (1,)
        assert report.total_line_faults == 1
        with pytest.raises(logfile.LogFormatError):
            daycache.load_day(log, cache)

    def test_clean_parse_is_cached_in_quarantine_mode(self, log_and_cache):
        from repro.runtime.quarantine import ERRORS_QUARANTINE, QuarantineReport

        log, cache = log_and_cache
        daycache.load_day(log, cache, errors=ERRORS_QUARANTINE, report=QuarantineReport())
        digest = daycache.content_hash(log)
        npy_path, meta_path = daycache.cache_paths(cache, digest)
        assert os.path.exists(npy_path) and os.path.exists(meta_path)


class TestPrune:
    def test_prune_removes_unlisted_entries(self, tmp_path):
        cache = str(tmp_path / "cache")
        logs = []
        for n in range(3):
            log = str(tmp_path / f"log{n}.txt")
            _write_log(log, n, [(n * 100 + k, 1) for k in range(5)])
            daycache.load_day(log, cache)
            logs.append(log)
        keep = {daycache.content_hash(logs[0])}
        removed = daycache.prune(cache, keep)
        assert removed == 4  # two entries, .npy + .meta.json each
        # The kept entry still hits; the pruned ones rebuild cleanly.
        for log in logs:
            day, hi, _lo, _hits = daycache.load_day(log, cache)
            assert hi.shape == (5,)

    def test_prune_drops_ids_entries_of_dropped_days(self, tmp_path):
        from repro.core.sweep import sweep_days

        cache = str(tmp_path / "cache")
        logs = []
        for n in range(4):
            log = str(tmp_path / f"log{n}.txt")
            _write_log(log, n, [(0x20010DB8 << 96 | n * 100 + k, 1) for k in range(5)])
            logs.append(log)
        # chunk_days=1 and a 0/+1 window: chunk d's window is days d, d+1.
        sweep_days(
            logfile.load_store(logs, cache_dir=cache),
            window_before=0, window_after=1, chunk_days=1,
        )

        def ids_entries():
            return sorted(n for n in os.listdir(cache) if n.startswith("ids-"))

        assert len(ids_entries()) == 8  # four windows, .npy + .meta.json each
        keep = {daycache.content_hash(log) for log in logs[:3]}
        # Windows {0, 1} and {1, 2} survive; {2, 3} and {3} go, with day 3.
        assert daycache.prune(cache, keep) == 2 + 4
        assert len(ids_entries()) == 4
        # An ids payload whose meta is gone is unreachable: pruned too.
        meta = [n for n in ids_entries() if n.endswith(".meta.json")][0]
        os.unlink(os.path.join(cache, meta))
        assert daycache.prune(cache, keep) == 1
        assert len(ids_entries()) == 2
