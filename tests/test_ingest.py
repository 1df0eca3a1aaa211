"""Regression tests for the fast ingestion pipeline.

Covers the two bug fixes that rode along with the pipeline rewrite —
duplicate addresses must merge by summing hit counts, and hit-count
validation must accept ASCII digits only — plus the parallel loader and
the CLI's ``--jobs`` / ``--cache-dir`` flags.
"""

import numpy as np
import pytest

from repro import cli
from repro.data import logfile
from repro.data.store import DailyObservations, ObservationStore
from repro.net import addr
from repro.runtime.quarantine import QuarantineReport


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return str(path)


class TestDuplicateMerge:
    def test_duplicates_sum_hits(self, tmp_path):
        path = _write(
            tmp_path / "dup.txt",
            "# day=3\n2001:db8::1 4\n2001:db8::2 1\n2001:db8::1 6\n",
        )
        day, entries = logfile.read_daily_log(path)
        assert day == 3
        assert entries == [(addr.parse("2001:db8::1"), 10), (addr.parse("2001:db8::2"), 1)]

    def test_duplicates_merge_in_arrays_path(self, tmp_path):
        path = _write(
            tmp_path / "dup.txt",
            "# day=3\n2001:db8::2 1\n2001:db8::1 4\n2001:db8::1 6\n",
        )
        _day, hi, lo, hits = logfile.read_daily_log_arrays(path)
        assert hi.shape == (2,)
        assert lo.tolist() == [1, 2]
        assert hits.tolist() == [10, 1]

    def test_store_counts_duplicate_once(self, tmp_path):
        path = _write(tmp_path / "dup.txt", "::1 1\n::1 1\n::2 1\n")
        store = logfile.load_store([path])
        assert len(store.get(store.days()[0])) == 2


class TestHitCountValidation:
    @pytest.mark.parametrize("digits", ["٣", "３", "²", "٣3", "3٣"])
    def test_non_ascii_digits_rejected(self, tmp_path, digits):
        # str.isdigit() accepts these; the log format must not.
        assert digits.isdigit() or digits[:1].isdigit()
        path = _write(tmp_path / "bad.txt", f"2001:db8::1 {digits}\n")
        with pytest.raises(logfile.LogFormatError, match="bad.txt:1"):
            logfile.read_daily_log(path)
        with pytest.raises(logfile.LogFormatError, match="bad.txt:1"):
            logfile.read_daily_log_arrays(path)

    def test_ascii_digits_accepted(self, tmp_path):
        path = _write(tmp_path / "ok.txt", "2001:db8::1 0123456789\n")
        _day, entries = logfile.read_daily_log(path)
        assert entries == [(addr.parse("2001:db8::1"), 123456789)]

    def test_huge_hits_survive_dict_api(self, tmp_path):
        path = _write(tmp_path / "big.txt", f"::1 {10**18}\n")
        _day, entries = logfile.read_daily_log(path)
        assert entries[0][1] == 10**18


def _hits_by_loader(loader, path, errors, report):
    """The hit column of a one-day log, read as an array or as a store."""
    if loader == "arrays":
        return logfile.read_daily_log_arrays(path, errors=errors, report=report)[3]
    store = logfile.load_store([path], errors=errors, report=report)
    return store.get(store.days()[0]).hits


#: Hit tokens of each length the digit columns and the scalar path see:
#: 1-19 digits are read column by column, 20 and more by the scalar path.
HIT_LENGTHS = (1, 2, 3, 9, 18, 19, 20, 21, 25)

#: Bytes that are neither ASCII digits nor token separators: the
#: neighbours of '0' and '9', a letter, NUL, DEL and a two-byte UTF-8
#: character (which makes a 19-character token 20 bytes long).
NON_DIGITS = ("/", ":", "a", "\x00", "\x7f", "é")


def hit_token(length):
    """A valid count of ``length`` digits (leading zeros past 19)."""
    return "0" * max(length - 19, 0) + "9876543210987654321"[: min(length, 19)]


def bad_hit_tokens(length):
    """``hit_token(length)`` with each non-digit byte at each position."""
    digits = hit_token(length)
    return [
        digits[:position] + byte + digits[position + 1 :]
        for position in range(length)
        for byte in NON_DIGITS
    ]


def hit_list(reader, path, errors="strict", report=None):
    """The hits of a one-day log with distinct, ascending addresses."""
    if reader == "dict":
        return [h for _a, h in logfile.read_daily_log(path, errors, report)[1]]
    return _hits_by_loader(reader, path, errors, report).tolist()


READERS = ["arrays", "store", "dict"]


@pytest.mark.parametrize("reader", READERS)
class TestHitCountColumns:
    """Counts of 1-25 digits, one row each, in one log."""

    def test_every_length_parses(self, tmp_path, reader):
        tokens = [hit_token(length) for length in range(1, 26)]
        tokens += ["18446744073709551615", "0", "1" + "0" * 19, "7"]
        lines = [f"::{row + 1:x} {token}" for row, token in enumerate(tokens)]
        # No newline after the last count: its digits end the buffer.
        path = _write(tmp_path / "hits.txt", "# day=1\n" + "\n".join(lines))
        assert hit_list(reader, path) == [int(token) for token in tokens]

    @pytest.mark.parametrize("length", HIT_LENGTHS)
    def test_non_digit_at_each_position_strict(self, tmp_path, reader, length):
        for token in bad_hit_tokens(length):
            path = _write(
                tmp_path / "bad.txt",
                f"# day=1\n::1 5\n::2 {token}\n::3 {hit_token(length)}\n",
            )
            with pytest.raises(logfile.LogFormatError) as caught:
                hit_list(reader, path)
            assert str(caught.value) == f"{path}:3: bad hit count {token!r}"

    def test_count_of_2_to_64_names_its_line(self, tmp_path, reader):
        path = _write(
            tmp_path / "big.txt",
            "# day=1\n::1 18446744073709551615\n::2 18446744073709551616\n",
        )
        with pytest.raises(logfile.LogFormatError) as caught:
            hit_list(reader, path)
        assert str(caught.value) == (
            f"{path}:3: hit count exceeds 64 bits: '18446744073709551616'"
        )


@pytest.mark.parametrize("loader", ["arrays", "store"])
@pytest.mark.parametrize("errors", ["strict", "quarantine"])
class TestLongHitCounts:
    """Counts of 20 or more digits take the scalar path and fit in uint64."""

    @pytest.mark.parametrize(
        "token, value",
        [("00000000000000000001", 1), ("18446744073709551615", 2**64 - 1)],
    )
    def test_long_count_parses(self, tmp_path, loader, errors, token, value):
        path = _write(tmp_path / "long.txt", f"# day=1\n::1 {token}\n::2 3\n")
        report = QuarantineReport()
        hits = _hits_by_loader(loader, path, errors, report)
        assert hits.tolist() == [value, 3]
        assert report.is_empty()

    def test_thousands_of_digits(self, tmp_path, loader, errors):
        # Past int()'s default digit limit: still a LogFormatError.
        path = _write(tmp_path / "long.txt", f"# day=1\n::1 {'0' * 5000}7\n")
        assert _hits_by_loader(loader, path, errors, QuarantineReport()).tolist() == [7]
        path = _write(tmp_path / "long.txt", f"# day=1\n::1 {'1' * 5000}\n::2 3\n")
        report = QuarantineReport()
        if errors == "strict":
            with pytest.raises(logfile.LogFormatError, match="exceeds 64 bits"):
                _hits_by_loader(loader, path, errors, report)
        else:
            assert _hits_by_loader(loader, path, errors, report).tolist() == [3]
            assert report.by_rule() == {"bad-hit-count": 1}

    def test_count_of_2_to_64_rejected(self, tmp_path, loader, errors):
        path = _write(tmp_path / "long.txt", f"# day=1\n::1 {2**64}\n::2 3\n")
        report = QuarantineReport()
        if errors == "strict":
            with pytest.raises(
                logfile.LogFormatError, match="long.txt:2: hit count exceeds 64 bits"
            ):
                _hits_by_loader(loader, path, errors, report)
            return
        assert _hits_by_loader(loader, path, errors, report).tolist() == [3]
        assert report.by_rule() == {"bad-hit-count": 1}
        assert [(r.line, r.excerpt) for r in report.records] == [(2, str(2**64))]


class TestParallelLoading:
    def _make_logs(self, tmp_path, days=3):
        store = ObservationStore()
        rng = np.random.default_rng(5)
        for day in range(days):
            values = [int(v) for v in rng.integers(1, 2**62, size=200)]
            store.add_observations(DailyObservations(day, values))
        return logfile.save_store(store, str(tmp_path / "logs"))

    def _assert_stores_equal(self, a, b):
        assert a.days() == b.days()
        for day in a.days():
            assert np.array_equal(a.get(day).addresses, b.get(day).addresses)

    def test_parallel_equals_serial(self, tmp_path):
        paths = self._make_logs(tmp_path)
        serial = logfile.load_store(paths)
        parallel = logfile.load_store(paths, jobs=2)
        self._assert_stores_equal(serial, parallel)

    def test_jobs_zero_means_all_cpus(self, tmp_path):
        paths = self._make_logs(tmp_path)
        self._assert_stores_equal(
            logfile.load_store(paths), logfile.load_store(paths, jobs=0)
        )

    def test_negative_jobs_rejected(self, tmp_path):
        # Same contract as sweep_days and sweep_spatial.
        paths = self._make_logs(tmp_path)
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            logfile.load_store(paths, jobs=-3)

    def test_parallel_with_cache(self, tmp_path):
        paths = self._make_logs(tmp_path)
        cache = str(tmp_path / "cache")
        serial = logfile.load_store(paths)
        cold = logfile.load_store(paths, jobs=2, cache_dir=cache)
        warm = logfile.load_store(paths, jobs=2, cache_dir=cache)
        self._assert_stores_equal(serial, cold)
        self._assert_stores_equal(serial, warm)

    def test_parallel_error_propagates(self, tmp_path):
        paths = self._make_logs(tmp_path)
        bad = _write(tmp_path / "logs" / "zz-bad.txt", "2001:db8::1\n")
        with pytest.raises(logfile.LogFormatError):
            logfile.load_store(paths + [bad], jobs=2)


class TestCliFlags:
    def test_census_with_jobs_and_cache(self, tmp_path, capsys):
        store = ObservationStore()
        store.add_observations(DailyObservations(0, [1, 2, 3]))
        paths = logfile.save_store(store, str(tmp_path / "logs"))
        cache = str(tmp_path / "cache")

        argv = paths + ["--jobs", "2", "--cache-dir", cache]
        assert cli.main_census(argv) == 0
        first = capsys.readouterr().out
        assert "addresses" in first

        # Warm run through the cache prints the same census.
        assert cli.main_census(argv) == 0
        assert capsys.readouterr().out == first

    def test_cache_dir_env_default(self, tmp_path, monkeypatch, capsys):
        store = ObservationStore()
        store.add_observations(DailyObservations(0, [5, 6]))
        paths = logfile.save_store(store, str(tmp_path / "logs"))
        cache = tmp_path / "env-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        assert cli.main_census(paths) == 0
        capsys.readouterr()
        assert cache.exists() and any(cache.iterdir())
