"""Quarantine-mode ingestion: report accounting, thresholds, and the
``load_store`` partial-failure matrix.

The matrix covers the failure shapes a year-long campaign actually
produces — unreadable day files, empty files, comment-only files,
duplicate day numbers — crossed with both error modes and both serial
and parallel loading, asserting identical classification either way.
"""

import os

import numpy as np
import pytest

from repro.data.logfile import (
    LogFormatError,
    load_store,
    read_daily_log,
    read_daily_log_arrays,
)
from repro.net import addr
from repro.runtime.quarantine import (
    ERRORS_QUARANTINE,
    ERRORS_STRICT,
    MAX_EXCERPT_CHARS,
    MAX_RECORDS_PER_RULE,
    QuarantinePolicy,
    QuarantineReport,
    QuarantineThresholdError,
    check_errors_mode,
    clip_excerpt,
)
from tests.test_ingest import HIT_LENGTHS, NON_DIGITS, hit_token

JOBS = [1, 4]


def _write(path, lines):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return str(path)


def _good_day(path, day, count=4):
    lines = [f"# repro aggregated log day={day}"]
    lines += [f"2001:db8::{i + 1:x} {i + 1}" for i in range(count)]
    return _write(path, lines)


class TestReportAccounting:
    def test_line_fault_counts_and_records(self):
        report = QuarantineReport()
        report.line_fault("day.txt", 3, "bad-address", "zz::1")
        report.line_fault("day.txt", 9, "bad-address", "qq::2")
        report.note_lines("day.txt", 100)
        assert report.total_line_faults == 2
        assert report.by_rule() == {"bad-address": 2}
        assert report.line_totals["day.txt"] == 100
        assert "day.txt:3" in report.records[0].format()

    def test_record_cap_keeps_counts_exact(self):
        report = QuarantineReport()
        for line in range(MAX_RECORDS_PER_RULE * 3):
            report.line_fault("day.txt", line + 1, "bad-address", "x")
        assert len(report.records) == MAX_RECORDS_PER_RULE
        assert report.counts[("day.txt", "bad-address")] == MAX_RECORDS_PER_RULE * 3

    def test_day_fault_and_info_are_separate(self):
        report = QuarantineReport()
        report.day_fault("log-3.txt", "unreadable-file")
        report.info("log-4.txt", "cache-rebuilt", "truncated payload")
        assert report.total_day_faults == 1
        assert report.total_line_faults == 0
        assert not report.is_empty()

    def test_merge_folds_everything(self):
        left, right = QuarantineReport(), QuarantineReport()
        left.line_fault("a.txt", 1, "bad-address")
        left.note_lines("a.txt", 10)
        right.line_fault("a.txt", 2, "bad-address")
        right.note_lines("a.txt", 5)
        right.day_fault("b.txt", "unreadable-file")
        left.merge(right)
        assert left.counts[("a.txt", "bad-address")] == 2
        assert left.line_totals["a.txt"] == 15
        assert left.line_faults["a.txt"] == 2
        assert left.day_faults == ["b.txt"]

    def test_summary_clean_and_dirty(self):
        report = QuarantineReport()
        assert "clean" in report.summary()
        report.line_fault("a.txt", 1, "bad-address", "junk")
        text = report.summary()
        assert "1 line fault(s)" in text and "bad-address" in text

    def test_clip_excerpt(self):
        assert clip_excerpt("short") == "short"
        clipped = clip_excerpt("y" * 500)
        assert len(clipped) == MAX_EXCERPT_CHARS and clipped.endswith("…")

    def test_check_errors_mode(self):
        assert check_errors_mode(ERRORS_STRICT) == ERRORS_STRICT
        assert check_errors_mode(ERRORS_QUARANTINE) == ERRORS_QUARANTINE
        with pytest.raises(ValueError, match="errors must be"):
            check_errors_mode("ignore")


class TestThresholds:
    def test_line_grace_shields_small_files(self):
        # A tiny test file with one typo must not abort the run even
        # though 1/3 lines vastly exceeds max_line_fraction.
        report = QuarantineReport()
        report.line_fault("a.txt", 2, "bad-address")
        report.note_lines("a.txt", 3)
        report.enforce_day("a.txt", QuarantinePolicy())  # no raise

    def test_line_fraction_budget_aborts(self):
        report = QuarantineReport()
        for line in range(20):
            report.line_fault("a.txt", line + 1, "bad-address")
        report.note_lines("a.txt", 100)
        with pytest.raises(QuarantineThresholdError) as info:
            report.enforce_day("a.txt", QuarantinePolicy())
        assert info.value.report is report
        assert "20 of 100" in str(info.value)

    def test_many_faults_in_huge_day_within_budget(self):
        report = QuarantineReport()
        for line in range(50):
            report.line_fault("a.txt", line + 1, "bad-address")
        report.note_lines("a.txt", 1_000_000)
        report.enforce_day("a.txt", QuarantinePolicy())  # 0.005% < 1%

    def test_day_budget_aborts(self):
        report = QuarantineReport()
        for i in range(3):
            report.day_fault(f"log-{i}.txt", "unreadable-file")
        with pytest.raises(QuarantineThresholdError, match="3 of 4 days"):
            report.enforce_run(QuarantinePolicy(), total_days=4)

    def test_day_grace_allows_single_loss(self):
        report = QuarantineReport()
        report.day_fault("log-0.txt", "unreadable-file")
        report.enforce_run(QuarantinePolicy(), total_days=2)  # no raise


def _day_and_hits(reader, path, report):
    """``(day, hits)`` of a day log in quarantine mode, for either reader."""
    result = reader(path, errors=ERRORS_QUARANTINE, report=report)
    if reader is read_daily_log:
        return result[0], [hits for _address, hits in result[1]]
    return result[0], result[3].tolist()


class TestReaderQuarantine:
    def test_scalar_reader_diverts_bad_lines(self, tmp_path):
        path = _write(
            tmp_path / "day.txt",
            [
                "# repro aggregated log day=1",
                "2001:db8::1 3",
                "not-an-address 5",
                "2001:db8::2 too-many tokens",
                "2001:db8::3 x9",
                "2001:db8::4 7",
            ],
        )
        report = QuarantineReport()
        day, entries = read_daily_log(path, errors=ERRORS_QUARANTINE, report=report)
        assert day == 1 and len(entries) == 2
        assert report.by_rule() == {
            "bad-address": 1,
            "bad-line-shape": 1,
            "bad-hit-count": 1,
        }
        assert report.line_totals[path] == 5

    def test_columnar_reader_matches_scalar(self, tmp_path):
        path = _write(
            tmp_path / "day.txt",
            [
                "# repro aggregated log day=1",
                "2001:db8::1 3",
                "zz::: 5",
                "orphan-token",
                "2001:db8::2 1x",
                "2001:db8::4 7",
            ],
        )
        scalar_report, columnar_report = QuarantineReport(), QuarantineReport()
        _, entries = read_daily_log(
            path, errors=ERRORS_QUARANTINE, report=scalar_report
        )
        day, hi, lo, hits = read_daily_log_arrays(
            path, errors=ERRORS_QUARANTINE, report=columnar_report
        )
        assert day == 1
        assert hi.shape[0] == len(entries) == 2
        # Both readers run one row stage, so compare each with the truth.
        expected = {"bad-address": 1, "bad-line-shape": 1, "bad-hit-count": 1}
        assert scalar_report.by_rule() == columnar_report.by_rule() == expected
        assert (
            scalar_report.line_totals[path] == columnar_report.line_totals[path] == 5
        )

    @pytest.mark.parametrize("address", ["2001:db8::1\x00", "::\x00"])
    def test_nul_suffixed_address_rejected(self, tmp_path, address):
        # A NUL is part of the token (only space, tab, CR and LF separate
        # tokens), and the scalar parser rejects it; both readers agree.
        path = _write(
            tmp_path / "day.txt",
            ["# repro aggregated log day=1", "2001:db8::2 3", f"{address} 5"],
        )
        for reader in (read_daily_log, read_daily_log_arrays):
            with pytest.raises(LogFormatError, match=r"day\.txt:3: "):
                reader(path)
            report = QuarantineReport()
            result = reader(path, errors=ERRORS_QUARANTINE, report=report)
            assert report.by_rule() == {"bad-address": 1}
            assert [(r.line, r.excerpt) for r in report.records] == [(3, address)]
            assert result[0] == 1

    @pytest.mark.parametrize("reader", [read_daily_log, read_daily_log_arrays])
    def test_dirty_day_report_is_exact(self, tmp_path, reader):
        # Faulted lines of every rule (fewer than MAX_RECORDS_PER_RULE
        # each, so every one is recorded), CRLF endings, a comment line
        # mid-file and a last line with no newline: each record keeps its
        # rule, 1-based line number and excerpt.
        lines = ["# repro aggregated log day=7"]
        expected = []
        for i in range(60):
            lines.append(f"2001:db8::{i + 1:x} {i + 1}")
            if i % 5 == 0:
                lines.append(f"orphan-{i}")
                expected.append(("bad-line-shape", len(lines), f"orphan-{i}"))
            if i % 7 == 0:
                lines.append(f"2001:db8::{i:x} 1 extra\r")
                expected.append(
                    ("bad-line-shape", len(lines), f"2001:db8::{i:x} 1 extra")
                )
            if i % 11 == 0:
                lines.append(f"2001:db8:::{i:x} 2")
                expected.append(("bad-address", len(lines), f"2001:db8:::{i:x}"))
            if i % 13 == 0:
                lines.append(f"2001:db8::{i:x} {i}x")
                expected.append(("bad-hit-count", len(lines), f"{i}x"))
            if i == 30:
                lines.append("# a comment day=99")
        lines.append("2001:db8::ffff 1 2")
        expected.append(("bad-line-shape", len(lines), "2001:db8::ffff 1 2"))
        path = str(tmp_path / "day.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines))
        report = QuarantineReport()
        day, hits = _day_and_hits(reader, path, report)
        assert day == 7
        assert len(hits) == 60 and sum(hits) == sum(range(1, 61))
        got = sorted((r.rule, r.line, r.excerpt) for r in report.records)
        assert got == sorted(expected)
        assert sum(report.by_rule().values()) == len(expected)
        assert report.line_totals[path] == len(lines) - 2

    def test_scalar_reader_keeps_first_seen_order(self, tmp_path):
        path = _write(
            tmp_path / "day.txt",
            [
                "# repro aggregated log day=2",
                "2001:db8::9 1",
                "2001:db8::3 2",
                "2001:db8::9 x",
                "2001:db8::1 4",
                "bad:::address 1",
                "2001:db8::3 5",
                "orphan",
                "2001:db8::9 10",
            ],
        )
        report = QuarantineReport()
        day, entries = read_daily_log(path, errors=ERRORS_QUARANTINE, report=report)
        assert day == 2
        assert entries == [
            (addr.parse("2001:db8::9"), 11),
            (addr.parse("2001:db8::3"), 7),
            (addr.parse("2001:db8::1"), 4),
        ]
        assert sorted((r.rule, r.line) for r in report.records) == [
            ("bad-address", 6),
            ("bad-hit-count", 4),
            ("bad-line-shape", 8),
        ]
        assert report.line_totals[path] == 8

    def test_scalar_reader_sums_past_64_bits(self, tmp_path):
        top = 2**64 - 1
        path = _write(tmp_path / "day.txt", [f"::1 {top}", "::2 1", f"::1 {top}"])
        _day, entries = read_daily_log(path)
        assert entries == [(1, 2**65 - 2), (2, 1)]

    def test_invalid_utf8_address_is_quarantined(self, tmp_path):
        path = tmp_path / "day.txt"
        path.write_bytes(b"# day=4\n2001:db8::1 3\n2001:db8::\xff 5\n::2 1\n")
        with pytest.raises(LogFormatError, match=r"day\.txt:3: "):
            read_daily_log(str(path))
        report = QuarantineReport()
        day, entries = read_daily_log(
            str(path), errors=ERRORS_QUARANTINE, report=report
        )
        assert day == 4
        assert entries == [(addr.parse("2001:db8::1"), 3), (2, 1)]
        assert [(r.rule, r.line) for r in report.records] == [("bad-address", 3)]

    def test_strict_mode_is_bit_identical_on_clean_input(self, tmp_path):
        path = _good_day(tmp_path / "day.txt", 1, count=6)
        strict = read_daily_log_arrays(path, errors=ERRORS_STRICT)
        report = QuarantineReport()
        relaxed = read_daily_log_arrays(path, errors=ERRORS_QUARANTINE, report=report)
        assert report.is_empty()
        assert strict[0] == relaxed[0]
        for a, b in zip(strict[1:], relaxed[1:]):
            np.testing.assert_array_equal(a, b)


READERS = [read_daily_log, read_daily_log_arrays]


@pytest.mark.parametrize("reader", READERS)
class TestHitCountQuarantine:
    """Each malformed count is one ``bad-hit-count`` record; the rest load."""

    @pytest.mark.parametrize("length", HIT_LENGTHS)
    def test_non_digit_at_each_position(self, tmp_path, reader, length):
        digits = hit_token(length)
        for position in range(length):
            lines = ["# day=2", "::1 5"]
            expected = []
            for byte in NON_DIGITS:
                token = digits[:position] + byte + digits[position + 1 :]
                lines.append(f"::{len(lines):x} {token}")
                expected.append(("bad-hit-count", len(lines), token))
            lines.append(f"::{len(lines):x} {digits}")
            path = _write(tmp_path / "day.txt", lines)
            report = QuarantineReport()
            day, hits = _day_and_hits(reader, path, report)
            assert (day, hits) == (2, [5, int(digits)])
            assert [(r.rule, r.line, r.excerpt) for r in report.records] == expected
            assert report.line_totals[path] == len(NON_DIGITS) + 2

    def test_uint64_boundary(self, tmp_path, reader):
        path = _write(
            tmp_path / "day.txt",
            [
                "# day=2",
                "::1 18446744073709551615",
                "::2 18446744073709551616",
                "::3 1",
            ],
        )
        report = QuarantineReport()
        assert _day_and_hits(reader, path, report) == (2, [2**64 - 1, 1])
        assert [(r.rule, r.line, r.excerpt) for r in report.records] == [
            ("bad-hit-count", 3, "18446744073709551616")
        ]

    def test_strict_order_shape_then_address_then_count(self, tmp_path, reader):
        # Strict mode names the first bad line shape, else the first bad
        # address, else the first bad count by line, whichever path
        # (digit columns or scalar) read that count.
        long_bad = "1" * 25
        lines = ["# day=2", f"::1 {long_bad}", "::2 9x", "zz::: 3", "::4 1 2", "::5 1"]
        shape, address, count = "bad-line-shape", "bad-address", "bad-hit-count"
        cases = [
            (lines, 5, "expected 'address hits'", {shape: 1, address: 1, count: 2}),
            (lines[:4] + lines[5:], 4, None, {address: 1, count: 2}),
            (
                lines[:3] + lines[5:],
                2,
                f"hit count exceeds 64 bits: {long_bad!r}",
                {count: 2},
            ),
            (lines[:1] + lines[2:3] + lines[5:], 2, "bad hit count '9x'", {count: 1}),
        ]
        for case_lines, line, message, rules in cases:
            path = _write(tmp_path / "day.txt", case_lines)
            with pytest.raises(LogFormatError) as caught:
                reader(path)
            assert str(caught.value).startswith(f"{path}:{line}: ")
            if message is not None:
                assert str(caught.value) == f"{path}:{line}: {message}"
            report = QuarantineReport()
            _day_and_hits(reader, path, report)
            assert report.by_rule() == rules


@pytest.mark.parametrize("jobs", JOBS)
class TestLoadStoreMatrix:
    """Satellite matrix: partial failures x error mode x serial/parallel."""

    def test_unreadable_file_strict_raises(self, tmp_path, jobs):
        paths = [
            _good_day(tmp_path / "log-0.txt", 0),
            str(tmp_path / "log-1-missing.txt"),
            _good_day(tmp_path / "log-2.txt", 2),
        ]
        with pytest.raises(OSError):
            load_store(paths, jobs=jobs, errors=ERRORS_STRICT)

    def test_unreadable_file_quarantine_becomes_gap(self, tmp_path, jobs):
        paths = [
            _good_day(tmp_path / "log-0.txt", 0),
            str(tmp_path / "log-1-missing.txt"),
            _good_day(tmp_path / "log-2.txt", 2),
        ]
        report = QuarantineReport()
        store = load_store(paths, jobs=jobs, errors=ERRORS_QUARANTINE, report=report)
        assert store.days() == [0, 2]  # day 1 is an explicit gap
        assert report.day_faults == [paths[1]]
        assert report.by_rule() == {"unreadable-file": 1}

    def test_empty_file_loads_in_both_modes(self, tmp_path, jobs):
        empty = tmp_path / "log-1.txt"
        empty.touch()
        paths = [_good_day(tmp_path / "log-0.txt", 0), str(empty)]
        for errors in (ERRORS_STRICT, ERRORS_QUARANTINE):
            report = QuarantineReport()
            store = load_store(paths, jobs=jobs, errors=errors, report=report)
            assert store.days() == [0, 1]
            assert len(store.get(1)) == 0
            assert report.is_empty()

    def test_comment_only_file_keeps_header_day(self, tmp_path, jobs):
        comment_only = _write(
            tmp_path / "log-5.txt",
            ["# repro aggregated log day=5", "# maintenance window, no traffic"],
        )
        paths = [_good_day(tmp_path / "log-0.txt", 0), comment_only]
        for errors in (ERRORS_STRICT, ERRORS_QUARANTINE):
            store = load_store(paths, jobs=jobs, errors=errors)
            assert store.days() == [0, 5]
            assert len(store.get(5)) == 0

    def test_duplicate_day_strict_replaces_silently(self, tmp_path, jobs):
        first = _good_day(tmp_path / "log-3a.txt", 3, count=2)
        second = _good_day(tmp_path / "log-3b.txt", 3, count=7)
        store = load_store([first, second], jobs=jobs, errors=ERRORS_STRICT)
        assert store.days() == [3]
        assert len(store.get(3)) == 7  # last writer wins

    def test_duplicate_day_quarantine_records_info(self, tmp_path, jobs):
        first = _good_day(tmp_path / "log-3a.txt", 3, count=2)
        second = _good_day(tmp_path / "log-3b.txt", 3, count=7)
        report = QuarantineReport()
        store = load_store(
            [first, second], jobs=jobs, errors=ERRORS_QUARANTINE, report=report
        )
        assert store.days() == [3]
        assert len(store.get(3)) == 7
        assert report.by_rule() == {"duplicate-day": 1}
        # Info records never count as loss.
        assert report.total_line_faults == 0 and report.total_day_faults == 0

    def test_dirty_lines_quarantined_identically(self, tmp_path, jobs):
        dirty = _write(
            tmp_path / "log-1.txt",
            [
                "# repro aggregated log day=1",
                "2001:db8::1 3",
                "garbage-line 5",
                "2001:db8::2 4",
            ],
        )
        paths = [_good_day(tmp_path / "log-0.txt", 0), dirty]
        report = QuarantineReport()
        store = load_store(paths, jobs=jobs, errors=ERRORS_QUARANTINE, report=report)
        assert store.days() == [0, 1]
        assert len(store.get(1)) == 2
        assert report.by_rule() == {"bad-address": 1}
        assert report.line_totals[dirty] == 3

    def test_threshold_breach_aborts_run(self, tmp_path, jobs):
        flood = _write(
            tmp_path / "log-1.txt",
            ["# repro aggregated log day=1"]
            + [f"2001:db8::{i + 1:x} 1" for i in range(50)]
            + [f"not-an-address-{i} 1" for i in range(20)],
        )
        paths = [_good_day(tmp_path / "log-0.txt", 0), flood]
        with pytest.raises(QuarantineThresholdError):
            load_store(paths, jobs=jobs, errors=ERRORS_QUARANTINE)

    def test_serial_and_parallel_reports_match(self, tmp_path, jobs):
        # Identical quarantine accounting regardless of fan-out: the
        # parametrized run is compared against a serial reference.
        dirty = _write(
            tmp_path / "log-1.txt",
            [
                "# repro aggregated log day=1",
                "2001:db8::1 3",
                "bad-line",
                "2001:db8::2 x4",
            ],
        )
        paths = [
            _good_day(tmp_path / "log-0.txt", 0),
            dirty,
            str(tmp_path / "log-2-missing.txt"),
            _good_day(tmp_path / "log-3.txt", 3),
        ]
        reference = QuarantineReport()
        ref_store = load_store(paths, jobs=1, errors=ERRORS_QUARANTINE, report=reference)
        report = QuarantineReport()
        store = load_store(paths, jobs=jobs, errors=ERRORS_QUARANTINE, report=report)
        assert store.days() == ref_store.days() == [0, 1, 3]
        assert report.by_rule() == reference.by_rule()
        assert report.counts == reference.counts
        assert report.line_totals == reference.line_totals
        assert report.day_faults == reference.day_faults


@pytest.mark.parametrize("jobs", JOBS)
class TestLoadStoreStrictParity:
    def test_clean_inputs_identical_across_modes_and_jobs(self, tmp_path, jobs):
        paths = [_good_day(tmp_path / f"log-{d}.txt", d, count=3 + d) for d in range(4)]
        baseline = load_store(paths, jobs=1, errors=ERRORS_STRICT)
        for errors in (ERRORS_STRICT, ERRORS_QUARANTINE):
            store = load_store(paths, jobs=jobs, errors=errors)
            assert store.days() == baseline.days()
            for day in store.days():
                np.testing.assert_array_equal(
                    store.get(day).addresses, baseline.get(day).addresses
                )
                np.testing.assert_array_equal(
                    store.get(day).hits, baseline.get(day).hits
                )
