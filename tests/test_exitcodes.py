"""Classified exit codes: the mapping and its end-to-end CLI contract.

Every repro tool must exit with the same code for the same failure
class (0 ok, 1 findings, 2 usage, 3 input, 4 quarantine threshold,
5 internal) so shell drivers and CI can branch on *why* a step failed.
"""

import pytest

from repro.cli import main_census, main_sweep
from repro.runtime.exitcodes import (
    EXIT_FINDINGS,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_QUARANTINE,
    EXIT_USAGE,
    InputError,
    classify_exception,
)
from repro.runtime.pool import PoolTaskError
from repro.runtime.quarantine import QuarantineThresholdError


class TestCodes:
    def test_codes_are_distinct(self):
        codes = [
            EXIT_OK,
            EXIT_FINDINGS,
            EXIT_USAGE,
            EXIT_INPUT,
            EXIT_QUARANTINE,
            EXIT_INTERNAL,
        ]
        assert codes == [0, 1, 2, 3, 4, 5]
        assert len(set(codes)) == len(codes)


class TestClassifyException:
    def test_quarantine_threshold(self):
        assert classify_exception(QuarantineThresholdError("over")) == EXIT_QUARANTINE

    def test_pool_task_error_is_internal(self):
        assert classify_exception(PoolTaskError("pool", 0, "died")) == EXIT_INTERNAL

    def test_input_shapes(self):
        assert classify_exception(InputError("bad flag value")) == EXIT_INPUT
        assert classify_exception(ValueError("bad value")) == EXIT_INPUT
        assert classify_exception(FileNotFoundError("gone")) == EXIT_INPUT

    def test_unknown_is_internal(self):
        assert classify_exception(RuntimeError("surprise")) == EXIT_INTERNAL


class TestCliContract:
    def test_missing_file_exits_input(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main_census([str(tmp_path / "never-written.txt")])
        assert info.value.code == EXIT_INPUT

    def test_quarantine_threshold_exits_4(self, tmp_path, capsys):
        flood = tmp_path / "flood.txt"
        lines = ["# repro aggregated log day=0"]
        lines += [f"2001:db8::{i + 1:x} 1" for i in range(50)]
        lines += [f"not-an-address-{i} 1" for i in range(20)]
        flood.write_text("\n".join(lines) + "\n")
        with pytest.raises(SystemExit) as info:
            main_census(["--errors", "quarantine", str(flood)])
        assert info.value.code == EXIT_QUARANTINE
        # The quarantine summary reaches stderr before the exit.
        assert "quarantine" in capsys.readouterr().err

    def test_quarantine_under_budget_exits_ok(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.txt"
        lines = ["# repro aggregated log day=0"]
        lines += [f"2001:db8::{i + 1:x} 1" for i in range(50)]
        lines += ["one-bad-line 1"]
        dirty.write_text("\n".join(lines) + "\n")
        assert main_census(["--errors", "quarantine", str(dirty)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "Census" in captured.out
        assert "bad-address" in captured.err  # loss was reported, not silent

    def test_bad_errors_value_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main_census(["--errors", "ignore", str(tmp_path / "x.txt")])
        assert info.value.code == EXIT_USAGE

    @pytest.mark.parametrize("tool", [main_census, main_sweep])
    def test_negative_jobs_is_usage_error(self, tool):
        with pytest.raises(SystemExit) as info:
            tool(["--simulate", "0.005", "--jobs", "-1"])
        assert info.value.code == EXIT_USAGE

    def test_strict_corrupt_log_exits_input(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("definitely not a log line\n")
        with pytest.raises(SystemExit) as info:
            main_sweep([str(path)])
        assert info.value.code == EXIT_INPUT
