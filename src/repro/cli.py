"""Command-line interface.

Four tools mirror the paper's workflow, operating on aggregated daily log
files (``address hits`` lines; see :mod:`repro.data.logfile`):

* ``repro-census LOG...`` — Table-1-style characteristics of the union of
  the given logs.
* ``repro-stability --reference DAY LOG...`` — nd-stable classification
  of the reference day within its sliding window.
* ``repro-sweep LOG...`` — nd-stable classification of *every* day in
  one pass of the incremental sweep engine (``--jobs`` parallelism,
  ``--prefix-len`` granularity).
* ``repro-mra LOG...`` — the MRA plot of the logs' union, as an ASCII
  chart plus the numeric ratio rows.
* ``repro-dense --density n@/p LOG...`` — the dense prefixes of the
  union, with the Table-3 accounting columns.
* ``repro-spatial LOG...`` — spatial profile of *every* day via the
  array-native spatial engine (``--jobs`` parallelism, ``--cull`` to
  scope to native addresses, repeatable ``--density`` classes).
* ``repro-faultcheck`` — deterministic fault-injection gauntlet: inject
  every modeled failure (corrupt lines, truncated cache, dropped days,
  killed workers, mid-sweep SIGKILL) and verify the pipeline classifies,
  retries, or resumes each one.

Every tool accepts ``--simulate SCALE`` instead of log files to run
against freshly generated simulator data, so the CLI is usable with zero
inputs; ``--errors quarantine`` switches ingestion from fail-fast to
bounded, reported quarantine of malformed inputs.

Exit codes are classified uniformly (see
:mod:`repro.runtime.exitcodes`): 0 success, 1 findings (repro-lint),
2 usage, 3 input error, 4 quarantine threshold exceeded, 5 internal
fault.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.analysis.tables import count_with_share, percent, render_table, si_count
import importlib

# The package namespace re-exports a function named `census`, shadowing the
# same-named submodule in `import a.b as x` syntax, so resolve the modules
# through importlib, which always returns the module object.
census_mod = importlib.import_module("repro.core.census")
density_mod = importlib.import_module("repro.core.density")
temporal_mod = importlib.import_module("repro.core.temporal")
sweep_mod = importlib.import_module("repro.core.sweep")
spatial_mod = importlib.import_module("repro.core.spatial")
from repro.data import logfile, store as obstore
from repro.runtime.exitcodes import (
    EXIT_INTERNAL,
    EXIT_OK,
    InputError,
    classify_exception,
)
from repro.runtime.quarantine import (
    ERRORS_QUARANTINE,
    ERRORS_STRICT,
    QuarantineReport,
)
from repro.viz.mra_plot import mra_plot


def _load_store(args: argparse.Namespace) -> obstore.ObservationStore:
    """Load logs from files or generate a simulated store."""
    if getattr(args, "simulate", None) is not None:
        from repro.sim import EPOCH_2015_03, InternetConfig, build_internet

        internet = build_internet(
            seed=args.seed, config=InternetConfig(scale=args.simulate)
        )
        days = range(EPOCH_2015_03 - 8, EPOCH_2015_03 + 8)
        return internet.build_store(days)
    if not args.logs:
        raise InputError("no log files given (or use --simulate SCALE)")
    errors = getattr(args, "errors", ERRORS_STRICT)
    report: Optional[QuarantineReport] = None
    if errors == ERRORS_QUARANTINE:
        report = QuarantineReport()
    try:
        store = logfile.load_store(
            args.logs,
            jobs=getattr(args, "jobs", None),
            cache_dir=getattr(args, "cache_dir", None),
            errors=errors,
            report=report,
        )
    finally:
        # The quarantine account is part of the result even when the
        # budget aborts the run: print whatever was diverted.
        if report is not None and not report.is_empty():
            print(report.summary(), file=sys.stderr)
    return store


def _pipe_safe(
    tool: Callable[[Optional[Sequence[str]]], int]
) -> Callable[[Optional[Sequence[str]]], int]:
    """Make a CLI entry point exit cleanly when its stdout pipe closes.

    ``repro-census ... | head`` should not traceback: a closed pipe is
    the downstream consumer saying "enough".
    """
    import functools

    @functools.wraps(tool)
    def wrapper(argv: Optional[Sequence[str]] = None) -> int:
        try:
            return tool(argv)
        except BrokenPipeError:
            try:
                sys.stdout.close()
            except Exception:  # repro-lint: ignore[R007]
                pass
            return 0

    return wrapper


def _classified(
    tool: Callable[[Optional[Sequence[str]]], int]
) -> Callable[[Optional[Sequence[str]]], int]:
    """Map a tool's exceptions to the classified exit codes.

    Input problems exit 3, quarantine budget aborts exit 4, pool/internal
    faults exit 5 — with a one-line diagnosis on stderr instead of a
    traceback (set ``REPRO_DEBUG=1`` to see the traceback).  ``SystemExit``
    (argparse usage errors: 2) and ``BrokenPipeError`` (handled by
    :func:`_pipe_safe`) pass through untouched.
    """
    import functools

    @functools.wraps(tool)
    def wrapper(argv: Optional[Sequence[str]] = None) -> int:
        try:
            return tool(argv)
        except (SystemExit, BrokenPipeError, KeyboardInterrupt):
            raise
        except BaseException as exc:
            if os.environ.get("REPRO_DEBUG"):
                raise
            code = classify_exception(exc)
            print(
                f"{tool.__name__.replace('main_', 'repro-')}: error: {exc}",
                file=sys.stderr,
            )
            raise SystemExit(code) from exc

    return wrapper


def _job_count(text: str) -> int:
    """``--jobs`` value: a worker count, or 0 for all CPUs."""
    if not text.isdigit():  # negatives and non-integers alike
        raise argparse.ArgumentTypeError(f"expected a count >= 0, got {text!r}")
    return int(text)


def _common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("logs", nargs="*", help="aggregated daily log files")
    parser.add_argument(
        "--simulate",
        type=float,
        default=None,
        metavar="SCALE",
        help="generate simulator data at this scale instead of reading logs",
    )
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument(
        "--jobs",
        type=_job_count,
        default=None,
        metavar="N",
        help="load log files with N worker processes (0 = all CPUs)",
    )
    parser.add_argument(
        "--cache-dir",
        default=os.environ.get("REPRO_CACHE_DIR"),
        metavar="DIR",
        help=(
            "binary columnar day-log cache directory; warm runs skip text "
            "parsing (default: $REPRO_CACHE_DIR)"
        ),
    )
    parser.add_argument(
        "--errors",
        choices=(ERRORS_STRICT, ERRORS_QUARANTINE),
        default=ERRORS_STRICT,
        help=(
            "strict (default): abort on the first malformed line; "
            "quarantine: divert malformed lines and unreadable days into "
            "a reported quarantine, bounded by loss budgets (exit 4 when "
            "exceeded)"
        ),
    )


@_pipe_safe
@_classified
def main_census(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-census``."""
    parser = argparse.ArgumentParser(
        prog="repro-census",
        description="Table-1-style characteristics of aggregated logs.",
    )
    _common_arguments(parser)
    args = parser.parse_args(argv)
    store = _load_store(args)
    union = store.union_over(store.days())
    row = census_mod.census(union, period_name="all days")
    print(
        render_table(
            ["characteristic", "value"],
            [
                ["Teredo addresses", count_with_share(row.teredo, row.total)],
                ["ISATAP addresses", count_with_share(row.isatap, row.total)],
                ["6to4 addresses", count_with_share(row.sixto4, row.total)],
                ["Other addresses", count_with_share(row.other, row.total)],
                ["Other /64 prefixes", si_count(row.other_64s)],
                ["ave. addrs per /64", f"{row.avg_addrs_per_64:.2f}"],
                ["EUI-64 addr (!6to4)", count_with_share(row.eui64_not_6to4, row.total)],
                ["EUI-64 IIDs (MACs)", si_count(row.eui64_distinct_macs)],
            ],
            title=f"Census of {row.period_name}: {si_count(row.total)} addresses",
        )
    )
    return 0


@_pipe_safe
@_classified
def main_stability(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-stability``."""
    parser = argparse.ArgumentParser(
        prog="repro-stability",
        description="nd-stable classification of a reference day.",
    )
    _common_arguments(parser)
    parser.add_argument(
        "--reference", type=int, default=None, help="reference day number"
    )
    parser.add_argument("-n", type=int, default=3, help="stability gap in days")
    parser.add_argument("--window", type=int, default=7, help="window half-span")
    args = parser.parse_args(argv)
    store = _load_store(args)
    days = store.days()
    if not days:
        raise InputError("store is empty")
    reference = args.reference if args.reference is not None else days[len(days) // 2]
    result = temporal_mod.classify_day(store, reference, args.window, args.window)
    stable = result.stable_count(args.n)
    print(
        render_table(
            ["class", "count"],
            [
                [f"{args.n}d-stable", count_with_share(stable, result.active_count)],
                [
                    f"not {args.n}d-stable",
                    count_with_share(
                        result.active_count - stable, result.active_count
                    ),
                ],
            ],
            title=(
                f"Stability of day {reference} "
                f"(-{args.window}d,+{args.window}d): "
                f"{si_count(result.active_count)} active"
            ),
        )
    )
    return 0


@_pipe_safe
@_classified
def main_sweep(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-sweep``: classify every day in one pass."""
    parser = argparse.ArgumentParser(
        prog="repro-sweep",
        description=(
            "Sliding-window nd-stable classification of every day of the "
            "logs via the incremental sweep engine."
        ),
    )
    _common_arguments(parser)
    parser.add_argument("-n", type=int, default=3, help="stability gap in days")
    parser.add_argument("--window", type=int, default=7, help="window half-span")
    parser.add_argument(
        "--prefix-len",
        type=int,
        default=128,
        metavar="P",
        help="truncate addresses to /P prefixes before sweeping (e.g. 64)",
    )
    parser.add_argument(
        "--chunk-days",
        type=int,
        default=sweep_mod.DEFAULT_CHUNK_DAYS,
        metavar="D",
        help=(
            "at most D reference days per sweep chunk (memory/parallelism "
            f"unit); a chunk's window spans at most {sweep_mod.WORD_DAYS} days"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help=(
            "persist each completed sweep chunk atomically to DIR; a "
            "killed run re-invoked with the same inputs and flags "
            "resumes from its last checkpoint, bit-identical to an "
            "uninterrupted run"
        ),
    )
    args = parser.parse_args(argv)
    store = _load_store(args)
    if not 0 <= args.prefix_len <= 128:
        raise InputError(f"bad --prefix-len {args.prefix_len}: not in 0..128")
    if args.prefix_len < 128:
        store = store.truncated(args.prefix_len)
    results = sweep_mod.sweep_days(
        store,
        window_before=args.window,
        window_after=args.window,
        jobs=args.jobs,
        chunk_days=args.chunk_days,
        checkpoint_dir=args.checkpoint_dir,
    )
    rows: List[List[str]] = []
    total_active = 0
    total_stable = 0
    for result in results:
        stable = result.stable_count(args.n)
        total_active += result.active_count
        total_stable += stable
        rows.append(
            [
                str(result.reference_day),
                si_count(result.active_count),
                count_with_share(stable, result.active_count),
            ]
        )
    granularity = "addresses" if args.prefix_len == 128 else f"/{args.prefix_len}s"
    print(
        render_table(
            ["day", "active", f"{args.n}d-stable"],
            rows,
            title=(
                f"Sweep of {len(results)} days ({granularity}, "
                f"-{args.window}d,+{args.window}d)"
            ),
        )
    )
    print()
    print(
        f"total: {count_with_share(total_stable, total_active)} of "
        f"{si_count(total_active)} active address-days are "
        f"{args.n}d-stable"
    )
    return 0


@_pipe_safe
@_classified
def main_mra(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-mra``."""
    parser = argparse.ArgumentParser(
        prog="repro-mra",
        description="MRA plot of the union of aggregated logs.",
    )
    _common_arguments(parser)
    parser.add_argument("--title", default="MRA plot", help="chart title")
    args = parser.parse_args(argv)
    store = _load_store(args)
    union = store.union_over(store.days())
    plot = mra_plot(union, title=args.title)
    print(plot.render_ascii())
    print()
    print(
        render_table(
            ["p", "16-bit", "4-bit", "1-bit"],
            [
                [str(p), f"{r16:.3g}", f"{r4:.3g}", f"{r1:.3g}"]
                for p, r16, r4, r1 in plot.rows()
            ],
        )
    )
    return 0


@_pipe_safe
@_classified
def main_dense(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-dense``."""
    parser = argparse.ArgumentParser(
        prog="repro-dense",
        description="Dense-prefix (n@/p) classification of aggregated logs.",
    )
    _common_arguments(parser)
    parser.add_argument(
        "--density",
        default="2@/112",
        help="density class, e.g. 2@/112",
    )
    parser.add_argument(
        "--show",
        type=int,
        default=0,
        metavar="N",
        help="also print the first N dense prefixes",
    )
    args = parser.parse_args(argv)
    try:
        n_text, _, p_text = args.density.partition("@/")
        density_class = density_mod.DensityClass(int(n_text), int(p_text))
    except (ValueError, TypeError) as exc:
        raise InputError(f"bad --density {args.density!r}: {exc}") from exc
    store = _load_store(args)
    union = store.union_over(store.days())
    result = density_mod.find_dense(union, density_class)
    print(
        render_table(
            ["metric", "value"],
            [
                ["density class", density_class.label],
                ["dense prefixes", si_count(result.num_prefixes)],
                ["contained addresses", si_count(result.contained_addresses)],
                ["possible addresses", si_count(result.possible_addresses)],
                ["address density", f"{result.address_density:.10f}"],
            ],
        )
    )
    if args.show and result.prefixes:
        from repro.net.prefix import Prefix

        print()
        for network, length, count in result.prefixes[: args.show]:
            print(f"  {Prefix(network, length)}  ({count} addrs)")
    return 0


@_pipe_safe
@_classified
def main_spatial(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-spatial``: per-day spatial profiles."""
    parser = argparse.ArgumentParser(
        prog="repro-spatial",
        description=(
            "Spatial profile of every day of the logs — MRA aggregate "
            "counts and dense-prefix (n@/p) classes — via the "
            "array-native spatial engine."
        ),
    )
    _common_arguments(parser)
    parser.add_argument(
        "--density",
        action="append",
        default=None,
        metavar="n@/p",
        help="density class to profile, e.g. 2@/112 (repeatable; "
        "default: 2@/112 and 2@/120)",
    )
    parser.add_argument(
        "--cull",
        action="store_true",
        help="profile only native (\"Other\") addresses, as in the paper",
    )
    args = parser.parse_args(argv)
    specs = args.density if args.density else ["2@/112", "2@/120"]
    classes: List[Any] = []
    for spec in specs:
        try:
            n_text, _, p_text = spec.partition("@/")
            classes.append(density_mod.DensityClass(int(n_text), int(p_text)))
        except (ValueError, TypeError) as exc:
            raise InputError(f"bad --density {spec!r}: {exc}") from exc
    store = _load_store(args)
    results = spatial_mod.sweep_spatial(
        store, classes=classes, jobs=args.jobs, cull=args.cull
    )
    header = ["day", "addrs", "/64s"] + [
        f"{cls.label} pfx (addrs)" for cls in classes
    ]
    rows: List[List[str]] = []
    for result in results:
        sixty_fours = int(result.mra_counts[64]) if result.mra_counts is not None else 0
        row = [str(result.day), si_count(result.total), si_count(sixty_fours)]
        for summary in result.dense:
            row.append(
                f"{si_count(summary.num_prefixes)} "
                f"({count_with_share(summary.contained_addresses, result.total)})"
            )
        rows.append(row)
    scope = "native (Other) addresses" if args.cull else "all addresses"
    print(
        render_table(
            header,
            rows,
            title=f"Spatial sweep of {len(results)} days ({scope})",
        )
    )
    return 0


@_pipe_safe
@_classified
def main_stableprefix(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-stableprefix`` (§7.2 plan discovery)."""
    parser = argparse.ArgumentParser(
        prog="repro-stableprefix",
        description="Longest-stable-prefix discovery across daily logs.",
    )
    _common_arguments(parser)
    parser.add_argument("-n", type=int, default=3, help="stability gap in days")
    parser.add_argument(
        "--min-days", type=int, default=2,
        help="distinct observation days required per prefix",
    )
    args = parser.parse_args(argv)
    store = _load_store(args)
    from repro.core.stableprefix import longest_stable_prefixes

    result = longest_stable_prefixes(store, n=args.n, min_days=args.min_days)
    histogram = result.by_length()
    print(
        render_table(
            ["prefix length", "longest stable prefixes"],
            [[f"/{length}", str(count)] for length, count in sorted(histogram.items())],
            title=(
                f"Longest stable prefixes over days "
                f"{store.days()[0]}..{store.days()[-1]} "
                f"(n={args.n}, min_days={args.min_days})"
            ),
        )
    )
    print()
    print(f"dominant boundary: /{result.dominant_length()}")
    return 0


@_pipe_safe
@_classified
def main_simulate(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-simulate``: write simulated daily logs."""
    parser = argparse.ArgumentParser(
        prog="repro-simulate",
        description="Generate simulated daily aggregated logs to a directory.",
    )
    parser.add_argument("directory", help="output directory for log files")
    parser.add_argument("--scale", type=float, default=0.1, help="population scale")
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument("--days", type=int, default=16, help="number of days")
    parser.add_argument(
        "--start",
        type=int,
        default=None,
        help="first day number (default: 8 days before the 2015 epoch)",
    )
    args = parser.parse_args(argv)
    from repro.sim import EPOCH_2015_03, InternetConfig, build_internet

    start = args.start if args.start is not None else EPOCH_2015_03 - 8
    internet = build_internet(seed=args.seed, config=InternetConfig(scale=args.scale))
    store = internet.build_store(range(start, start + args.days))
    paths = logfile.save_store(store, args.directory)
    total = sum(len(store.get(day)) for day in store.days())
    print(
        f"wrote {len(paths)} daily logs ({si_count(total)} address-days) "
        f"to {args.directory}"
    )
    return 0


#: Sweep parameters shared by the faultcheck kill-and-resume child and
#: its parent (the checkpoint signature must match across processes).
_FAULTCHECK_WINDOW = 3
_FAULTCHECK_CHUNK_DAYS = 3


def _faultcheck_logs(directory: str) -> List[str]:
    """The faultcheck campaign's day logs, in day order."""
    import glob

    return sorted(
        glob.glob(os.path.join(directory, "log-*.txt")),
        key=lambda p: int(os.path.basename(p)[4:-4]),
    )


def _faultcheck_sweep_child(log_dir: str, checkpoint_dir: str) -> int:
    """Child body for the kill-and-resume scenario: sweep with checkpoints.

    The parent arms ``REPRO_FAULT_KILL_AFTER_CHECKPOINTS`` so this
    process dies by SIGKILL partway through; a surviving run prints a
    digest line instead (useful when invoked by hand).
    """
    store = logfile.load_store(_faultcheck_logs(log_dir))
    results = sweep_mod.sweep_days(
        store,
        window_before=_FAULTCHECK_WINDOW,
        window_after=_FAULTCHECK_WINDOW,
        jobs=2,
        chunk_days=_FAULTCHECK_CHUNK_DAYS,
        checkpoint_dir=checkpoint_dir,
    )
    print(f"child swept {len(results)} day(s) uninterrupted")
    return EXIT_OK


def _stores_equal(a: obstore.ObservationStore, b: obstore.ObservationStore) -> bool:
    import numpy as np

    if a.days() != b.days():
        return False
    return all(np.array_equal(a.array(day), b.array(day)) for day in a.days())


@_pipe_safe
@_classified
def main_faultcheck(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-faultcheck``: the fault-injection gauntlet.

    Builds a small deterministic campaign, injects every modeled fault
    (:mod:`repro.sim.faults`), and verifies each one ends *classified*,
    *retried*, or *resumed* — never hung, never silently wrong.  Exit 0
    when every scenario holds, 5 otherwise.
    """
    import shutil
    import subprocess
    import tempfile

    import numpy as np

    from repro.runtime.checkpoint import KILL_AFTER_CHECKPOINTS_ENV
    from repro.runtime.pool import RunReport
    from repro.runtime.quarantine import (
        QuarantinePolicy,
        QuarantineThresholdError,
    )
    from repro.sim.faults import FAULT_ENV, FaultPlan

    parser = argparse.ArgumentParser(
        prog="repro-faultcheck",
        description=(
            "Deterministic fault-injection gauntlet for the resilience "
            "layer: corrupt lines, truncated cache entries, dropped "
            "days, killed workers, and a SIGKILL mid-sweep, each "
            "verified to end classified, retried, or resumed."
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="fault-plan seed")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller campaign and fewer workers (CI-friendly)",
    )
    parser.add_argument(
        "--keep",
        metavar="DIR",
        default=None,
        help="run inside DIR and keep its artifacts for inspection",
    )
    parser.add_argument(
        "--child-sweep",
        nargs=2,
        metavar=("LOGDIR", "CKDIR"),
        default=None,
        help=argparse.SUPPRESS,  # internal: kill-and-resume child body
    )
    args = parser.parse_args(argv)
    if args.child_sweep is not None:
        return _faultcheck_sweep_child(*args.child_sweep)

    from repro.sim import EPOCH_2015_03, InternetConfig, build_internet

    root = args.keep or tempfile.mkdtemp(prefix="repro-faultcheck-")
    os.makedirs(root, exist_ok=True)
    scale = 0.01 if args.quick else 0.02
    n_days = 8 if args.quick else 12
    jobs = 2 if args.quick else 4
    plan = FaultPlan(
        seed=args.seed,
        corrupt_line_rate=0.05,
        truncate_cache_rate=0.6,
        drop_day_rate=0.3,
        kill_worker_rate=0.9,
    )
    internet = build_internet(seed=args.seed, config=InternetConfig(scale=scale))
    start = EPOCH_2015_03 - n_days // 2
    store = internet.build_store(range(start, start + n_days))
    pristine_dir = os.path.join(root, "pristine")
    logfile.save_store(store, pristine_dir)
    baseline = logfile.load_store(_faultcheck_logs(pristine_dir))
    outcomes: List[Tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str) -> None:
        outcomes.append((name, ok, detail))
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")

    # -- scenario 1: corrupt log lines -> classified quarantine ------------
    dirty_dir = os.path.join(root, "corrupt")
    shutil.copytree(pristine_dir, dirty_dir, dirs_exist_ok=True)
    dirty_logs = _faultcheck_logs(dirty_dir)
    events = plan.corrupt_logs(dirty_logs)
    strict_raised = False
    try:
        logfile.load_store(dirty_logs)
    except logfile.LogFormatError:
        strict_raised = True
    report = QuarantineReport()
    quarantined = logfile.load_store(
        dirty_logs,
        jobs=jobs,
        errors=ERRORS_QUARANTINE,
        report=report,
        policy=QuarantinePolicy(max_line_fraction=0.5, line_grace=0),
    )
    accounted = report.total_line_faults == len(events)
    check(
        "corrupt-lines",
        strict_raised and accounted and len(quarantined) == n_days,
        f"{len(events)} injected, {report.total_line_faults} quarantined, "
        f"strict {'aborted' if strict_raised else 'DID NOT abort'}",
    )

    # -- scenario 2: loss over budget -> threshold abort -------------------
    flood_path = os.path.join(root, "flood.txt")
    with open(flood_path, "w", encoding="ascii") as handle:
        handle.write("# repro aggregated log day=0\n")
        for i in range(50):
            handle.write(f"2001:db8::{i:x} 1\n")
        for i in range(20):
            handle.write(f"not-an-address-{i} 1\n")
    aborted = False
    try:
        logfile.load_store([flood_path], errors=ERRORS_QUARANTINE)
    except QuarantineThresholdError:
        aborted = True
    check(
        "loss-over-budget",
        aborted,
        "20/70 bad lines " + ("tripped the budget" if aborted else "went unnoticed"),
    )

    # -- scenario 3: truncated cache entries -> rebuilt, identical ---------
    cache_dir = os.path.join(root, "cache")
    cached = logfile.load_store(_faultcheck_logs(pristine_dir), cache_dir=cache_dir)
    truncated = plan.truncate_cache(cache_dir)
    rebuilt = logfile.load_store(_faultcheck_logs(pristine_dir), cache_dir=cache_dir)
    check(
        "cache-truncation",
        bool(truncated)
        and _stores_equal(cached, baseline)
        and _stores_equal(rebuilt, baseline),
        f"{len(truncated)} entr{'y' if len(truncated) == 1 else 'ies'} "
        "truncated, reload bit-identical",
    )

    # -- scenario 4: dropped days -> explicit gaps -------------------------
    drop_dir = os.path.join(root, "dropped")
    shutil.copytree(pristine_dir, drop_dir, dirs_exist_ok=True)
    drop_logs = _faultcheck_logs(drop_dir)
    drops = plan.drop_days(drop_logs)
    drop_report = QuarantineReport()
    gapped = logfile.load_store(
        drop_logs,
        errors=ERRORS_QUARANTINE,
        report=drop_report,
        policy=QuarantinePolicy(max_day_fraction=1.0),
    )
    plan.restore_days(drops)
    check(
        "dropped-days",
        bool(drops)
        and drop_report.total_day_faults == len(drops)
        and len(gapped) == n_days - len(drops),
        f"{len(drops)} day(s) dropped, {drop_report.total_day_faults} "
        f"classified as gaps, {len(gapped)} day(s) loaded",
    )

    # -- scenario 5: killed workers -> retried, identical ------------------
    sink: List[RunReport] = []
    previous = os.environ.get(FAULT_ENV)
    os.environ.update(plan.worker_env())
    try:
        survived = logfile.load_store(
            _faultcheck_logs(pristine_dir), jobs=jobs, report_sink=sink
        )
    finally:
        if previous is None:
            os.environ.pop(FAULT_ENV, None)
        else:
            os.environ[FAULT_ENV] = previous
    pool_report = sink[0] if sink else RunReport(label="load-store", tasks=0)
    recovered = pool_report.crashes > 0 and _stores_equal(survived, baseline)
    check(
        "killed-workers",
        recovered,
        pool_report.summary() + ", result bit-identical",
    )

    # -- scenario 6: SIGKILL mid-sweep -> checkpoint resume ----------------
    ck_dir = os.path.join(root, "checkpoints")
    env = dict(os.environ)
    env[KILL_AFTER_CHECKPOINTS_ENV] = "1"
    env.pop(FAULT_ENV, None)
    child = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "faultcheck",
            "--child-sweep",
            pristine_dir,
            ck_dir,
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    partial = (
        len([n for n in os.listdir(ck_dir) if n.endswith(".npz")])
        if os.path.isdir(ck_dir)
        else 0
    )
    resumed = sweep_mod.sweep_days(
        baseline,
        window_before=_FAULTCHECK_WINDOW,
        window_after=_FAULTCHECK_WINDOW,
        jobs=2,
        chunk_days=_FAULTCHECK_CHUNK_DAYS,
        checkpoint_dir=ck_dir,
    )
    uninterrupted = sweep_mod.sweep_days(
        baseline,
        window_before=_FAULTCHECK_WINDOW,
        window_after=_FAULTCHECK_WINDOW,
        chunk_days=_FAULTCHECK_CHUNK_DAYS,
    )
    identical = len(resumed) == len(uninterrupted) and all(
        np.array_equal(a.active, b.active) and np.array_equal(a.gaps, b.gaps)
        for a, b in zip(resumed, uninterrupted)
    )
    check(
        "kill-and-resume",
        child.returncode != 0 and partial >= 1 and identical,
        f"child exit {child.returncode}, {partial} chunk(s) checkpointed "
        "before the kill, resumed sweep bit-identical",
    )

    failures = [name for name, ok, _detail in outcomes if not ok]
    print()
    if failures:
        print(f"repro-faultcheck: {len(failures)} scenario(s) FAILED: "
              + ", ".join(failures))
        return EXIT_INTERNAL
    where = f", artifacts kept in {root}" if args.keep else ""
    print(
        f"repro-faultcheck: all {len(outcomes)} scenario(s) passed "
        f"(seed {args.seed}{where})"
    )
    if args.keep is None:
        shutil.rmtree(root, ignore_errors=True)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Dispatch ``python -m repro.cli <tool> ...``."""
    tools = {
        "census": main_census,
        "stability": main_stability,
        "sweep": main_sweep,
        "mra": main_mra,
        "dense": main_dense,
        "spatial": main_spatial,
        "stableprefix": main_stableprefix,
        "simulate": main_simulate,
        "faultcheck": main_faultcheck,
    }
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in tools:
        print(f"usage: repro.cli {{{','.join(tools)}}} ...", file=sys.stderr)
        return 2
    return tools[argv[0]](argv[1:])


if __name__ == "__main__":
    sys.exit(main())
