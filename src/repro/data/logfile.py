"""Aggregated-log file format: the on-disk form of the paper's input.

One text file per day, one log entry per line::

    <address-presentation-format> <hit-count>

with ``#``-prefixed comment lines (the header records the day number).
This mirrors the paper's aggregated logs — hit counts per client address
per 24-hour period — in a form that sorts and greps well.  The format is
deliberately plain so external datasets (public hitlists, zmap output)
can be converted in with a one-line awk script.

Semantics:

* **Duplicate addresses are merged** by summing their hit counts.  The
  aggregated logs are per-address totals, so two lines for the same
  address mean the aggregator flushed twice; a reader must never count
  the address twice.  :func:`read_daily_log` keeps first-seen order for
  merged entries; :func:`read_daily_log_arrays` returns them sorted.
* **Hit counts are ASCII digits only** (``0-9``) and fit in 64 bits.
  Unicode digits such as ``"٣"`` satisfy ``str.isdigit()`` and convert
  via ``int()``, but are not valid log syntax and raise
  :class:`LogFormatError`.
* **Tokens are separated by space, tab, CR or LF**; lines end at LF.

There is one parser.  Its row stage (:func:`_parse_rows`) is columnar,
in three vectorized stages over the raw bytes: tokenize (token and
newline positions, found once per file), addresses (parsed in place by
the span kernel :func:`repro.net.batchparse.parse_spans`) and hit
counts (one gather per digit column, right to left).
:func:`read_daily_log_arrays` then merges the rows
(:func:`repro.data.store.merge_halves`, which ranks the addresses with
:func:`repro.data.store.address_ids` and sums hits by rank; skipped for
canonical logs); :func:`read_daily_log` merges them in first-seen order
over Python ints.  Only exotic rows (embedded IPv4, counts of
20 or more digits, …) fall back to scalar code.  :func:`load_store` can
additionally reuse the binary columnar cache in
:mod:`repro.data.daycache`, serving hits in the calling process, and
fan the days that still need parsing out across worker processes (days
are independent).

Error handling is two-mode.  ``errors="strict"`` (the default) raises
:class:`LogFormatError` naming a malformed line: the first bad line
shape, else the first bad address, else a bad hit count.
``errors="quarantine"`` diverts each malformed
line (and, in :func:`load_store`, each unreadable day file) into a
structured :class:`repro.runtime.quarantine.QuarantineReport` and keeps
going, with :class:`repro.runtime.quarantine.QuarantinePolicy`
thresholds bounding the tolerated loss — dirty year-long campaigns
degrade gracefully instead of aborting on one bad byte, and the loss is
always reported.  Parallel loading runs under the supervised pool
(:mod:`repro.runtime.pool`): crashed or wedged parse workers are
detected, retried with backoff, and finally re-executed serially.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.store import (
    DailyObservations,
    ObservationStore,
    merge_halves,
    strictly_increasing,
)
from repro.net import addr, batchparse
from repro.runtime.pool import PoolConfig, RunReport, supervised_map
from repro.runtime.quarantine import (
    ERRORS_QUARANTINE,
    ERRORS_STRICT,
    QuarantinePolicy,
    QuarantineReport,
    check_errors_mode,
)


class LogFormatError(ValueError):
    """Raised when a log line cannot be parsed."""


_NEWLINE = 0x0A
_HASH = ord("#")
_ZERO = ord("0")

#: Hit counts of at most this many digits are parsed vectorized; longer
#: ones take the scalar path (and must still fit in uint64).
_MAX_FAST_HIT_DIGITS = 19

_UINT64_MAX = (1 << 64) - 1


def _write_lines(
    path: str, day: int, hi: np.ndarray, lo: np.ndarray, hits: Iterable[int]
) -> None:
    """Write the day header and one ``address hits`` line per row."""
    texts = batchparse.format_batch(hi, lo)
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"# repro aggregated log day={day}\n")
        handle.writelines(f"{text} {int(h)}\n" for text, h in zip(texts, hits))


def write_daily_log(
    path: str,
    day: int,
    entries: Iterable[Tuple[int, int]],
) -> None:
    """Write one day's aggregated log: (address, hits) pairs."""
    pairs = list(entries)
    hi, lo = batchparse.ints_to_halves([address for address, _hits in pairs])
    _write_lines(path, day, hi, lo, [hits for _address, hits in pairs])


def write_daily_log_arrays(
    path: str,
    day: int,
    hi: np.ndarray,
    lo: np.ndarray,
    hits: Optional[np.ndarray] = None,
) -> None:
    """Write one day's log directly from columnar (hi, lo, hits) arrays.

    The output is canonical: addresses are sorted, duplicates merged by
    summing their hit counts.  Readers detect the sorted form and skip
    their own merge pass.
    """
    hi = np.ascontiguousarray(hi, dtype=np.uint64)
    lo = np.ascontiguousarray(lo, dtype=np.uint64)
    counts = np.ones(hi.shape[0], dtype=np.uint64) if hits is None else hits
    hi, lo, merged_hits = merge_halves(hi, lo, counts)
    assert merged_hits is not None
    _write_lines(path, day, hi, lo, merged_hits.tolist())


def _day_from_comment(line: str) -> Optional[int]:
    if "day=" not in line:
        return None
    try:
        return int(line.split("day=", 1)[1].split()[0])
    except (ValueError, IndexError):
        return None


def _error(path: str, line_number: int, message: str) -> LogFormatError:
    return LogFormatError(f"{path}:{line_number}: {message}")


def read_daily_log(
    path: str,
    errors: str = ERRORS_STRICT,
    report: Optional[QuarantineReport] = None,
) -> Tuple[Optional[int], List[Tuple[int, int]]]:
    """Read one day's aggregated log; returns (day, entries).

    The day comes from the header comment when present, else None.
    Duplicate addresses are merged by summing hit counts (first-seen
    order is kept, and sums are Python ints, so they do not wrap at
    2**64).  With ``errors="strict"`` malformed lines raise
    :class:`LogFormatError` with the line number; with
    ``errors="quarantine"`` they are diverted into ``report`` and
    skipped.

    The rows come from the same parser as :func:`read_daily_log_arrays`
    and :func:`load_store`, so the three accept exactly the same lines:
    counts of 2**64 and above are malformed, only space, tab, CR and LF
    separate tokens (a vertical tab or U+00A0 is part of a token), and
    only LF ends a line (a bare CR does not).
    """
    check_errors_mode(errors)
    with open(path, "rb") as handle:
        data = handle.read()
    day, hi, lo, hits = _parse_rows(data, path, errors, report)
    merged: Dict[int, int] = {}
    for value, count in zip(batchparse.halves_to_ints(hi, lo), hits.tolist()):
        merged[value] = merged.get(value, 0) + count
    return day, list(merged.items())


#: ``bytes.translate`` table: 0 for the bytes that separate tokens
#: (space, tab, CR and LF), 1 for every other byte.
_WORD_TABLE = bytes(0 if byte in b" \t\r\n" else 1 for byte in range(256))

#: A parsed day: ``(day, hi, lo, hits)``, sorted and duplicate-free once
#: merged.
_Columns = Tuple[Optional[int], np.ndarray, np.ndarray, np.ndarray]

#: The entry lines of a day log, as the tokenize stage returns them:
#: ``(day, address_starts, address_ends, hit_starts, hit_ends,
#: entry_lines)``, spans into the raw buffer and 1-based line numbers.
_Entries = Tuple[
    Optional[int], np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray
]


def _token_spans(
    data: bytes, newlines: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized tokenizer: (starts, ends, line_index) of all tokens.

    ``data`` is translated to a token/separator mask once, without a
    padded copy.  A token boundary lies at ``i`` when bytes ``i - 1``
    and ``i`` differ in class; a buffer that starts or ends inside a
    token gets its boundary at 0 or ``len(data)``.  Boundaries then
    alternate start, end.  Each buffer-sized mask is dropped before the
    next buffer-sized array is allocated.
    """
    n = len(data)
    if n == 0:
        no_tokens = np.empty(0, dtype=np.int64)
        return no_tokens, no_tokens.copy(), no_tokens.copy()
    word = np.frombuffer(data.translate(_WORD_TABLE), dtype=bool)
    boundary = np.empty(n + 1, dtype=bool)
    boundary[0] = word[0]
    np.not_equal(word[1:], word[:-1], out=boundary[1:n])
    boundary[n] = word[n - 1]
    del word
    edges = np.flatnonzero(boundary)
    del boundary
    starts, ends = edges[0::2], edges[1::2]
    return starts, ends, np.searchsorted(newlines, starts)


def _line_text(raw: np.ndarray, newlines: np.ndarray, line_id: int) -> str:
    """Decode one line of the raw byte buffer (for headers and excerpts)."""
    start = 0 if line_id == 0 else int(newlines[line_id - 1]) + 1
    end = int(newlines[line_id]) if line_id < newlines.shape[0] else raw.shape[0]
    return bytes(raw[start:end]).decode("utf-8", errors="replace").strip()


def _entry_spans(
    data: bytes,
    path: str,
    quarantine: bool,
    report: Optional[QuarantineReport],
) -> _Entries:
    """Tokenize stage: the day header and the spans of every entry line.

    Lines that are not ``address hits`` raise :class:`LogFormatError`,
    or with ``quarantine`` are recorded as ``bad-line-shape`` and
    dropped.  Newline positions are found once and shared by the line
    numbering, the header lookup and the quarantine excerpts.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(raw == _NEWLINE)
    starts, ends, lines = _token_spans(data, newlines)
    no_entries = np.empty(0, dtype=np.int64)
    if starts.shape[0] == 0:
        return (None,) + (no_entries,) * 5

    # `lines` is nondecreasing, so line groups are contiguous runs — no
    # need for np.unique's sort.
    boundary = np.empty(lines.shape[0], dtype=bool)
    boundary[0] = True
    np.not_equal(lines[1:], lines[:-1], out=boundary[1:])
    first_token = np.flatnonzero(boundary)
    line_ids = lines[first_token]
    tokens_per_line = np.diff(np.append(first_token, lines.shape[0]))
    is_comment_line = raw[starts[first_token]] == _HASH

    # Day header: first comment line mentioning day=.
    day: Optional[int] = None
    for line_id in line_ids[is_comment_line]:
        day = _day_from_comment(_line_text(raw, newlines, int(line_id)))
        if day is not None:
            break

    bad_counts = ~is_comment_line & (tokens_per_line != 2)
    if quarantine:
        assert report is not None
        report.note_lines(path, int((~is_comment_line).sum()))
    if bad_counts.any():
        if not quarantine:
            bad_line = int(line_ids[bad_counts][0]) + 1
            raise _error(path, bad_line, "expected 'address hits'")
        assert report is not None
        for line_id in line_ids[bad_counts]:
            report.line_fault(
                path,
                int(line_id) + 1,
                "bad-line-shape",
                _line_text(raw, newlines, int(line_id)),
            )

    keep = np.repeat(~is_comment_line & ~bad_counts, tokens_per_line)
    starts, ends, lines = starts[keep], ends[keep], lines[keep]
    return day, starts[0::2], ends[0::2], starts[1::2], ends[1::2], lines[0::2] + 1


def _address_column(
    raw: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    entry_lines: np.ndarray,
    path: str,
    quarantine: bool,
    report: Optional[QuarantineReport],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Address stage: ``(hi, lo, bad_rows)`` for the address tokens.

    The span kernel parses the tokens in place; the rest go to the
    scalar parser, whose :class:`~repro.net.addr.AddressError` raises
    :class:`LogFormatError` or, with ``quarantine``, marks the row bad.
    """
    hi, lo, fast = batchparse.parse_spans(raw, starts, ends)
    bad_rows = np.zeros(hi.shape[0], dtype=bool)
    for i in np.flatnonzero(~fast):
        token = bytes(raw[starts[i] : ends[i]]).decode("utf-8", errors="replace")
        try:
            value = addr.parse(token)
        except addr.AddressError as exc:
            if not quarantine:
                raise _error(path, int(entry_lines[i]), str(exc)) from exc
            assert report is not None
            report.line_fault(path, int(entry_lines[i]), "bad-address", token)
            bad_rows[i] = True
            continue
        hi[i] = value >> 64
        lo[i] = value & addr.IID_MASK
    return hi, lo, bad_rows


def _hit_column(
    raw: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    entry_lines: np.ndarray,
    bad_rows: np.ndarray,
    path: str,
    quarantine: bool,
    report: Optional[QuarantineReport],
) -> np.ndarray:
    """Hit-count stage: the counts, marking new faults in ``bad_rows``.

    Counts of up to 19 ASCII digits are read one digit column at a time,
    right to left, each column one gather over the rows (no row-by-digit
    matrix); longer ones take the scalar path and must fit in uint64.
    """
    lengths = ends - starts
    slow_hits = lengths > _MAX_FAST_HIT_DIGITS
    # Slow rows read no digit: the scalar path below checks them.
    lengths[slow_hits] = 0
    hits = np.zeros(lengths.shape[0], dtype=np.uint64)
    scaled = np.empty_like(hits)
    bad_digit = np.zeros(lengths.shape[0], dtype=bool)
    for column in range(int(lengths.max())):
        # Digit `column` from the right of every count.  Shorter rows
        # read an earlier byte (clipped at the buffer start), which is
        # zeroed; uint8 wraps, so a non-digit byte maps above 9.
        active = column < lengths
        digit = raw.take(ends - (column + 1), mode="clip")
        digit -= _ZERO
        bad_digit |= active & (digit > 9)
        digit *= active
        # The multiply runs in uint64 on every numpy: under numpy 1.x
        # value-based promotion, `digit * np.uint64(100)` stays uint8.
        np.multiply(digit, np.uint64(10**column), out=scaled, dtype=np.uint64)
        hits += scaled
    faults = dict.fromkeys(np.flatnonzero(bad_digit).tolist(), "bad hit count")
    for i in np.flatnonzero(slow_hits).tolist():
        token = bytes(raw[starts[i] : ends[i]])
        # Leading zeros stripped, a uint64 has at most 20 digits; the
        # length check also keeps int() under its digit limit.
        value = token.lstrip(b"0")
        if not token.isdigit():
            faults[i] = "bad hit count"
        elif len(value) > 20 or int(value or 0) > _UINT64_MAX:
            faults[i] = "hit count exceeds 64 bits:"
        else:
            hits[i] = int(value or 0)
    for i in sorted(faults):
        if bad_rows[i]:
            continue
        token_text = bytes(raw[starts[i] : ends[i]]).decode("utf-8", errors="replace")
        if not quarantine:
            raise _error(path, int(entry_lines[i]), f"{faults[i]} {token_text!r}")
        assert report is not None
        report.line_fault(path, int(entry_lines[i]), "bad-hit-count", token_text)
        bad_rows[i] = True
    return hits


def _parse_rows(
    data: bytes,
    path: str,
    errors: str,
    report: Optional[QuarantineReport],
) -> _Columns:
    """Row stage of a day-log parse: ``(day, hi, lo, hits)`` per entry line.

    Three stages: tokenize (:func:`_entry_spans`), addresses
    (:func:`_address_column`) and hit counts (:func:`_hit_column`).
    With ``errors="quarantine"``, malformed entry lines are recorded in
    ``report`` and dropped instead of raising.  The surviving rows stay
    in file order, duplicates unmerged.
    """
    quarantine = errors == ERRORS_QUARANTINE
    if quarantine and report is None:
        report = QuarantineReport()
    raw = np.frombuffer(data, dtype=np.uint8)
    day, address_starts, address_ends, hit_starts, hit_ends, entry_lines = (
        _entry_spans(data, path, quarantine, report)
    )
    if address_starts.shape[0] == 0:
        no_rows = np.empty(0, dtype=np.uint64)
        return day, no_rows, no_rows.copy(), no_rows.copy()
    hi, lo, bad_rows = _address_column(
        raw, address_starts, address_ends, entry_lines, path, quarantine, report
    )
    hits = _hit_column(
        raw, hit_starts, hit_ends, entry_lines, bad_rows, path, quarantine, report
    )
    if bad_rows.any():
        good = ~bad_rows
        hi, lo, hits = hi[good], lo[good], hits[good]
    return day, hi, lo, hits


def read_daily_log_arrays(
    path: str,
    errors: str = ERRORS_STRICT,
    report: Optional[QuarantineReport] = None,
    data: Optional[bytes] = None,
) -> _Columns:
    """Columnar fast path: read a day log straight into uint64 arrays.

    Returns ``(day, hi, lo, hits)`` with addresses sorted, deduplicated,
    and duplicate hit counts summed — exactly the layout
    :class:`repro.data.store.DailyObservations` holds, so no per-element
    Python work happens anywhere on this path.  ``errors="quarantine"``
    diverts malformed lines into ``report`` instead of raising.
    ``data`` is the file's content when the caller has read it already
    (the day cache parses the bytes it hashed); ``path`` then only
    names the file in errors and reports.
    """
    check_errors_mode(errors)
    if data is None:
        with open(path, "rb") as handle:
            data = handle.read()
    day, hi, lo, hits = _parse_rows(data, path, errors, report)
    # Logs written by save_store are already sorted and unique; detect
    # that with one vectorized pass and skip the O(n log n) merge.
    if strictly_increasing(hi, lo):
        return day, hi, lo, hits
    hi, lo, merged_hits = merge_halves(hi, lo, hits)
    assert merged_hits is not None
    return day, hi, lo, merged_hits


#: A loaded day: (payload or None for a lost day, delta report, and the
#: day-cache digest when the payload is that cache entry).
_DayResult = Tuple[Optional[_Columns], Optional[QuarantineReport], Optional[str]]


def _load_day(path: str, cache_dir: Optional[str], errors: str) -> _DayResult:
    """Load one day as arrays, through the binary cache when enabled.

    Runs in a (possibly forked) pool worker; in quarantine mode every
    fault lands in the returned delta report, which the parent merges —
    including whole-day loss (unreadable file), returned as a ``None``
    payload so the day becomes an explicit gap rather than an abort.
    Threshold enforcement is deliberately left to the parent: a
    threshold breach must abort the *run*, not look like a worker fault
    the supervisor would pointlessly retry.  Through the cache, the
    digest comes from the bytes this worker parses, not from the
    parent's probe, so a file rewritten in between is keyed by what
    was parsed.
    """
    quarantine = errors == ERRORS_QUARANTINE
    delta = QuarantineReport() if quarantine else None
    cached_as: Optional[str] = None
    try:
        if cache_dir is None:
            payload = read_daily_log_arrays(path, errors=errors, report=delta)
        else:
            from repro.data import daycache

            payload, cached_as = daycache._read_through(
                path, cache_dir, errors, delta
            )
    except OSError as exc:
        if not quarantine:
            raise
        assert delta is not None
        delta.day_fault(path, "unreadable-file", str(exc))
        return None, delta, None
    return payload, delta, cached_as


def _probe_cache(
    paths: Sequence[str], cache_dir: Optional[str]
) -> Tuple[Dict[int, _DayResult], Dict[int, str]]:
    """Serve day-cache hits in the parent; list the days left to load.

    Returns ``(served, pending)``, both keyed by path index: the results
    of the hits, and the paths of every other day (misses, corrupt
    entries, and days whose probe raised :class:`OSError`, which the
    worker meets again and handles as it always has).  A hit's columns
    are copied out of the memory-mapped entry here, so no cache mapping
    is alive when the pool forks.
    """
    from repro.data import daycache

    served: Dict[int, _DayResult] = {}
    pending: Dict[int, str] = {}
    for index, path in enumerate(paths):
        if cache_dir is not None:
            try:
                digest, cached = daycache.lookup(path, cache_dir)
            except OSError:
                pass  # the worker meets the same error and handles it
            else:
                if cached is not None:
                    day, hi, lo, hits = cached
                    columns = (day, np.array(hi), np.array(lo), np.array(hits))
                    served[index] = (columns, None, digest)
                    continue
        pending[index] = path
    return served, pending


def save_store(store: ObservationStore, directory: str, prefix: str = "log") -> List[str]:
    """Write every day of a store as ``<prefix>-<day>.txt`` files."""
    os.makedirs(directory, exist_ok=True)
    paths: List[str] = []
    for observations in store.iter_days():
        path = os.path.join(directory, f"{prefix}-{observations.day}.txt")
        write_daily_log_arrays(
            path,
            observations.day,
            observations.addresses["hi"],
            observations.addresses["lo"],
            observations.hits,
        )
        paths.append(path)
    return paths


def load_store(
    paths: Iterable[str],
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    errors: str = ERRORS_STRICT,
    report: Optional[QuarantineReport] = None,
    policy: Optional[QuarantinePolicy] = None,
    report_sink: Optional[List[RunReport]] = None,
) -> ObservationStore:
    """Load daily log files into an observation store.

    Files without a day header take the next integer after the current
    maximum (so ordering of pathnames defines their sequence).

    Args:
        paths: the daily log files, in day order.
        jobs: number of worker processes.  ``None`` or 1 loads serially;
            0 uses all CPUs; negative raises ``ValueError``.  Days are
            independent, so the parse work fans out cleanly under the
            supervised pool (crashed/wedged workers are retried, then
            re-run serially).
        cache_dir: when given, each file's parsed columns are persisted
            in (and reused from) a binary columnar cache keyed by the
            file's content hash — see :mod:`repro.data.daycache`.  Hits
            are served in this process; only misses and corrupt entries
            become pool tasks.  Every day whose columns are a cache
            entry (a hit, or a miss written back) carries its digest as
            ``cache_tag``, and the store carries ``cache_dir``, so the
            sweep can keep its address ids beside the day entries.
        errors: ``"strict"`` (default) raises on the first malformed
            line or unreadable file; ``"quarantine"`` diverts faults
            into ``report`` — malformed lines are dropped, unreadable
            days become explicit gaps, duplicate day numbers merge with
            an info record.
        report: quarantine sink; a fresh one is created when omitted.
        policy: loss budgets enforced in quarantine mode (defaults to
            :class:`QuarantinePolicy`); raises
            :class:`repro.runtime.quarantine.QuarantineThresholdError`
            when exceeded.
        report_sink: when given, receives the pool's
            :class:`repro.runtime.pool.RunReport` — with ``tasks=0``
            when every day was a cache hit.
    """
    quarantine = check_errors_mode(errors) == ERRORS_QUARANTINE
    if quarantine and report is None:
        report = QuarantineReport()
    if quarantine and policy is None:
        policy = QuarantinePolicy()
    path_list = [os.fspath(p) for p in paths]
    outcomes, pending = _probe_cache(path_list, cache_dir)
    pooled = supervised_map(
        lambda path: _load_day(path, cache_dir, errors),
        list(pending.values()),
        jobs=jobs,
        config=PoolConfig(label="load-store"),
        report_sink=report_sink,
    )
    outcomes.update(zip(pending, pooled))
    store = ObservationStore()
    store.cache_dir = cache_dir
    next_day = 0
    for index, path in enumerate(path_list):
        payload, delta, cached_as = outcomes.pop(index)
        if quarantine and delta is not None:
            assert report is not None
            report.merge(delta)
        if payload is None:
            continue  # lost day: explicit gap, already in the report
        day, hi, lo, hits = payload
        if day is None:
            day = next_day
        if quarantine and day in store:
            assert report is not None
            report.info(
                path, "duplicate-day", f"day {day} already loaded; replacing"
            )
        observations = DailyObservations.from_halves(day, hi, lo, hits, merged=True)
        if cached_as is not None:
            observations.cache_tag = (cached_as, 128)
        store.add_observations(observations)
        next_day = day + 1
    if quarantine:
        assert report is not None and policy is not None
        for path in path_list:
            report.enforce_day(path, policy)
        report.enforce_run(policy, len(path_list))
    return store
