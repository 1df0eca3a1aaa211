"""Binary columnar cache for parsed day logs.

Text parsing — even the vectorized kind — is the dominant cost of
re-running ``census``/``stability``/``mra`` over the same daily logs.
This module persists each day's parsed result (sorted, deduplicated
``(hi, lo)`` address columns plus summed hit counts) as a structured
``.npy`` file so warm re-runs skip text entirely and load via
``np.load(..., mmap_mode="r")``.

Layout — one pair of files per distinct source-file *content*::

    <cache_dir>/day-<sha256[:24]>.npy        # columns: hi, lo, hits (uint64)
    <cache_dir>/day-<sha256[:24]>.meta.json  # {"version", "sha256", "day", "source", "rows"}

Entries are keyed by the SHA-256 of the source file's bytes, so:

* editing a log file changes its digest and the stale entry simply
  stops matching — stale reuse cannot occur;
* identical files (however named) share one cache entry;
* a corrupted or truncated cache entry fails verification and is
  rebuilt from the text source.

Writes go through a temp file + ``os.replace`` so concurrent loaders
(e.g. ``load_store(jobs=8, cache_dir=...)``) never observe a partial
entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Optional, Tuple

import numpy as np

from repro.data import logfile
from repro.runtime.quarantine import (
    ERRORS_QUARANTINE,
    ERRORS_STRICT,
    QuarantineReport,
    check_errors_mode,
)

#: Bump when the on-disk layout changes; mismatched entries are rebuilt.
CACHE_VERSION = 1

#: Columnar record stored per address: the two 64-bit halves + hit count.
CACHE_DTYPE = np.dtype([("hi", "<u8"), ("lo", "<u8"), ("hits", "<u8")])

_DIGEST_CHARS = 24

#: One parsed day: ``(day, hi, lo, hits)``, sorted and deduplicated.
DayColumns = Tuple[Optional[int], np.ndarray, np.ndarray, np.ndarray]


def content_hash(path: str) -> str:
    """SHA-256 hex digest of a file's bytes (the cache key)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def cache_paths(cache_dir: str, digest: str) -> Tuple[str, str]:
    """The (.npy, .meta.json) paths for a given content digest."""
    stem = os.path.join(cache_dir, f"day-{digest[:_DIGEST_CHARS]}")
    return f"{stem}.npy", f"{stem}.meta.json"


def _atomic_write_bytes(path: str, payload: bytes) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _atomic_save_array(path: str, array: np.ndarray) -> None:
    import io

    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=False)
    _atomic_write_bytes(path, buffer.getvalue())


def _try_load(
    npy_path: str, meta_path: str, digest: str
) -> Tuple[Optional[DayColumns], Optional[str]]:
    """Load a cache entry: ``(payload, corrupt_reason)``.

    ``(payload, None)`` is a hit.  ``(None, None)`` is a clean miss
    (entry absent or keyed to different content) — the ordinary cold
    path.  ``(None, reason)`` means an entry *was* present for this
    digest but failed verification (truncated payload, damaged meta,
    wrong JSON types); the caller rebuilds it from the text source and,
    in quarantine mode, records the recovery.

    Verification is type-checked field by field rather than trusting
    ``json.load``'s output shape: a meta file holding ``[1, 2]`` or
    ``{"rows": "many"}`` is a *corrupt entry to rebuild*, not a
    ``TypeError`` to crash the loader with.
    """
    try:
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
    except FileNotFoundError:
        return None, None
    except (OSError, ValueError, json.JSONDecodeError):
        return None, "unreadable meta"
    if not isinstance(meta, dict):
        return None, f"meta is {type(meta).__name__}, not an object"
    if meta.get("version") != CACHE_VERSION:
        return None, None  # older layout: stale, not corrupt
    if meta.get("sha256") != digest:
        return None, None  # keyed to different content: clean miss
    rows = meta.get("rows")
    if not isinstance(rows, int) or isinstance(rows, bool) or rows < 0:
        return None, f"meta rows field is {rows!r}"
    day = meta.get("day")
    if day is not None and (not isinstance(day, int) or isinstance(day, bool)):
        return None, f"meta day field is {day!r}"
    try:
        array = np.load(npy_path, mmap_mode="r", allow_pickle=False)
    except FileNotFoundError:
        return None, "payload missing"
    except (OSError, ValueError):
        return None, "unreadable payload"
    if array.dtype != CACHE_DTYPE or array.ndim != 1:
        return None, f"payload dtype/shape mismatch ({array.dtype}, ndim={array.ndim})"
    if rows != array.shape[0]:
        return None, f"payload has {array.shape[0]} rows, meta says {rows}"
    return (
        (day, array["hi"], array["lo"], array["hits"]),
        None,
    )


def store_day(
    cache_dir: str,
    digest: str,
    source: str,
    day: Optional[int],
    hi: np.ndarray,
    lo: np.ndarray,
    hits: np.ndarray,
) -> str:
    """Persist one parsed day under its content digest; returns the .npy path."""
    os.makedirs(cache_dir, exist_ok=True)
    npy_path, meta_path = cache_paths(cache_dir, digest)
    record = np.empty(hi.shape[0], dtype=CACHE_DTYPE)
    record["hi"] = hi
    record["lo"] = lo
    record["hits"] = hits
    _atomic_save_array(npy_path, record)
    meta = {
        "version": CACHE_VERSION,
        "sha256": digest,
        "day": None if day is None else int(day),
        "source": os.path.abspath(source),
        "rows": int(record.shape[0]),
    }
    # Meta lands after the array: a reader that sees the meta can trust
    # the array it points at (both replaced atomically).
    _atomic_write_bytes(
        meta_path, json.dumps(meta, sort_keys=True).encode("utf-8")
    )
    return npy_path


def lookup(
    path: str, cache_dir: str
) -> Tuple[str, Optional[DayColumns], Optional[str]]:
    """Probe the cache for one day log: ``(digest, payload, corrupt_reason)``.

    Hashes the file once and verifies its entry (see :func:`_try_load`
    for what ``payload`` and ``corrupt_reason`` mean).  A hit's columns
    are views of the memory-mapped entry.  Raises :class:`OSError` when
    the source file cannot be read.
    """
    digest = content_hash(path)
    npy_path, meta_path = cache_paths(cache_dir, digest)
    payload, corrupt_reason = _try_load(npy_path, meta_path, digest)
    return digest, payload, corrupt_reason


def load_day(
    path: str,
    cache_dir: str,
    errors: str = ERRORS_STRICT,
    report: Optional[QuarantineReport] = None,
) -> DayColumns:
    """Load one day log through the cache.

    On a hit, the columns come straight from the memory-mapped cache
    entry.  On a miss (or a stale/corrupt entry), the text file is
    parsed with the columnar fast path and the result is written back.
    Returns ``(day, hi, lo, hits)`` sorted, deduplicated, and summed —
    identical to :func:`repro.data.logfile.read_daily_log_arrays`.

    With ``errors="quarantine"``: a corrupt cache entry is rebuilt and
    recorded in ``report`` as an info record (recovered, no data loss);
    malformed text lines divert into ``report`` per the logfile reader —
    and a parse that quarantined any line is **not** written back to the
    cache, so a later strict load of the same file can never be served
    silently-cleaned columns from a cache hit.
    """
    check_errors_mode(errors)
    digest, cached, corrupt_reason = lookup(path, cache_dir)
    if cached is not None:
        return cached
    return _parse_on_miss(path, cache_dir, digest, corrupt_reason, errors, report)


def _parse_on_miss(
    path: str,
    cache_dir: str,
    digest: str,
    corrupt_reason: Optional[str],
    errors: str,
    report: Optional[QuarantineReport],
) -> DayColumns:
    """The miss half of :func:`load_day`: parse ``path``, write it back.

    ``digest`` and ``corrupt_reason`` come from a prior :func:`lookup`
    of the same file, so a caller that probed already does not hash the
    file twice.
    """
    quarantine = check_errors_mode(errors) == ERRORS_QUARANTINE
    if quarantine and report is None:
        report = QuarantineReport()
    if quarantine and corrupt_reason is not None:
        assert report is not None
        npy_path, _meta_path = cache_paths(cache_dir, digest)
        report.info(npy_path, "cache-rebuilt", corrupt_reason)
    faults_before = (
        report.line_faults.get(path, 0) if quarantine and report is not None else 0
    )
    day, hi, lo, hits = logfile.read_daily_log_arrays(
        path, errors=errors, report=report
    )
    dirty = (
        quarantine
        and report is not None
        and report.line_faults.get(path, 0) > faults_before
    )
    if not dirty:
        store_day(cache_dir, digest, path, day, hi, lo, hits)
    return day, hi, lo, hits


def prune(cache_dir: str, keep_digests: "set[str]") -> int:
    """Delete cache entries whose digest is not in ``keep_digests``.

    Returns the number of entries removed.  Useful for housekeeping
    after source logs are rewritten; never required for correctness
    (stale entries are unreachable by construction).
    """
    removed = 0
    try:
        names = os.listdir(cache_dir)
    except OSError:
        return 0
    keep_prefixes = {digest[:_DIGEST_CHARS] for digest in keep_digests}
    for name in names:
        if not name.startswith("day-"):
            continue
        stem = name[4:].split(".", 1)[0]
        if stem in keep_prefixes:
            continue
        try:
            os.unlink(os.path.join(cache_dir, name))
            removed += 1
        except OSError:
            pass
    return removed
