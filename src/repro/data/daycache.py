"""Binary columnar cache for parsed day logs.

Text parsing — even the vectorized kind — is the dominant cost of
re-running ``census``/``stability``/``mra`` over the same daily logs.
This module persists each day's parsed result (sorted, deduplicated
``(hi, lo)`` address columns plus summed hit counts) as a structured
``.npy`` file so warm re-runs skip text entirely and load via
``np.load(..., mmap_mode="r")``.

Layout — one pair of files per distinct source-file *content*, and one
pair per swept chunk window::

    <cache_dir>/day-<sha256[:24]>.npy        # columns: hi, lo, hits (uint64)
    <cache_dir>/day-<sha256[:24]>.meta.json  # {"version", "sha256", "day", "source", "rows"}
    <cache_dir>/ids-<key[:24]>.npy           # int32 dense address id per window row
    <cache_dir>/ids-<key[:24]>.meta.json     # {"version", "key", "rows", "count",
                                             #  "sha256", "digests"}

Day entries are keyed by the SHA-256 of the source file's bytes, so:

* editing a log file changes its digest and the stale entry simply
  stops matching — stale reuse cannot occur;
* identical files (however named) share one cache entry;
* a corrupted or truncated cache entry fails verification and is
  rebuilt from the text source.

Ids entries hold the sweep's dense address ids of one chunk window
(:func:`repro.core.sweep._sweep_chunk`), the window days' rows
concatenated in day order.  They are a pure function of the window
days' payloads and the prefix length, so their key (:func:`ids_key`)
hashes exactly those: the ordered ``(day, digest)`` pairs of the day
entries, the prefix length, and both format versions.  The meta
records the payload's SHA-256; an entry that fails any check is
recomputed and rewritten, never trusted.  :func:`prune` drops an ids
entry once any day entry it was built from is dropped.

Writes go through a temp file + ``os.replace``
(:func:`repro.runtime.atomicio.atomic_write_bytes`) so concurrent
loaders (e.g. ``load_store(jobs=8, cache_dir=...)``) never observe a
partial entry.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.data import logfile
from repro.runtime.atomicio import atomic_write_bytes
from repro.runtime.quarantine import (
    ERRORS_QUARANTINE,
    ERRORS_STRICT,
    QuarantineReport,
    check_errors_mode,
)

#: Bump when the on-disk layout changes; mismatched entries are rebuilt.
CACHE_VERSION = 1

#: Bump when the ids entry layout changes; it is part of every ids key.
IDS_VERSION = 1

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


def _npy_bytes(array: np.ndarray) -> bytes:
    """``array`` serialized in the ``.npy`` format."""
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=False)
    return buffer.getvalue()


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
    atomic_write_bytes(npy_path, _npy_bytes(record))
    meta = {
        "version": CACHE_VERSION,
        "sha256": digest,
        "day": None if day is None else int(day),
        "source": os.path.abspath(source),
        "rows": int(record.shape[0]),
    }
    # Meta lands after the array: a reader that sees the meta can trust
    # the array it points at (both replaced atomically).
    atomic_write_bytes(meta_path, json.dumps(meta, sort_keys=True).encode("utf-8"))
    return npy_path


def lookup(path: str, cache_dir: str) -> Tuple[str, Optional[DayColumns]]:
    """Probe the cache for one day log: ``(digest, payload)``.

    Hashes the file and verifies its entry; ``payload`` is None on a
    miss or a stale/corrupt entry (:func:`_try_load`), which the loader
    then meets again, reports and rebuilds.  A hit's columns are views
    of the memory-mapped entry.  Raises :class:`OSError` when the
    source file cannot be read.
    """
    digest = content_hash(path)
    npy_path, meta_path = cache_paths(cache_dir, digest)
    payload, _corrupt_reason = _try_load(npy_path, meta_path, digest)
    return digest, payload


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
    columns, _digest = _read_through(path, cache_dir, errors, report)
    return columns


def _read_through(
    path: str, cache_dir: str, errors: str, report: Optional[QuarantineReport]
) -> Tuple[DayColumns, Optional[str]]:
    """:func:`load_day`, plus the digest the columns are cached under.

    The file is read once: its digest is taken over the very bytes a
    miss parses, so a file rewritten while it loads is cached under the
    content parsed, never under another read's digest.  The digest is
    None when a quarantined parse was not written back.  Raises
    :class:`OSError` when the file cannot be read.
    """
    quarantine = check_errors_mode(errors) == ERRORS_QUARANTINE
    with open(path, "rb") as handle:
        data = handle.read()
    digest = hashlib.sha256(data).hexdigest()
    npy_path, meta_path = cache_paths(cache_dir, digest)
    cached, corrupt_reason = _try_load(npy_path, meta_path, digest)
    if cached is not None:
        return cached, digest
    if quarantine and report is None:
        report = QuarantineReport()
    if quarantine and corrupt_reason is not None:
        assert report is not None
        report.info(npy_path, "cache-rebuilt", corrupt_reason)
    faults_before = (
        report.line_faults.get(path, 0) if quarantine and report is not None else 0
    )
    day, hi, lo, hits = logfile.read_daily_log_arrays(
        path, errors=errors, report=report, data=data
    )
    if (
        quarantine
        and report is not None
        and report.line_faults.get(path, 0) > faults_before
    ):
        return (day, hi, lo, hits), None
    store_day(cache_dir, digest, path, day, hi, lo, hits)
    return (day, hi, lo, hits), digest


def ids_key(prefix_len: int, day_digests: Sequence[Tuple[int, str]]) -> str:
    """The key of the ids entry for one chunk window.

    ``day_digests`` are the window's ``(day, day-entry digest)`` pairs
    in day order; ``prefix_len`` is the length the window's addresses
    were cut to.
    """
    header = {
        "ids_version": IDS_VERSION,
        "cache_version": CACHE_VERSION,
        "prefix_len": int(prefix_len),
        "days": [[int(day), digest] for day, digest in day_digests],
    }
    return hashlib.sha256(json.dumps(header, sort_keys=True).encode("utf-8")).hexdigest()


def ids_paths(cache_dir: str, key: str) -> Tuple[str, str]:
    """The (.npy, .meta.json) paths of the ids entry for ``key``."""
    stem = os.path.join(cache_dir, f"ids-{key[:_DIGEST_CHARS]}")
    return f"{stem}.npy", f"{stem}.meta.json"


def load_ids(cache_dir: str, key: str, rows: int) -> Optional[Tuple[np.ndarray, int]]:
    """The cached ``(ids, count)`` of a chunk window, or None to recompute.

    ``rows`` is the window's observation count.  Validation mirrors the
    sweep checkpoints: version, key, field types, the payload's
    SHA-256, its dtype and shape, and the id range must all hold; any
    failure (absent, truncated, damaged or wrong-type entry) is a miss,
    never an exception.
    """
    npy_path, meta_path = ids_paths(cache_dir, key)
    try:
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        if not isinstance(meta, dict):
            return None
        count = meta.get("count")
        recorded = meta.get("sha256")
        if (
            meta.get("version") != IDS_VERSION
            or meta.get("key") != key
            or meta.get("rows") != rows
            or not isinstance(count, int)
            or isinstance(count, bool)
            or not isinstance(recorded, str)
        ):
            return None
        with open(npy_path, "rb") as handle:
            payload = handle.read()
        if hashlib.sha256(payload).hexdigest() != recorded:
            return None
        ids = np.load(io.BytesIO(payload), allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None
    if ids.dtype != np.int32 or ids.shape != (rows,):
        return None
    if rows and (int(ids.min()) < 0 or int(ids.max()) >= count):
        return None
    return ids, count


def store_ids(
    cache_dir: str,
    key: str,
    day_digests: Sequence[Tuple[int, str]],
    ids: np.ndarray,
    count: int,
) -> None:
    """Persist a chunk window's int32 ids under ``key``, payload first.

    Raises :class:`OSError` when the cache cannot be written.
    """
    npy_path, meta_path = ids_paths(cache_dir, key)
    payload = _npy_bytes(np.ascontiguousarray(ids, dtype=np.int32))
    atomic_write_bytes(npy_path, payload)
    meta = {
        "version": IDS_VERSION,
        "key": key,
        "rows": int(ids.shape[0]),
        "count": int(count),
        "sha256": hashlib.sha256(payload).hexdigest(),
        "digests": [digest for _day, digest in day_digests],
    }
    atomic_write_bytes(meta_path, json.dumps(meta, sort_keys=True).encode("utf-8"))


def _ids_entry_kept(cache_dir: str, stem: str, keep_digests: "set[str]") -> bool:
    """True when every day digest the ids entry ``stem`` lists is kept."""
    try:
        with open(
            os.path.join(cache_dir, f"ids-{stem}.meta.json"), "r", encoding="utf-8"
        ) as handle:
            meta = json.load(handle)
    except (OSError, ValueError):
        return False  # no readable meta: the payload is unreachable
    digests = meta.get("digests") if isinstance(meta, dict) else None
    return isinstance(digests, list) and all(
        isinstance(digest, str) and digest in keep_digests for digest in digests
    )


def prune(cache_dir: str, keep_digests: "set[str]") -> int:
    """Delete cache entries whose digest is not in ``keep_digests``.

    Day entries go when their digest is not kept; ids entries go unless
    every day digest their meta lists is kept (or when their meta is
    unreadable).  Returns the number of files removed.  Useful for
    housekeeping after source logs are rewritten; never required for
    correctness (stale entries are unreachable by construction).
    """
    removed = 0
    try:
        names = os.listdir(cache_dir)
    except OSError:
        return 0
    keep_prefixes = {digest[:_DIGEST_CHARS] for digest in keep_digests}
    ids_kept: Dict[str, bool] = {}
    for name in names:
        stem = name[4:].split(".", 1)[0]
        if name.startswith("day-"):
            if stem in keep_prefixes:
                continue
        elif name.startswith("ids-"):
            if stem not in ids_kept:
                ids_kept[stem] = _ids_entry_kept(cache_dir, stem, keep_digests)
            if ids_kept[stem]:
                continue
        else:
            continue
        try:
            os.unlink(os.path.join(cache_dir, name))
            removed += 1
        except OSError:
            pass
    return removed
