"""Vectorized batch parsing and formatting of IPv6 addresses.

:mod:`repro.net.addr` parses one presentation string at a time in pure
Python, which is exact but interpreter-bound: ingesting a day of a few
hundred thousand logged client addresses spends nearly all of its time
inside ``addr.parse``.  This module provides the columnar counterpart:
whole columns of strings are converted to ``(hi, lo)`` uint64 numpy
arrays at once, and back.

The fast path handles every colon-separated hexadecimal form — canonical
RFC 5952 output, fixed-width ``format_full`` output, and any mix of
upper/lower case, leading zeros and a single ``::`` compression.  Its
kernel, :func:`parse_spans`, reads the tokens in place in one byte
buffer (a whole day log, or a column of strings joined into one), given
each token's ``(start, end)``:

1. one lookup-table pass classifies every byte of the buffer (hex digit
   value / colon / bad byte);
2. the positions of colons and bad bytes are taken with ``flatnonzero``;
3. per token, ``searchsorted`` gives its colon count, its first colon
   and whether it holds a bad byte;
4. the token's colons give an ``(n, 9)`` *slot matrix*: the end and
   length of each colon-separated field;
5. the structural rules (groups of at most 4 digits, a leading or
   trailing colon only as half of ``::``, exactly one ``::``, group
   counts) are checked in slot space into a *fast-path eligibility
   mask*;
6. each group's value is read as one little-endian ``uint32`` word
   ending at its last digit, masked to the group's length and folded
   into 16 bits, then scattered into an ``(n, 8)`` big-endian matrix
   whose rows are the two 64-bit halves.

Rows that are not eligible — embedded dotted-quad IPv4, surrounding
whitespace, NUL bytes, zone identifiers, non-ASCII text, tokens over
48 bytes, or anything malformed — fall back to the scalar
:func:`repro.net.addr.parse`, which either handles the exotic notation
or raises the same :class:`AddressError` a scalar caller would see.
The batch functions are therefore bit-for-bit consistent with their
scalar counterparts on both accepted and rejected inputs.

:func:`format_batch` is the vectorized inverse: it emits canonical
RFC 5952 strings (longest zero run compressed, leftmost on ties,
lower-case, no leading zeros) by computing per-row character offsets for
each group and scattering hex digits and colons into an output byte
matrix.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.net import addr
from repro.net.addr import AddressError

#: Per-byte class, as a ``bytes.translate`` table: a hex digit's value
#: (0-15), ``_COLON_CLASS`` for ``:``, and ``_BAD`` for every other byte
#: (NUL, whitespace, ``.``, ``%``, non-ASCII, ...), which sends its token
#: to the scalar parser.
_COLON_CLASS = 0x10
_BAD = 0xFF
_classes = bytearray([_BAD] * 256)
for _value, _ch in enumerate("0123456789abcdef"):
    _classes[ord(_ch)] = _classes[ord(_ch.upper())] = _value
_classes[ord(":")] = _COLON_CLASS
_CLASS_TABLE = bytes(_classes)

_COLON = ord(":")
_HEXCHARS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)

#: Longest token the span kernel will consider.  Valid presentation
#: forms are at most 45 characters; anything longer is exotic by
#: definition and goes through the scalar parser.
_MAX_WIDTH = 48

#: A fast-path token has at most 8 colons (``::1:2:3:4:5:6:7``), so at
#: most 9 colon-separated fields: the columns of the slot matrix.
_SLOTS = np.arange(9, dtype=np.int8)

#: Every group's value is read as the 4-byte word that ends at its last
#: digit; the class buffer starts with this many padding bytes so the
#: word of a short group at byte 0 never reads before the buffer.
_LOOKBEHIND = 4

#: Per group length 0-4: the bytes of its little-endian word that are
#: the group's own digits (the high end of the word).
_KEEP_DIGITS = np.array(
    [0, 0xFF000000, 0xFFFF0000, 0xFFFFFF00, 0xFFFFFFFF], dtype=np.uint32
)

def _as_text_list(strings: "Iterable[str]") -> List[str]:
    if isinstance(strings, list):
        return strings
    if isinstance(strings, np.ndarray):
        return [str(s) for s in strings.tolist()]
    return list(strings)


def _scalar_fill(
    texts: Sequence[str], indices: np.ndarray, hi: np.ndarray, lo: np.ndarray
) -> None:
    """Parse the rows in ``indices`` with the scalar parser."""
    parse = addr.parse
    for i in indices:
        value = parse(texts[i])
        hi[i] = value >> 64
        lo[i] = value & addr.IID_MASK


def parse_spans(
    raw: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized parse of the address tokens ``raw[starts[i]:ends[i]]``.

    ``raw`` is a uint8 buffer (a whole day log, or a joined column of
    strings) and every span lies inside it.  Returns ``(hi, lo,
    fast_mask)``; rows where ``fast_mask`` is False were not parsed
    (left zero) and must be handled by the scalar parser.  This is the
    building block :func:`parse_batch` and the day-log reader share.
    """
    n = starts.shape[0]
    hi = np.zeros(n, dtype=np.uint64)
    lo = np.zeros(n, dtype=np.uint64)
    fast = np.zeros(n, dtype=bool)
    padded = bytearray(_LOOKBEHIND + raw.shape[0])
    padded[_LOOKBEHIND:] = np.ascontiguousarray(raw, dtype=np.uint8).data
    classes = np.frombuffer(padded.translate(_CLASS_TABLE), dtype=np.uint8)
    body = classes[_LOOKBEHIND:]
    # Sentinels at the buffer's end keep every lookup below in range.
    colons = np.append(
        np.flatnonzero(body == _COLON_CLASS), np.full(_SLOTS.shape[0], raw.shape[0])
    )
    bad = np.append(np.flatnonzero(body == _BAD), raw.shape[0])

    # Per token: no bad byte, 2-8 colons, at most _MAX_WIDTH bytes.
    first_colon = np.searchsorted(colons, starts)
    n_colons = np.searchsorted(colons, ends) - first_colon
    clean = bad[np.searchsorted(bad, starts)] >= ends
    rows = np.flatnonzero(
        clean
        & (n_colons >= 2)
        & (n_colons < _SLOTS.shape[0])
        & (ends - starts <= _MAX_WIDTH)
    )
    if rows.shape[0] == 0:
        return hi, lo, fast
    k = n_colons[rows]
    k_col = k[:, None]

    # Slot matrix: field j ends at the token's j-th colon or at the token's
    # end, whichever comes first (colons past the token's last belong to
    # later tokens, or are the sentinels).  Slots past the last field
    # (j > k) get length -1, which no rule below counts and whose word
    # is masked to zero.
    window = np.lib.stride_tricks.sliding_window_view(colons, _SLOTS.shape[0])
    slot_end = np.minimum(window[first_colon[rows]], ends[rows][:, None])
    length = np.empty_like(slot_end)
    length[:, 0] = slot_end[:, 0] - starts[rows]
    np.subtract(slot_end[:, 1:], slot_end[:, :-1] + 1, out=length[:, 1:])

    # The structural rules, in slot space: groups of at most 4 digits;
    # a leading or trailing colon only as half of '::'; either no '::'
    # and 8 groups, or exactly one '::' (an empty interior field) and at
    # most 7 groups.
    empty = length == 0
    present = length > 0
    pair = empty & (_SLOTS >= 1) & (_SLOTS < k_col)
    n_pairs = pair.sum(axis=1)
    n_groups = present.sum(axis=1)
    row_index = np.arange(rows.shape[0])
    lead_ok = ~empty[:, 0] | empty[:, 1]
    trail_ok = ~empty[row_index, k] | empty[row_index, k - 1]
    ok = (
        (length <= 4).all(axis=1)
        & lead_ok
        & trail_ok
        & (
            ((n_pairs == 0) & (k == 7) & (n_groups == 8))
            | ((n_pairs == 1) & (n_groups <= 7))
        )
    )

    # Group index: fields right of the '::' move right by the 7 - k
    # groups it elides (0 on uncompressed rows).
    shift = (7 - k_col).astype(np.int8)
    group = _SLOTS + (_SLOTS > pair.argmax(axis=1)[:, None]) * shift

    # Each group is the little-endian word whose last byte is the
    # group's last digit; keep the group's own bytes and fold its four
    # nibbles (most significant digit in the lowest byte) into 16 bits.
    words = np.ndarray(
        (classes.shape[0] - 3,), dtype="<u4", buffer=classes, strides=(1,)
    )
    word = words[slot_end] & _KEEP_DIGITS.take(length, mode="clip")
    value = (
        (word >> np.uint32(24))
        | ((word >> np.uint32(12)) & np.uint32(0xF0))
        | (word & np.uint32(0xF00))
        | ((word << np.uint32(12)) & np.uint32(0xF000))
    )

    # Scatter the present groups into an (n, 8) big-endian uint16 matrix
    # (a present field's group index is 0-7 on any row, well-formed or
    # not; every other slot writes to one spare element past the end);
    # each row's 16 bytes are then the two big-endian halves.
    size = 8 * rows.shape[0]
    flat = np.where(present, np.arange(0, size, 8)[:, None] + group, size)
    groups = np.zeros(size + 1, dtype=">u2")
    groups[flat] = value
    halves = groups[:size].view(">u8").reshape(-1, 2)[ok]
    parsed = rows[ok]
    hi[parsed] = halves[:, 0]
    lo[parsed] = halves[:, 1]
    fast[parsed] = True
    return hi, lo, fast


def _parse_texts(texts: Sequence[str]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`parse_spans` over a list of strings joined into one buffer.

    Non-ASCII characters become ``?`` (a bad byte, so their rows go to
    the scalar parser); a column holding any non-str leaves every row
    to it.
    """
    n = len(texts)
    if not all(type(t) is str for t in texts):
        zeros = np.zeros(n, dtype=np.uint64)
        return zeros, zeros.copy(), np.zeros(n, dtype=bool)
    joined = "".join(texts).encode("ascii", errors="replace")
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=n)
    ends = np.cumsum(lengths)
    return parse_spans(np.frombuffer(joined, dtype=np.uint8), ends - lengths, ends)


def fastpath_mask(strings: "Iterable[str]") -> np.ndarray:
    """Which rows of a column the vectorized fast path would handle.

    Exposed for tests and benchmarks: a canonical-form corpus should be
    (nearly) all-True here, otherwise parsing silently degrades to the
    scalar fallback.
    """
    _hi, _lo, fast = _parse_texts(_as_text_list(strings))
    return fast


def parse_batch(strings: "Iterable[str]") -> Tuple[np.ndarray, np.ndarray]:
    """Parse a column of IPv6 presentation strings into uint64 halves.

    Returns ``(hi, lo)`` arrays of dtype uint64, bit-for-bit consistent
    with calling :func:`repro.net.addr.parse` per element.

    Raises:
        AddressError: if any element is invalid (same errors as the
            scalar parser; the first offending element wins).
    """
    texts = _as_text_list(strings)
    hi, lo, fast = _parse_texts(texts)
    if not fast.all():
        _scalar_fill(texts, np.nonzero(~fast)[0], hi, lo)
    return hi, lo


def parse_batch_ints(strings: "Iterable[str]") -> List[int]:
    """Parse a column of presentation strings into 128-bit Python ints."""
    hi, lo = parse_batch(strings)
    if hi.shape[0] == 0:
        return []
    return (hi.astype(object) * (1 << 64) + lo.astype(object)).tolist()


def _halves(
    hi: "np.ndarray | Sequence[int]", lo: "np.ndarray | Sequence[int]"
) -> Tuple[np.ndarray, np.ndarray]:
    hi = np.ascontiguousarray(hi, dtype=np.uint64)
    lo = np.ascontiguousarray(lo, dtype=np.uint64)
    if hi.shape != lo.shape or hi.ndim != 1:
        raise AddressError("hi and lo must be parallel 1-d arrays")
    return hi, lo


def format_batch(
    hi: "np.ndarray | Sequence[int]", lo: "np.ndarray | Sequence[int]"
) -> np.ndarray:
    """Format uint64 halves as canonical RFC 5952 strings, vectorized.

    The output is a numpy unicode array whose elements equal
    ``addr.format_address((hi << 64) | lo)`` exactly: longest zero run
    (length >= 2) compressed with ``::``, leftmost on ties, lower-case,
    no leading zeros.
    """
    hi, lo = _halves(hi, lo)
    n = hi.shape[0]
    if n == 0:
        return np.empty(0, dtype="U39")

    groups = np.empty((n, 8), dtype=np.uint16)
    for i in range(4):
        groups[:, i] = (hi >> np.uint64(48 - 16 * i)) & np.uint64(0xFFFF)
        groups[:, 4 + i] = (lo >> np.uint64(48 - 16 * i)) & np.uint64(0xFFFF)

    zero = groups == 0
    # Zero-run length starting at each position, computed right-to-left.
    runlen = np.zeros((n, 9), dtype=np.int64)
    for j in range(7, -1, -1):
        runlen[:, j] = np.where(zero[:, j], runlen[:, j + 1] + 1, 0)
    runlen = runlen[:, :8]
    best_len = runlen.max(axis=1)
    best_start = runlen.argmax(axis=1)  # argmax returns the leftmost max
    compress = best_len >= 2
    best_len = np.where(compress, best_len, 0)

    digits = (
        1
        + (groups >= 0x10).astype(np.int64)
        + (groups >= 0x100)
        + (groups >= 0x1000)
    )
    position = np.arange(8)
    in_run = (
        compress[:, None]
        & (position >= best_start[:, None])
        & (position < (best_start + best_len)[:, None])
    )
    printed = ~in_run
    widths = np.where(printed, digits, 0)

    width_before = np.cumsum(widths, axis=1) - widths
    printed_before = np.cumsum(printed, axis=1) - printed
    # Colons preceding each group's digits: one per earlier printed
    # group, plus (for groups right of the '::') the pair itself minus
    # the separator a left block would have contributed.
    right_of_run = compress[:, None] & (
        position >= (best_start + best_len)[:, None]
    )
    extra = np.where(right_of_run, np.where(best_start[:, None] > 0, 1, 2), 0)
    offsets = width_before + printed_before + extra

    out = np.zeros((n, 39), dtype=np.uint8)
    rows = np.arange(n)

    # The '::' of compressed rows sits immediately after the left block.
    left_len = width_before[rows, best_start] + np.maximum(best_start - 1, 0)
    c_rows = np.nonzero(compress)[0]
    out[c_rows, left_len[c_rows]] = _COLON
    out[c_rows, left_len[c_rows] + 1] = _COLON

    # One separator colon immediately before every printed group except
    # the row's first (re-writing the second ':' of '::' is harmless).
    sep = printed & (printed_before > 0)
    sep_rows, sep_cols = np.nonzero(sep)
    out[sep_rows, offsets[sep_rows, sep_cols] - 1] = _COLON

    # Scatter hex digits: nibble k4 of a group is printed when it falls
    # within the group's significant digits.
    for k4 in range(4):
        value = (groups >> (4 * (3 - k4))).astype(np.int64) & 0xF
        digit_pos = k4 - (4 - digits)
        write = printed & (digit_pos >= 0)
        w_rows, w_cols = np.nonzero(write)
        out[w_rows, offsets[w_rows, w_cols] + digit_pos[w_rows, w_cols]] = (
            _HEXCHARS[value[w_rows, w_cols]]
        )

    return out.view("S39").ravel().astype("U39")


def format_batch_list(
    hi: "np.ndarray | Sequence[int]", lo: "np.ndarray | Sequence[int]"
) -> List[str]:
    """Like :func:`format_batch` but returning a plain list of str."""
    return format_batch(hi, lo).tolist()


def format_full_batch(
    hi: "np.ndarray | Sequence[int]", lo: "np.ndarray | Sequence[int]"
) -> np.ndarray:
    """Vectorized :func:`repro.net.addr.format_full` (fixed-width form)."""
    hi, lo = _halves(hi, lo)
    n = hi.shape[0]
    out = np.full((n, 39), _COLON, dtype=np.uint8)
    for group in range(8):
        half, shift = (hi, 48 - 16 * group) if group < 4 else (lo, 112 - 16 * group)
        value = (half >> np.uint64(shift)).astype(np.int64) & 0xFFFF
        base = 5 * group
        for k4 in range(4):
            out[:, base + k4] = _HEXCHARS[(value >> (4 * (3 - k4))) & 0xF]
    return out.view("S39").ravel().astype("U39")


def ints_to_halves(values: "Iterable[int]") -> Tuple[np.ndarray, np.ndarray]:
    """Convert 128-bit Python ints to (hi, lo) uint64 arrays in bulk.

    The per-element work is a single C-level ``int.to_bytes`` call; the
    split into halves is one vectorized reinterpretation of the joined
    buffer.  Raises :class:`AddressError` on out-of-range or non-int
    elements, like :func:`repro.net.addr.check_address`.
    """
    values = values if isinstance(values, list) else list(values)
    n = len(values)
    if n == 0:
        empty = np.empty(0, dtype=np.uint64)
        return empty, empty.copy()
    try:
        packed = b"".join(v.to_bytes(16, "big") for v in values)
    except (AttributeError, TypeError, OverflowError):
        for v in values:  # re-run scalar checks for a precise error
            addr.check_address(v)
        raise AddressError("unrepresentable address values")
    flat = np.frombuffer(packed, dtype=">u8").reshape(n, 2)
    return flat[:, 0].astype(np.uint64), flat[:, 1].astype(np.uint64)


def halves_to_ints(
    hi: "np.ndarray | Sequence[int]", lo: "np.ndarray | Sequence[int]"
) -> List[int]:
    """Combine (hi, lo) uint64 arrays into 128-bit Python ints in bulk."""
    hi, lo = _halves(hi, lo)
    if hi.shape[0] == 0:
        return []
    return (hi.astype(object) * (1 << 64) + lo.astype(object)).tolist()
