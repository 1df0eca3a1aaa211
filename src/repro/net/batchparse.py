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
each token's ``(start, end)``.  It runs over blocks of a fixed number of
tokens, so every temporary is sized by a block, not by the buffer; each
block reads only the bytes its tokens span and writes its rows of the
result in place:

1. one lookup-table pass classifies every byte of the block (hex digit
   value / colon / bad byte);
2. the positions of its colons are taken with ``flatnonzero``;
3. per token, ``searchsorted`` gives its colon count and first colon;
4. the token's colons give a slot-major ``(9, m)`` *slot matrix*: the
   end and length of each colon-separated field, so every step and
   reduction runs along ``m`` tokens, not along 9 fields;
5. each field's value is read as one little-endian ``uint32`` word
   ending at its last digit and masked to the field's length; a field
   of at most 4 bytes lies wholly in its word, so a bad byte shows as a
   class byte above 0x0F there;
6. the rules (no bad byte, groups of at most 4 digits, a leading or
   trailing colon only as half of ``::``, exactly one ``::``, group
   counts) are checked in slot space into a *fast-path eligibility
   mask*, and each word is folded into 16 bits and scattered into an
   ``(m, 8)`` big-endian matrix whose rows are the two 64-bit halves.

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
#: most 9 colon-separated fields: the rows of the slot matrix, whose
#: indices this column holds.
_SLOTS = np.arange(9, dtype=np.int8)[:, None]

#: Tokens per block of the span kernel: every temporary is sized by a
#: block, not by the whole buffer.
_BLOCK = 2048

#: Every group's value is read as the 4-byte word that ends at its last
#: digit; the class buffer starts with this many padding bytes so the
#: word of a short group at byte 0 never reads before the buffer.
_LOOKBEHIND = 4
_HEAD = bytes(_LOOKBEHIND)
_TAIL = b":" * _SLOTS.shape[0]

#: Per group length 0-4: the bytes of its little-endian word that are
#: the group's own digits (the high end of the word).
_KEEP_DIGITS = np.array(
    [0, 0xFF000000, 0xFFFF0000, 0xFFFFFF00, 0xFFFFFFFF], dtype=np.uint32
)

#: The high nibble of each byte of a word: zero for hex digit classes,
#: set for ``_BAD``.
_NOT_DIGITS = np.uint32(0xF0F0F0F0)


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
    The tokens are parsed ``_BLOCK`` at a time, so no temporary grows
    with the number of tokens.
    """
    n = starts.shape[0]
    hi = np.zeros(n, dtype=np.uint64)
    lo = np.zeros(n, dtype=np.uint64)
    fast = np.zeros(n, dtype=bool)
    raw = np.ascontiguousarray(raw, dtype=np.uint8)
    for first in range(0, n, _BLOCK):
        block = slice(first, first + _BLOCK)
        _parse_block(raw, starts[block], ends[block], hi[block], lo[block], fast[block])
    return hi, lo, fast


def _parse_block(
    raw: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    hi: np.ndarray,
    lo: np.ndarray,
    fast: np.ndarray,
) -> None:
    """:func:`parse_spans` for one block of tokens, into views of its output.

    The block reads only its own bytes, ``raw[min(starts):max(ends)]``,
    with its spans rebased onto them.  Its slot matrices are slot-major,
    ``(9, m)`` for ``m`` candidate tokens, so every elementwise step and
    reduction runs over ``m`` contiguous elements.
    """
    base = int(starts.min())
    top = int(ends.max())
    starts = starts - base
    ends = ends - base
    # The class buffer: look-behind padding, the block's bytes, then one
    # colon per slot past every token's end, which keeps every colon
    # lookup below in range.
    padded = b"".join((_HEAD, raw[base:top].data, _TAIL)).translate(_CLASS_TABLE)
    classes = np.frombuffer(padded, dtype=np.uint8)
    colons = np.flatnonzero(classes[_LOOKBEHIND:] == _COLON_CLASS)

    # Candidates: 2-8 colons and at most _MAX_WIDTH bytes.
    first_colon = np.searchsorted(colons, starts)
    n_colons = np.searchsorted(colons, ends) - first_colon
    rows = np.flatnonzero(
        (n_colons >= 2) & (n_colons < _SLOTS.shape[0]) & (ends - starts <= _MAX_WIDTH)
    )
    if rows.shape[0] == 0:
        return
    k = n_colons[rows]

    # Slot matrix: field j ends at the token's j-th colon or at the token's
    # end, whichever comes first (colons past the token's last belong to
    # later tokens, or are the sentinels).  Slots past the last field
    # (j > k) get length -1, which no rule below counts and whose word
    # is masked to zero.
    slot_end = colons.take(first_colon[rows] + _SLOTS)
    np.minimum(slot_end, ends[rows], out=slot_end)
    length = np.empty_like(slot_end)
    np.subtract(slot_end[0], starts[rows], out=length[0])
    np.subtract(slot_end[1:], slot_end[:-1], out=length[1:])
    length[1:] -= 1

    # Each field's value is the little-endian word whose last byte is the
    # field's last digit, masked to the field's own bytes (the high end
    # of the word).  A field of at most 4 bytes lies wholly in its word,
    # so a bad byte anywhere in such a token shows as a class byte above
    # 0x0F in some word.
    words = np.ndarray(
        (classes.shape[0] - 3,), dtype="<u4", buffer=classes, strides=(1,)
    )
    word = words.take(slot_end)
    word &= _KEEP_DIGITS.take(length, mode="clip")

    # The structural rules, in slot space: no bad byte; groups of at most
    # 4 digits; a leading or trailing colon only as half of '::'; either
    # no '::' and 8 groups, or exactly one '::' (an empty interior field)
    # and at most 7 groups.
    empty = length == 0
    present = length > 0
    pair = empty & (_SLOTS >= 1) & (_SLOTS < k)
    n_pairs = pair.sum(axis=0)
    n_groups = present.sum(axis=0)
    column = np.arange(rows.shape[0])
    lead_ok = ~empty[0] | empty[1]
    trail_ok = ~empty[k, column] | empty[k - 1, column]
    ok = (
        (np.bitwise_or.reduce(word, axis=0) & _NOT_DIGITS == 0)
        & (length.max(axis=0) <= 4)
        & lead_ok
        & trail_ok
        & (
            ((n_pairs == 0) & (k == 7) & (n_groups == 8))
            | ((n_pairs == 1) & (n_groups <= 7))
        )
    )

    # Group index: fields right of the '::' move right by the 7 - k
    # groups it elides (0 on uncompressed rows).  The pivot is the last
    # '::' slot, or slot 0 on a row without one, so a present field's
    # index is 0-7 on every row, well-formed or not: on a 9-field row
    # without '::' (k = 8) fields 1-8 move left by one.
    pivot = (pair * _SLOTS).max(axis=0)
    group = _SLOTS + (_SLOTS > pivot) * (7 - k).astype(np.int8)

    # Fold each word's four nibbles (most significant digit in the
    # lowest byte) into 16 bits and scatter the present groups into an
    # (m, 8) big-endian uint16 matrix (every absent slot writes to one
    # spare element past the end); each row's 16 bytes are then the two
    # big-endian halves.
    value = (
        (word >> np.uint32(24))
        | ((word >> np.uint32(12)) & np.uint32(0xF0))
        | (word & np.uint32(0xF00))
        | ((word << np.uint32(12)) & np.uint32(0xF000))
    )
    size = 8 * rows.shape[0]
    flat = np.where(present, np.arange(0, size, 8) + group, size)
    groups = np.zeros(size + 1, dtype=">u2")
    groups[flat] = value
    halves = groups[:size].view(">u8").reshape(-1, 2)
    parsed = rows[ok]
    hi[parsed] = halves[:, 0][ok]
    lo[parsed] = halves[:, 1][ok]
    fast[parsed] = True


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
