"""The day-log tokenizer against a regular-expression oracle.

``logfile._token_spans`` translates the buffer to a token/separator mask
and reads token boundaries off it, adding the boundary at 0 or at the
buffer's end when the buffer starts or ends inside a token.  Its spans
and line numbers must equal ``re.finditer`` over the same bytes.
"""

import re

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data import logfile

#: Separators (space, tab, CR, LF), token bytes, and bytes that look like
#: separators but are not (vertical tab, form feed, U+00A0's last byte).
_BYTES = st.sampled_from(
    [b" ", b"\t", b"\r", b"\n", b"a", b"1", b":", b"#", b"\x0b", b"\x0c", b"\xa0"]
)


def _oracle(data):
    """``(start, end, line index)`` of every maximal run of non-separators."""
    return [
        (match.start(), match.end(), data.count(b"\n", 0, match.start()))
        for match in re.finditer(rb"[^ \t\r\n]+", data)
    ]


def _spans(data):
    newlines = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == 0x0A)
    starts, ends, lines = logfile._token_spans(data, newlines)
    return list(zip(starts.tolist(), ends.tolist(), lines.tolist()))


@settings(max_examples=400, deadline=None)
@given(st.lists(_BYTES, max_size=60).map(b"".join))
@example(b"")
@example(b" \t\r\n\n \r")
@example(b"x")
@example(b"2001:db8::1 5")
@example(b"# day=3\n2001:db8::1 5\n")
@example(b"\r\r\t 2001:db8::1\t\t7\r\n\n::1 2")
def test_token_spans_match_regex(data):
    assert _spans(data) == _oracle(data)


def test_token_spans_of_a_log_without_final_newline():
    data = b"# repro aggregated log day=4\n2001:db8::1 3\r\n2001:db8::2\t9"
    assert _spans(data) == _oracle(data)
    assert _spans(data)[-1] == (len(data) - 1, len(data), 2)
