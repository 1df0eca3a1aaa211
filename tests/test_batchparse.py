"""Tests for the vectorized batch address parser/formatter.

The contract under test: :mod:`repro.net.batchparse` must be bit-for-bit
consistent with the scalar :mod:`repro.net.addr` reference — same values
on every accepted input, an :class:`~repro.net.addr.AddressError` on
every rejected one — regardless of whether a given string takes the
vectorized fast path or the scalar fallback.
"""

import random
import tempfile

import numpy as np
import pytest

from repro.data import logfile
from repro.net import addr, batchparse
from repro.net.addr import AddressError

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - optional dependency
    HAVE_HYPOTHESIS = False


# The full scalar-parser corpus: every presentation form the scalar
# parser accepts, including ones the fast path must hand back to it.
VALID_CASES = [
    "2001:0db8:0000:0000:0000:0000:0000:0001",
    "2001:db8::1",
    "::1",
    "::",
    "1::",
    "2001:db8::",
    "fe80::1:2:3:4",
    "1:2:3:4:5:6:7:8",
    "0:0:0:0:0:0:0:0",
    "2001:DB8::A",          # mixed case
    "2001:Db8:A0b::C",
    "::ffff:192.0.2.1",     # embedded IPv4
    "64:ff9b::192.0.2.33",
    "1:2:3:4:5:6:7.8.9.10",
    "::13.1.68.3",
    "2001:db8:0:0:1::1",
    "ff02::2",
    "a:b:c:d:e:f:1:2",
]

MALFORMED_CASES = [
    "",
    ":::",
    "2001:db8",
    "2001:db8::1::2",
    "2001:db8:0:0:0:0:0:0:1",
    "g001:db8::1",
    "2001:db8::12345",
    "2001:db8::1%eth0",
    "1.2.3.4",
    "::192.0.2.256",
    "::192.0.2",
    "2001:db8:::1",
    "1:2:3:4::5:6:7:8",
    "2001 db8::1",
    ":",
    ":1:2:3:4:5:6:7",
    "1:2:3:4:5:6:7:",
    "٣::1",            # non-ASCII digit
    "2001:db8::1\x00",  # a NUL is a byte of the token, not padding
    "::\x00",
]

EDGE_VALUES = [
    0,
    1,
    2**64 - 1,
    2**64,
    2**128 - 1,
    0x20010DB8 << 96,
    0xFE80 << 112,
    (2**128 - 1) ^ (0xFFFF << 64),
    0x0000_0000_0000_0001_0000_0000_0000_0000,
]


def _rand_values(count, seed=1234):
    rng = random.Random(seed)
    return [rng.getrandbits(128) for _ in range(count)]


class TestAgainstScalarReference:
    def test_valid_corpus_matches_scalar(self):
        expected = [addr.parse(text) for text in VALID_CASES]
        assert batchparse.parse_batch_ints(VALID_CASES) == expected

    @pytest.mark.parametrize("bad", MALFORMED_CASES)
    def test_malformed_rejected(self, bad):
        with pytest.raises(AddressError):
            batchparse.parse_batch([bad])

    def test_malformed_rejected_inside_batch(self):
        # A bad row must fail even when surrounded by good rows.
        for bad in MALFORMED_CASES:
            with pytest.raises(AddressError):
                batchparse.parse_batch(["2001:db8::1", bad, "::2"])

    def test_non_string_rejected(self):
        with pytest.raises(AddressError):
            batchparse.parse_batch(["::1", 12345])
        with pytest.raises(AddressError):
            batchparse.parse_batch([b"2001:db8::1"])

    def test_whitespace_stripped_like_scalar(self):
        # The scalar parser strips surrounding whitespace; batch agrees.
        texts = [" 2001:db8::1", "2001:db8::1 ", "\t::1\n"]
        assert batchparse.parse_batch_ints(texts) == [addr.parse(t) for t in texts]

    def test_fast_and_scalar_agree_on_edge_cases(self):
        texts = [addr.format_address(v) for v in EDGE_VALUES]
        texts += [addr.format_full(v) for v in EDGE_VALUES]
        texts += [t.upper() for t in texts]
        expected = [addr.parse(t) for t in texts]
        assert batchparse.parse_batch_ints(texts) == expected

    def test_scalar_fallback_rows_match(self):
        # Embedded-IPv4 rows are not fast-path eligible; their results
        # must still match the scalar parser exactly.
        texts = ["::ffff:192.0.2.1", "2001:db8::1", "64:ff9b::0.0.0.1"]
        mask = batchparse.fastpath_mask(texts)
        assert not mask[0] and not mask[2]
        assert batchparse.parse_batch_ints(texts) == [addr.parse(t) for t in texts]

    def test_fastpath_covers_canonical_and_full_forms(self):
        values = _rand_values(256)
        canonical = [addr.format_address(v) for v in values]
        full = [addr.format_full(v) for v in values]
        assert batchparse.fastpath_mask(canonical).all()
        assert batchparse.fastpath_mask(full).all()


#: Tokens at the span kernel's limits: the most colons a fast row can
#: have, '::' at either end or alone, stray single colons, 5-digit
#: groups, upper case, embedded IPv4 (scalar fallback) and tokens past
#: the 48-byte cap.
LIMIT_CASES = [
    "::1:2:3:4:5:6:7",
    "1:2:3:4:5:6:7::",
    "::",
    "1::",
    "::1",
    ":1::",
    "::1:",
    ":1:2:3:4:5:6:7:8",
    "1:2:3:4:5:6:7:8:",
    "::1:2:3:4:5:6:7:8",
    "1:2:3:4:5:6:7:8::",
    "12345::1",
    "1::12345",
    "01234:1:2:3:4:5:6:7",
    "ABCD:EF01:2345:6789:abcd:ef01:2345:6789",
    "::FfFf:AbC",
    "::ffff:192.0.2.1",
    "1:2:3:4:5:6:1.2.3.4",
    "0000:0000:0000:0000:0000:0000:0000:0001" + "0" * 10,
    "0" * 49,
    "::" + "0" * 47,
]

#: Bytes that must send a token to the scalar parser.
JUNK = ["\x00", " ", "\t", ".", "%", "g", "G", "/", "é", "\x7f"]


def _scalar_or_error(text):
    try:
        return addr.parse(text)
    except AddressError:
        return None


def _assert_matches_scalar(texts):
    """parse_batch agrees with addr.parse on accept, value and reject."""
    expected = [_scalar_or_error(t) for t in texts]
    fast = batchparse.fastpath_mask(texts)
    for text, want, is_fast in zip(texts, expected, fast):
        if is_fast:  # the kernel only ever accepts valid addresses
            assert want is not None, text
        if want is None:
            with pytest.raises(AddressError):
                batchparse.parse_batch([text])
        else:
            assert batchparse.parse_batch_ints([text]) == [want], text
    if all(want is not None for want in expected):
        assert batchparse.parse_batch_ints(texts) == expected
    else:
        with pytest.raises(AddressError):
            batchparse.parse_batch(texts)


class TestKernelLimits:
    @pytest.mark.parametrize("text", LIMIT_CASES)
    def test_limit_case_matches_scalar(self, text):
        _assert_matches_scalar([text])
        _assert_matches_scalar(["::1", text, "2001:db8::"])

    def test_limit_forms_take_the_fast_path(self):
        texts = ["::1:2:3:4:5:6:7", "1:2:3:4:5:6:7::", "::", "1::", "::FfFf:AbC"]
        assert batchparse.fastpath_mask(texts).all()
        rejected = ["12345::1", ":1::", "::1:", "0" * 49, "::ffff:192.0.2.1"]
        assert not batchparse.fastpath_mask(rejected).any()

    def test_short_group_at_byte_zero(self, tmp_path):
        # A headerless log whose first token is a 1-digit group at byte 0
        # reads its word across the 4-byte look-behind; the last line has
        # no newline.
        path = tmp_path / "day.txt"
        path.write_bytes(b"1::2 3\n::f 4\nf:: 5")
        day, hi, lo, hits = logfile.read_daily_log_arrays(str(path))
        values = [addr.parse(t) for t in ("::f", "1::2", "f::")]
        assert day is None
        assert batchparse.halves_to_ints(hi, lo) == values
        assert hits.tolist() == [4, 3, 5]


if HAVE_HYPOTHESIS:

    @st.composite
    def address_tokens(draw, junk=tuple(JUNK)):
        """A valid address text, or one with a defect near the kernel's rules.

        A canonical or full-form address (random case) is left as it is,
        or gets one colon or hex digit inserted or one character deleted,
        a junk byte, an IPv4 tail, or is replaced by free colon/hex text.
        """
        value = draw(
            st.one_of(
                st.integers(min_value=0, max_value=2**128 - 1),
                st.sampled_from(EDGE_VALUES),
            )
        )
        text = draw(st.sampled_from([addr.format_address, addr.format_full]))(value)
        if draw(st.booleans()):
            text = text.upper()
        at = draw(st.integers(0, len(text)))
        mutation = draw(st.integers(0, 9))
        if mutation == 1:
            text = text[:at] + ":" + text[at:]
        elif mutation == 2:
            text = text[:at] + draw(st.sampled_from("0aF")) + text[at:]
        elif mutation == 3:
            text = text[:at] + text[at + 1 :]
        elif mutation == 4 and junk:
            text = text[:at] + draw(st.sampled_from(junk)) + text[at:]
        elif mutation == 5:
            octets = draw(st.lists(st.integers(0, 300), min_size=3, max_size=5))
            text = text.rsplit(":", 2)[0] + ":" + ".".join(map(str, octets))
        elif mutation == 6:
            groups = draw(
                st.lists(
                    st.text(alphabet="0123456789abcdefABCDEF", max_size=5),
                    max_size=10,
                )
            )
            text = ":".join(groups)
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(["", ":", "::"])) + text[at:]
        return text

    class TestKernelProperties:
        @settings(max_examples=400, deadline=None)
        @given(st.lists(address_tokens(), min_size=1, max_size=6))
        def test_batch_matches_scalar_oracle(self, texts):
            _assert_matches_scalar(texts)

        @settings(max_examples=150, deadline=None)
        @given(
            st.lists(
                st.tuples(
                    address_tokens(junk=("\x00", ".", "%", "g", "é")).filter(bool),
                    st.integers(0, 10**6),
                ),
                min_size=1,
                max_size=12,
            ),
            st.booleans(),
        )
        def test_headerless_log_matches_scalar_oracle(self, entries, final_newline):
            # The first address starts at byte 0; the last line may lack
            # its newline.  Oracle: addr.parse per line, then a dict merge.
            body = "\n".join(f"{text} {hits}" for text, hits in entries)
            merged = {}
            first_bad = None
            for line, (text, hits) in enumerate(entries, start=1):
                value = _scalar_or_error(text)
                if value is None:
                    first_bad = line
                    break
                merged[value] = merged.get(value, 0) + hits
            with tempfile.TemporaryDirectory() as directory:
                path = f"{directory}/day.txt"
                with open(path, "wb") as handle:
                    handle.write((body + "\n" * final_newline).encode("utf-8"))
                if first_bad is not None:
                    with pytest.raises(logfile.LogFormatError, match=f":{first_bad}: "):
                        logfile.read_daily_log_arrays(path)
                    return
                day, hi, lo, hits = logfile.read_daily_log_arrays(path)
            assert day is None
            assert batchparse.halves_to_ints(hi, lo) == sorted(merged)
            assert hits.tolist() == [merged[v] for v in sorted(merged)]


#: Block sizes that put block edges between, before and after any two
#: neighbouring tokens of a short column.
SMALL_BLOCKS = [1, 2, 3, 17]


def _with_block(block, check, *args):
    """Run ``check(*args)`` with the span kernel's block size set to ``block``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batchparse, "_BLOCK", block)
        check(*args)


def _assert_spans_parse(texts, expected_fast):
    """parse_spans over the UTF-8 bytes of ``texts``, one span each:
    the fast rows are ``expected_fast`` and hold addr.parse's value."""
    data = [t.encode("utf-8") for t in texts]
    lengths = np.array([len(d) for d in data], dtype=np.int64)
    ends = np.cumsum(lengths)
    raw = np.frombuffer(b"".join(data), dtype=np.uint8)
    hi, lo, fast = batchparse.parse_spans(raw, ends - lengths, ends)
    assert fast.tolist() == expected_fast
    values = batchparse.halves_to_ints(hi, lo)
    for text, value, is_fast in zip(texts, values, fast):
        assert value == (addr.parse(text) if is_fast else 0), text


class TestBlockBoundaries:
    @pytest.mark.parametrize("block", SMALL_BLOCKS)
    def test_nine_fields_before_a_valid_token(self, block):
        # A 9-field token without '::' is not eligible, but its fields
        # are still scattered: the 9th must stay in its own row, not
        # land in group 0 of the next token when both share a block.
        nine = "a:b:c:d:e:f:0:1:2"
        texts = [nine, "::1", nine, "1:2:3:4:5:6:7:8", nine, "::", nine, "::f"]
        expected = [i % 2 == 1 for i in range(len(texts))]
        _with_block(block, _assert_spans_parse, texts, expected)

    @pytest.mark.parametrize("block", SMALL_BLOCKS)
    def test_long_and_non_ascii_tokens_on_block_edges(self, block):
        odd = ["0" * 49, "é::1", "::" + "0" * 47, "٣::1", "2001:db8::1\x00"]
        valid = [addr.format_address(v) for v in EDGE_VALUES]
        texts = []
        for index, text in enumerate(odd * 4):
            texts += [text] + valid[: index % 4]
        expected = [text in valid for text in texts]
        _with_block(block, _assert_spans_parse, texts, expected)
        _with_block(block, _assert_matches_scalar, texts)

    @pytest.mark.parametrize("block", SMALL_BLOCKS)
    def test_empty_span_list(self, block):
        empty = np.zeros(0, dtype=np.int64)
        for raw in (np.zeros(0, dtype=np.uint8), np.frombuffer(b"::1", np.uint8)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(batchparse, "_BLOCK", block)
                hi, lo, fast = batchparse.parse_spans(raw, empty, empty)
            assert (hi.dtype, lo.dtype, fast.dtype) == (np.uint64, np.uint64, bool)
            assert hi.shape == lo.shape == fast.shape == (0,)

    @pytest.mark.parametrize("block", [17, batchparse._BLOCK])
    def test_column_of_several_blocks(self, block):
        values = _rand_values(3 * block + 5, seed=block)
        texts = [
            (addr.format_address, addr.format_full)[i % 3 == 0](v)
            for i, v in enumerate(values)
        ]
        texts[block - 1] = texts[block - 1].upper()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(batchparse, "_BLOCK", block)
            assert batchparse.fastpath_mask(texts).all()
            assert batchparse.parse_batch_ints(texts) == values


if HAVE_HYPOTHESIS:

    class TestBlockProperties:
        @pytest.mark.parametrize("block", SMALL_BLOCKS)
        @settings(max_examples=60, deadline=None)
        @given(st.lists(address_tokens(), max_size=40))
        def test_batch_matches_scalar_oracle(self, block, texts):
            _with_block(block, _assert_matches_scalar, texts)

        @pytest.mark.parametrize("block", SMALL_BLOCKS)
        @settings(max_examples=40, deadline=None)
        @given(
            st.lists(
                address_tokens(junk=("\x00", ".", "%", "g", "é")).filter(bool),
                min_size=1,
                max_size=40,
            )
        )
        def test_headerless_log_matches_scalar_oracle(self, block, texts):
            # One token per line, hit count 1, the first at byte 0: every
            # valid line's value, or the first invalid line's number.
            values = [_scalar_or_error(text) for text in texts]
            with tempfile.TemporaryDirectory() as directory:
                path = f"{directory}/day.txt"
                with open(path, "wb") as handle:
                    handle.write("".join(f"{t} 1\n" for t in texts).encode("utf-8"))
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(batchparse, "_BLOCK", block)
                    if None in values:
                        line = values.index(None) + 1
                        with pytest.raises(logfile.LogFormatError, match=f":{line}: "):
                            logfile.read_daily_log_arrays(path)
                        return
                    _day, hi, lo, hits = logfile.read_daily_log_arrays(path)
            merged = sorted(set(values))
            assert batchparse.halves_to_ints(hi, lo) == merged
            assert hits.tolist() == [values.count(v) for v in merged]


class TestRoundTrip:
    def test_random_round_trip(self):
        values = _rand_values(2048)
        hi, lo = batchparse.ints_to_halves(values)
        texts = batchparse.format_batch_list(hi, lo)
        assert texts == [addr.format_address(v) for v in values]
        assert batchparse.parse_batch_ints(texts) == values

    def test_full_form_round_trip(self):
        values = _rand_values(512, seed=99) + EDGE_VALUES
        hi, lo = batchparse.ints_to_halves(values)
        texts = [str(t) for t in batchparse.format_full_batch(hi, lo)]
        assert texts == [addr.format_full(v) for v in values]
        assert batchparse.parse_batch_ints(texts) == values

    def test_halves_conversion_round_trip(self):
        values = EDGE_VALUES + _rand_values(64)
        hi, lo = batchparse.ints_to_halves(values)
        assert hi.dtype == np.uint64 and lo.dtype == np.uint64
        assert batchparse.halves_to_ints(hi, lo) == values

    def test_empty_batch(self):
        hi, lo = batchparse.parse_batch([])
        assert hi.shape == (0,) and lo.shape == (0,)
        assert batchparse.format_batch_list(hi, lo) == []


if HAVE_HYPOTHESIS:

    class TestPropertyBased:
        @settings(max_examples=300, deadline=None)
        @given(st.lists(st.integers(min_value=0, max_value=2**128 - 1), max_size=64))
        def test_format_parse_identity(self, values):
            hi, lo = batchparse.ints_to_halves(values)
            texts = batchparse.format_batch_list(hi, lo)
            assert batchparse.parse_batch_ints(texts) == values
            assert texts == [addr.format_address(v) for v in values]

        @settings(max_examples=200, deadline=None)
        @given(st.integers(min_value=0, max_value=2**128 - 1))
        def test_single_value_matches_scalar_everywhere(self, value):
            for text in (addr.format_address(value), addr.format_full(value)):
                assert batchparse.parse_batch_ints([text]) == [addr.parse(text)]
