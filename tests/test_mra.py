"""Unit tests for repro.core.mra: aggregate counts and MRA ratios."""

import random

import numpy as np
import pytest

from repro.core.mra import (
    MraProfile,
    _bit_length_u64,
    adjacent_common_prefix_lengths,
    aggregate_counts,
    profile,
    profiles_by_group,
    segment_ratio_matrix,
)
from repro.data import store as obstore
from repro.net import addr


def p(text: str) -> int:
    return addr.parse(text)


class TestBitLength:
    def test_matches_python_bit_length(self):
        values = [0, 1, 2, 3, 255, 256, (1 << 32) - 1, 1 << 32, (1 << 64) - 1]
        array = np.array(values, dtype=np.uint64)
        expected = [v.bit_length() for v in values]
        assert _bit_length_u64(array).tolist() == expected

    def test_powers_of_two_boundaries(self):
        values = [1 << k for k in range(64)] + [(1 << k) - 1 for k in range(1, 64)]
        array = np.array(values, dtype=np.uint64)
        expected = [v.bit_length() for v in values]
        assert _bit_length_u64(array).tolist() == expected


class TestAggregateCounts:
    def test_definition_endpoints(self):
        counts = aggregate_counts([p("2001:db8::1"), p("2001:db8::2"), p("2a00::1")])
        assert counts[0] == 1  # n_0 = 1
        assert counts[128] == 3  # n_128 = N

    def test_hand_example(self):
        # 2001:db8::1 and 2001:db8::2 share 126 bits; 2001:db8:8000::1
        # diverges at bit 33.
        values = [p("2001:db8::1"), p("2001:db8::2"), p("2001:db8:8000::1")]
        counts = aggregate_counts(values)
        assert counts[32] == 1
        assert counts[33] == 2
        assert counts[126] == 2
        assert counts[127] == 3

    def test_empty_set(self):
        assert aggregate_counts([]).tolist() == [0] * 129

    def test_single_address(self):
        counts = aggregate_counts([p("2001:db8::1")])
        assert counts.tolist() == [1] * 129

    def test_monotone_nondecreasing(self):
        rng = random.Random(3)
        values = [rng.getrandbits(128) for _ in range(200)]
        counts = aggregate_counts(values)
        assert all(counts[i] <= counts[i + 1] for i in range(128))

    def test_duplicates_collapse(self):
        counts = aggregate_counts([1, 1, 1])
        assert counts[128] == 1

    def test_matches_bruteforce(self):
        rng = random.Random(9)
        values = [rng.getrandbits(128) for _ in range(64)]
        counts = aggregate_counts(values)
        for length in (0, 1, 17, 64, 65, 100, 128):
            brute = len({addr.truncate(v, length) for v in values})
            assert counts[length] == brute

    def test_accepts_prebuilt_array(self):
        array = obstore.to_array([1, 2, 3])
        assert aggregate_counts(array)[128] == 3


class TestAdjacentCommonPrefix:
    def test_split_across_halves(self):
        array = obstore.to_array([p("2001:db8::1"), p("2001:db9::1")])
        lengths = adjacent_common_prefix_lengths(array)
        assert lengths.tolist() == [31]

    def test_low_half_divergence(self):
        array = obstore.to_array([p("2001:db8::1"), p("2001:db8::3")])
        assert adjacent_common_prefix_lengths(array).tolist() == [126]

    def test_short_input(self):
        assert adjacent_common_prefix_lengths(obstore.to_array([1])).shape[0] == 0


class TestRatios:
    def test_range_bounds(self):
        rng = random.Random(5)
        prof = profile([rng.getrandbits(128) for _ in range(100)])
        for k in (1, 4, 16):
            for _, ratio in prof.series(k):
                assert 1.0 <= ratio <= 2.0**k

    def test_ratio_product_equals_size(self):
        rng = random.Random(7)
        prof = profile([rng.getrandbits(128) for _ in range(57)])
        for k in (1, 4, 16):
            assert prof.ratio_product(k) == pytest.approx(prof.size)

    def test_series_positions(self):
        prof = profile([1, 2])
        series16 = prof.series(16)
        assert [pos for pos, _ in series16] == list(range(0, 128, 16))
        assert len(prof.series(1)) == 128

    def test_invalid_k(self):
        prof = profile([1])
        with pytest.raises(ValueError):
            prof.series(3)

    def test_ratio_bounds_checked(self):
        prof = profile([1])
        with pytest.raises(ValueError):
            prof.ratio(128, 1)

    def test_segment_ratios_16(self):
        prof = profile([1, 2])
        ratios = prof.segment_ratios_16()
        assert len(ratios) == 8
        assert ratios[-1] == 2.0  # the two addresses split in the last segment


class TestPrivacySignature:
    """MRA signature of RFC 4941 addressing (Figure 2a)."""

    @staticmethod
    def privacy_set(num_64s: int = 8, per_64: int = 500, seed: int = 1):
        rng = random.Random(seed)
        values = []
        for index in range(num_64s):
            high = (p("2001:db8::") >> 64) | index
            for _ in range(per_64):
                iid = rng.getrandbits(64) & ~(1 << 57)  # u bit cleared
                values.append(addr.from_halves(high, iid))
        return values

    def test_plateau_near_two_past_bit_64(self):
        prof = profile(self.privacy_set())
        for position in range(64, 70):
            assert prof.ratio(position, 1) > 1.9

    def test_u_bit_dip_at_70(self):
        prof = profile(self.privacy_set())
        assert prof.ratio(70, 1) == pytest.approx(1.0)
        assert prof.ratio(71, 1) > 1.9  # the ratio rebounds after the dip

    def test_flatline_at_one_in_deep_tail(self):
        prof = profile(self.privacy_set())
        # Few hundred addresses are sparse in 2^64; the tail is all 1s.
        for position in range(100, 128):
            assert prof.ratio(position, 1) == pytest.approx(1.0)


class TestGroups:
    def test_profiles_by_group(self):
        groups = [("a", [1, 2]), ("b", [3])]
        profiles = profiles_by_group(groups)
        assert profiles[0][0] == "a"
        assert profiles[0][1].size == 2

    def test_segment_ratio_matrix_shape(self):
        profiles = [profile([1, 2]), profile([3, 4, 5])]
        matrix = segment_ratio_matrix(profiles)
        assert matrix.shape == (2, 8)


class TestRatioProductExactness:
    """ratio_product telescopes over the integer counts, so the identity
    ∏ γ = set size holds *exactly* even for million-address sets, where
    repeated float multiplication used to drift below the identity."""

    def test_million_address_set_exact(self):
        rng = np.random.default_rng(99)
        hi = rng.integers(0, 1 << 63, size=1_000_000, dtype=np.uint64)
        lo = rng.integers(0, 1 << 63, size=1_000_000, dtype=np.uint64)
        array = obstore.halves_to_array(hi, lo)
        prof = profile(array)
        for k in (1, 2, 4, 8, 16, 32, 64, 128):
            assert prof.ratio_product(k) == float(prof.size)

    def test_small_sets_exact(self):
        for size in (1, 2, 3, 257):
            prof = profile(list(range(1, size + 1)))
            for k in (1, 16, 128):
                assert prof.ratio_product(k) == float(size)

    def test_empty_set_product_zero(self):
        prof = profile([])
        assert prof.ratio_product(16) == 0.0


class TestCanonicalGuard:
    """Regression: structured-array input used to bypass canonicalization.

    `_as_address_array` passed any ADDRESS_DTYPE ndarray straight through,
    but the adjacent-pair scan is only meaningful on sorted, deduplicated
    input — an unsorted array silently returned wrong aggregate counts.
    """

    def test_shuffled_array_matches_sorted(self):
        rng = np.random.default_rng(17)
        values = [p("2001:db8::") + int(v) for v in rng.integers(0, 1 << 40, 400)]
        canonical = obstore.to_array(values)
        shuffled = canonical[rng.permutation(canonical.shape[0])]
        assert not np.array_equal(shuffled, canonical)
        assert aggregate_counts(shuffled).tolist() == aggregate_counts(canonical).tolist()

    def test_duplicated_array_counts_distinct(self):
        canonical = obstore.to_array([1, 2, 3])
        repeated = np.concatenate([canonical, canonical])
        counts = aggregate_counts(repeated)
        assert counts[128] == 3

    def test_canonical_array_not_copied(self):
        from repro.core.mra import _as_address_array

        canonical = obstore.to_array([5, 6, 7])
        assert _as_address_array(canonical) is canonical

    def test_shuffled_duplicates_match_sorted_set(self):
        from repro.core.mra import _as_address_array

        top = 2**128 - 1
        shared_hi = p("2001:db8::")
        values = [shared_hi + v for v in (0, 1, 2**63, 2**64 - 1, 7)]
        values += [top, top, top - 1, (2**64 - 1) << 64, 0, shared_hi + 7, shared_hi]
        raw = np.empty(len(values), dtype=obstore.ADDRESS_DTYPE)
        raw["hi"] = [v >> 64 for v in values]
        raw["lo"] = [v & (2**64 - 1) for v in values]
        shuffled = raw[np.random.default_rng(5).permutation(raw.shape[0])]
        result = _as_address_array(shuffled)
        assert result.dtype == obstore.ADDRESS_DTYPE
        assert obstore.from_array(result) == sorted(set(values))
