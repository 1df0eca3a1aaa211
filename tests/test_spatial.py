"""Unit tests for repro.core.spatial: the array-native spatial engine.

The load-bearing assertion is bit-identity: the vectorized general
densify must return exactly what the tree-based reference
(:func:`repro.trie.aguri.compute_dense_prefixes_tree`) returns, across
randomized address sets and (n, p) classes.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.density import TABLE3_CLASSES, DensityClass, find_dense, table3
from repro.core.mra import adjacent_common_prefix_lengths, aggregate_counts
from repro.core.spatial import (
    _candidate_bounds,
    _nearest_smaller_left,
    _nearest_smaller_right,
    day_spatial_summary,
    dense_runs,
    general_dense_prefixes,
    prefix_runs,
    sweep_spatial,
    threshold_table,
)
from repro.data import store as obstore
from repro.net import addr
from repro.trie.aguri import (
    compute_dense_prefixes_tree,
    dense_prefixes_fixed,
    density_threshold,
)


def p(text: str) -> int:
    return addr.parse(text)


def random_clustered(rng: random.Random, size: int, clusters: int) -> list:
    """Addresses drawn from random-density clusters (plus stragglers)."""
    out = []
    for _ in range(clusters):
        plen = rng.choice([32, 48, 64, 96, 104, 112, 116, 120, 124, 126, 127, 128])
        network = addr.truncate(rng.getrandbits(128), plen)
        for _ in range(rng.randint(1, max(1, size // clusters))):
            offset = rng.getrandbits(128 - plen) if plen < 128 else 0
            out.append(network | offset)
    rng.shuffle(out)
    return out[:size]


class TestThresholdTable:
    def test_matches_reference(self):
        for n, prefix_len in [(1, 0), (2, 112), (64, 112), (3, 120), (2, 124)]:
            table = threshold_table(n, prefix_len)
            for length in range(129):
                expected = min(density_threshold(n, prefix_len, length), 1 << 62)
                assert table[length] == expected

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            threshold_table(0, 112)
        with pytest.raises(ValueError):
            threshold_table(2, 129)


class TestNearestSmaller:
    def naive_left(self, values):
        out = []
        for i in range(len(values)):
            j = i - 1
            while j >= 0 and values[j] >= values[i]:
                j -= 1
            out.append(j)
        return out

    def naive_right(self, values):
        out = []
        for i in range(len(values)):
            j = i + 1
            while j < len(values) and values[j] >= values[i]:
                j += 1
            out.append(j)
        return out

    def test_matches_naive(self):
        rng = random.Random(5)
        for _ in range(60):
            size = rng.randint(1, 120)
            values = np.array(
                [rng.randint(0, 8) for _ in range(size)], dtype=np.int64
            )
            assert _nearest_smaller_left(values).tolist() == self.naive_left(values)
            assert _nearest_smaller_right(values).tolist() == self.naive_right(values)

    def test_monotone_and_flat(self):
        up = np.arange(10, dtype=np.int64)
        assert _nearest_smaller_left(up).tolist() == list(range(-1, 9))
        flat = np.full(6, 3, dtype=np.int64)
        assert _nearest_smaller_left(flat).tolist() == [-1] * 6
        assert _nearest_smaller_right(flat).tolist() == [6] * 6

    def assert_naive(self, values):
        values = np.asarray(values, dtype=np.int64)
        assert _nearest_smaller_left(values).tolist() == self.naive_left(values)
        assert _nearest_smaller_right(values).tolist() == self.naive_right(values)

    def test_empty_and_short_arrays(self):
        for values in ([], [0], [127], [0, 0], [5, 5], [0, 1], [1, 0]):
            self.assert_naive(values)

    def test_long_ties(self):
        rng = random.Random(17)
        self.assert_naive([64] * 700)
        self.assert_naive([64] * 300 + [3] + [64] * 300)
        self.assert_naive([3] * 300 + [64] + [3] * 300)
        for _ in range(10):
            steps = [rng.randint(0, 128) for _ in range(rng.randint(2, 8))]
            widths = [rng.randint(1, 200) for _ in steps]
            self.assert_naive(np.repeat(steps, widths))

    def test_staircases(self):
        up = list(range(129))
        down = up[::-1]
        self.assert_naive(up)
        self.assert_naive(down)
        self.assert_naive(up + down)
        self.assert_naive(down + up)
        self.assert_naive(up * 3)
        self.assert_naive(np.repeat(up, 3))
        self.assert_naive(np.repeat(down, 2).tolist() + up)


class TestPrefixRuns:
    def test_matches_truncate_array(self):
        rng = random.Random(9)
        for _ in range(30):
            values = random_clustered(rng, rng.randint(0, 150), rng.randint(1, 8))
            array = obstore.to_array(values)
            for prefix_len in (0, 32, 64, 112, 128):
                starts, counts = prefix_runs(array, prefix_len)
                aggregates = obstore.truncate_array(array, prefix_len)
                assert starts.shape == counts.shape
                assert len(starts) == aggregates.shape[0]
                assert int(counts.sum()) == array.shape[0]
                for start, length in zip(starts, counts):
                    run = array[start : start + length]
                    truncated = obstore.truncate_array(run, prefix_len)
                    assert truncated.shape[0] == 1

    def test_empty(self):
        starts, counts = prefix_runs(np.empty(0, dtype=obstore.ADDRESS_DTYPE), 112)
        assert starts.tolist() == [] and counts.tolist() == []


class TestDenseRuns:
    def test_matches_fixed_reference(self):
        rng = random.Random(13)
        for _ in range(40):
            values = random_clustered(rng, rng.randint(0, 150), rng.randint(1, 8))
            n = rng.choice([1, 2, 4, 8])
            prefix_len = rng.choice([0, 48, 64, 104, 112, 120, 128])
            expected = dense_prefixes_fixed(values, n, prefix_len)
            found, contained = dense_runs(obstore.to_array(values), n, prefix_len)
            assert found == expected
            assert contained == sum(count for _net, _len, count in expected)


class TestGeneralDensify:
    """The tentpole property: vectorized == tree-based, bit for bit."""

    def test_property_identity_across_classes(self):
        rng = random.Random(4242)
        trials = 0
        for _ in range(120):
            values = random_clustered(rng, rng.randint(0, 250), rng.randint(1, 10))
            if values and rng.random() < 0.4:
                values += rng.choices(values, k=rng.randint(1, 10))
            n = rng.choice([1, 2, 3, 4, 8, 16, 64])
            prefix_len = rng.choice([0, 16, 64, 104, 112, 116, 120, 124, 127, 128])
            widen = rng.random() < 0.5
            expected = compute_dense_prefixes_tree(values, n, prefix_len, widen=widen)
            got = general_dense_prefixes(
                obstore.to_array(values), n, prefix_len, widen=widen
            )
            assert got == expected, (n, prefix_len, widen, sorted(set(values))[:6])
            trials += 1
        assert trials == 120

    def test_table3_classes_on_one_set(self):
        rng = random.Random(77)
        values = random_clustered(rng, 400, 12)
        array = obstore.to_array(values)
        lengths = adjacent_common_prefix_lengths(array)
        for cls in TABLE3_CLASSES:
            expected = compute_dense_prefixes_tree(values, cls.n, cls.p)
            assert general_dense_prefixes(array, cls.n, cls.p, lengths=lengths) == expected

    def test_accepts_int_iterable(self):
        values = [p("2001:db8::1"), p("2001:db8::2"), p("2001:db8::2")]
        assert general_dense_prefixes(values, 2, 112) == [(p("2001:db8::"), 126, 2)]

    def test_empty(self):
        assert general_dense_prefixes([], 2, 112) == []
        assert (
            general_dense_prefixes(np.empty(0, dtype=obstore.ADDRESS_DTYPE), 2, 112)
            == []
        )

    def test_single_address(self):
        assert general_dense_prefixes([p("2001:db8::1")], 2, 112) == []
        assert general_dense_prefixes([p("2001:db8::1")], 1, 112) == []
        # 1@/0 density is met by any single address: the root reports.
        assert general_dense_prefixes([p("2001:db8::1")], 1, 0) == [(0, 0, 1)]

    def test_root_dense_without_branch(self):
        # Two addresses sharing a long prefix, searched at 2@/0: the
        # root (not itself a branch point) absorbs everything.
        values = [p("2001:db8::1"), p("2001:db8::2")]
        assert general_dense_prefixes(values, 2, 0) == [(0, 0, 2)]
        assert compute_dense_prefixes_tree(values, 2, 0) == [(0, 0, 2)]

    def test_widen_identity(self):
        values = [p("2001:db8::1"), p("2001:db8::2"), p("2a00::8001"), p("2a00::8002")]
        expected = compute_dense_prefixes_tree(values, 2, 112, widen=True)
        assert general_dense_prefixes(values, 2, 112, widen=True) == expected
        assert expected == [(p("2001:db8::"), 112, 2), (p("2a00::"), 112, 2)]


ALL_ONES = (1 << 128) - 1

#: Address sets at the ends of the address space, and a lone address.
EDGE_SETS = {
    "all-ones": [ALL_ONES],
    "zero-and-all-ones": [0, ALL_ONES],
    "top-pair": [ALL_ONES - 1, ALL_ONES],
    "single": [p("2001:db8::1")],
}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("prefix_len", [0, 127, 128])
@pytest.mark.parametrize("name", sorted(EDGE_SETS))
class TestSpatialEdges:
    """Both engines agree with the references at the /0 and /128 limits."""

    def test_general_densify_matches_tree(self, name, prefix_len, n):
        values = EDGE_SETS[name]
        for widen in (False, True):
            expected = compute_dense_prefixes_tree(values, n, prefix_len, widen=widen)
            got = general_dense_prefixes(
                obstore.to_array(values), n, prefix_len, widen=widen
            )
            assert got == expected, widen

    def test_dense_runs_match_fixed(self, name, prefix_len, n):
        values = EDGE_SETS[name]
        expected = dense_prefixes_fixed(values, n, prefix_len)
        found, contained = dense_runs(obstore.to_array(values), n, prefix_len)
        assert found == expected
        assert contained == sum(count for _net, _len, count in expected)


class TestSpatialEdgeValues:
    def test_top_pair(self):
        top = EDGE_SETS["top-pair"]
        assert general_dense_prefixes(top, 2, 127) == [(ALL_ONES - 1, 127, 2)]
        assert general_dense_prefixes(top, 2, 128) == []
        assert general_dense_prefixes(top, 3, 0) == []
        assert dense_runs(obstore.to_array(top), 1, 128) == (
            [(ALL_ONES - 1, 128, 1), (ALL_ONES, 128, 1)],
            2,
        )

    def test_ends_of_the_space_meet_only_at_the_root(self):
        ends = EDGE_SETS["zero-and-all-ones"]
        assert general_dense_prefixes(ends, 2, 0) == [(0, 0, 2)]
        assert general_dense_prefixes(ends, 1, 127) == []
        assert dense_runs(obstore.to_array(ends), 1, 127) == (
            [(0, 127, 1), (ALL_ONES - 1, 127, 1)],
            2,
        )


def assert_densify_matches_tree(values, n, prefix_len):
    array = obstore.to_array(values)
    for widen in (False, True):
        expected = compute_dense_prefixes_tree(values, n, prefix_len, widen=widen)
        got = general_dense_prefixes(array, n, prefix_len, widen=widen)
        assert got == expected, (n, prefix_len, widen)


def candidate_pairs(values, n, prefix_len):
    """The pair indices the threshold-table cut keeps, and the pair count."""
    array = obstore.to_array(values)
    lengths = adjacent_common_prefix_lengths(array)
    table = threshold_table(n, prefix_len)
    kept, pos, _left, _right = _candidate_bounds(lengths, table, array.shape[0])
    return kept[pos].tolist(), lengths.shape[0]


class TestCandidatePruning:
    """The pruned bounds against the tree, on sets whose candidate pairs
    (pairs whose length's threshold fits within the set) are pinned."""

    def test_no_candidate_pair(self):
        # n > size at /128: no node of any length can hold n addresses.
        values = [p("2001:db8::1"), p("2001:db8::2"), p("2001:db8::3"), p("2600::1")]
        for n in (5, 8, 64):
            assert candidate_pairs(values, n, 128) == ([], 3)
            assert_densify_matches_tree(values, n, 128)
            assert general_dense_prefixes(values, n, 128) == []

    def test_every_pair_a_candidate(self):
        base = p("2001:db8::")
        values = [base | i for i in range(1, 9)] + [base | 0x10000 | i for i in (1, 2, 7)]
        assert candidate_pairs(values, 2, 112) == (list(range(10)), 10)
        for n, prefix_len in [(2, 112), (2, 120), (3, 124), (4, 112), (8, 112)]:
            assert_densify_matches_tree(values, n, prefix_len)
        assert general_dense_prefixes(values, 2, 112) == [(p("2001:db8::"), 111, 11)]

    def test_runs_touching_both_ends(self):
        low = [p("2001:db8::1"), p("2001:db8::2"), p("2001:db8::3")]
        middle = [p("2400:1::1"), p("2401::1"), p("2600::1"), p("2800::1")]
        high = [p("2a00::1"), p("2a00::2"), p("2a00::3")]
        values = low + middle + high
        size = len(values)
        assert candidate_pairs(values, 2, 112) == ([0, 1, size - 3, size - 2], size - 1)
        for n, prefix_len in [(2, 112), (3, 120), (2, 124), (2, 126)]:
            assert_densify_matches_tree(values, n, prefix_len)
        assert general_dense_prefixes(values, 2, 112) == [
            (p("2001:db8::"), 126, 3),
            (p("2a00::"), 126, 3),
        ]

    def test_single_candidate_between_barriers(self):
        values = [
            p("2400::1"),
            p("2600::1"),
            p("2700::1"),
            p("2700::2"),
            p("2800::1"),
            p("2900::1"),
        ]
        assert candidate_pairs(values, 2, 112) == ([2], 5)
        assert_densify_matches_tree(values, 2, 112)
        assert general_dense_prefixes(values, 2, 112) == [(p("2700::"), 126, 2)]

    def test_nested_runs(self):
        # Two candidate runs split by a barrier; each nests branch nodes
        # (/127 and /126 inside /119, /126 and /127 inside /124), and the second run's lengths sit
        # above the first's, so its bounds must stop at the barrier.
        first = [p("2001:db8::10"), p("2001:db8::11"), p("2001:db8::12")]
        first += [p("2001:db8::100"), p("2001:db8::101")]
        second = [p("2a00::1"), p("2a00::2"), p("2a00::3"), p("2a00::9"), p("2a00::a")]
        values = first + [p("2600::1")] + second
        pairs, num_pairs = candidate_pairs(values, 2, 112)
        assert pairs == [0, 1, 2, 3, 6, 7, 8, 9] and num_pairs == 10
        for n, prefix_len in [(2, 112), (2, 120), (3, 120), (2, 124), (4, 112), (5, 124)]:
            assert_densify_matches_tree(values, n, prefix_len)
        assert general_dense_prefixes(values, 3, 124) == [
            (p("2001:db8::10"), 126, 3),
            (p("2a00::"), 124, 5),
        ]


#: The general-densify classes the spatial benchmark and ``perfbench`` run.
DENSIFY_CLASSES = [(2, 112), (8, 112), (2, 120)]
PROPERTY_CLASSES = sorted({(cls.n, cls.p) for cls in TABLE3_CLASSES} | set(DENSIFY_CLASSES))


@st.composite
def client_shaped_sets(draw):
    """Random IIDs in recurring client /64s, plus a few low-IID clusters."""
    u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
    client_nets = draw(st.lists(u64, min_size=1, max_size=30, unique=True))
    values = set()
    for _ in range(draw(st.integers(min_value=0, max_value=80))):
        net = client_nets[draw(st.integers(0, len(client_nets) - 1))]
        values.add((net << 64) | draw(u64))
    server_nets = draw(st.lists(u64, min_size=0, max_size=3, unique=True))
    for net in server_nets:
        iids = draw(
            st.lists(
                st.one_of(st.integers(1, 0xFF), st.integers(0x100, 0xFFFF)),
                min_size=1,
                max_size=25,
            )
        )
        values.update((net << 64) | iid for iid in iids)
    return sorted(values)


class TestClientShapedProperty:
    """Sparse client-shaped sets, where most pairs are pruned away."""

    @given(client_shaped_sets())
    @settings(max_examples=40, deadline=None)
    def test_matches_tree(self, values):
        for n, prefix_len in PROPERTY_CLASSES:
            assert_densify_matches_tree(values, n, prefix_len)


class TestLengthsShape:
    """A caller's ``lengths`` must be the set's adjacent-LCP array."""

    VALUES = [1, 2, 3, 100, 101, 1 << 127]

    def setup_method(self):
        self.array = obstore.to_array(self.VALUES)
        self.lengths = adjacent_common_prefix_lengths(self.array)

    def wrong_shapes(self):
        return [self.lengths[:2], np.append(self.lengths, 0), self.lengths[None, :]]

    def test_dense_runs_rejects_wrong_shape(self):
        assert dense_runs(self.array, 2, 120, self.lengths)[1] == 5
        for lengths in self.wrong_shapes():
            with pytest.raises(ValueError, match=r"\(size - 1,\) = \(5,\)"):
                dense_runs(self.array, 2, 120, lengths)

    def test_prefix_runs_rejects_wrong_shape(self):
        for lengths in self.wrong_shapes():
            with pytest.raises(ValueError, match=r"\(size - 1,\)"):
                prefix_runs(self.array, 120, lengths)

    def test_find_dense_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=r"\(size - 1,\)"):
            find_dense(self.array, DensityClass(2, 120), self.lengths[:2])

    def test_general_densify_rejects_wrong_shape(self):
        for lengths in self.wrong_shapes():
            for n, prefix_len in [(2, 120), (2, 112), (1, 0)]:
                with pytest.raises(ValueError, match=r"\(size - 1,\)"):
                    general_dense_prefixes(self.array, n, prefix_len, lengths=lengths)

    def test_small_sets_take_empty_lengths(self):
        empty = np.empty(0, dtype=np.int64)
        no_addresses = np.empty(0, dtype=obstore.ADDRESS_DTYPE)
        one = obstore.to_array([p("2001:db8::1")])
        assert general_dense_prefixes(no_addresses, 2, 112, lengths=empty) == []
        assert general_dense_prefixes(one, 1, 0, lengths=empty) == [(0, 0, 1)]
        assert dense_runs(one, 1, 128, empty) == ([(p("2001:db8::1"), 128, 1)], 1)
        with pytest.raises(ValueError, match=r"\(size - 1,\) = \(0,\)"):
            general_dense_prefixes(one, 1, 0, lengths=np.zeros(1, dtype=np.int64))
        with pytest.raises(ValueError, match=r"\(size - 1,\) = \(0,\)"):
            prefix_runs(no_addresses, 112, np.zeros(1, dtype=np.int64))


class TestGoldenTable3:
    """Table 3 on a seeded simulated store, pinned against golden values
    and cross-checked against the tree-based reference."""

    GOLDEN = [
        ("2 @ /124", 97, 288),
        ("3 @ /120", 59, 258),
        ("2 @ /120", 80, 300),
        ("2 @ /116", 80, 300),
        ("64 @ /112", 0, 0),
        ("32 @ /112", 0, 0),
        ("16 @ /112", 2, 36),
        ("8 @ /112", 4, 53),
        ("4 @ /112", 30, 171),
        ("2 @ /112", 80, 300),
        ("2 @ /104", 94, 328),
    ]

    @pytest.fixture(scope="class")
    def union(self):
        from repro.sim import EPOCH_2015_03, InternetConfig, build_internet

        internet = build_internet(seed=42, config=InternetConfig(scale=0.05))
        store = internet.build_store(range(EPOCH_2015_03, EPOCH_2015_03 + 7))
        return store.union_over(store.days())

    def test_golden_rows(self, union):
        assert union.shape[0] == 15713
        rows = {row.density_class.label: row for row in table3(union)}
        for label, num_prefixes, contained in self.GOLDEN:
            assert rows[label].num_prefixes == num_prefixes, label
            assert rows[label].contained_addresses == contained, label

    def test_rows_match_general_densify_widened(self, union):
        # The fixed-length /p search equals the widened general densify
        # restricted to the same count floor on this store.
        for cls in (DensityClass(2, 112), DensityClass(8, 112)):
            fixed, _ = dense_runs(union, cls.n, cls.p)
            widened = [
                entry
                for entry in general_dense_prefixes(union, cls.n, cls.p, widen=True)
                if entry[2] >= cls.n
            ]
            assert fixed == widened


class TestSweepSpatial:
    @pytest.fixture(scope="class")
    def store(self):
        from repro.sim import EPOCH_2015_03, InternetConfig, build_internet

        internet = build_internet(seed=7, config=InternetConfig(scale=0.05))
        return internet.build_store(range(EPOCH_2015_03, EPOCH_2015_03 + 6))

    def test_serial_matches_per_day(self, store):
        classes = [DensityClass(2, 112), DensityClass(2, 120)]
        results = sweep_spatial(store, classes=classes)
        assert [result.day for result in results] == store.days()
        for result in results:
            array = store.array(result.day)
            assert result.total == array.shape[0]
            assert result.mra_counts.tolist() == aggregate_counts(array).tolist()
            expected = day_spatial_summary(array, classes, day=result.day)
            assert result.dense == expected.dense

    def test_jobs_identical(self, store):
        classes = [DensityClass(2, 112)]
        serial = sweep_spatial(store, classes=classes, jobs=1)
        parallel = sweep_spatial(store, classes=classes, jobs=2)
        assert [result.day for result in serial] == [result.day for result in parallel]
        for one, two in zip(serial, parallel):
            assert one.total == two.total
            assert one.dense == two.dense
            assert one.mra_counts.tolist() == two.mra_counts.tolist()

    def test_serial_run_reports_to_sink(self, store):
        sink = []
        sweep_spatial(store, classes=[DensityClass(2, 112)], jobs=1, report_sink=sink)
        assert [report.label for report in sink] == ["spatial-sweep"]
        assert sink[0].clean and sink[0].tasks > 0

    def test_cull_scopes_to_other(self, store):
        from repro.core.census import other_mask

        results = sweep_spatial(store, classes=[DensityClass(2, 112)], cull=True)
        for result in results:
            array = store.array(result.day)
            assert result.total == int(np.count_nonzero(other_mask(array)))

    def test_keep_prefixes_and_accounting(self, store):
        cls = DensityClass(2, 112)
        results = sweep_spatial(store, classes=[cls], keep_prefixes=True)
        for result in results:
            summary = result.dense[0]
            found = result.prefixes[summary.label]
            assert summary.num_prefixes == len(found)
            assert summary.contained_addresses == sum(c for _n, _l, c in found)
            assert summary.possible_addresses == len(found) * cls.span
            if summary.possible_addresses:
                assert summary.address_density == pytest.approx(
                    summary.contained_addresses / summary.possible_addresses
                )

    def test_accepts_plain_tuples_and_day_subset(self, store):
        days = store.days()[:2]
        results = sweep_spatial(store, days=days, classes=[(2, 112)])
        assert [result.day for result in results] == days
        assert results[0].dense[0].label == "2 @ /112"

    def test_empty_store_days(self):
        empty = obstore.ObservationStore()
        assert sweep_spatial(empty) == []


class TestCli:
    def test_main_spatial_smoke(self, capsys):
        from repro.cli import main_spatial

        assert main_spatial(["--simulate", "0.02", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Spatial sweep" in out
        assert "2 @ /112" in out

    def test_main_spatial_cull_and_density(self, capsys):
        from repro.cli import main_spatial

        code = main_spatial(
            ["--simulate", "0.02", "--seed", "1", "--cull", "--density", "4@/112"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "native (Other) addresses" in out
        assert "4 @ /112" in out

    def test_bad_density_rejected(self):
        from repro.cli import main_spatial

        with pytest.raises(SystemExit):
            main_spatial(["--simulate", "0.02", "--density", "nope"])
