"""Unit tests for change detection and plan-aware estimation."""

import random

import pytest

from repro.core.changes import (
    ChangeEvent,
    detect_changes,
    detect_renumbering,
    turnover_series,
)
from repro.core.estimate import (
    SubscriberEstimate,
    estimate_subscribers,
    estimation_error,
)
from repro.data.store import ObservationStore
from repro.net import addr
from repro.sim.registry import AddressRegistry
from repro.sim.scenarios import eu_isp, single_network_store


def p(text: str) -> int:
    return addr.parse(text)


def privacy_iid(rng):
    return rng.getrandbits(64) & ~(1 << 57)


class TestTurnover:
    def test_stable_network_high_retention(self):
        store = ObservationStore()
        highs = [(p("2a00:1::") >> 64) + i for i in range(20)]
        rng = random.Random(1)
        for day in range(5):
            store.add_day(day, [(h << 64) | privacy_iid(rng) for h in highs])
        series = turnover_series(store, range(5), prefix_len=64)
        assert all(point.retention == 1.0 for point in series)
        assert all(point.jaccard == 1.0 for point in series)

    def test_addresses_churn_but_64s_do_not(self):
        store = ObservationStore()
        highs = [(p("2a00:1::") >> 64) + i for i in range(20)]
        rng = random.Random(2)
        for day in range(4):
            store.add_day(day, [(h << 64) | privacy_iid(rng) for h in highs])
        addr_series = turnover_series(store, range(4), prefix_len=128)
        p64_series = turnover_series(store, range(4), prefix_len=64)
        assert all(point.retention == 0.0 for point in addr_series)
        assert all(point.retention == 1.0 for point in p64_series)

    def test_empty_days(self):
        store = ObservationStore()
        store.add_day(1, [1])
        series = turnover_series(store, [0, 1, 2], prefix_len=64)
        assert series[0].retention == 0.0  # day 0 empty
        assert series[1].retention == 0.0  # day 2 empty vs day 1


class TestChangeDetection:
    @staticmethod
    def renumbering_store(switch_day=6, num_days=12, subscribers=30, seed=3):
        """A static-/64 network that migrates to a new prefix mid-series."""
        rng = random.Random(seed)
        store = ObservationStore()
        old = p("2a00:1::") >> 64
        new = p("2a00:ffff::") >> 64
        for day in range(num_days):
            base = new if day >= switch_day else old
            addresses = [
                ((base + sub) << 64) | privacy_iid(rng)
                for sub in range(subscribers)
            ]
            store.add_day(day, addresses)
        return store

    def test_detects_renumbering_day(self):
        store = self.renumbering_store(switch_day=6)
        events = detect_renumbering(store, range(12))
        assert len(events) == 1
        assert events[0].day == 6
        assert events[0].retention == 0.0
        assert events[0].severity > 0.9

    def test_no_false_positive_on_steady_network(self):
        store = self.renumbering_store(switch_day=99)  # never switches
        events = detect_renumbering(store, range(12))
        assert events == []

    def test_pool_churn_not_flagged(self):
        # A dynamic pool reuses its slots daily: /64 retention stays
        # high and no change fires, even though addresses churn.
        rng = random.Random(4)
        store = ObservationStore()
        base = p("2600:1::") >> 64
        for day in range(10):
            slots = rng.sample(range(64), 48)
            store.add_day(day, [((base + slot) << 64) | 1 for slot in slots])
        events = detect_renumbering(store, range(10))
        assert events == []

    def test_baseline_resets_after_event(self):
        # Two renumberings, both detected.
        rng = random.Random(5)
        store = ObservationStore()
        bases = [p("2a00:1::") >> 64, p("2a00:2::") >> 64, p("2a00:3::") >> 64]
        for day in range(18):
            base = bases[min(2, day // 6)]
            store.add_day(
                day,
                [((base + sub) << 64) | privacy_iid(rng) for sub in range(20)],
            )
        events = detect_renumbering(store, range(18))
        assert [event.day for event in events] == [6, 12]

    def test_min_baseline_days_respected(self):
        series = turnover_series(self.renumbering_store(switch_day=2), range(12))
        events = detect_changes(series, min_baseline_days=3)
        # The switch happens before a baseline exists: nothing fires at
        # day 2; the new regime simply becomes the baseline.
        assert all(event.day != 2 for event in events)


class TestEstimation:
    def test_static_network_estimate(self):
        rng = random.Random(7)
        store = ObservationStore()
        highs = [(p("2a00:1::") >> 64) + i for i in range(40)]
        for day in range(0, 14):
            # ~70% of subscribers visit daily.
            active = [h for h in highs if rng.random() < 0.7]
            store.add_day(day, [(h << 64) | privacy_iid(rng) for h in active])
        result = estimate_subscribers(store, range(14))
        assert result.method == "stable-64s"
        assert result.boundary == 64
        assert estimation_error(result.estimate, 40) < 0.35

    def test_shared_64_counts_addresses(self):
        store = ObservationStore()
        high = p("2a00:300:0:101::") >> 64
        hosts = [(high << 64) | (0x1000 + i) for i in range(30)]
        for day in range(0, 14, 2):
            store.add_day(day, hosts)
        result = estimate_subscribers(store, range(0, 14, 2))
        assert result.method == "stable-addresses"
        assert result.naive_64s == 1
        assert estimation_error(result.estimate, 30) < 0.1

    def test_boundary_below_64_truncates_once(self, monkeypatch):
        # Rotating pseudorandom network ids under a /48: the plan boundary
        # is below 64.  The /64 store used to be re-derived once per day;
        # it is now derived once, with the same estimate as before.
        days = list(range(28))
        network = eu_isp(AddressRegistry(seed=11), 11, 150)
        store = single_network_store(network, days, seed=11)
        calls = []
        original = ObservationStore.truncated

        def counting(self, prefix_len):
            calls.append(prefix_len)
            return original(self, prefix_len)

        monkeypatch.setattr(ObservationStore, "truncated", counting)
        result = estimate_subscribers(store, days)
        assert result == SubscriberEstimate(
            boundary=48, naive_64s=248, estimate=34, method="boundary-prefixes"
        )
        assert calls == [64]

    def test_empty_store_falls_back(self):
        result = estimate_subscribers(ObservationStore(), range(5))
        assert result.method == "naive-fallback"
        assert result.estimate == 0

    def test_error_metric(self):
        assert estimation_error(100, 100) == 0.0
        assert estimation_error(200, 100) == pytest.approx(1.0)
        assert estimation_error(50, 100) == pytest.approx(1.0)
        assert estimation_error(0, 100) == float("inf")
