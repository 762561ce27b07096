"""Statistics registry tests."""

from repro.sim.stats import Histogram, StatsRegistry


def test_registry_creates_on_demand():
    stats = StatsRegistry()
    assert stats.get("missing") == 0
    stats.add("bus.transactions")
    assert stats.get("bus.transactions") == 1


def test_registry_prefix_totals():
    stats = StatsRegistry()
    stats.add("bus.tx.BusRd", 3)
    stats.add("bus.tx.BusRdX", 2)
    stats.add("cpu0.l1_hit", 10)
    assert stats.total("bus.tx.") == 5
    assert stats.total("cpu") == 10


def test_registry_as_dict_sorted():
    stats = StatsRegistry()
    stats.add("zeta")
    stats.add("alpha", 2)
    assert list(stats.as_dict()) == ["alpha", "zeta"]


def test_registry_reset():
    stats = StatsRegistry()
    stats.add("a", 7)
    stats.reset()
    assert stats.get("a") == 0


class TestFlushers:
    def test_flusher_runs_before_any_read(self):
        stats = StatsRegistry()
        pending = {"events": 5}

        def flush():
            stats.add("layer.events", pending.pop("events", 0))

        stats.register_flusher(flush)
        assert stats.get("layer.events") == 5

    def test_reentrant_read_during_drain_does_not_recurse(self):
        """A flusher may itself read the registry (e.g. to branch on a
        counter); the nested read must not re-enter the flusher list."""
        stats = StatsRegistry()
        calls = []

        def flush():
            calls.append("flush")
            # Nested read mid-drain: must return without re-draining.
            stats.get("whatever")
            stats.add("layer.flushed", 1)

        stats.register_flusher(flush)
        assert stats.get("layer.flushed") == 1
        assert calls == ["flush"]

    def test_drain_is_idempotent(self):
        """Back-to-back reads drain once each but observe identical
        values: a well-behaved flusher moves pending counts exactly
        once."""
        stats = StatsRegistry()
        pending = {"value": 3}

        def flush():
            stats.add("layer.count", pending.pop("value", 0))

        stats.register_flusher(flush)
        first = stats.as_dict()
        second = stats.as_dict()
        third = stats.as_dict()
        assert first == second == third == {"layer.count": 3}

    def test_reset_drains_registered_flushers_first(self):
        """reset() must not leak pre-reset pending counts into
        post-reset reads: the pending raw count is drained, then
        zeroed with everything else."""
        stats = StatsRegistry()
        pending = {"value": 9}

        def flush():
            stats.add("layer.count", pending.pop("value", 0))

        stats.register_flusher(flush)
        stats.reset()
        assert stats.get("layer.count") == 0
        # The flusher fired during reset, not on the later read.
        assert "value" not in pending

    def test_flusher_after_reset_keeps_working(self):
        stats = StatsRegistry()
        box = {"value": 0}

        def flush():
            value, box["value"] = box["value"], 0
            if value:
                stats.add("layer.count", value)

        stats.register_flusher(flush)
        box["value"] = 2
        assert stats.get("layer.count") == 2
        stats.reset()
        box["value"] = 4
        assert stats.get("layer.count") == 4


class TestHistogram:
    def test_empty(self):
        histogram = Histogram("h")
        summary = histogram.summary()
        assert summary["count"] == 0
        assert summary["mean"] == 0.0
        assert summary["buckets"] == []
        assert histogram.percentile(0.99) == 0

    def test_moments_are_exact(self):
        histogram = Histogram("h")
        for value in (0, 1, 2, 3, 100):
            histogram.record(value)
        summary = histogram.summary()
        assert summary["count"] == 5
        assert summary["sum"] == 106
        assert summary["min"] == 0
        assert summary["max"] == 100
        assert summary["mean"] == round(106 / 5, 3)

    def test_power_of_two_buckets(self):
        histogram = Histogram("h")
        histogram.record_many([0, 1, 2, 3, 4, 7, 8, 1023])
        assert histogram.buckets() == [
            (0, 0, 1),      # 0
            (1, 1, 1),      # 1
            (2, 3, 2),      # 2, 3
            (4, 7, 2),      # 4, 7
            (8, 15, 1),     # 8
            (512, 1023, 1),  # 1023
        ]

    def test_negative_values_clamp_to_zero(self):
        histogram = Histogram("h")
        histogram.record(-5)
        assert histogram.buckets() == [(0, 0, 1)]
        assert histogram.summary()["min"] == 0

    def test_percentile_is_bucket_bounded(self):
        histogram = Histogram("h")
        histogram.record_many([1] * 99 + [1000])
        assert histogram.percentile(0.50) == 1
        # p100 lands in 1000's bucket [512, 1023], capped at max.
        assert histogram.percentile(1.0) == 1000

    def test_recording_is_deferred_until_read(self):
        histogram = Histogram("h")
        histogram.record(42)
        assert histogram._pending == [42]  # not yet bucketed
        assert histogram.count == 0
        assert histogram.summary()["count"] == 1
        assert histogram._pending == []

    def test_reset(self):
        histogram = Histogram("h")
        histogram.record_many([1, 2, 3])
        histogram.summary()
        histogram.record(4)  # pending at reset time
        histogram.reset()
        assert histogram.summary()["count"] == 0


class TestRegistryHistograms:
    def test_get_or_create_identity(self):
        stats = StatsRegistry()
        assert stats.histogram("h") is stats.histogram("h")

    def test_separate_namespace_from_counters(self):
        """Histograms must never appear in as_dict(): golden stats
        digests are pinned on the counter snapshot alone."""
        stats = StatsRegistry()
        stats.add("counter", 1)
        stats.histogram("dist").record(7)
        assert stats.as_dict() == {"counter": 1}
        assert stats.get("dist") == 0

    def test_histograms_read_drains_flushers(self):
        stats = StatsRegistry()
        histogram = stats.histogram("dist")
        stats.register_flusher(lambda: histogram.record(11))
        summaries = stats.histogram_summaries()
        assert summaries["dist"]["count"] == 1
        assert summaries["dist"]["max"] == 11

    def test_summaries_skip_empty(self):
        stats = StatsRegistry()
        stats.histogram("empty")
        stats.histogram("full").record(1)
        assert list(stats.histogram_summaries()) == ["full"]

    def test_reset_covers_histograms(self):
        stats = StatsRegistry()
        stats.histogram("dist").record_many([5, 6])
        stats.reset()
        assert stats.histogram_summaries() == {}
