"""Metrics registry: semantics, arming, and scrape consistency.

The load-bearing property is the last class: snapshots taken *while*
worker threads write must be internally coherent (a histogram's +Inf
cumulative count equals its count, bucket counts are monotone), and
once writers join, totals are exact — no lost updates.
"""

import math
import threading

import pytest

from repro import obs
from repro.obs.registry import (
    DEFAULT_TIME_BUCKETS,
    Histogram,
    MetricsRegistry,
    log_buckets,
    set_armed,
)


@pytest.fixture()
def registry():
    with obs.scoped_registry() as reg:
        yield reg


class TestLogBuckets:
    def test_increasing_and_covering(self):
        bounds = log_buckets(1e-4, 60.0, per_decade=3)
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
        assert bounds[0] == pytest.approx(1e-4)
        assert bounds[-1] >= 60.0

    def test_default_time_buckets_are_log_buckets(self):
        assert DEFAULT_TIME_BUCKETS == log_buckets(1e-4, 60.0, per_decade=3)

    def test_three_sig_figs(self):
        for b in log_buckets(1e-3, 10.0, per_decade=4):
            assert float(f"{b:.3g}") == b

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)])
    def test_bad_range_rejected(self, lo, hi):
        with pytest.raises(ValueError):
            log_buckets(lo, hi)


class TestCounterGauge:
    def test_counter_accumulates(self, registry):
        c = registry.counter("c_total")
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)

    def test_counter_rejects_negative(self, registry):
        with pytest.raises(ValueError):
            registry.counter("c_total").inc(-1)

    def test_gauge_set_inc_dec(self, registry):
        g = registry.gauge("g")
        g.set(7)
        g.inc(3)
        g.dec()
        assert g.value == pytest.approx(9.0)

    def test_labeled_children_are_independent(self, registry):
        fam = registry.counter("hits_total", labelnames=("tier",))
        fam.labels(tier="native").inc(5)
        fam.labels(tier="numpy").inc(1)
        assert fam.labels(tier="native").value == 5
        assert fam.labels(tier="numpy").value == 1

    def test_label_name_mismatch_raises(self, registry):
        fam = registry.counter("hits_total", labelnames=("tier",))
        with pytest.raises(ValueError):
            fam.labels(kernel="popcount")
        with pytest.raises(ValueError):
            fam.inc()  # labeled family has no solo child

    def test_kind_collision_raises(self, registry):
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")

    def test_labelnames_collision_raises(self, registry):
        registry.counter("y_total", labelnames=("a",))
        with pytest.raises(ValueError):
            registry.counter("y_total", labelnames=("b",))

    def test_reregistration_returns_same_family(self, registry):
        assert registry.counter("z_total") is registry.counter("z_total")

    def test_bad_metric_name_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.counter("bad name")


class TestHistogram:
    def test_snapshot_coherent(self, registry):
        h = registry.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        snap = h._solo().snapshot()
        bounds = [b for b, _ in snap["buckets"]]
        cums = [c for _, c in snap["buckets"]]
        assert bounds == [0.1, 1.0, 10.0, math.inf]
        assert cums == [1, 3, 4, 5]
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(56.05)

    def test_boundary_value_lands_in_le_bucket(self):
        h = Histogram(buckets=(1.0, 2.0))
        h.observe(1.0)  # le="1" is inclusive (Prometheus semantics)
        assert h.snapshot()["buckets"][0] == (1.0, 1)

    def test_bad_buckets_rejected(self):
        for bad in ((), (1.0, 1.0), (2.0, 1.0)):
            with pytest.raises(ValueError):
                Histogram(buckets=bad)


class TestArming:
    def test_disarmed_mutations_are_noops(self, registry):
        c = registry.counter("c_total")
        g = registry.gauge("g")
        h = registry.histogram("h")
        set_armed(False)
        try:
            c.inc()
            g.set(9)
            h.observe(1.0)
        finally:
            set_armed(True)
        assert c.value == 0
        assert g.value == 0
        assert h._solo().count == 0

    def test_scoped_registry_isolates_and_restores(self):
        outer = obs.get_registry()
        with obs.scoped_registry() as inner:
            assert obs.get_registry() is inner
            obs.counter("scoped_total").inc()
            assert inner.counter("scoped_total").value == 1
        assert obs.get_registry() is outer
        assert "scoped_total" not in outer.snapshot()


class TestConcurrentScrapes:
    """Snapshots under live writers: coherent during, exact after."""

    WRITERS = 4
    EVENTS = 2000

    def test_histogram_scrape_coherence_and_no_lost_updates(self, registry):
        hist = registry.histogram("work_seconds", buckets=(0.25, 0.5, 0.75))
        counter = registry.counter("work_total", labelnames=("who",))
        stop = threading.Event()

        def write(who):
            child = counter.labels(who=str(who))
            for i in range(self.EVENTS):
                hist.observe((i % 100) / 100.0)
                child.inc()

        threads = [threading.Thread(target=write, args=(w,))
                   for w in range(self.WRITERS)]
        for t in threads:
            t.start()

        # Scrape continuously while writers run; every snapshot must be
        # internally coherent even though the totals are still moving.
        try:
            while any(t.is_alive() for t in threads):
                snap = registry.snapshot()
                sample = snap["work_seconds"]["samples"][()]
                cums = [c for _, c in sample["buckets"]]
                assert all(c2 >= c1 for c1, c2 in zip(cums, cums[1:]))
                assert cums[-1] == sample["count"]
        finally:
            stop.set()
            for t in threads:
                t.join()

        final = registry.snapshot()
        sample = final["work_seconds"]["samples"][()]
        assert sample["count"] == self.WRITERS * self.EVENTS
        assert sample["buckets"][-1][1] == self.WRITERS * self.EVENTS
        for w in range(self.WRITERS):
            assert final["work_total"]["samples"][(str(w),)] == self.EVENTS
