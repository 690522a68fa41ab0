"""Prometheus text exposition: render format and the snapshot merge."""

import copy
import math

import pytest

from repro import obs
from repro.obs.exposition import merge, render


@pytest.fixture()
def registry():
    with obs.scoped_registry() as reg:
        yield reg


class TestRender:
    def test_counter_with_help_and_type(self, registry):
        registry.counter("reqs_total", "Requests served.").inc(3)
        text = render(registry)
        assert "# HELP reqs_total Requests served." in text
        assert "# TYPE reqs_total counter" in text
        assert "reqs_total 3" in text.splitlines()

    def test_labeled_samples_sorted_and_quoted(self, registry):
        fam = registry.counter("k_total", labelnames=("kernel", "tier"))
        fam.labels(kernel="popcount", tier="native").inc()
        fam.labels(kernel="apc", tier="numpy").inc(2)
        lines = render(registry).splitlines()
        samples = [l for l in lines if l.startswith("k_total{")]
        assert samples == [
            'k_total{kernel="apc",tier="numpy"} 2',
            'k_total{kernel="popcount",tier="native"} 1',
        ]

    def test_histogram_series_expansion(self, registry):
        registry.histogram("lat_seconds", buckets=(0.5, 1.0)).observe(0.7)
        lines = render(registry).splitlines()
        assert 'lat_seconds_bucket{le="0.5"} 0' in lines
        assert 'lat_seconds_bucket{le="1"} 1' in lines
        assert 'lat_seconds_bucket{le="+Inf"} 1' in lines
        assert "lat_seconds_sum 0.7" in lines
        assert "lat_seconds_count 1" in lines

    def test_render_accepts_snapshot_dict(self, registry):
        registry.gauge("depth").set(4)
        assert render(registry.snapshot()) == render(registry)

    def test_empty_registry_renders_empty(self, registry):
        assert render(registry) == ""

    def test_escaping_in_help_and_label_values(self, registry):
        fam = registry.counter("esc_total", 'line\nbreak "q" \\slash',
                               labelnames=("path",))
        fam.labels(path='a "b"\n\\c with space').inc()
        text = render(registry)
        assert '# HELP esc_total line\\nbreak \\"q\\" \\\\slash' in text
        assert "\n\\c" not in text  # newline stayed escaped


class TestMerge:
    """merge(): the multi-process /metrics aggregation primitive."""

    @staticmethod
    def _worker(requests, latencies, paths=("ok",)):
        reg = obs.MetricsRegistry()
        family = reg.counter("reqs_total", "Total requests.",
                             labelnames=("outcome", "path"))
        for path in paths:
            family.labels(outcome="ok", path=path).inc(requests)
        reg.gauge("depth", "Queue depth.").set(requests)
        hist = reg.histogram("lat_seconds", "Latency.", buckets=(0.1, 1.0))
        for v in latencies:
            hist.observe(v)
        return reg.snapshot()

    def test_counters_gauges_and_histograms_sum(self):
        merged = merge([self._worker(3, [0.05, 0.5]),
                        self._worker(4, [5.0])])
        assert merged["reqs_total"]["samples"][("ok", "ok")] == 7
        assert merged["depth"]["samples"][()] == 7
        hist = merged["lat_seconds"]["samples"][()]
        assert hist["buckets"] == [(0.1, 1), (1.0, 2), (math.inf, 3)]
        assert hist["sum"] == pytest.approx(5.55)
        assert hist["count"] == 3

    def test_disjoint_series_pass_through(self):
        a, b = obs.MetricsRegistry(), obs.MetricsRegistry()
        a.counter("only_a_total").inc(1)
        b.counter("only_b_total").inc(2)
        merged = merge([a.snapshot(), b.snapshot()])
        assert merged["only_a_total"]["samples"] == {(): 1}
        assert merged["only_b_total"]["samples"] == {(): 2}

    def test_metadata_comes_from_first_definer(self):
        a, b = obs.MetricsRegistry(), obs.MetricsRegistry()
        a.counter("m_total", "First help.").inc(1)
        b.counter("m_total", "Second help.").inc(2)
        text = render(merge([a.snapshot(), b.snapshot()]))
        assert "# HELP m_total First help." in text
        assert "# TYPE m_total counter" in text
        assert "m_total 3" in text.splitlines()

    def test_label_sets_merge_by_value(self):
        a, b = obs.MetricsRegistry(), obs.MetricsRegistry()
        for reg, counts in ((a, {"a": 1, "b": 2}), (b, {"a": 5})):
            family = reg.counter("r_total", labelnames=("model",))
            for model, n in counts.items():
                family.labels(model=model).inc(n)
        merged = merge([a.snapshot(), b.snapshot()])
        assert merged["r_total"]["samples"] == {("a",): 6, ("b",): 2}

    def test_no_snapshots_merge_to_an_empty_page(self):
        assert merge([]) == {}
        assert render(merge([])) == ""

    def test_inputs_are_not_mutated(self):
        snapshots = [self._worker(1, [0.5]), self._worker(2, [0.05])]
        before = copy.deepcopy(snapshots)
        merge(snapshots)
        assert snapshots == before

    def test_one_snapshot_renders_as_the_registry(self, registry):
        registry.counter("reqs_total", labelnames=("outcome",)).labels(
            outcome="ok").inc(2)
        registry.histogram("lat_seconds", buckets=(0.1,)).observe(0.05)
        assert render(merge([registry.snapshot()])) == render(registry)

    def test_rendered_merge_pins_the_page(self):
        """Labeled counter with escaped values, gauge and histogram from
        two processes; bucket counts stay integers, as on a one-process
        page."""
        path = 'a "b"\n\\c sp'
        text = render(merge([
            self._worker(3, [0.05, 0.5], paths=(path, "/x")),
            self._worker(4, [5.0, 0.25], paths=(path,)),
        ]))
        assert text == (
            '# HELP depth Queue depth.\n'
            '# TYPE depth gauge\n'
            'depth 7\n'
            '# HELP lat_seconds Latency.\n'
            '# TYPE lat_seconds histogram\n'
            'lat_seconds_bucket{le="0.1"} 1\n'
            'lat_seconds_bucket{le="1"} 3\n'
            'lat_seconds_bucket{le="+Inf"} 4\n'
            'lat_seconds_sum 5.8\n'
            'lat_seconds_count 4\n'
            '# HELP reqs_total Total requests.\n'
            '# TYPE reqs_total counter\n'
            'reqs_total{outcome="ok",path="/x"} 3\n'
            'reqs_total{outcome="ok",path="a \\"b\\"\\n\\\\c sp"} 7\n')
