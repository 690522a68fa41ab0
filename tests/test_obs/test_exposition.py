"""Prometheus text exposition: render format and render→parse round-trip."""

import math

import pytest

from repro import obs
from repro.obs.exposition import merge, parse, render


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


class TestRoundTrip:
    def test_full_round_trip(self, registry):
        registry.counter("reqs_total", "Total requests.",
                         labelnames=("outcome",)).labels(outcome="ok").inc(7)
        registry.gauge("depth", "Queue depth.").set(2.5)
        hist = registry.histogram("lat_seconds", "Latency.",
                                  buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            hist.observe(v)

        back = parse(render(registry))

        assert back["reqs_total"]["kind"] == "counter"
        assert back["reqs_total"]["help"] == "Total requests."
        assert back["reqs_total"]["samples"][
            frozenset({("outcome", "ok")})] == 7
        assert back["depth"]["samples"][frozenset()] == 2.5

        hist_back = back["lat_seconds"]["samples"][frozenset()]
        assert hist_back["buckets"] == [(0.1, 1), (1.0, 2), (math.inf, 3)]
        assert hist_back["sum"] == pytest.approx(5.55)
        assert hist_back["count"] == 3

    def test_label_values_round_trip_with_specials(self, registry):
        value = 'sp ace "quote" back\\slash new\nline'
        registry.counter("s_total", labelnames=("v",)).labels(v=value).inc()
        back = parse(render(registry))
        assert back["s_total"]["samples"][frozenset({("v", value)})] == 1

    def test_parse_tolerates_untyped_lines(self):
        back = parse("plain_metric 42\n")
        assert back["plain_metric"]["kind"] == "untyped"
        assert back["plain_metric"]["samples"][frozenset()] == 42.0


class TestMerge:
    """merge(): the multi-process /metrics aggregation primitive."""

    def _render_worker(self, requests, latencies):
        with obs.scoped_registry() as reg:
            reg.counter("reqs_total", "Total requests.",
                        labelnames=("outcome",)).labels(
                            outcome="ok").inc(requests)
            reg.gauge("depth", "Queue depth.").set(requests)
            hist = reg.histogram("lat_seconds", "Latency.",
                                 buckets=(0.1, 1.0))
            for v in latencies:
                hist.observe(v)
            return render(reg)

    def test_counters_gauges_and_histograms_sum(self):
        merged = parse(merge([
            self._render_worker(3, [0.05, 0.5]),
            self._render_worker(4, [5.0]),
        ]))
        assert merged["reqs_total"]["samples"][
            frozenset({("outcome", "ok")})] == 7
        assert merged["depth"]["samples"][frozenset()] == 7
        hist = merged["lat_seconds"]["samples"][frozenset()]
        assert hist["buckets"] == [(0.1, 1), (1.0, 2), (math.inf, 3)]
        assert hist["sum"] == pytest.approx(5.55)
        assert hist["count"] == 3

    def test_disjoint_series_pass_through(self):
        a = "# TYPE only_a_total counter\nonly_a_total 1\n"
        b = "# TYPE only_b_total counter\nonly_b_total 2\n"
        merged = parse(merge([a, b]))
        assert merged["only_a_total"]["samples"][frozenset()] == 1
        assert merged["only_b_total"]["samples"][frozenset()] == 2

    def test_metadata_comes_from_first_definer(self):
        untyped = "m_total 1\n"
        typed = "# HELP m_total Real help.\n# TYPE m_total counter\nm_total 2\n"
        text = merge([untyped, typed])
        assert "# TYPE m_total counter" in text
        assert "# HELP m_total Real help." in text
        assert parse(text)["m_total"]["samples"][frozenset()] == 3

    def test_label_sets_merge_by_value(self):
        a = ('# TYPE r_total counter\n'
             'r_total{model="a"} 1\nr_total{model="b"} 2\n')
        b = '# TYPE r_total counter\nr_total{model="a"} 5\n'
        merged = parse(merge([a, b]))
        samples = merged["r_total"]["samples"]
        assert samples[frozenset({("model", "a")})] == 6
        assert samples[frozenset({("model", "b")})] == 2

    def test_merged_text_round_trips_through_parse(self):
        text = merge([self._render_worker(1, [0.5]),
                      self._render_worker(2, [0.05])])
        again = merge([text])
        assert parse(again) == parse(text)
