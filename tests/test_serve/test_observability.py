"""Serve-tier observability: /metrics, gauges, rolling throughput, traces.

The trace test is the PR's acceptance check: one served HTTP request
must leave a JSONL trail from which the critical path — parse → queue
wait → coalesce → compute → engine forward — reconstructs by parent
links alone.
"""

import json
import threading
import time
import urllib.request

import pytest

from repro import obs
from repro.data.synthetic_mnist import to_bipolar
from repro.obs import trace
from repro.serve import InferenceService, create_server
from repro.serve.stats import LatencyTracker

LENGTH = 32


@pytest.fixture()
def image(small_dataset):
    _, _, x_test, _ = small_dataset
    return to_bipolar(x_test)[0].reshape(-1)


@pytest.fixture()
def observed_service(tiny_trained_lenet, tmp_path):
    """A live HTTP service with tracing armed and an isolated registry.

    Yields ``(base_url, service, records)`` where ``records()`` loads
    the JSONL trace written so far.
    """
    trace_path = tmp_path / "trace.jsonl"
    with obs.scoped_registry():
        trace.configure(str(trace_path))
        service = InferenceService(tiny_trained_lenet, backend="exact",
                                   length=LENGTH, max_batch=8,
                                   max_wait_ms=10, warm=False)
        server = create_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            yield base, service, lambda: [
                json.loads(line)
                for line in trace_path.read_text().splitlines()]
        finally:
            server.shutdown()
            server.server_close()
            service.close()
            trace.configure(None)


def _sample(text, series) -> float:
    """Sum of an exposition series' samples: ``series`` is a bare name
    (every label set) or a name with its labels (that sample alone)."""
    total = 0.0
    for line in text.splitlines():
        head, _, value = line.rpartition(" ")
        if head == series or head.startswith(series + "{"):
            total += float(value)
    return total


def _predict(base, image):
    request = urllib.request.Request(
        base + "/predict", data=json.dumps({"image": image.tolist()}).encode(),
        method="POST", headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=60) as reply:
        return json.loads(reply.read())


class TestMetricsEndpoint:
    def test_scrape_exposes_serve_series(self, observed_service, image):
        base, _, _ = observed_service
        reply = _predict(base, image)
        assert reply["prediction"] in range(10)

        with urllib.request.urlopen(base + "/metrics", timeout=10) as resp:
            assert resp.status == 200
            assert "text/plain" in resp.headers["Content-Type"]
            text = resp.read().decode()

        assert _sample(text, 'repro_serve_requests_total{outcome="ok"}') >= 1
        count = _sample(text, "repro_serve_latency_seconds_count")
        assert count >= 1
        assert _sample(text, 'repro_serve_latency_seconds_bucket{le="+Inf"}'
                       ) == count
        # scrape-time gauges published by export_gauges()
        lines = text.splitlines()
        assert "# TYPE repro_serve_queue_depth gauge" in lines
        assert "repro_serve_inflight_batches 0" in lines
        assert _sample(text, "repro_pool_engines") >= 1
        assert _sample(text, "repro_serve_batches_total") >= 1
        # the engine's per-layer histogram, labelled with the kernel tier
        layers = [line for line in lines
                  if line.startswith("repro_engine_layer_seconds_count{")]
        assert layers and all('tier="' in line for line in layers)

    def test_in_process_page_is_the_registry_rendered(
            self, observed_service, image):
        """One process: merging the lone snapshot changes no byte."""
        base, service, _ = observed_service
        _predict(base, image)
        # the batch worker drops its in-flight count after replying
        deadline = time.monotonic() + 10.0
        while (service.batcher.stats()["inflight_batches"]
               and time.monotonic() < deadline):
            time.sleep(0.01)
        text = service.metrics_text()
        service.export_gauges()
        assert text == obs.render(obs.get_registry())

    def test_stats_reports_window_throughput_and_inflight(
            self, observed_service, image):
        base, _, _ = observed_service
        _predict(base, image)
        with urllib.request.urlopen(base + "/stats", timeout=10) as resp:
            stats = json.loads(resp.read())
        assert stats["service"]["throughput_rps_window"] > 0
        assert stats["service"]["throughput_window_s"] == 30.0
        assert stats["batcher"]["inflight_batches"] == 0
        assert "queued" in stats["batcher"]


class TestCriticalPathTrace:
    def test_request_trace_reconstructs_pipeline(self, observed_service,
                                                 image):
        base, _, records = observed_service
        _predict(base, image)
        # The handler's serve.http span closes after the reply bytes are
        # written, so the client can read the trace before it lands.
        deadline = time.monotonic() + 10.0
        recs = records()
        while (not any(r["name"] == "serve.http" for r in recs)
               and time.monotonic() < deadline):
            time.sleep(0.01)
            recs = records()
        by_id = {r["span"]: r for r in recs}
        by_name = {}
        for r in recs:
            by_name.setdefault(r["name"], []).append(r)

        http = by_name["serve.http"][0]
        assert http["parent"] is None
        assert by_name["serve.parse"][0]["parent"] == http["span"]
        assert by_name["serve.respond"][0]["parent"] == http["span"]

        predict = by_name["serve.predict"][0]
        assert predict["parent"] == http["span"]

        # Worker-side spans stitch back to the request via the ticket's
        # captured trace token, across the thread boundary.
        queue = by_name["serve.queue"][0]
        coalesce = by_name["serve.coalesce"][0]
        compute = by_name["serve.compute"][0]
        assert queue["parent"] == predict["span"]
        assert coalesce["parent"] == predict["span"]
        assert compute["parent"] == predict["span"]
        assert compute["thread"] != predict["thread"]

        forward = by_name["engine.forward"][0]
        assert forward["parent"] == compute["span"]
        assert by_name["engine.encode"][0]["parent"] == forward["span"]
        layers = by_name["engine.layer"]
        assert all(l["parent"] == forward["span"] for l in layers)
        assert [l["tags"]["index"] for l in layers] == \
            list(range(len(layers)))

        # Every span id is unique and every parent resolves (or is root).
        assert len(by_id) == len(recs)
        for r in recs:
            assert r["parent"] is None or r["parent"] in by_id

    def test_queue_span_precedes_compute(self, observed_service, image):
        base, _, records = observed_service
        _predict(base, image)
        by_name = {r["name"]: r for r in records()}
        queue, compute = by_name["serve.queue"], by_name["serve.compute"]
        q_end = queue["ts"] + queue["dur_ms"] / 1e3
        c_end = compute["ts"] + compute["dur_ms"] / 1e3
        assert queue["ts"] <= compute["ts"] + 1e-3
        assert q_end <= c_end + 1e-3


class TestStatsCli:
    def test_stats_verb_against_live_server(self, observed_service, image,
                                            capsys):
        from repro.__main__ import _stats
        base, _, _ = observed_service
        _predict(base, image)
        assert _stats(["--url", base, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["service"]["requests"] >= 1
        assert _stats(["--url", base]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert _stats(["--url", base, "--metrics"]) == 0
        assert "repro_serve_requests_total" in capsys.readouterr().out

    def test_stats_verb_unreachable_is_error(self, capsys):
        from repro.__main__ import _stats
        assert _stats(["--url", "http://127.0.0.1:9", "--timeout",
                       "0.2"]) == 1
        assert "cannot reach" in capsys.readouterr().err


class TestRollingThroughput:
    def test_window_rate_tracks_recent_load_only(self):
        now = [1000.0]
        tracker = LatencyTracker(window_s=10.0, clock=lambda: now[0])
        for _ in range(50):
            tracker.record(0.01)
        now[0] += 5.0
        summary = tracker.summary()
        assert summary["throughput_rps_window"] == pytest.approx(10.0)
        # Lifetime rate agrees while young...
        assert summary["throughput_rps"] == pytest.approx(10.0)
        # ...but after a long quiet spell only the window rate drops to 0.
        now[0] += 100.0
        summary = tracker.summary()
        assert summary["throughput_rps_window"] == 0.0
        assert summary["throughput_rps"] == pytest.approx(50 / 105.0,
                                                          abs=1e-3)

    def test_young_server_divides_by_uptime_not_window(self):
        now = [0.0]
        tracker = LatencyTracker(window_s=30.0, clock=lambda: now[0])
        now[0] = 2.0
        for _ in range(100):
            tracker.record(0.001)
        assert tracker.summary()["throughput_rps_window"] == \
            pytest.approx(50.0)

    def test_outcomes_mirror_into_registry(self):
        with obs.scoped_registry() as registry:
            tracker = LatencyTracker()
            tracker.record(0.02)
            tracker.record_error()
            tracker.record_shed()
            fam = registry.counter("repro_serve_requests_total",
                                   labelnames=("outcome",))
            assert fam.labels(outcome="ok").value == 1
            assert fam.labels(outcome="error").value == 1
            assert fam.labels(outcome="shed").value == 1
            hist = registry.histogram("repro_serve_latency_seconds")
            assert hist._solo().count == 1  # errors/sheds have no latency
