"""HTTP round-trip tests: /predict, /healthz, /stats, error statuses.

A real ``ThreadingHTTPServer`` on an ephemeral port, driven with
``urllib`` — the same path a curl user takes.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.data.synthetic_mnist import to_bipolar
from repro.nn.zoo import build_zoo_model
from repro.serve import InferenceService, create_server, run_server
from repro.serve import server as server_module

LENGTH = 32


def _call(base, path, payload=None):
    """GET (payload None) or POST JSON; returns (status, decoded body)."""
    data = None if payload is None else json.dumps(payload).encode("utf8")
    request = urllib.request.Request(
        base + path, data=data, method="GET" if data is None else "POST",
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=60) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture(scope="module")
def http_service(tiny_trained_lenet):
    service = InferenceService(tiny_trained_lenet, backend="exact",
                               length=LENGTH, max_batch=8, max_wait_ms=10,
                               warm=False)
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield base, service
    server.shutdown()
    server.server_close()
    service.close()


@pytest.fixture(scope="module")
def images(small_dataset):
    _, _, x_test, _ = small_dataset
    return to_bipolar(x_test)[:4].reshape(4, -1)


class TestPredict:
    def test_single_image_roundtrip(self, http_service, images):
        base, service = http_service
        status, reply = _call(base, "/predict",
                              {"image": images[0].tolist()})
        assert status == 200
        assert reply["prediction"] == service.predict_one(images[0])
        assert reply["backend"] == "exact"
        assert reply["latency_ms"] > 0

    def test_nested_28x28_accepted(self, http_service, images):
        base, service = http_service
        nested = images[1].reshape(28, 28).tolist()
        status, reply = _call(base, "/predict", {"image": nested})
        assert status == 200
        assert reply["prediction"] == service.predict_one(images[1])

    def test_batch_roundtrip(self, http_service, images):
        base, service = http_service
        status, reply = _call(
            base, "/predict", {"images": [img.tolist() for img in images]})
        assert status == 200
        assert reply["predictions"] == \
            [service.predict_one(img) for img in images]

    def test_backend_and_seed_overrides(self, http_service, images):
        base, service = http_service
        status, reply = _call(base, "/predict",
                              {"image": images[0].tolist(),
                               "backend": "float", "seed": 5})
        assert status == 200
        assert reply["backend"] == "float"
        assert reply["prediction"] == service.predict_one(
            images[0], backend="float", seed=5)


class TestErrors:
    def test_unknown_backend_400(self, http_service, images):
        base, _ = http_service
        status, reply = _call(base, "/predict",
                              {"image": images[0].tolist(),
                               "backend": "warp"})
        assert status == 400
        assert "unknown backend" in reply["error"]

    def test_missing_body_400(self, http_service):
        base, _ = http_service
        status, reply = _call(base, "/predict", {})
        assert status == 400
        assert "image" in reply["error"]

    def test_image_and_images_together_400(self, http_service, images):
        base, _ = http_service
        status, reply = _call(base, "/predict",
                              {"image": images[0].tolist(),
                               "images": [images[1].tolist()]})
        assert status == 400
        assert "exactly one" in reply["error"]

    def test_wrong_shape_400(self, http_service):
        base, _ = http_service
        status, reply = _call(base, "/predict", {"image": [0.0] * 100})
        assert status == 400
        assert "784" in reply["error"]

    def test_unknown_field_400(self, http_service, images):
        base, _ = http_service
        status, reply = _call(base, "/predict",
                              {"image": images[0].tolist(), "turbo": True})
        assert status == 400
        assert "unknown request fields" in reply["error"]

    def test_length_not_dividing_into_segments_400(self, http_service,
                                                   images):
        """Max pooling needs whole segments: the spec fails at engine
        construction, so the pool keeps no dead engine to hit later."""
        base, service = http_service
        engines = service.stats()["pool"]["engines"]
        for _ in range(2):
            status, reply = _call(base, "/predict",
                                  {"image": images[0].tolist(),
                                   "length": 40})
            assert status == 400
            assert "multiple of segment 16" in reply["error"]
        assert service.stats()["pool"]["engines"] == engines

    def test_unknown_path_404(self, http_service):
        base, _ = http_service
        assert _call(base, "/nope")[0] == 404
        assert _call(base, "/nope", {"x": 1})[0] == 404


class TestTelemetry:
    def test_healthz(self, http_service):
        base, _ = http_service
        status, reply = _call(base, "/healthz")
        assert status == 200
        assert reply["status"] == "ok"
        assert reply["requests"] >= 0

    def test_stats_exposes_batching_telemetry(self, http_service, images):
        base, _ = http_service
        _call(base, "/predict", {"image": images[0].tolist()})
        status, stats = _call(base, "/stats")
        assert status == 200
        assert stats["service"]["latency_ms"]["p95"] > 0
        assert "batch_size_histogram" in stats["batcher"]
        assert stats["pool"]["hit_rate"] is not None
        assert stats["defaults"]["length"] == LENGTH


#: a float-backend service behind ``run_server`` on an ephemeral port;
#: prints whether the service was drained once the server has returned
_RUN_SERVER = """
from repro.nn.zoo import build_zoo_model
from repro.serve import InferenceService, run_server
service = InferenceService(build_zoo_model("mlp", "max", seed=0),
                           backend="float", length=32, warm=False)
run_server(service, port=0, drain_grace=5.0)
print("returned draining=%s" % service.draining, flush=True)
"""


class TestRunServer:
    def test_sigterm_drains_and_exits_zero(self):
        """SIGTERM runs the graceful drain: the server stops, the service
        is drained and closed, and the process exits 0 (not -SIGTERM)."""
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).parents[1]))
        proc = subprocess.Popen([sys.executable, "-u", "-c", _RUN_SERVER],
                                stdout=subprocess.PIPE, text=True, env=env)
        watchdog = threading.Timer(120, proc.kill)  # bounds readline()
        watchdog.start()
        try:
            lines = []
            while not any("listening on" in line for line in lines):
                line = proc.stdout.readline()
                assert line, f"server exited early: {lines}"
                lines.append(line)
            base = lines[-1].split()[-1]
            status, health = _call(base, "/healthz")
            assert status == 200 and health["status"] == "ok"
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "returned draining=True" in out

    def test_off_main_thread_leaves_sigterm_alone(self, monkeypatch):
        """Off the main thread no SIGTERM handler can be installed; the
        server still runs, and its shutdown closes the service."""
        servers, created = [], threading.Event()

        def capture(*args, **kwargs):
            servers.append(create_server(*args, **kwargs))
            created.set()
            return servers[-1]

        monkeypatch.setattr(server_module, "create_server", capture)
        service = InferenceService(build_zoo_model("mlp", "max", seed=0),
                                   backend="float", length=32, warm=False)
        before = signal.getsignal(signal.SIGTERM)
        thread = threading.Thread(target=run_server, args=(service,),
                                  kwargs={"port": 0}, daemon=True)
        thread.start()
        assert created.wait(30)
        base = f"http://127.0.0.1:{servers[0].server_address[1]}"
        assert _call(base, "/healthz")[0] == 200
        assert signal.getsignal(signal.SIGTERM) is before
        servers[0].shutdown()
        thread.join(30)
        assert not thread.is_alive()
        with pytest.raises(RuntimeError, match="closed"):
            service.predict_one(np.zeros(784))
