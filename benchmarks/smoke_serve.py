"""CI smoke test for ``python -m repro serve``: start, POST, drain.

Launches the real CLI server as a subprocess (quick-trained model, short
streams), waits for ``/healthz``, POSTs one image on the exact and
surrogate backends, asserts 200 + a valid prediction, checks ``/stats``
exposes the batcher/pool telemetry, scrapes ``/metrics`` *while a burst
of requests is in flight* (every required series must be present and no
sample may be NaN) — then exercises the graceful-drain path: with a
fault-injected slow batch in flight, SIGTERM must flip ``/healthz`` to
draining, complete the in-flight reply (a dropped reply fails the
smoke), and exit 0 within 5 s of that reply.  The server runs with
``REPRO_TRACE`` armed (honoring a caller-set path so CI can upload the
JSONL as an artifact); after shutdown the trace must reconstruct at
least one request's queue → coalesce → compute → engine critical path.  Uses only the
standard library so it runs on every CI job unchanged::

    PYTHONPATH=src python benchmarks/smoke_serve.py

``--procs N`` runs the same smoke against the multi-process tier
(``python -m repro serve --procs N``): the ``/stats`` assertions switch
to the aggregated multi-process schema, and after the SIGTERM drain the
script additionally asserts that no worker process the server reported
under ``/stats`` is still alive.  The trace critical-path check is
skipped in that mode — worker spans live in other processes and are not
stitched to the frontend's ``serve.predict`` span.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
STARTUP_TIMEOUT_S = 180.0

#: Once its last in-flight reply is out, a draining server only has to
#: shut down; a close that has to SIGTERM its workers takes longer.
EXIT_AFTER_DRAIN_S = 5.0

#: Injected slow-down for the drain phase: only the drain request uses
#: the float backend, so only its compute batches sleep — guaranteeing
#: the request is still in flight when SIGTERM lands.
DRAIN_FAULTS = ("site=serve.compute,action=sleep,sleep_s=1.5,rate=1.0,"
                "match=:float:,max_trips=2")

#: Series that must appear in a ``/metrics`` scrape of a server that
#: has handled at least one request and one batch.
REQUIRED_METRICS = (
    "repro_serve_requests_total",
    "repro_serve_latency_seconds_bucket",
    "repro_serve_latency_seconds_count",
    "repro_serve_batches_total",
    "repro_serve_batch_size_bucket",
    "repro_serve_queue_depth",
    "repro_serve_inflight_batches",
    "repro_serve_draining",
    "repro_pool_lookups_total",
    "repro_pool_engines",
    "repro_pool_plans",
    "repro_engine_layer_seconds_count",
)


def _request(url: str, payload: dict = None):
    """GET (payload None) or POST JSON; returns (status, decoded body)."""
    data = None if payload is None else json.dumps(payload).encode("utf8")
    req = urllib.request.Request(
        url, data=data, method="GET" if data is None else "POST",
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=120) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _request_text(url: str):
    """GET a text endpoint; returns (status, body string)."""
    with urllib.request.urlopen(url, timeout=120) as reply:
        return reply.status, reply.read().decode("utf8")


def _check_metrics_body(text: str) -> None:
    """No sample line may be NaN (a NaN series means broken math)."""
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        value = line.rsplit(" ", 1)[-1]
        assert value != "NaN", f"NaN sample in /metrics: {line}"


def _metrics_phase(base: str) -> None:
    """Scrape ``/metrics`` repeatedly while a request burst is in flight."""
    errors = []

    def burst():
        try:
            for _ in range(4):
                status, reply = _request(f"{base}/predict",
                                         {"image": [0.0] * 784})
                assert status == 200, reply
        except Exception as exc:  # surfaced after join
            errors.append(repr(exc))

    load = threading.Thread(target=burst)
    load.start()
    scrapes = 0
    while load.is_alive() and scrapes < 200:
        status, text = _request_text(f"{base}/metrics")
        assert status == 200
        _check_metrics_body(text)
        scrapes += 1
    load.join()
    assert not errors, errors

    status, text = _request_text(f"{base}/metrics")
    assert status == 200
    _check_metrics_body(text)
    present = {line.split("{")[0].split(" ")[0]
               for line in text.splitlines() if not line.startswith("#")}
    missing = [name for name in REQUIRED_METRICS if name not in present]
    assert not missing, f"/metrics is missing series: {missing}\n{text}"
    ok_line = next(line for line in text.splitlines()
                   if line.startswith("repro_serve_requests_total")
                   and 'outcome="ok"' in line)
    assert float(ok_line.rsplit(" ", 1)[1]) >= 4, ok_line
    layer_line = next(line for line in text.splitlines()
                      if line.startswith("repro_engine_layer_seconds_count"))
    assert 'tier="' in layer_line, layer_line
    print(f"GET /metrics: {len(present)} series, no NaN, "
          f"{scrapes} scrapes during load")


def _check_trace(trace_path: str) -> None:
    """The JSONL trace reconstructs a request's critical path."""
    with open(trace_path, encoding="utf8") as handle:
        records = [json.loads(line) for line in handle]
    by_id = {r["span"]: r for r in records}
    assert len(by_id) == len(records), "duplicate span ids"
    predicts = {r["span"] for r in records if r["name"] == "serve.predict"}
    assert predicts, "no serve.predict spans traced"

    def children(name, parents):
        return [r for r in records
                if r["name"] == name and r["parent"] in parents]

    queue = children("serve.queue", predicts)
    coalesce = children("serve.coalesce", predicts)
    compute = children("serve.compute", predicts)
    assert queue and coalesce and compute, (
        "queue/coalesce/compute spans missing or unstitched")
    computes = {r["span"] for r in compute}
    forward = children("engine.forward", computes)
    assert forward, "engine.forward not parented under serve.compute"
    layers = children("engine.layer", {r["span"] for r in forward})
    assert layers, "no per-layer spans under engine.forward"
    print(f"trace: {len(records)} spans, critical path "
          f"queue -> coalesce -> compute -> forward -> "
          f"{len(layers)} layer spans reconstructed")


def _wait_for_port(proc) -> int:
    """Read the server's stdout until it announces its bound port.

    A watchdog kills the subprocess at ``STARTUP_TIMEOUT_S`` so a server
    that hangs *without printing anything* still fails this script
    promptly (reading stdout alone would block in readline forever).
    """
    watchdog = threading.Timer(STARTUP_TIMEOUT_S, proc.kill)
    watchdog.daemon = True
    watchdog.start()
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            if "listening on http://" in line:
                return int(line.rsplit(":", 1)[1])
    finally:
        watchdog.cancel()
    raise RuntimeError("server did not announce its port within "
                       f"{STARTUP_TIMEOUT_S:.0f}s "
                       f"(exit code {proc.poll()})")


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _drain_phase(proc, base: str) -> None:
    """SIGTERM mid-load: the in-flight reply completes, exit code is 0.

    A batch on the float backend (slowed by the injected sleep) is in
    flight when SIGTERM lands; the drain contract says that reply must
    still arrive — a ``RemoteDisconnected``/reset mid-request means the
    server dropped an accepted request, which fails the smoke.  A
    refused connection *after* shutdown is the expected endpoint.
    """
    result = {}

    def slow_client():
        try:
            result["outcome"] = _request(
                f"{base}/predict",
                {"images": [[0.0] * 784] * 32, "backend": "float"})
        except Exception as exc:  # dropped mid-request
            result["outcome"] = ("dropped", repr(exc))

    client = threading.Thread(target=slow_client)
    client.start()
    time.sleep(0.5)  # inside the first injected 1.5 s compute sleep
    proc.send_signal(signal.SIGTERM)

    draining_seen = False
    for _ in range(100):
        try:
            status, health = _request(f"{base}/healthz")
        except (ConnectionError, urllib.error.URLError,
                http.client.HTTPException):
            break  # already fully shut down
        if status == 503 and health.get("status") == "draining":
            draining_seen = True
            break
        time.sleep(0.05)

    client.join(timeout=120)
    assert not client.is_alive(), "in-flight request never resolved"
    status, reply = result["outcome"]
    assert status == 200, f"in-flight reply dropped: {result['outcome']}"
    assert len(reply["predictions"]) == 32, reply
    print("drain: in-flight batch completed"
          + (" (draining health observed)" if draining_seen else ""))

    try:
        code = proc.wait(timeout=EXIT_AFTER_DRAIN_S)
    except subprocess.TimeoutExpired:
        raise AssertionError(
            f"server still running {EXIT_AFTER_DRAIN_S:.0f}s after its "
            "last in-flight reply") from None
    assert code == 0, f"server exited {code} after drain, want 0"
    try:
        _request(f"{base}/healthz")
        raise AssertionError("server still serving after drain exit")
    except (ConnectionError, urllib.error.URLError,
            http.client.HTTPException):
        pass
    print("drain smoke: SIGTERM -> in-flight served, clean exit 0")


def main() -> int:
    procs = 1
    argv = sys.argv[1:]
    if argv[:1] == ["--procs"]:
        procs = int(argv[1])
    elif argv:
        raise SystemExit(f"usage: smoke_serve.py [--procs N] (got {argv})")
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    env["REPRO_FAULTS"] = DRAIN_FAULTS
    # Arm tracing in the server; CI sets REPRO_TRACE to a path it later
    # uploads as an artifact, otherwise a temp file is used.
    trace_path = env.get("REPRO_TRACE") or os.path.join(
        tempfile.gettempdir(), f"smoke_serve_trace_{os.getpid()}.jsonl")
    env["REPRO_TRACE"] = trace_path
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
         "--length", "64", "--train", "300", "--epochs", "1",
         "--max-wait-ms", "5", "--drain-grace", "60",
         "--procs", str(procs)],
        env=env, cwd=str(REPO_ROOT), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    try:
        port = _wait_for_port(proc)
        base = f"http://127.0.0.1:{port}"

        status, health = _request(f"{base}/healthz")
        assert status == 200 and health["status"] == "ok", health

        image = [0.0] * 784
        for backend in ("exact", "surrogate"):
            status, reply = _request(f"{base}/predict",
                                     {"image": image, "backend": backend})
            assert status == 200, (backend, reply)
            assert reply["prediction"] in range(10), (backend, reply)
            assert reply["backend"] == backend, reply
            print(f"POST /predict [{backend}]: prediction="
                  f"{reply['prediction']} ({reply['latency_ms']} ms)")

        status, reply = _request(f"{base}/predict",
                                 {"image": image, "backend": "bogus"})
        assert status == 400 and "unknown backend" in reply["error"], reply

        status, stats = _request(f"{base}/stats")
        assert status == 200, stats
        assert stats["service"]["requests"] >= 2, stats
        if procs > 1:
            assert stats["procs"]["workers"] == procs, stats
            assert stats["procs"]["alive"] == procs, stats
            worker_pids = [w["pid"] for w in stats["workers"]]
            assert len(worker_pids) == procs, stats
        else:
            assert stats["batcher"]["batches"] >= 2, stats
        assert stats["pool"]["engines"] >= 2, stats
        assert stats["service"]["latency_ms"]["p95"] > 0, stats
        print("GET /stats:", json.dumps(stats["service"]))

        _metrics_phase(base)
        _drain_phase(proc, base)
        if procs > 1:
            survivors = [pid for pid in worker_pids if _alive(pid)]
            assert not survivors, (
                f"worker processes survived SIGTERM drain: {survivors}")
            print(f"worker cleanup: none of {worker_pids} alive after "
                  "drain")
        else:
            # Worker spans live in other processes when --procs > 1 and
            # are not stitched to the frontend span, so the critical-path
            # reconstruction only applies to the in-process tier.
            _check_trace(trace_path)
        print("serve smoke test passed"
              + (f" (procs={procs})" if procs > 1 else ""))
        return 0
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:  # pragma: no cover - CI guard
            proc.kill()


if __name__ == "__main__":
    sys.exit(main())
