"""A program process of the benchmark: hosts the system under test.

    python3 perfbench/program.py build
    python3 perfbench/program.py fwd --spec apc-max [--trace FILE]
    python3 perfbench/program.py serve [--trace FILE]

``build`` imports the package once so the native kernel library is
compiled before anything is timed.  ``fwd`` builds an exact LeNet-5
``Engine``, answers one warm batch, then runs closed loops on request
(JSON commands on stdin).  ``serve`` hosts a ``ProcServeFacade`` with
the APC-APC-APC max-pooling spec behind ``create_server`` and shuts
down gracefully on SIGTERM.  Events go to stdout as JSON lines.
``run.py`` spawns these; ``PYTHONPATH`` must name the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time

from common import (BATCH, LENGTH, MODEL, PROCS, SPECS, fwd_batches,
                    load_digests, logits_digest)
from tracing import Instrumentation


def emit(event: dict) -> None:
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def kernel_tier() -> str:
    import repro.native as native
    from repro.sc import ops
    if native.enabled():
        return "native"
    return getattr(ops, "_NUMPY_TIER", "numpy")


def spec_args(spec: str) -> dict:
    return {"backend": "exact", "length": LENGTH, "seed": 0,
            "kinds": ",".join(SPECS[spec]["kinds"]),
            "pooling": SPECS[spec]["pooling"]}


def build(_args) -> None:
    emit({"event": "built", "tier": kernel_tier()})


def fwd(args) -> None:
    tracer = Instrumentation(args.trace) if args.trace else None
    if tracer:
        tracer.arm()
    from repro import obs
    from repro.core.config import NetworkConfig, resolve_pooling
    from repro.engine import Engine
    from repro.nn.zoo import build_zoo_model

    spec = SPECS[args.spec]
    model = build_zoo_model(MODEL, spec["pooling"], seed=0)
    config = NetworkConfig.from_kinds(resolve_pooling(spec["pooling"]),
                                      LENGTH, spec["kinds"])
    engine = Engine(model, config, backend="exact", seed=0)
    batches = fwd_batches()
    expected = load_digests()[f"fwd-{args.spec}"]
    # forward_independent: every batch's logits are a pure function of
    # its images, whatever ran before, so each can be gated on a digest.
    forward = engine.backend.forward_independent
    warm_ok = logits_digest(forward(batches[0])) == expected[0]
    if tracer:
        tracer.disarm()
    emit({"event": "ready", "tier": kernel_tier(), "warm_ok": warm_ok,
          "missing": tracer.missing if tracer else []})
    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] != "run":
            break
        if command["trace"]:
            tracer.arm()
        order, latencies, wrong = command["order"], [], []
        start = time.perf_counter()
        while True:
            index = order[len(latencies) % len(order)]
            began = time.perf_counter()
            with obs.span("bench.batch"):
                logits = forward(batches[index])
            ended = time.perf_counter()
            if logits_digest(logits) != expected[index]:
                wrong.append(len(latencies))
            latencies.append(1e3 * (ended - began))
            if ended - start >= command["seconds"]:
                break
        if command["trace"]:
            tracer.disarm()
        emit({"event": "done", "latencies_ms": latencies,
              "wrong": wrong, "images": BATCH * len(latencies),
              "wall_s": ended - start})


def serve(args) -> None:
    tracer = Instrumentation(args.trace) if args.trace else None
    if tracer:
        tracer.arm()
    from repro.nn.zoo import build_zoo_model
    from repro.serve import ProcServeFacade
    from repro.serve.server import create_server

    model = build_zoo_model(MODEL, SPECS["apc-max"]["pooling"], seed=0)
    service = ProcServeFacade({MODEL: model}, procs=PROCS,
                              **spec_args("apc-max"))
    pids = [w["pid"] for w in service.stats()["workers"]]
    # Only now: forked workers must keep SIGTERM's default action, which
    # ProcServeFacade.close() relies on to stop a worker that hangs.
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    server = create_server(service, port=0)
    # A short poll interval keeps shutdown() from adding a random wait of
    # up to the default 0.5 s to every measured teardown.
    loop = threading.Thread(target=server.serve_forever,
                            kwargs={"poll_interval": 0.01})
    loop.start()
    emit({"event": "listening", "port": server.server_address[1],
          "pids": [os.getpid()] + pids, "tier": kernel_tier(),
          "missing": tracer.missing if tracer else []})
    stop.wait()
    # The drain sequence of repro.serve.server.run_server.
    service.drain()
    server.await_idle(10.0)
    server.shutdown()
    loop.join()
    server.server_close()
    began = time.perf_counter()
    service.close()
    close_ms = 1e3 * (time.perf_counter() - began)
    if tracer:
        tracer.disarm()
    emit({"event": "closed", "close_ms": close_ms})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("build", "fwd", "serve"))
    parser.add_argument("--spec", choices=sorted(SPECS), default="apc-max")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()
    {"build": build, "fwd": fwd, "serve": serve}[args.mode](args)


if __name__ == "__main__":
    main()
