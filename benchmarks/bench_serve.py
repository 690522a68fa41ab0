"""Serving throughput benchmark: micro-batching vs per-request baseline.

A closed-loop multi-threaded load generator (each client thread issues
its requests back-to-back, so offered load scales with the client
count) drives three serving modes per scenario:

* **per_request_sequential** — the pre-serve status quo the ISSUE
  motivates against: every request pays per-call compilation (a fresh
  ``Engine`` per request: plan compilation + weight-stream drawing) and
  runs at batch size 1, serialized;
* **pooled_sequential** — ablation isolating the engine pool: the
  service machinery with ``max_batch=1``, so engines/plans are cached
  but nothing is coalesced;
* **micro_batched** — the full service: pooled engines plus dynamic
  coalescing under the ``max_batch``/``max_wait_ms`` policy.

Acceptance: at ≥ 8 concurrent clients on the exact backend at L=64 the
micro-batching service sustains ≥ 2x the per-request sequential
baseline, and every exact response — in all three modes — is
*bit-identical* to a dedicated single-request ``Engine.predict`` with
the same per-request seed (checked against fresh reference engines).

The pooled-vs-batched ratio is reported honestly: the exact backend's
word-level kernels are compute-bound, so on a single-core runner
coalescing mostly amortizes per-request setup and Python dispatch
(the kernel work itself is proportional to the image count), while the
float-domain scenarios show the pure matrix-amortization win.  On
multi-core machines the batched counting kernels additionally win on
memory locality.

A fourth mode, **multi_process**, drives the :class:`ProcServeFacade`
tier.  Routing there is spec-affine (same spec → same worker, so
coalescing survives the process split), which means a single-spec load
lands on one worker by design — the multi-process cell therefore gives
each client its own per-request seed and compares against the *same*
multi-spec load on the single-process service.  The ≥ 2x scaling gate
is active only on machines with ≥ 4 cores; single-core CI records the
honest (≈ 1x, IPC-taxed) number alongside ``cpu_count`` so the report
can never dress up a serial box as a scaling result.

Run directly (``PYTHONPATH=src python benchmarks/bench_serve.py``) or
via ``benchmarks/run_all.py --serve``, which records the result in
``benchmarks/BENCH_serve.json``.
"""

from __future__ import annotations

import os
import threading
import time

from repro.core.config import NetworkConfig, PoolKind
from repro.data.synthetic_mnist import generate_dataset, to_bipolar
from repro.engine import Engine
from repro.nn.lenet import build_lenet5
from repro.nn.trainer import Trainer
from repro.serve import InferenceService, ProcServeFacade

MAX_BATCH = 16
MAX_WAIT_MS = 25.0
SEED = 0
ACCEPT_CLIENTS = 8
ACCEPT_SPEEDUP = 2.0
N_IMAGES = 8
KINDS = ("APC", "APC", "APC")
SCENARIOS = (
    # (label, backend, length, client counts, requests per client)
    ("exact_L64", "exact", 64, (1, 8), 3),       # acceptance scenario
    ("exact_L128", "exact", 128, (8,), 3),
    ("surrogate_L64", "surrogate", 64, (8,), 16),
)

#: Multi-process cell: worker count, and the core floor below which the
#: scaling gate stays informational (a 1-core box cannot scale).
PROCS = max(2, min(4, os.cpu_count() or 1))
PROC_GATE_MIN_CORES = 4
PROC_ACCEPT_SPEEDUP = 2.0


def _trained_model():
    """The deterministic quick-trained LeNet-5 the service serves."""
    x_train, y_train, x_test, _ = generate_dataset(
        n_train=600, n_test=200, seed=123)
    model = build_lenet5("max", seed=0)
    Trainer(model, lr=0.06, batch_size=64, seed=0).fit(
        to_bipolar(x_train), y_train, epochs=2)
    return model, to_bipolar(x_test)[:N_IMAGES].reshape(N_IMAGES, -1)


def _reference_predictions(model, images, backend: str, length: int):
    """Per-request oracle: a *fresh* engine per image, same seed.

    This is exactly what the service's bit-exactness contract promises
    each coalesced request: the answer a dedicated single-request
    ``Engine.predict`` with that request's seed would have produced.
    """
    config = NetworkConfig.from_kinds(PoolKind.MAX, length, KINDS)
    return [int(Engine(model, config, backend=backend, seed=SEED)
                .predict(img[None])[0]) for img in images]


def _per_request_server(model, backend: str, length: int):
    """The sequential baseline: fresh engine + batch-1 call per request."""
    config = NetworkConfig.from_kinds(PoolKind.MAX, length, KINDS)
    lock = threading.Lock()

    def predict_one(image, timeout=None):
        with lock:
            engine = Engine(model, config, backend=backend, seed=SEED)
            return int(engine.predict(image[None])[0])

    return predict_one


def _closed_loop(predict_one, images, clients: int, requests_each: int):
    """Drive ``predict_one`` with closed-loop clients.

    Returns ``(elapsed_s, responses)`` where ``responses`` is a flat list
    of ``(image_index, prediction)`` pairs; requests round-robin over the
    image set so the bit-identity oracle stays small.
    """
    responses = []
    errors = []
    log_lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def client(c):
        barrier.wait()
        for r in range(requests_each):
            idx = (c * requests_each + r) % len(images)
            try:
                pred = predict_one(images[idx], timeout=300.0)
            except Exception as exc:  # pragma: no cover - diagnostics
                with log_lock:
                    errors.append(exc)
                return
            with log_lock:
                responses.append((idx, pred))

    threads = [threading.Thread(target=client, args=(c,))
               for c in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return elapsed, responses


def _service_mode(model, images, backend, length, clients, requests_each,
                  max_batch):
    """One pooled service cell (batched or not): throughput + batch stats."""
    service = InferenceService(
        model, backend=backend, length=length, kinds=KINDS, pooling="max",
        seed=SEED, max_batch=max_batch, max_wait_ms=MAX_WAIT_MS, workers=1,
        warm=True)
    try:
        service.predict_one(images[0])  # warm allocation paths, untimed
        before = service.batcher.stats()
        elapsed, responses = _closed_loop(service.predict_one, images,
                                          clients, requests_each)
        after = service.batcher.stats()
    finally:
        service.close()
    cell = {"elapsed_s": round(elapsed, 4),
            "rps": round(clients * requests_each / elapsed, 2)}
    if max_batch > 1:
        # report only the timed interval (the warm-up batch is excluded)
        histogram = {
            size: after["batch_size_histogram"].get(size, 0)
            - before["batch_size_histogram"].get(size, 0)
            for size in after["batch_size_histogram"]
        }
        histogram = {k: v for k, v in histogram.items() if v}
        batches = after["batches"] - before["batches"]
        requests = after["batched_requests"] - before["batched_requests"]
        cell["mean_batch_size"] = (round(requests / batches, 3)
                                   if batches else None)
        cell["batch_size_histogram"] = histogram
    return cell, responses


def _multi_spec_loop(predict_one, images, clients, requests_each):
    """Closed loop where client ``c`` pins per-request ``seed=c``.

    Distinct seeds are distinct specs, so on the multi-process tier the
    load hash-routes across workers; responses come back as
    ``(seed, image_index, prediction)`` for the per-seed oracle.
    """
    responses = []
    errors = []
    log_lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def client(c):
        barrier.wait()
        for r in range(requests_each):
            idx = (c * requests_each + r) % len(images)
            try:
                pred = predict_one(images[idx], timeout=300.0, seed=c)
            except Exception as exc:  # pragma: no cover - diagnostics
                with log_lock:
                    errors.append(exc)
                return
            with log_lock:
                responses.append((c, idx, pred))

    threads = [threading.Thread(target=client, args=(c,))
               for c in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return elapsed, responses


def _multi_process_cell(model, images, backend, length, clients,
                        requests_each):
    """Single-process vs multi-process service under a multi-spec load.

    Returns the cell dict and the two response lists (single, multi)
    for the per-seed bit-identity oracle.
    """
    common = dict(backend=backend, length=length, kinds=KINDS,
                  pooling="max", seed=SEED, max_batch=MAX_BATCH,
                  max_wait_ms=MAX_WAIT_MS, workers=1, warm=True)
    total = clients * requests_each
    service = InferenceService(model, **common)
    try:
        service.predict_one(images[0])  # warm allocation paths, untimed
        single_s, single_out = _multi_spec_loop(
            service.predict_one, images, clients, requests_each)
    finally:
        service.close()
    facade = ProcServeFacade(model, procs=PROCS, **common)
    try:
        facade.predict_one(images[0])
        multi_s, multi_out = _multi_spec_loop(
            facade.predict_one, images, clients, requests_each)
        routed = {facade.executor._route(facade.resolver.resolve({"seed": c})[0])
                  for c in range(clients)}
    finally:
        facade.close()
    cell = {
        "procs": PROCS,
        "cpu_count": os.cpu_count(),
        "workers_hit": len(routed),
        "single_process": {"elapsed_s": round(single_s, 4),
                           "rps": round(total / single_s, 2)},
        "multi_process": {"elapsed_s": round(multi_s, 4),
                          "rps": round(total / multi_s, 2)},
        "speedup_vs_single_process": round(single_s / multi_s, 2),
        "gate_active": (os.cpu_count() or 1) >= PROC_GATE_MIN_CORES,
    }
    return cell, single_out, multi_out


def _check_seeded_oracle(label, mode, responses, model, images, backend,
                         length):
    """Every ``(seed, idx, pred)`` must match a dedicated fresh engine."""
    config = NetworkConfig.from_kinds(PoolKind.MAX, length, KINDS)
    cache = {}
    for seed, idx, pred in responses:
        if (seed, idx) not in cache:
            cache[(seed, idx)] = int(
                Engine(model, config, backend=backend, seed=seed)
                .predict(images[idx][None])[0])
        if pred != cache[(seed, idx)]:
            raise AssertionError(
                f"{label}/{mode}: response for image {idx} seed {seed} "
                f"diverged from the single-request engine oracle "
                f"({pred} != {cache[(seed, idx)]}) — bit-exactness "
                f"broken")


def _check_oracle(label, mode, responses, oracle):
    for idx, pred in responses:
        if pred != oracle[idx]:
            raise AssertionError(
                f"{label}/{mode}: response for image {idx} diverged from "
                f"the single-request engine oracle ({pred} != "
                f"{oracle[idx]}) — bit-exactness broken")


def measure_serve() -> dict:
    """Run all serving benchmarks; returns the BENCH_serve payload."""
    model, images = _trained_model()
    results = {
        "policy": {"max_batch": MAX_BATCH, "max_wait_ms": MAX_WAIT_MS,
                   "workers": 1, "kinds": "-".join(KINDS),
                   "pooling": "max", "seed": SEED},
        "scenarios": {},
    }
    for label, backend, length, client_counts, requests_each in SCENARIOS:
        oracle = (_reference_predictions(model, images, backend, length)
                  if backend == "exact" else None)
        scenario = {"backend": backend, "length": length,
                    "requests_per_client": requests_each, "clients": {}}
        for clients in client_counts:
            baseline = _per_request_server(model, backend, length)
            baseline(images[0])  # warm allocation paths, untimed
            base_s, base_out = _closed_loop(baseline, images, clients,
                                            requests_each)
            pooled, pooled_out = _service_mode(
                model, images, backend, length, clients, requests_each,
                max_batch=1)
            batched, batched_out = _service_mode(
                model, images, backend, length, clients, requests_each,
                max_batch=MAX_BATCH)
            if oracle is not None:
                _check_oracle(label, "per_request", base_out, oracle)
                _check_oracle(label, "pooled", pooled_out, oracle)
                _check_oracle(label, "batched", batched_out, oracle)
            total = clients * requests_each
            base = {"elapsed_s": round(base_s, 4),
                    "rps": round(total / base_s, 2)}
            scenario["clients"][str(clients)] = {
                "per_request_sequential": base,
                "pooled_sequential": pooled,
                "micro_batched": batched,
                "speedup_vs_per_request": round(batched["rps"]
                                                / base["rps"], 2),
                "speedup_vs_pooled": round(batched["rps"]
                                           / pooled["rps"], 2),
            }
        if label == "exact_L64":
            cell, single_out, multi_out = _multi_process_cell(
                model, images, backend, length, ACCEPT_CLIENTS,
                requests_each)
            _check_seeded_oracle(label, "single_process", single_out,
                                 model, images, backend, length)
            _check_seeded_oracle(label, "multi_process", multi_out,
                                 model, images, backend, length)
            scenario["multi_process"] = cell
        if oracle is not None:
            scenario["bit_identical"] = True
        results["scenarios"][label] = scenario

    accept = results["scenarios"]["exact_L64"]["clients"][
        str(ACCEPT_CLIENTS)]["speedup_vs_per_request"]
    results["speedup_exact_L64_8_clients"] = accept
    if accept < ACCEPT_SPEEDUP:
        raise AssertionError(
            f"micro-batched throughput is only {accept}x the per-request "
            f"sequential baseline at {ACCEPT_CLIENTS} clients (exact, "
            f"L=64); acceptance requires >= {ACCEPT_SPEEDUP}x")
    procs_cell = results["scenarios"]["exact_L64"]["multi_process"]
    results["multi_process_speedup_exact_L64"] = \
        procs_cell["speedup_vs_single_process"]
    if (procs_cell["gate_active"]
            and procs_cell["speedup_vs_single_process"]
            < PROC_ACCEPT_SPEEDUP):
        raise AssertionError(
            f"multi-process throughput is only "
            f"{procs_cell['speedup_vs_single_process']}x the "
            f"single-process service at {PROCS} workers on "
            f"{os.cpu_count()} cores; acceptance requires "
            f">= {PROC_ACCEPT_SPEEDUP}x at "
            f">= {PROC_GATE_MIN_CORES} cores")
    return results


def main() -> None:
    results = measure_serve()
    print(f"micro-batched vs per-request sequential "
          f"(exact, L=64, {ACCEPT_CLIENTS} clients): "
          f"{results['speedup_exact_L64_8_clients']}x")
    for label, scenario in results["scenarios"].items():
        for clients, cell in scenario["clients"].items():
            print(f"  {label} @ {clients} clients: "
                  f"per-request {cell['per_request_sequential']['rps']} "
                  f"req/s, pooled {cell['pooled_sequential']['rps']} "
                  f"req/s, batched {cell['micro_batched']['rps']} req/s "
                  f"({cell['speedup_vs_per_request']}x vs per-request, "
                  f"{cell['speedup_vs_pooled']}x vs pooled)")
        if "multi_process" in scenario:
            cell = scenario["multi_process"]
            gate = ("gated" if cell["gate_active"]
                    else "informational: < 4 cores")
            print(f"  {label} multi-spec @ {ACCEPT_CLIENTS} clients: "
                  f"1 proc {cell['single_process']['rps']} req/s, "
                  f"{cell['procs']} procs "
                  f"{cell['multi_process']['rps']} req/s "
                  f"({cell['speedup_vs_single_process']}x, "
                  f"{cell['workers_hit']} workers hit, "
                  f"cpu_count={cell['cpu_count']}, {gate})")


if __name__ == "__main__":
    main()
