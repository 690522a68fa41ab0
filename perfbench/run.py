"""The repository's benchmark: exact SC forward and HTTP serving.

    python3 perfbench/run.py --workload fwd-apc-max --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Workloads (see ``BENCHMARK.json`` and
``perfbench/README.md``):

* ``fwd-apc-max`` / ``fwd-mux-avg`` - closed loop, one thread, batch-16
  exact LeNet-5 forward at L=64 (APC-APC-APC with max pooling, or
  MUX-MUX-APC with average pooling);
* ``serve-procs-scenes`` - open loop, Poisson arrivals of 3x3 grid
  scenes (9 windows each) over two keep-alive connections to
  ``ProcServeFacade(procs=2)`` behind ``create_server``.

Every program process is spawned fresh; ``setup_s`` and ``teardown_s``
are medians over ``SETUPS`` instances, the last of which carries the
timed phase.  ``--trace 1`` runs half the time untraced and half traced
and reports per-layer metrics plus the tracing overhead.  The last
stdout line is the result JSON; the line before it is the run context
(steal time, speed probe, cpu count, NumPy version, kernel tier, tail
percentile).  A reply that does not match its committed digest fails
the run (exit 1).
"""

from __future__ import annotations

import argparse
import ctypes
import http.client
import json
import os
import queue
import re
import select
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from common import (BATCH, BENCH_DIR, ROOT, SCENE_POOL, SCENE_SEEDS,
                    STATE_DIR, WINDOWS, cpu_seconds, fwd_batches, load_digests,
                    median, peak_rss_mb, poisson_schedule, reply_digest,
                    scene_pool, speed_probe, steal_seconds, tail)
import tracing

SETUPS = 5
CONNECTIONS = 2
WORKLOADS = {
    "fwd-apc-max": {"kind": "fwd", "spec": "apc-max"},
    "fwd-mux-avg": {"kind": "fwd", "spec": "mux-avg"},
    # scene requests per second: about a sixth of what the two workers
    # sustain on a 2-vCPU VM, so latency measures service, not queueing
    # (at 2.5/s the tail's 10-run spread reached 0.26 under host steal)
    "serve-procs-scenes": {"kind": "serve", "rate": 2.0},
}
END_TO_END = ("setup_s", "teardown_s", "peak_rss_mb", "images_per_s",
              "cpu_ms_per_image", "latency_ms_p50", "latency_ms_tail",
              "slo_attainment", "ok_share")


class BenchError(RuntimeError):
    """The run cannot produce a valid result."""


def slo_ms(workload: str) -> float:
    """The workload's latency limit, fixed in its ``why`` line."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in spec["workloads"]:
        if entry["name"] == workload:
            return float(re.search(r"SLO (\d+) ms", entry["why"]).group(1))
    raise BenchError(f"{workload} is not in BENCHMARK.json")


def program_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "REPRO_NATIVE": "1",
        "REPRO_NATIVE_CACHE": str(STATE_DIR / "native"),
        "XDG_CACHE_HOME": str(STATE_DIR / "cache"),
    })
    return env


def wait_exit(pid: int, timeout: float) -> None:
    """Block until ``pid`` has exited (a pidfd wakes us the moment it
    does, so teardown is timed to the microsecond, not to a poll)."""
    try:
        fd = os.pidfd_open(pid)
    except ProcessLookupError:
        return
    try:
        if not select.select([fd], [], [], timeout)[0]:
            raise BenchError(f"program process {pid} did not exit")
    finally:
        os.close(fd)


class Program:
    """One program process in its own process group."""

    #: programs not yet closed or stopped, stopped if the run fails
    live = []

    def __init__(self, args, env):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "program.py"), *args],
            cwd=ROOT, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, start_new_session=True)
        self.pids = [self.proc.pid]
        Program.live.append(self)
        self._events = queue.Queue()
        threading.Thread(target=self._pump, daemon=True).start()

    def _pump(self):
        for line in self.proc.stdout:
            if line.startswith("{"):
                self._events.put(json.loads(line))
        self._events.put(None)

    def event(self, timeout: float = 170.0) -> dict:
        try:
            item = self._events.get(timeout=timeout)
        except queue.Empty:
            raise BenchError("program process stopped answering") from None
        if item is None:
            raise BenchError(
                f"program process exited with {self.proc.wait()}")
        return item

    def send(self, command: dict) -> None:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()

    def cpu(self) -> float:
        return sum(cpu_seconds(pid) for pid in self.pids)

    def rss(self) -> float:
        return sum(peak_rss_mb(pid) for pid in self.pids)

    def _wait_all(self) -> None:
        if self in Program.live:
            Program.live.remove(self)
        for pid in self.pids:
            wait_exit(pid, timeout=60)
        self.proc.wait()

    def close(self, sigterm: bool) -> float:
        """Ask the program to stop; seconds until all its processes exit."""
        began = time.perf_counter()
        if sigterm:
            self.proc.send_signal(signal.SIGTERM)
        else:
            self.send({"cmd": "close"})
        self._wait_all()
        return time.perf_counter() - began

    def stop(self) -> None:
        """SIGTERM, then SIGKILL the group after a grace period (a killed
        ProcServeFacade leaves its shared-memory plans behind)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self._wait_all()


def reap_all(timeout: float = 60.0) -> None:
    """Wait for every orphaned program process re-parented to us (such
    as the shared-memory resource tracker of a process pool)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)
    raise BenchError("a program process did not exit")


class Closer(threading.Thread):
    """Closes a program in the background, timing its teardown."""

    def __init__(self, program, sigterm: bool):
        super().__init__(daemon=True)
        self.program, self.sigterm = program, sigterm
        self.seconds, self.error = None, None
        self.start()

    def run(self):
        try:
            self.seconds = self.program.close(self.sigterm)
        except BenchError as exc:
            self.error = exc

    def result(self) -> float:
        self.join()
        if self.error is not None:
            raise self.error
        return self.seconds


def measure_instances(start, timed, sigterm: bool, overlap: bool) -> dict:
    """Set up ``SETUPS`` fresh instances and time the last one.

    ``setup_s`` and ``teardown_s`` are medians over all instances.  With
    ``overlap`` an extra instance closes in the background while the
    next one starts (worth it only where the close is mostly waiting, as
    the process-pool close waiting out its join timeout is); the timed
    phase always begins after every earlier instance has exited.
    """
    setups, closers = [], []
    for index in range(SETUPS):
        program = start()
        setups.append(time.perf_counter() - program.started)
        if index < SETUPS - 1:
            closers.append(Closer(program, sigterm))
            if not overlap:
                closers[-1].join()
    teardowns = [closer.result() for closer in closers]
    result = timed(program)
    teardowns.append(program.close(sigterm))
    result.update(setup_s=median(setups), teardown_s=median(teardowns),
                  _tier=program.tier)
    return result


# ---------------------------------------------------------------------------
# forward workloads
# ---------------------------------------------------------------------------

def fwd_phase(program, seed, seconds, trace=False) -> dict:
    order = [int(i) for i in np.random.default_rng([seed, 4]).integers(
        0, len(fwd_batches()), 4096)]
    cpu0 = program.cpu()
    program.send({"cmd": "run", "order": order, "seconds": seconds,
                  "trace": trace})
    done = program.event(timeout=seconds + 120)
    done["cpu_s"] = program.cpu() - cpu0
    return done


def fwd_metrics(done, slo) -> dict:
    lat = done["latencies_ms"]
    wrong = set(done["wrong"])
    tail_ms, pct, beyond = tail(lat)
    return {
        "images_per_s": done["images"] / done["wall_s"],
        "cpu_ms_per_image": 1e3 * done["cpu_s"] / done["images"],
        "latency_ms_p50": median(lat),
        "latency_ms_tail": tail_ms,
        "slo_attainment": sum(1 for i, x in enumerate(lat)
                              if x <= slo and i not in wrong) / len(lat),
        "ok_share": 1.0 - len(wrong) / len(lat),
        "_tail": {"percentile": pct, "beyond": beyond, "samples": len(lat)},
        "_attempted": len(lat), "_failed": len(wrong), "_wrong": len(wrong),
    }


def run_fwd(wl, seed, seconds, trace, env, slo) -> dict:
    args = ["fwd", "--spec", wl["spec"]]
    if trace:
        return trace_fwd(args, seed, seconds, env, slo)

    def start():
        program = Program(args, env)
        ready = program.event()
        program.tier = ready["tier"]
        if not ready["warm_ok"]:
            raise BenchError("warm batch logits differ from their digest")
        return program

    def timed(program):
        result = fwd_metrics(fwd_phase(program, seed, seconds), slo)
        result["peak_rss_mb"] = program.rss()
        return result

    return measure_instances(start, timed, sigterm=False, overlap=False)


def trace_fwd(args, seed, seconds, env, slo) -> dict:
    path = fresh_trace_path()
    program = Program(args + ["--trace", str(path)], env)
    ready = program.event()
    program.tier, program.missing = ready["tier"], ready["missing"]
    if not ready["warm_ok"]:
        raise BenchError("warm batch logits differ from their digest")
    setup = tracing.read_records(path)
    plain = fwd_metrics(fwd_phase(program, seed, seconds / 2), slo)
    start = path.stat().st_size
    done = fwd_phase(program, seed, seconds / 2, trace=True)
    traced = fwd_metrics(done, slo)
    program.close(sigterm=False)
    table = tracing.fwd_table(tracing.read_records(path, start))
    path.unlink()
    table.update(tracing.setup_summary(setup))
    table.update({
        "serve.batch_size.mean": float(BATCH),
        "client.sent": traced["_attempted"],
        "client.ok": traced["_attempted"] - traced["_failed"],
        "client.failed": traced["_failed"],
    })
    return finish_trace(table, plain, traced, program)


# ---------------------------------------------------------------------------
# serve workloads
# ---------------------------------------------------------------------------

class Client:
    """Keep-alive HTTP connections to one server."""

    def __init__(self, port: int, connections: int):
        self.port = port
        self.conns = [self._connect() for _ in range(connections)]

    def _connect(self):
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=60)

    def request(self, index, method, path, body=None):
        conn = self.conns[index]
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            data = response.read()
            return response.status, json.loads(data)
        except (OSError, http.client.HTTPException, ValueError):
            conn.close()
            self.conns[index] = self._connect()
            return None, None

    def stats(self) -> dict:
        status, body = self.request(0, "GET", "/stats")
        if status != 200:
            raise BenchError(f"GET /stats answered {status}")
        return body

    def open_loop(self, schedule, requests) -> list:
        """Send ``requests[i]`` (body, expected digest) at
        ``schedule[i]`` seconds; each connection carries one request at
        a time, so a stalled server makes later requests late."""
        results = [None] * len(schedule)
        cursor = iter(range(len(schedule)))
        lock = threading.Lock()
        origin = time.perf_counter() + 0.05

        def lane(index):
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                due = origin + schedule[i]
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                sent = time.perf_counter()
                body, expected = requests[i]
                status, reply = self.request(index, "POST", "/predict", body)
                done = time.perf_counter()
                results[i] = {
                    "origin": origin, "due": due, "done": done,
                    "latency_ms": 1e3 * (done - due),
                    "rtt_ms": 1e3 * (done - sent),
                    "late_ms": 1e3 * (sent - due),
                    "answered": status == 200,
                    "correct": status == 200
                    and reply_digest(reply) == expected,
                }

        threads = [threading.Thread(target=lane, args=(i,))
                   for i in range(len(self.conns))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results


def worker_requests(stats) -> list:
    return [w["service"]["requests"] for w in stats.get("workers", [])]


def scene_requests(seed, rate, seconds, seeds) -> tuple:
    """The run's arrival schedule and ``(body, digest)`` per request."""
    schedule = poisson_schedule(seed, rate, seconds)
    picks = np.random.default_rng([seed, 5]).integers(
        0, SCENE_POOL, len(schedule))
    scenes = scene_pool()
    digests = load_digests()["serve-procs-scenes"]
    requests = []
    for i, pick in enumerate(picks):
        scene_seed = seeds[i % len(seeds)]
        body = json.dumps({"scene": scenes[pick], "seed": scene_seed})
        requests.append((body.encode(), digests[str(scene_seed)][pick]))
    return schedule, requests


def start_server(env, trace_path=None):
    """Spawn the server and warm every seed the workload sends; returns
    ``(program, client, seeds)`` once their first requests are answered.

    Spec-affine routing picks the worker from the request seed, so
    candidate seeds are tried until two land on different workers
    (``/stats`` tells which one served each).
    """
    args = ["serve"] + ([] if trace_path is None
                        else ["--trace", str(trace_path)])
    program = Program(args, env)
    listening = program.event()
    program.pids = listening["pids"]
    program.tier, program.missing = listening["tier"], listening["missing"]
    client = Client(listening["port"], CONNECTIONS)
    scene = scene_pool()[0]
    digests = load_digests()["serve-procs-scenes"]
    seeds, workers = [], set()
    for candidate in SCENE_SEEDS:
        before = worker_requests(client.stats())
        status, reply = client.request(0, "POST", "/predict", json.dumps(
            {"scene": scene, "seed": candidate}).encode())
        if status != 200 or reply_digest(reply) != digests[str(candidate)][0]:
            raise BenchError(f"warm scene (seed {candidate}) failed")
        after = worker_requests(client.stats())
        hit = [i for i, (a, b) in enumerate(zip(after, before)) if a > b]
        if hit and hit[0] not in workers:
            workers.add(hit[0])
            seeds.append(candidate)
        if len(seeds) == 2:
            break
    else:
        raise BenchError("no two scene seeds route to different workers")
    for index in range(CONNECTIONS):  # open every keep-alive connection
        if client.request(index, "GET", "/healthz")[0] != 200:
            raise BenchError("server is not healthy")
    return program, client, seeds


def serve_phase(wl, program, client, seed, seconds, seeds) -> dict:
    schedule, requests = scene_requests(seed, wl["rate"], seconds, seeds)
    before = client.stats()
    cpu0 = program.cpu()
    results = client.open_loop(schedule, requests)
    cpu_s = program.cpu() - cpu0
    after = client.stats()
    return {"results": results, "cpu_s": cpu_s, "before": before,
            "after": after}


def serve_metrics(phase, slo) -> dict:
    results = phase["results"]
    ok = [r for r in results if r["correct"]]
    wrong = sum(1 for r in results if r["answered"] and not r["correct"])
    images = WINDOWS * len(ok)
    # from the schedule's start, so the count of arrivals, not where the
    # first one fell, sets the rate
    span = max(r["done"] for r in results) - results[0]["origin"]
    lat = [r["latency_ms"] for r in ok] or [float("nan")]
    tail_ms, pct, beyond = tail(lat)
    late = [r["late_ms"] for r in results]
    served = [a - b for a, b in zip(worker_requests(phase["after"]),
                                    worker_requests(phase["before"]))]
    return {
        "images_per_s": images / span,
        "cpu_ms_per_image": 1e3 * phase["cpu_s"] / max(images, 1),
        "latency_ms_p50": median(lat),
        "latency_ms_tail": tail_ms,
        "slo_attainment": sum(1 for r in ok if r["latency_ms"] <= slo)
        / len(results),
        "ok_share": len(ok) / len(results),
        "_tail": {"percentile": pct, "beyond": beyond, "samples": len(lat)},
        "_late_ms": {"p50": median(late), "max": max(late)},
        "_attempted": len(results),
        "_failed": len(results) - len(ok),
        "_wrong": wrong,
        "_worker_requests": served,
    }


def run_serve(wl, seed, seconds, trace, env, slo) -> dict:
    if trace:
        return trace_serve(wl, seed, seconds, env, slo)
    clients = {}

    def start():
        program, client, program.seeds = start_server(env)
        clients[program] = client
        return program

    def timed(program):
        phase = serve_phase(wl, program, clients[program], seed, seconds,
                            program.seeds)
        result = serve_metrics(phase, slo)
        if min(result["_worker_requests"]) == 0:
            raise BenchError("a worker received no traffic: "
                             f"{result['_worker_requests']}")
        result["peak_rss_mb"] = program.rss()
        result["_scene_seeds"] = program.seeds
        return result

    return measure_instances(start, timed, sigterm=True,
                             overlap=True)


def trace_serve(wl, seed, seconds, env, slo) -> dict:
    program, client, seeds = start_server(env)
    plain = serve_metrics(serve_phase(wl, program, client, seed,
                                      seconds / 2, seeds), slo)
    closer = Closer(program, sigterm=True)
    path = fresh_trace_path()
    program, client, seeds = start_server(env, trace_path=path)
    closer.result()
    time.sleep(0.3)  # let the warm requests' last spans land
    start = path.stat().st_size
    phase = serve_phase(wl, program, client, seed, seconds / 2, seeds)
    time.sleep(0.3)
    stop = path.stat().st_size
    traced = serve_metrics(phase, slo)
    program.close(sigterm=True)
    closed = program.event()
    setup = tracing.read_records(path, 0, start)
    phase_records = tracing.read_records(path, start, stop)
    path.unlink()
    rtts = [r["rtt_ms"] for r in phase["results"] if r["correct"]]
    table = tracing.serve_table(phase_records, rtts)
    table.update(tracing.setup_summary(setup))
    before, after = phase["before"], phase["after"]
    pool = after["pool"]
    lookups = pool.get("hits", 0) + pool.get("misses", 0)
    shed = after["service"]["sheds"] - before["service"]["sheds"]
    if "batcher" in after:
        for field in ("shed_deadline", "shed_cancelled"):
            shed += after["batcher"][field] - before["batcher"][field]
    served = traced["_worker_requests"]
    table.update({
        "serve.pool.hit_ratio": pool.get("hits", 0) / lookups
        if lookups else 0.0,
        "serve.shed.count": shed,
        "serve.procpool.worker_share": min(served) / sum(served)
        if served and sum(served) else 0.0,
        "serve.procpool.restarts": after.get("procs", {}).get("restarts", 0),
        "serve.procpool.close.ms": closed["close_ms"],
        "client.late_ms.p50": traced["_late_ms"]["p50"],
        "client.late_ms.max": traced["_late_ms"]["max"],
        "client.sent": traced["_attempted"],
        "client.ok": traced["_attempted"] - traced["_failed"],
        "client.failed": traced["_failed"],
    })
    return finish_trace(table, plain, traced, program)


def fresh_trace_path():
    STATE_DIR.mkdir(parents=True, exist_ok=True)
    path = STATE_DIR / f"trace-{os.getpid()}.jsonl"
    if path.exists():
        path.unlink()
    return path


def finish_trace(table, plain, traced, program) -> dict:
    names = [m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    table["trace.overhead_pct"] = 100.0 * (
        traced["cpu_ms_per_image"] / plain["cpu_ms_per_image"] - 1.0)
    metrics = {name: float(table.get(name, 0.0)) for name in names}
    return {"metrics": metrics, "_table": table,
            "_attempted": plain["_attempted"] + traced["_attempted"],
            "_failed": plain["_failed"] + traced["_failed"],
            "_wrong": plain["_wrong"] + traced["_wrong"],
            "_tier": program.tier, "_missing": program.missing}


# ---------------------------------------------------------------------------

def check_table(table) -> None:
    """The additive table must close: its rows sum to the traced wall,
    and the unattributed remainder is not negative."""
    wall = table["trace.wall.ms"]
    total = sum(table[row] for row in table["trace.rows"])
    if (abs(total - wall) > 1e-6 * max(wall, 1.0)
            or table["trace.unattributed.ms"] < -0.01 * wall):
        raise BenchError(f"layer self times do not add up to the wall: "
                         f"{table}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is "
              "missing", file=sys.stderr)
        return 2
    # Become the reaper of orphaned grandchildren (procpool workers of a
    # killed server) so every process started here can be waited for.
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    wl = WORKLOADS[args.workload]
    slo = slo_ms(args.workload)
    env = program_env()
    built = subprocess.run(
        [sys.executable, str(BENCH_DIR / "program.py"), "build"], cwd=ROOT,
        env=env, capture_output=True, text=True, timeout=600)
    if built.returncode != 0:
        print(built.stderr, file=sys.stderr)
        return 2
    context = {"steal_s_start": steal_seconds(),
               "speed_probe_start": speed_probe(),
               "cpu_count": os.cpu_count(), "numpy": np.__version__,
               "slo_ms": slo}
    runner = run_fwd if wl["kind"] == "fwd" else run_serve
    try:
        result = runner(wl, args.seed, args.seconds, bool(args.trace), env,
                        slo)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        for program in list(Program.live):
            program.stop()
        reap_all()
    context["steal_s"] = steal_seconds() - context.pop("steal_s_start")
    context["speed_probe_end"] = speed_probe()
    context.update({k[1:]: v for k, v in result.items()
                    if k.startswith("_") and k not in
                    ("_attempted", "_failed", "_wrong")})
    if args.trace:
        try:
            check_table(result["_table"])
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        metrics = result["metrics"]
    else:
        metrics = {name: result[name] for name in END_TO_END}
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}
    correct = result["_wrong"] == 0
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["_attempted"]),
        "failed": int(result["_failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
