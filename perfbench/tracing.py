"""Per-layer tracing for the traced run: wrap call sites, then account.

:class:`Instrumentation` runs inside a program process.  It opens a
``repro.obs`` span around each public function at the place the engine
and the service call it (the module attribute those call sites look up),
and arms the program's own JSONL trace so those spans nest under the
existing ``serve.*`` / ``engine.*`` spans.  Nothing inside ``repro`` is
edited; a call site a later refactor removes is reported as missing and
its metrics read 0.

:func:`fwd_table` and :func:`serve_table` turn the JSONL records of one
traced phase into per-request self times whose rows plus an explicit
``trace.unattributed.ms`` remainder add up to ``trace.wall.ms``.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict

#: (row, module, attribute): functions the engine/service import by name
FUNCTION_SITES = (
    ("blocks.pooling.apc_max_pool", "repro.engine.exact", "apc_max_pool"),
    ("blocks.pooling.average_pool", "repro.engine.exact", "average_pool"),
    ("engine.tiled.extract_windows", "repro.serve.service",
     "extract_windows"),
    ("engine.tiled.reduce_scene", "repro.serve.service", "reduce_scene"),
)
#: (module, alias, {attribute: row}): modules the engine calls through
MODULE_SITES = (
    ("repro.engine.exact", "native",
     {"apc_inner_counts": "native.apc_inner_counts"}),
    ("repro.engine.exact", "ops",
     {"mux_select": "sc.ops.mux_select", "pack_bits": "sc.ops.pack_bits"}),
    ("repro.engine.exact", "activation",
     {"btanh_counts": "sc.activation.btanh_counts",
      "stanh_packed": "sc.activation.stanh_packed"}),
)
#: (row, module, class, method)
METHOD_SITES = (
    ("sc.rng.packed", "repro.sc.rng", "StreamFactory", "packed"),
    ("engine.backend_init", "repro.engine.exact", "ExactBackend",
     "__init__"),
)

#: rows of the additive table, besides ``engine.layer<i>``
KERNEL_ROWS = (
    "blocks.pooling.apc_max_pool", "blocks.pooling.average_pool",
    "native.apc_inner_counts", "sc.ops.mux_select", "sc.ops.pack_bits",
    "sc.activation.btanh_counts", "sc.activation.stanh_packed",
)
#: spans whose time stays in their parent's self time (image encoding is
#: reported as ``engine.encode``; ``sc.rng.packed`` is a set-up metric)
TRANSPARENT = frozenset({"sc.rng.packed"})


class _CallSite:
    """A module as one importer sees it: some names wrapped, the rest
    delegated, so only that importer's calls are traced."""

    def __init__(self, module, wrapped: dict):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _packed_mb(args) -> float:
    # StreamFactory.packed(self, values, length, ...) draws one float64
    # uniform per value per cycle before packing.
    import numpy as np
    return float(np.size(args[1])) * int(args[2]) * 8 / 2**20


class Instrumentation:
    """Arm/disarm tracing of the program's layers in this process."""

    def __init__(self, path):
        self.path = str(path)
        self.missing = []
        self._undo = []

    def _wrap(self, row, fn, sized=False):
        from repro import obs

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tags = {"transient_mb": _packed_mb(args)} if sized else {}
            with obs.span(row, **tags):
                return fn(*args, **kwargs)
        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def arm(self) -> None:
        from repro import obs
        self.missing = []
        for row, module_name, attr in FUNCTION_SITES:
            module = importlib.import_module(module_name)
            if attr in vars(module):
                self._patch(module, attr, self._wrap(row, vars(module)[attr]))
            else:
                self.missing.append(row)
        for module_name, alias, rows in MODULE_SITES:
            module = importlib.import_module(module_name)
            target = vars(module).get(alias)
            present = {a: r for a, r in rows.items()
                       if target is not None and hasattr(target, a)}
            self.missing += [r for a, r in rows.items() if a not in present]
            if present:
                self._patch(module, alias, _CallSite(target, {
                    a: self._wrap(r, getattr(target, a))
                    for a, r in present.items()}))
        for row, module_name, cls_name, method in METHOD_SITES:
            cls = getattr(importlib.import_module(module_name), cls_name,
                          None)
            if cls is None or method not in vars(cls):
                self.missing.append(row)
                continue
            self._patch(cls, method, self._wrap(
                row, vars(cls)[method], sized=row == "sc.rng.packed"))
        obs.trace.configure(self.path)

    def disarm(self) -> None:
        from repro import obs
        obs.trace.configure(None)
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# accounting (no repro import: runs in the orchestrator)
# ---------------------------------------------------------------------------

def read_records(path, start: int = 0, stop: int = None) -> list:
    """JSONL span records between two byte offsets of the trace file."""
    with open(path, "rb") as handle:
        handle.seek(start)
        data = handle.read() if stop is None else handle.read(stop - start)
    return [json.loads(line) for line in data.splitlines() if line.strip()]


def _row(record):
    name = record["name"]
    if name == "engine.layer":
        return f"engine.layer{record.get('tags', {}).get('index')}"
    if name == "engine.forward":
        return "engine.unattributed"
    if name in KERNEL_ROWS or name in ("engine.encode",
                                       "engine.tiled.extract_windows",
                                       "engine.tiled.reduce_scene",
                                       "serve.parse", "serve.respond"):
        return name
    return None


def _index(records):
    """Span id -> record, and span id -> same-thread child records."""
    by_id = {r["span"]: r for r in records}
    children = defaultdict(list)
    for r in records:
        parent = by_id.get(r["parent"])
        if (parent is not None and parent["pid"] == r["pid"]
                and parent["thread"] == r["thread"]):
            children[parent["span"]].append(r)
    return by_id, children


def _self_ms(record, children) -> float:
    return record["dur_ms"] - sum(c["dur_ms"] for c in children[record["span"]]
                                  if c["name"] not in TRANSPARENT)


def _subtree_rows(root, children, rows) -> None:
    """Add the self time of every row-named descendant of ``root``."""
    stack = list(children[root["span"]])
    while stack:
        record = stack.pop()
        stack.extend(children[record["span"]])
        row = _row(record)
        if row is not None and record["name"] not in TRANSPARENT:
            rows[row] += _self_ms(record, children)


def layer_counts(records) -> dict:
    """Calls per traced call site over a set of records."""
    counts = defaultdict(int)
    for r in records:
        counts[r["name"]] += 1
    return counts


def setup_summary(records) -> dict:
    """Set-up costs from the records emitted before the timed phase."""
    total = defaultdict(float)
    transient = 0.0
    for r in records:
        total[r["name"]] += r["dur_ms"]
        if r["name"] == "sc.rng.packed":
            transient = max(transient, r.get("tags", {}).get(
                "transient_mb", 0.0))
    return {
        "engine.compile.ms": total["engine.compile"],
        "engine.backend_init.ms": total["engine.backend_init"],
        "sc.rng.packed.ms": total["sc.rng.packed"],
        "sc.rng.packed.transient_mb": transient,
    }


def _finish(rows: dict, wall_ms: float, requests: int, counts) -> dict:
    n = max(requests, 1)
    table = {f"{row}.ms": ms / n for row, ms in rows.items()}
    table["trace.wall.ms"] = wall_ms / n
    table["trace.unattributed.ms"] = (wall_ms - sum(rows.values())) / n
    #: the additive rows: these sum to ``trace.wall.ms``
    table["trace.rows"] = sorted(f"{row}.ms" for row in rows) + [
        "trace.unattributed.ms"]
    for name in ("blocks.pooling.apc_max_pool", "blocks.pooling.average_pool",
                 "native.apc_inner_counts", "sc.ops.mux_select"):
        table[f"{name}.calls"] = counts[name] / n
    return table


def fwd_table(records) -> dict:
    """Per-batch table of a closed-loop forward phase.

    The wall is the summed ``bench.batch`` spans; each layer row is the
    self time of its spans, so rows plus the remainder equal the wall.
    """
    _, children = _index(records)
    rows = defaultdict(float)
    batches = [r for r in records if r["name"] == "bench.batch"]
    for batch in batches:
        _subtree_rows(batch, children, rows)
    return _finish(rows, sum(b["dur_ms"] for b in batches), len(batches),
                   layer_counts(records))


def serve_table(records, rtts_ms) -> dict:
    """Per-request critical-path table of an open-loop serve phase.

    Per request: the client round trip is the wall.  Its rows are HTTP
    parse and respond, the relay between frontend and worker (procs
    only), scene tiling and reduction, the queue wait of the request's
    last-taken ticket and the self times inside the batch that ran it.
    Batches are recovered per batcher thread: ``serve.queue`` records
    precede the ``serve.compute`` record of the batch that took them.
    """
    _, children = _index(records)
    rows = defaultdict(float)
    pending = defaultdict(list)
    critical = {}  # request span -> (compute end, queue record, compute)
    coalesce, batch_sizes = [], []
    for r in records:
        lane = (r["pid"], r["thread"])
        if r["name"] == "serve.queue":
            pending[lane].append(r)
        elif r["name"] == "serve.coalesce":
            coalesce.append(r["dur_ms"])
        elif r["name"] == "serve.compute":
            batch_sizes.append(r.get("tags", {}).get("batch", 1))
            end = r["ts"] + r["dur_ms"] / 1e3
            for ticket in pending.pop(lane, []):
                best = critical.get(ticket["parent"])
                if best is None or end >= best[0]:
                    critical[ticket["parent"]] = (end, ticket, r)
    compute_ms = 0.0
    tickets = sum(1 for r in records if r["name"] == "serve.queue")
    for _, ticket, compute in critical.values():
        rows["serve.queue"] += ticket["dur_ms"]
        compute_ms += compute["dur_ms"]
        _subtree_rows(compute, children, rows)
    for r in records:
        if r["name"] in ("serve.parse", "serve.respond",
                         "engine.tiled.extract_windows",
                         "engine.tiled.reduce_scene"):
            rows[r["name"]] += _self_ms(r, children)
    http_pids = {r["pid"] for r in records if r["name"] == "serve.http"}
    roots = [r for r in records if r["name"] in ("serve.predict",
                                                 "serve.scene")]
    worker_roots = [r for r in roots if r["pid"] not in http_pids]
    if worker_roots:
        # frontend request time minus its own rows (it validates the
        # scene with extract_windows too) minus the worker's request time
        rows["serve.procpool.relay"] = sum(
            r["dur_ms"] - sum(c["dur_ms"] for c in children[r["span"]]
                              if _row(c))
            for r in roots if r["pid"] in http_pids) - sum(
            r["dur_ms"] for r in worker_roots)
    n = max(len(rtts_ms), 1)
    table = _finish(rows, sum(rtts_ms), len(rtts_ms), layer_counts(records))
    table["serve.compute.ms"] = compute_ms / n
    table["serve.http_overhead.ms"] = (sum(rtts_ms) - compute_ms) / n
    table["serve.coalesce.ms"] = (sum(coalesce) / len(coalesce)
                                  if coalesce else 0.0)
    table["serve.batch_size.mean"] = (sum(batch_sizes) / len(batch_sizes)
                                      if batch_sizes else 0.0)
    table["engine.tiled.windows_per_request"] = (
        tickets / len(critical) if critical else 0.0)
    table["trace.requests_matched"] = len(critical)
    return table
