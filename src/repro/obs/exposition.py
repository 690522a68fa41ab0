"""Prometheus text exposition of registry snapshots, and their merge.

``render`` emits the classic text format (``# HELP`` / ``# TYPE``
headers, one sample per line, histograms expanded into cumulative
``_bucket{le="..."}`` series plus ``_sum`` and ``_count``).  ``merge``
sums snapshots from several processes into one snapshot, so text is
produced once, at the HTTP edge (``GET /metrics``, which
``python -m repro stats --metrics`` prints verbatim).
"""

from __future__ import annotations

import math

__all__ = ["render", "merge"]

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def _escape(value: str) -> str:
    return "".join(_ESCAPES.get(c, c) for c in str(value))


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labelstr(labelnames, labelvalues, extra=()) -> str:
    parts = [f'{n}="{_escape(v)}"'
             for n, v in list(zip(labelnames, labelvalues)) + list(extra)]
    return "{" + ",".join(parts) + "}" if parts else ""


def render(source) -> str:
    """Prometheus text (version 0.0.4) for a registry or snapshot dict.

    Accepts either a :class:`~repro.obs.registry.MetricsRegistry` or a
    ``registry.snapshot()`` dict, so exporters can scrape live or from
    a frozen copy.
    """
    snapshot = source.snapshot() if hasattr(source, "snapshot") else source
    lines = []
    for name in sorted(snapshot):
        meta = snapshot[name]
        kind, labelnames = meta["kind"], tuple(meta["labelnames"])
        if meta["help"]:
            lines.append(f"# HELP {name} {_escape(meta['help'])}")
        lines.append(f"# TYPE {name} {kind}")
        for labelvalues in sorted(meta["samples"]):
            sample = meta["samples"][labelvalues]
            if kind == "histogram":
                for bound, cum in sample["buckets"]:
                    le = "+Inf" if bound == math.inf else f"{bound:g}"
                    labels = _labelstr(labelnames, labelvalues,
                                       extra=[("le", le)])
                    lines.append(f"{name}_bucket{labels} {cum}")
                labels = _labelstr(labelnames, labelvalues)
                lines.append(f"{name}_sum{labels} {_fmt(sample['sum'])}")
                lines.append(f"{name}_count{labels} {sample['count']}")
            else:
                labels = _labelstr(labelnames, labelvalues)
                lines.append(f"{name}{labels} {_fmt(sample)}")
    return "\n".join(lines) + "\n" if lines else ""


def merge(snapshots) -> dict:
    """Sum several ``registry.snapshot()`` dicts into one of the same shape.

    The multi-process serving tier takes each worker's process-wide
    registry snapshot and merges it with the frontend's own, then
    renders once — one ``/metrics`` page for the whole server.
    Counters and gauges add per label-value tuple; histograms add their
    cumulative bucket counts, sums and counts bound by bound.  Summed
    gauges are the meaningful aggregate for every gauge the serving
    layer emits (queue depths, resident engines/plans); point-in-time
    gauges that must *not* be summed (``repro_serve_draining``) are
    published by the frontend alone.

    ``kind``, ``help`` and ``labelnames`` come from the first snapshot
    that defines each metric; every process runs the same
    instrumentation, so the label names agree.  Inputs are not mutated.
    """
    merged = {}
    for snapshot in snapshots:
        for name, meta in snapshot.items():
            into = merged.get(name)
            if into is None:
                merged[name] = {**meta, "samples": dict(meta["samples"])}
                continue
            samples = into["samples"]
            for labelvalues, sample in meta["samples"].items():
                have = samples.get(labelvalues)
                if have is None:
                    samples[labelvalues] = sample
                elif into["kind"] == "histogram":
                    samples[labelvalues] = {
                        "buckets": [(bound, cum + more) for (bound, cum),
                                    (_, more) in zip(have["buckets"],
                                                     sample["buckets"])],
                        "sum": have["sum"] + sample["sum"],
                        "count": have["count"] + sample["count"]}
                else:
                    samples[labelvalues] = have + sample
    return merged
