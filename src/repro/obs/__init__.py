"""repro.obs — unified telemetry: metrics and tracing.

Two independent facilities with one shared contract — instrumentation
is *pure observation* (clocks and counters only, never an RNG, never a
behavioral branch), so armed or disarmed the simulator's output bits
are identical (asserted by ``tests/test_conformance``):

* **metrics** (:mod:`.registry`, :mod:`.exposition`) — process-wide
  counters / gauges / log-bucket histograms.  Registry snapshots are
  what crosses a process boundary: :func:`merge` sums them and
  :func:`render` turns the result into the text scraped at
  ``GET /metrics`` and ``python -m repro stats --metrics``;
* **tracing** (:mod:`.trace`) — hierarchical spans over the request
  lifecycle and DSE evaluations, JSONL via ``REPRO_TRACE=path``.

Where engine time goes per kernel tier is a metric, not a third
facility: the exact backend observes each layer's wall time into
``repro_engine_layer_seconds{layer,op,kind,tier}``, so merged worker
scrapes carry it like any other histogram.

Event-time call sites use the module-level conveniences below
(``obs.counter(...).inc()``), which resolve the *current* registry per
event — so :func:`scoped_registry` can isolate a test without patching
any instrumented module.

This package sits at the bottom of the import graph: it must not import
from ``repro.sc``, ``repro.engine``, ``repro.serve``, ``repro.dse``,
``repro.faults`` or ``repro.native`` (they all import *it*).
"""

from __future__ import annotations

from contextlib import contextmanager

from . import trace
from .exposition import merge, render
from .registry import (
    DEFAULT_TIME_BUCKETS,
    MetricsRegistry,
    armed,
    get_registry,
    log_buckets,
    set_armed,
    set_registry,
)
from .trace import current, record_span, span

__all__ = [
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "log_buckets",
    "get_registry",
    "set_registry",
    "set_armed",
    "armed",
    "scoped_registry",
    "counter",
    "gauge",
    "histogram",
    "render",
    "merge",
    "span",
    "record_span",
    "current",
    "trace",
]


def counter(name: str, help: str = "", **labels):
    """Event-time counter child in the *current* registry.

    Label names are derived from the keyword arguments (sorted), so a
    given metric name must always be called with the same label keys.
    """
    family = get_registry().counter(name, help,
                                    labelnames=tuple(sorted(labels)))
    return family.labels(**labels) if labels else family


def gauge(name: str, help: str = "", **labels):
    """Event-time gauge child in the *current* registry."""
    family = get_registry().gauge(name, help,
                                  labelnames=tuple(sorted(labels)))
    return family.labels(**labels) if labels else family


def histogram(name: str, help: str = "", buckets=None, **labels):
    """Event-time histogram child in the *current* registry."""
    family = get_registry().histogram(name, help,
                                      labelnames=tuple(sorted(labels)),
                                      buckets=buckets)
    return family.labels(**labels) if labels else family


@contextmanager
def scoped_registry(registry=None):
    """Swap in an isolated registry for the block (test isolation).

    Yields the scoped registry; the previous one is restored on exit
    even on error.  Note the scope is process-global, not thread-local —
    concurrent writers inside the block land in the scoped registry,
    which is exactly what the serve-path tests need.
    """
    registry = registry if registry is not None else MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)

