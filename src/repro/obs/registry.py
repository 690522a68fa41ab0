"""Thread-safe metrics registry: counters, gauges, log-bucket histograms.

The registry is the process-wide aggregation point every instrumented
subsystem writes to (serve, engine layers, DSE, fault injection) and
every exporter reads from (``GET /metrics``, ``python -m repro stats``,
chaos tests).  Design constraints, in order:

* **pure observation** — nothing here touches a random-number
  generator, so arming or disarming metrics can never perturb the
  simulator's bit-identity contract (conformance-tested);
* **near-zero cost when disarmed** — every mutation checks one module
  global first and returns; a disarmed ``inc()`` is a function call, a
  load and a branch;
* **consistent scrapes under concurrent writers** — each metric child
  owns a lock, so a histogram snapshot is always internally coherent
  (``+Inf`` cumulative count == ``count``, bucket counts monotone) even
  while worker threads observe into it.

Metric *families* follow the Prometheus model: a family has a name, a
type, a help string and a fixed tuple of label names; ``labels(**kv)``
returns (creating on first use) the child holding the actual value for
one label combination.  A family declared with no label names acts as
its own single child, so ``registry.counter("x").inc()`` just works.

Histogram buckets are **fixed and log-spaced** (:func:`log_buckets`):
bucket layout never adapts to data, so two scrapes are always
comparable and snapshots from different processes merge bound by bound.

The module-level *current registry* (:func:`get_registry` /
:func:`set_registry`) is what instrumentation sites write to at event
time — looked up per event, never cached, so tests can swap in an
isolated registry (:func:`repro.obs.scoped_registry`) without touching
the instrumented code.
"""

from __future__ import annotations

import bisect
import math
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "log_buckets",
    "get_registry",
    "set_registry",
    "set_armed",
    "armed",
]

#: Module-wide arming flag: every metric mutation checks this first.
#: Disarmed, the whole subsystem degrades to one load + branch per
#: event (the overhead budget DESIGN.md's Observability section pins).
_ARMED = True


def set_armed(on: bool) -> None:
    """Globally arm/disarm metric mutation (reads always work)."""
    global _ARMED
    _ARMED = bool(on)


def armed() -> bool:
    """Whether metric mutation is currently armed."""
    return _ARMED


def log_buckets(lo: float, hi: float, per_decade: int = 3) -> tuple:
    """Fixed log-spaced histogram bucket bounds covering ``[lo, hi]``.

    ``per_decade`` bounds per power of ten, rounded to three significant
    figures so the exposition text is tidy and round-trips exactly.
    The last bound is >= ``hi``; an implicit ``+Inf`` bucket always
    exists on top.
    """
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    n = int(math.ceil(per_decade * math.log10(hi / lo) - 1e-9))
    bounds = []
    for i in range(n + 1):
        b = float(f"{lo * 10.0 ** (i / per_decade):.3g}")
        if not bounds or b > bounds[-1]:
            bounds.append(b)
    return tuple(bounds)


#: Default latency buckets: 100 µs to ~60 s, three per decade — wide
#: enough for a batched exact inference at L=1024 and fine enough to
#: separate a queue-bound p95 from a compute-bound one.
DEFAULT_TIME_BUCKETS = log_buckets(1e-4, 60.0, per_decade=3)


class Counter:
    """Monotonically non-decreasing value (floats allowed)."""

    kind = "counter"
    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not _ARMED:
            return
        if amount < 0:
            raise ValueError(f"counters only go up; inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self):
        return self.value


class Gauge:
    """Freely settable value (queue depths, in-flight counts)."""

    kind = "gauge"
    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        if not _ARMED:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not _ARMED:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self):
        return self.value


class Histogram:
    """Fixed-bucket histogram with cumulative (Prometheus-style) counts.

    ``observe`` is one bisect + two adds under the child lock; the
    snapshot returns cumulative per-bucket counts (including the
    implicit ``+Inf``), the running sum and the total count — always
    mutually coherent because both mutation and snapshot hold the lock.
    """

    kind = "histogram"
    __slots__ = ("_lock", "bounds", "_counts", "_sum", "_count")

    def __init__(self, buckets=DEFAULT_TIME_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("buckets must be a non-empty increasing "
                             f"sequence, got {buckets!r}")
        self._lock = threading.Lock()
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        if not _ARMED:
            return
        value = float(value)
        i = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[i] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def snapshot(self) -> dict:
        """``{"buckets": [(le, cumulative), ..., (inf, total)],
        "sum": s, "count": n}`` — internally coherent by construction."""
        with self._lock:
            counts = list(self._counts)
            total_sum = self._sum
            total = self._count
        cumulative, acc = [], 0
        for bound, c in zip(self.bounds + (math.inf,), counts):
            acc += c
            cumulative.append((bound, acc))
        return {"buckets": cumulative, "sum": total_sum, "count": total}


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric: a type, label names, and per-label children."""

    def __init__(self, name: str, kind: str, help: str = "",
                 labelnames=(), buckets=None):
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        if not name or not all(c.isalnum() or c == "_" for c in name):
            raise ValueError(
                f"metric name must be [A-Za-z0-9_]+, got {name!r}")
        self.name = name
        self.kind = kind
        self.help = str(help)
        self.labelnames = tuple(str(n) for n in labelnames)
        self._buckets = buckets
        self._lock = threading.Lock()
        self._children = {}

    def _make_child(self):
        if self.kind == "histogram":
            return Histogram(self._buckets if self._buckets is not None
                             else DEFAULT_TIME_BUCKETS)
        return _KINDS[self.kind]()

    def labels(self, **labelvalues):
        """The child for one label-value combination (created on miss)."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels "
                f"{sorted(self.labelnames)}, got {sorted(labelvalues)}")
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._make_child()
            return child

    # -- unlabeled convenience: a family with no label names is its own
    # -- single child, so call sites stay one-liners.
    def _solo(self):
        if self.labelnames:
            raise ValueError(
                f"metric {self.name!r} is labeled "
                f"({sorted(self.labelnames)}); use .labels(...)")
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    @property
    def value(self):
        return self._solo().value

    def samples(self) -> dict:
        """``{labelvalues tuple: child snapshot}`` for every child."""
        with self._lock:
            children = dict(self._children)
        return {key: child.snapshot() for key, child in children.items()}


class MetricsRegistry:
    """Get-or-create store of :class:`MetricFamily` by name.

    Re-registering an existing name with a matching (kind, labelnames)
    returns the existing family — instrumentation sites never have to
    coordinate construction.  A mismatch raises, catching name
    collisions between subsystems early.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._families = {}

    def _family(self, name: str, kind: str, help: str,
                labelnames, buckets=None) -> MetricFamily:
        labelnames = tuple(str(n) for n in labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind}{family.labelnames}, requested "
                        f"{kind}{labelnames}")
                return family
            family = MetricFamily(name, kind, help=help,
                                  labelnames=labelnames, buckets=buckets)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "",
                labelnames=()) -> MetricFamily:
        return self._family(name, "counter", help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames=()) -> MetricFamily:
        return self._family(name, "gauge", help, labelnames)

    def histogram(self, name: str, help: str = "", labelnames=(),
                  buckets=None) -> MetricFamily:
        return self._family(name, "histogram", help, labelnames,
                            buckets=buckets)

    def families(self) -> list:
        with self._lock:
            return sorted(self._families.values(), key=lambda f: f.name)

    def snapshot(self) -> dict:
        """Point-in-time copy: ``{name: {kind, help, labelnames,
        samples}}`` with every sample internally coherent."""
        return {
            family.name: {
                "kind": family.kind,
                "help": family.help,
                "labelnames": family.labelnames,
                "samples": family.samples(),
            }
            for family in self.families()
        }

    def reset(self) -> None:
        """Drop every family (tests; never called in production)."""
        with self._lock:
            self._families.clear()


# ----------------------------------------------------------------------
# the process-wide current registry
# ----------------------------------------------------------------------
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The registry instrumentation currently writes to."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the current registry; returns the previous one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous
