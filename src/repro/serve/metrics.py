"""One metrics surface for the whole serving stack.

Router, batcher, engine, and remote shards all report through a single
:class:`MetricsRegistry` — counters for monotone event totals, gauges for
instantaneous levels (queue depth), and fixed-bucket latency histograms.
The registry follows the injected-clock convention established by
:mod:`repro.db.transport`: the substrate never reads a wall clock of its
own; timing flows through a ``clock`` callable supplied at construction,
so tests drive a fake clock and chaos runs stay deterministic (the default
is :func:`time.perf_counter` for real deployments).

:class:`~repro.db.transport.ChannelStats` is re-exported here and can be
attached to a registry (:meth:`MetricsRegistry.attach_channel`), so
transport-level delivery metrics and serving-level throughput metrics are
scraped from one ``snapshot()`` — the serving layer's answer to the
satellite "stats are scrapable without touching private attributes".

Naming convention: dotted lowercase paths, ``<component>.<event>``
(``engine.rejected_total``, ``batch.ops``, ``shard3.inserts``).  A metric name
is created on first use and keeps its identity for the registry's
lifetime.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from typing import Callable, Sequence

from repro.db.transport import ChannelStats

__all__ = ["ChannelStats", "Counter", "Gauge", "Histogram",
           "MetricsRegistry", "ReplicaGauges", "DEFAULT_LATENCY_BUCKETS"]

#: default latency bucket upper bounds, in seconds (histogram-ish buckets:
#: the last bucket is the +inf overflow)
DEFAULT_LATENCY_BUCKETS = (0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05,
                           0.1, 0.5, 1.0, 5.0)


class Counter:
    """A monotone event counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._value = 0
        self._lock = lock

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters are monotone; cannot add {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self._value})"


class Gauge:
    """An instantaneous level (queue depth, shard count, ...)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self._value})"


class Histogram:
    """Fixed-bucket histogram with sum/count — latency-bucket style.

    ``bounds`` are inclusive upper bounds; one overflow bucket is appended
    for observations beyond the last bound.  Lighter than a quantile
    sketch, but enough to read p50/p99-ish behaviour off the bucket
    vector, which is all the serving tests and benchmarks need.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "sum", "_lock")

    def __init__(self, name: str, lock: threading.Lock,
                 bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(float(b) for b in bounds)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"bucket bounds must be a sorted non-empty "
                             f"sequence, got {bounds!r}")
        self.name = name
        self.bounds = bounds
        self.buckets = [0] * (len(bounds) + 1)   # +1 overflow
        self.count = 0
        self.sum = 0.0
        self._lock = lock

    def observe(self, value: float) -> None:
        slot = bisect_left(self.bounds, value)   # first bound >= value
        with self._lock:
            self.buckets[slot] += 1
            self.count += 1
            self.sum += value

    def observe_many(self, values: Sequence[float]) -> None:
        """Record *values* under one lock hold: the buckets, ``count`` and
        ``sum`` of observing them one by one, in order (the sum is added
        value by value, so it is bit-identical too)."""
        bounds, buckets = self.bounds, self.buckets
        with self._lock:
            total = self.sum
            for value in values:
                buckets[bisect_left(bounds, value)] += 1
                total += value
            self.sum = total
            self.count += len(values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, count={self.count}, sum={self.sum})"


class ReplicaGauges:
    """The health gauges of one replica in a replica set.

    The HA layer (:mod:`repro.serve.ha`) keeps these current; dashboards
    and the benchmarks scrape them out of the one ``snapshot()``:

    - ``up`` — 1.0 while the replica is taking traffic, 0.0 while ejected;
    - ``hint_depth`` — operations queued in the replica's hint log,
      waiting for handoff (0 when the replica is caught up);
    - ``last_repair`` — registry-clock timestamp of the last anti-entropy
      repair that touched the replica (0.0 if never repaired);
    - ``breaker_state`` — the replica's circuit breaker: 0.0 closed
      (serving), 0.5 half-open (probing), 1.0 open (shedding) — the
      gray-failure signal; a replica can be ``up`` yet breaker-open
      because it answers slowly.

    Naming convention: ``ha.<set>.<replica>.up`` etc., so a fleet of
    replica sets stays navigable in one flat namespace.
    """

    __slots__ = ("up", "hint_depth", "last_repair", "breaker_state")

    def __init__(self, up: Gauge, hint_depth: Gauge, last_repair: Gauge,
                 breaker_state: Gauge):
        self.up = up
        self.hint_depth = hint_depth
        self.last_repair = last_repair
        self.breaker_state = breaker_state


class MetricsRegistry:
    """Create-on-first-use registry of counters, gauges, and histograms.

    Args:
        clock: seconds-returning callable the serving layers time with
            (the injected-clock convention — tests pass a fake,
            production defaults to ``time.perf_counter``).
    """

    def __init__(self, *, clock: Callable[[], float] | None = None):
        self.clock: Callable[[], float] = clock or time.perf_counter
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._channels: dict[str, ChannelStats] = {}

    def _named(self, table: dict, factory, name: str):
        with self._lock:
            metric = table.get(name)
            if metric is None:
                metric = table[name] = factory()
            return metric

    def counter(self, name: str) -> Counter:
        return self._named(self._counters,
                           lambda: Counter(name, self._lock), name)

    def gauge(self, name: str) -> Gauge:
        return self._named(self._gauges,
                           lambda: Gauge(name, self._lock), name)

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  ) -> Histogram:
        return self._named(self._histograms,
                           lambda: Histogram(name, self._lock, bounds), name)

    def attach_channel(self, name: str, stats: ChannelStats) -> ChannelStats:
        """Register a transport's :class:`ChannelStats` under *name*.

        The live object is referenced (not copied): snapshots always show
        current delivery totals, and one surface reports both layers.
        """
        with self._lock:
            self._channels[name] = stats
        return stats

    def replica_gauges(self, set_name: str, replica: str) -> ReplicaGauges:
        """Health gauges for replica *replica* of replica set *set_name*.

        Idempotent (create-on-first-use, like every metric here); the HA
        layer owns the values — it sets ``up`` when the replica joins.
        """
        prefix = f"ha.{set_name}.{replica}"
        return ReplicaGauges(self.gauge(f"{prefix}.up"),
                             self.gauge(f"{prefix}.hint_depth"),
                             self.gauge(f"{prefix}.last_repair"),
                             self.gauge(f"{prefix}.breaker_state"))

    def snapshot(self) -> dict:
        """All metrics as one plain-data dict (scrape/JSON-friendly).

        Mirrors :meth:`ChannelStats.as_dict`: no private attribute of any
        component needs to be read to observe the serving stack.
        """
        with self._lock:
            counters = {name: c._value for name, c in self._counters.items()}
            gauges = {name: g._value for name, g in self._gauges.items()}
            histograms = {
                name: {"bounds": list(h.bounds), "buckets": list(h.buckets),
                       "count": h.count, "sum": h.sum}
                for name, h in self._histograms.items()}
            channels = {name: stats.as_dict()
                        for name, stats in self._channels.items()}
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms, "channels": channels}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MetricsRegistry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, "
                f"histograms={len(self._histograms)}, "
                f"channels={len(self._channels)})")
