"""Per-layer tracing from outside the program.

Nothing under ``src/`` knows it is being traced: :class:`Tracer` wraps
the public methods of each layer at runtime (:data:`TARGETS`), records a
span per call, and restores every original on exit.  Only the traced run
does this; end-to-end numbers always come from an untraced run.

A span has a name (``<layer>:<method>``), start, end, parent span and the
id of the caller window that issued it.  Self time is a span's duration
minus the time its child spans cover; calls here are strictly nested and
single-threaded, so that is the duration minus the sum of the children.
Self time, inclusive time and call counts are aggregated as spans close,
so memory stays flat; the spans themselves are kept only when asked for
(``keep_spans``), in compact arrays, and written out as JSON lines.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import defaultdict

#: (module, class, methods, layer) — what the traced run wraps.  Metric
#: handles (``Counter.inc`` etc.) count as the metrics layer wherever
#: they are called from; ``FileIO.fsync`` is reported under the WAL.
TARGETS = (
    ("repro.serve.engine", "ServingEngine", ("submit", "pump"),
     "serve.engine"),
    ("repro.serve.batch", "ShardBatcher",
     ("execute", "insert_many", "query_many"), "serve.batch"),
    ("repro.serve.router", "ShardedSBF", ("shard_of_many",), "serve.router"),
    ("repro.serve.metrics", "MetricsRegistry",
     ("counter", "gauge", "histogram"), "serve.metrics"),
    ("repro.serve.metrics", "Counter", ("inc",), "serve.metrics"),
    ("repro.serve.metrics", "Gauge", ("set",), "serve.metrics"),
    ("repro.serve.metrics", "Histogram", ("observe",), "serve.metrics"),
    ("repro.persist.concurrent", "ConcurrentSBF",
     ("insert", "delete", "set", "query", "contains", "insert_many",
      "delete_many", "query_many"), "persist.concurrent"),
    ("repro.persist.durable", "DurableSBF",
     ("insert", "delete", "set", "query", "contains", "insert_many",
      "delete_many", "query_many"), "persist.durable"),
    ("repro.persist.wal", "WriteAheadLog",
     ("log_insert", "log_delete", "log_set", "log_insert_many",
      "log_delete_many"), "persist.wal"),
    ("repro.persist.crashsim", "FileIO", ("fsync",), "persist.fsync"),
    ("repro.core.sbf", "SpectralBloomFilter",
     ("insert", "delete", "query", "insert_many", "delete_many",
      "query_many"), "core.sbf"),
    ("repro.serve.procpool", "ProcessShard",
     ("insert", "delete", "set", "query", "contains", "insert_many",
      "delete_many", "query_many"), "serve.procpool"),
    ("repro.db.transport", "ReliableChannel", ("send",), "db.transport"),
)

#: ``ConcurrentSBF.exclusive`` is a context manager: entering it is the
#: lock acquisition, and the time to enter counts as lock wait
SECTION = ("repro.persist.concurrent", "ConcurrentSBF", "exclusive",
           "persist.concurrent")

BULK_METHODS = ("insert_many", "delete_many", "query_many")
SCALAR_METHODS = ("insert", "delete", "query")


class Tracer:
    """Span recorder installed by wrapping methods; a context manager.

    Attributes:
        window: id of the caller window issuing the current calls — set by
            the client loop, stamped on every span.
        self_s / total_s: seconds of self / inclusive time per layer.
        calls: call counts per ``(layer, method)``.
        keys: keys passed to bulk calls, per layer.
        wire_bytes: payload bytes handed to ``ReliableChannel.send``.
        lock_wait_s: seconds spent entering ``ConcurrentSBF.exclusive``.
        unwrapped: targets missing from this version of the program.
    """

    def __init__(self, *, keep_spans: bool = False):
        self.window = -1
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[tuple, int] = defaultdict(int)
        self.keys: dict[str, int] = defaultdict(int)
        self.wire_bytes = 0
        self.lock_wait_s = 0.0
        self.unwrapped: list[str] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._names: dict[str, int] = {}
        self._spans = None
        if keep_spans:
            self._spans = {"id": array("q"), "name": array("H"),
                           "start": array("d"), "end": array("d"),
                           "parent": array("q"), "window": array("q")}
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------
    def enter(self, layer: str, method: str) -> None:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([layer, method, span_id, time.perf_counter(),
                            0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its duration in seconds."""
        end = time.perf_counter()
        layer, method, span_id, start, child = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child
        self.total_s[layer] += duration
        self.calls[(layer, method)] += 1
        parent = -1
        if self._stack:
            frame = self._stack[-1]
            frame[4] += duration
            parent = frame[2]
        spans = self._spans
        if spans is not None:
            name = f"{layer}:{method}"
            code = self._names.setdefault(name, len(self._names))
            spans["id"].append(span_id)
            spans["name"].append(code)
            spans["start"].append(start)
            spans["end"].append(end)
            spans["parent"].append(parent)
            spans["window"].append(self.window)
        return duration

    @property
    def n_spans(self) -> int:
        return self._next_id

    def write_spans(self, path: str) -> int:
        """Write the kept spans as JSON lines; returns how many."""
        if self._spans is None:
            return 0
        names = {code: name for name, code in self._names.items()}
        spans = self._spans
        with open(path, "w", encoding="utf-8") as out:
            for i in range(len(spans["id"])):
                out.write(json.dumps({
                    "id": spans["id"][i], "name": names[spans["name"][i]],
                    "start": spans["start"][i], "end": spans["end"][i],
                    "parent": spans["parent"][i],
                    "window": spans["window"][i]}) + "\n")
        return len(spans["id"])

    # -- installing --------------------------------------------------------
    def __enter__(self) -> "Tracer":
        for module_name, class_name, methods, layer in TARGETS:
            cls = getattr(importlib.import_module(module_name), class_name,
                          None)
            for method in methods:
                self._wrap(cls, class_name, method, layer)
        module_name, class_name, method, layer = SECTION
        cls = getattr(importlib.import_module(module_name), class_name, None)
        self._wrap(cls, class_name, method, layer, section=True)
        return self

    def __exit__(self, *exc) -> bool:
        for cls, method, original in reversed(self._patches):
            if original is None:
                delattr(cls, method)
            else:
                setattr(cls, method, original)
        self._patches.clear()
        return False

    def _wrap(self, cls, class_name: str, method: str, layer: str, *,
              section: bool = False) -> None:
        fn = getattr(cls, method, None) if cls is not None else None
        if not callable(fn):
            self.unwrapped.append(f"{class_name}.{method}")
            return
        # Inherited methods are shadowed on *cls* and deleted on restore.
        self._patches.append((cls, method, cls.__dict__.get(method)))
        enter, exit_ = self.enter, self.exit
        tracer = self
        if section:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return _TracedSection(tracer, layer, fn(*args, **kwargs))
        elif method in BULK_METHODS:
            @functools.wraps(fn)
            def traced(obj, keys, *args, **kwargs):
                tracer.keys[layer] += len(keys)
                enter(layer, method)
                try:
                    return fn(obj, keys, *args, **kwargs)
                finally:
                    exit_()
        elif layer == "db.transport":
            @functools.wraps(fn)
            def traced(obj, label, payload, *args, **kwargs):
                tracer.wire_bytes += len(payload)
                enter(layer, method)
                try:
                    return fn(obj, label, payload, *args, **kwargs)
                finally:
                    exit_()
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                enter(layer, method)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()
        setattr(cls, method, traced)


class _TracedSection:
    """Wraps one ``exclusive()`` context: entering is timed as lock wait,
    leaving as release; the body is the caller's own time."""

    __slots__ = ("_tracer", "_layer", "_cm")

    def __init__(self, tracer: Tracer, layer: str, cm):
        self._tracer = tracer
        self._layer = layer
        self._cm = cm

    def __enter__(self):
        self._tracer.enter(self._layer, "exclusive")
        try:
            return self._cm.__enter__()
        finally:
            self._tracer.lock_wait_s += self._tracer.exit()

    def __exit__(self, *exc):
        self._tracer.enter(self._layer, "release")
        try:
            return self._cm.__exit__(*exc)
        finally:
            self._tracer.exit()


def _calls(tracer: Tracer, layer: str, methods=None) -> int:
    return sum(n for (name, method), n in tracer.calls.items()
               if name == layer and (methods is None or method in methods))


def _delta(before: dict, after: dict, kind: str, name: str) -> float:
    return after[kind].get(name, 0) - before[kind].get(name, 0)


def layer_metrics(tracer: Tracer, *, ops: int, mutations: int,
                  before: dict, after: dict,
                  wal_bytes: int | None = None) -> dict:
    """Per-layer metrics of one traced pass.

    *before* / *after* are ``MetricsRegistry.snapshot()`` documents taken
    around the pass (the program's own counters supply shard groups,
    queue waits, worker round trips and channel retries); *wal_bytes* is
    how much the durable root grew.  Times are reported only for layers
    the pass went through; counts are reported for every layer, 0 where
    the path bypasses it.
    """
    us = 1e6 / ops
    muts = max(mutations, 1)
    out: dict[str, float] = {}

    def timed(layer: str, name: str = "self_us_per_op") -> None:
        if _calls(tracer, layer):
            out[f"{layer}.{name}"] = tracer.self_s[layer] * us

    timed("serve.engine")
    hist_name = "engine.queue_wait_seconds"
    h0 = before["histograms"].get(hist_name, {"sum": 0.0, "count": 0})
    h1 = after["histograms"].get(hist_name, {"sum": 0.0, "count": 0})
    if h1["count"] > h0["count"]:
        out["serve.engine.queue_wait_us_mean"] = (
            1e6 * (h1["sum"] - h0["sum"]) / (h1["count"] - h0["count"]))

    timed("serve.metrics")
    out["serve.metrics.lookups_per_op"] = _calls(
        tracer, "serve.metrics", ("counter", "gauge", "histogram")) / ops

    timed("serve.batch")
    groups = _delta(before, after, "counters", "batch.shard_batches")
    out["serve.batch.ops_per_shard_group"] = (
        _delta(before, after, "counters", "batch.ops") / groups
        if groups else 0.0)

    timed("serve.router")

    timed("persist.concurrent")
    out["persist.concurrent.lock_acquisitions_per_op"] = _calls(
        tracer, "persist.concurrent",
        ("exclusive", "insert", "delete", "set", "query", "insert_many",
         "delete_many", "query_many")) / ops
    if _calls(tracer, "persist.concurrent"):
        out["persist.concurrent.lock_wait_us_per_op"] = \
            tracer.lock_wait_s * us

    timed("persist.durable")

    timed("persist.wal")
    out["persist.wal.records_per_mutation"] = \
        _calls(tracer, "persist.wal") / muts
    out["persist.wal.bytes_per_mutation"] = (wal_bytes or 0) / muts
    out["persist.wal.fsyncs_per_mutation"] = \
        _calls(tracer, "persist.fsync") / muts
    if _calls(tracer, "persist.fsync"):
        out["persist.wal.fsync_us_per_op"] = \
            tracer.total_s["persist.fsync"] * us

    timed("core.sbf")
    out["core.sbf.scalar_calls_per_op"] = _calls(
        tracer, "core.sbf", SCALAR_METHODS) / ops
    bulk_calls = _calls(tracer, "core.sbf", BULK_METHODS)
    out["core.sbf.keys_per_bulk_call"] = (
        tracer.keys["core.sbf"] / bulk_calls if bulk_calls else 0.0)

    timed("serve.procpool")
    round_trips = sum(
        value - before["counters"].get(name, 0)
        for name, value in after["counters"].items()
        if name.startswith("engine.worker.") and name.endswith(".requests"))
    out["serve.procpool.round_trips_per_op"] = round_trips / ops
    out["serve.procpool.wire_bytes_per_op"] = tracer.wire_bytes / ops

    if _calls(tracer, "serve.procpool"):
        # The round trip as the client sees it: the whole remote call,
        # both channel legs and the worker's pipe exchange included.
        out["db.transport.rtt_us_per_op"] = \
            tracer.total_s["serve.procpool"] * us
    retries = sum(
        stats["retries"] - before["channels"].get(name, {}).get("retries", 0)
        for name, stats in after["channels"].items())
    out["db.transport.retries_per_op"] = retries / ops
    return out
