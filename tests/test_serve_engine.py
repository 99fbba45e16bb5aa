"""ServingEngine: admission control, batching equivalence, graceful close.

Everything here is deterministic: the pump is driven from the test thread
(submit/pump interleaving is explicit) and latency accounting runs on a
fake injected clock, so queueing behaviour is asserted exactly — no
sleeps, no flakiness.
"""

import random

import numpy as np
import pytest

from repro.core.sbf import SpectralBloomFilter
from repro.core.serialize import load_sbf
from repro.serve import (
    DeadlineExceeded,
    MetricsRegistry,
    Overloaded,
    ServingEngine,
    ShardedSBF,
    run_requests,
    shed_oldest,
)

M, K, SEED = 2048, 4, 11


class FakeClock:
    """Injected clock: tests advance time by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_router(n_shards: int = 4, **kwargs) -> ShardedSBF:
    return ShardedSBF.create(n_shards, M, K, seed=SEED, **kwargs)


def test_reject_new_refuses_at_the_bound():
    engine = ServingEngine(make_router(), max_queue=4, batch_size=8)
    futures = [engine.submit("insert", key) for key in range(4)]
    with pytest.raises(Overloaded) as caught:
        engine.submit("insert", 99)
    assert caught.value.depth == 4
    assert caught.value.limit == 4
    snapshot = engine.metrics.snapshot()["counters"]
    assert snapshot["engine.rejected_total"] == 1
    assert snapshot["engine.accepted"] == 4
    assert engine.pump() == 4
    assert all(future.result(timeout=0) is None for future in futures)
    # The refused insert never reached a shard.
    assert engine.router.total_count == 4
    # Below the bound the door reopens.
    engine.submit("query", 0)
    assert engine.drain() == 1


def test_shed_oldest_bounds_staleness_not_arrivals():
    engine = ServingEngine(make_router(), max_queue=2, batch_size=8,
                           policy=shed_oldest)
    first = engine.submit("insert", 1)
    second = engine.submit("insert", 2)
    third = engine.submit("insert", 3)      # sheds `first`, admits itself
    assert isinstance(first.exception(timeout=0), Overloaded)
    assert engine.queue_depth == 2
    assert engine.drain() == 2
    assert second.result(timeout=0) is None
    assert third.result(timeout=0) is None
    counters = engine.metrics.snapshot()["counters"]
    assert counters["engine.shed_total"] == 1
    assert counters["engine.served"] == 2


def test_rejection_counts_under_sustained_overload():
    engine = ServingEngine(make_router(), max_queue=8, batch_size=8)
    accepted = rejected = 0
    for key in range(50):
        try:
            engine.submit("insert", key)
            accepted += 1
        except Overloaded:
            rejected += 1
            engine.pump()                   # backpressure: serve, retry later
    engine.drain()
    counters = engine.metrics.snapshot()["counters"]
    assert counters["engine.accepted"] == accepted
    assert counters["engine.rejected_total"] == rejected
    assert rejected > 0
    assert counters["engine.served"] == accepted
    assert engine.router.total_count == accepted


def test_engine_results_equal_sequential_reference():
    """The whole pipeline (admission -> queue -> batcher -> shards) returns
    exactly what applying the ops one-by-one to an unsharded filter does —
    including which ops fail."""
    rng = random.Random(SEED)
    reference = SpectralBloomFilter(M, K, seed=SEED, method="ms",
                                    backend="array", hash_family="blocked")
    engine = ServingEngine(make_router(), max_queue=4096, batch_size=32)
    hot = [rng.randrange(1 << 32) for _ in range(40)]
    ops, expected = [], []
    for _ in range(600):
        key = rng.choice(hot)
        verb = rng.choice(["insert", "insert", "query", "query",
                           "contains", "delete", "set"])
        if verb == "insert":
            ops.append(("insert", key))
        elif verb == "query":
            ops.append(("query", key))
        elif verb == "contains":
            ops.append(("contains", key, 2))
        elif verb == "set":
            ops.append(("set", key, rng.randrange(4)))
        else:
            ops.append(("delete", key, 1))
    for op in ops:
        verb, key = op[0], op[1]
        try:
            if verb == "insert":
                reference.insert(key)
                expected.append(None)
            elif verb == "query":
                expected.append(reference.query(key))
            elif verb == "contains":
                expected.append(reference.contains(key, op[2]))
            elif verb == "set":
                # plain filters lack set(); mirror the batcher's reduction
                current = reference.query(key)
                if op[2] > current:
                    reference.insert(key, op[2] - current)
                elif op[2] < current:
                    reference.delete(key, current - op[2])
                expected.append(None)
            else:
                if reference.query(key) < op[2]:
                    raise ValueError("would drive a counter negative")
                reference.delete(key, op[2])
                expected.append(None)
        except ValueError as exc:
            expected.append(exc)
    results = run_requests(engine, ops)
    assert len(results) == len(expected)
    for got, want in zip(results, expected):
        if isinstance(want, Exception):
            assert isinstance(got, ValueError)
        else:
            assert got == want
    assert engine.router.total_count == reference.total_count


def test_latency_histogram_uses_the_injected_clock():
    clock = FakeClock()
    registry = MetricsRegistry(clock=clock)
    engine = ServingEngine(make_router(), max_queue=64, batch_size=8,
                           metrics=registry)
    engine.submit("insert", 1)
    clock.advance(0.25)                     # queued for a quarter second
    engine.submit("insert", 2)
    clock.advance(0.05)
    assert engine.pump() == 2
    histogram = registry.snapshot()["histograms"]["engine.latency_seconds"]
    assert histogram["count"] == 2
    assert histogram["sum"] == pytest.approx(0.30 + 0.05)
    assert registry.snapshot()["gauges"]["engine.queue_depth"] == 0


def test_close_drains_checkpoints_and_seals(tmp_path):
    router = make_router(2, durable_root=str(tmp_path), fsync="checkpoint")
    engine = ServingEngine(router, max_queue=256)
    for key in range(80):
        engine.submit("insert", key)
    report = engine.close()
    assert report == {"drained": 80, "checkpointed": 2}
    with pytest.raises(RuntimeError, match="closed"):
        engine.submit("insert", 99)
    assert engine.close()["checkpointed"] == 0     # idempotent
    # A fresh process over the same root recovers every acknowledged write.
    recovered = ShardedSBF.create(2, M, K, seed=SEED,
                                  durable_root=str(tmp_path))
    try:
        assert recovered.total_count == 80
        for key in range(80):
            assert recovered.query(key) >= 1
    finally:
        for shard in recovered.shards:
            shard.raw.close()


def test_background_worker_serves_and_stops():
    engine = ServingEngine(make_router(), max_queue=256, batch_size=16)
    engine.start()
    try:
        futures = [engine.submit("insert", key) for key in range(50)]
        for future in futures:
            assert future.result(timeout=10) is None
        estimate = engine.submit("query", 0)
        assert estimate.result(timeout=10) >= 1
    finally:
        engine.stop()
    assert engine.router.total_count == 50


def test_run_requests_reports_overload_in_slots():
    engine = ServingEngine(make_router(), max_queue=1, batch_size=1)
    results = run_requests(engine, [("insert", key) for key in range(6)])
    succeeded = [r for r in results if r is None]
    refused = [r for r in results if isinstance(r, Overloaded)]
    assert len(succeeded) + len(refused) == 6
    assert refused                          # the bound actually bit
    assert engine.router.total_count == len(succeeded)


def test_constructor_validation():
    router = make_router(1)
    with pytest.raises(ValueError, match="max_queue"):
        ServingEngine(router, max_queue=0)
    with pytest.raises(ValueError, match="batch_size"):
        ServingEngine(router, batch_size=0)
    bad = ServingEngine(router, policy=lambda depth, limit, op: "maybe")
    with pytest.raises(ValueError, match="admission policy"):
        bad.submit("insert", 1)


def test_shed_oldest_expired_victim_counts_as_deadline_not_shed():
    # The victim of a shed whose deadline already passed while queued is
    # one event, counted once: a deadline expiry (the caller had stopped
    # waiting either way), surfaced as one typed DeadlineExceeded with
    # the unexecuted guarantee — never double-counted as a shed too.
    clock = FakeClock()
    metrics = MetricsRegistry(clock=clock)
    engine = ServingEngine(make_router(), max_queue=2, batch_size=8,
                           policy=shed_oldest, metrics=metrics)
    first = engine.submit("insert", 1, timeout=0.05)
    second = engine.submit("insert", 2)
    clock.advance(0.1)                      # first's deadline passes
    third = engine.submit("insert", 3)      # sheds the expired victim
    error = first.exception(timeout=0)
    assert isinstance(error, DeadlineExceeded)
    assert error.unexecuted is True
    counters = engine.metrics.snapshot()["counters"]
    assert counters["engine.deadline_expired_total"] == 1
    assert counters.get("engine.shed_total", 0) == 0
    assert counters["engine.failed"] == 1
    # The shed never executed: only the two live requests reach shards.
    assert engine.drain() == 2
    assert second.result(timeout=0) is None
    assert third.result(timeout=0) is None
    assert engine.router.total_count == 2
    counters = engine.metrics.snapshot()["counters"]
    assert counters["engine.deadline_expired_total"] == 1


def test_shed_oldest_live_victim_still_counts_as_shed():
    clock = FakeClock()
    metrics = MetricsRegistry(clock=clock)
    engine = ServingEngine(make_router(), max_queue=2, batch_size=8,
                           policy=shed_oldest, metrics=metrics)
    first = engine.submit("insert", 1, timeout=10.0)  # alive when shed
    engine.submit("insert", 2)
    engine.submit("insert", 3)
    assert isinstance(first.exception(timeout=0), Overloaded)
    counters = engine.metrics.snapshot()["counters"]
    assert counters["engine.shed_total"] == 1
    assert counters.get("engine.deadline_expired_total", 0) == 0


@pytest.mark.parametrize("op", [("bogus", "b"), ("insert", "a", 1, 2),
                                ("contains", "a", 1, 2)])
def test_submit_refuses_malformed_ops(op):
    engine = ServingEngine(make_router(), max_queue=4, batch_size=8)
    with pytest.raises(ValueError, match="verb"):
        engine.submit(*op)
    assert engine.queue_depth == 0
    assert engine.metrics.snapshot()["counters"]["engine.accepted"] == 0
    # run_requests reports the refusal in its slot; its neighbours serve.
    results = run_requests(engine, [("insert", "a"), op, ("query", "a")])
    assert results[0] is None
    assert isinstance(results[1], ValueError)
    assert results[2] == 1
    assert engine.router.total_count == 1


@pytest.mark.parametrize("arg", [1.5, True, np.bool_(True), "2", None, -1,
                                 2 ** 63])
@pytest.mark.parametrize("verb", ["insert", "delete", "set", "contains"])
def test_submit_refuses_counts_the_core_refuses(verb, arg):
    engine = ServingEngine(make_router(), max_queue=4, batch_size=8)
    with pytest.raises(ValueError, match="count|threshold"):
        engine.submit(verb, "a", arg)
    assert engine.queue_depth == 0
    assert engine.metrics.snapshot()["counters"]["engine.accepted"] == 0
    results = run_requests(engine, [("insert", "a"), (verb, "a", arg),
                                    ("query", "a")])
    assert results[0] is None and results[2] == 1
    assert isinstance(results[1], ValueError)
    assert engine.router.total_count == 1


def test_numpy_counts_checkpoint_and_reload_identically():
    # Counts the core accepts as numpy integers land as ints: every
    # shard's frame still encodes and loads with identical counters.
    router = make_router()
    ref = SpectralBloomFilter(M, K, seed=SEED, hash_family="blocked")
    ops = [("insert", f"k{i}", np.int64(1 + i % 3)) for i in range(40)] \
        + [("set", "k1", np.uint8(7)), ("delete", "k2", np.int32(1)),
           ("contains", "k3", np.int64(2)), ("query", "k1")]
    results = run_requests(ServingEngine(router, max_queue=64), ops)
    for op in ops[:-2]:
        getattr(ref, op[0])(op[1], op[2])
    assert results[-2:] == [ref.contains("k3", 2), 7]
    assert type(router.total_count) is int
    assert router.total_count == ref.total_count
    for shard, frame in zip(router.shards, router.checkpoint()):
        loaded = load_sbf(frame)
        assert list(loaded.counters) == list(shard.local_filter().counters)
        assert loaded.total_count == shard.total_count


@pytest.mark.parametrize("n_shards", [1, 4])
def test_unroutable_key_fails_only_its_own_request(n_shards):
    # A key the router cannot route fails its own request; the requests
    # popped into the same batch serve as if it were absent.
    engine = ServingEngine(make_router(n_shards), max_queue=8, batch_size=8)
    results = run_requests(engine, [("insert", "a"), ("insert", ["bad"]),
                                    ("query", "a")])
    assert results[0] is None and results[2] == 1
    assert isinstance(results[1], TypeError)
    assert engine.router.total_count == 1
    assert engine.metrics.snapshot()["counters"]["engine.failed"] == 1


def test_a_batch_whose_execute_raises_fails_every_future(monkeypatch):
    engine = ServingEngine(make_router(), max_queue=16, batch_size=8)
    futures = [engine.submit("insert", key) for key in range(5)]

    def broken(ops, **kwargs):
        raise RuntimeError("batcher fell over")
    monkeypatch.setattr(engine.batcher, "execute", broken)
    assert engine.pump() == 5
    for future in futures:
        error = future.exception(timeout=0)
        assert isinstance(error, RuntimeError)
        assert "fell over" in str(error)
    assert engine.metrics.snapshot()["counters"]["engine.failed"] == 5
    assert engine.queue_depth == 0


def test_background_worker_survives_a_refused_op_and_a_failed_batch(
        monkeypatch):
    engine = ServingEngine(make_router(), max_queue=64, batch_size=8)
    execute = engine.batcher.execute
    calls = []

    def fails_once(ops, **kwargs):
        calls.append(len(ops))
        if len(calls) == 1:
            raise RuntimeError("one bad batch")
        return execute(ops, **kwargs)
    monkeypatch.setattr(engine.batcher, "execute", fails_once)
    engine.start()
    try:
        with pytest.raises(ValueError, match="verb"):
            engine.submit("bogus", "b")
        lost = engine.submit("insert", "a")
        assert isinstance(lost.exception(timeout=10), RuntimeError)
        assert engine.submit("insert", "a").result(timeout=10) is None
        assert engine.submit("query", "a").result(timeout=10) == 1
        assert engine._worker.is_alive()
    finally:
        engine.stop()
    assert engine.router.total_count == 1
