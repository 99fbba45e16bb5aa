"""Gray-failure defense: deadlines, retry budgets, breakers, hedging.

The failure mode under test is *slow-but-alive*: a replica (or a wire)
that keeps answering correctly but late.  Consecutive-failure ejection
can never catch it; these tests prove the resilience layer does — and
that every defense preserves the HA invariant of **no wrong answers,
ever** (a defended read either matches the oracle or refuses with a
typed error).

Everything runs on injected fake clocks: slowness is simulated by
advancing the clock, so the chaos is deterministic and instant.
"""

import pytest

from repro.core.sbf import SpectralBloomFilter
from repro.db.faults import SLOW, FaultPolicy, FaultyNetwork
from repro.db.transport import DeliveryFailed, ReliableChannel
from repro.persist import ConcurrentSBF
from repro.serve import (
    QUORUM,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    LatencyTracker,
    MetricsRegistry,
    RemoteShard,
    ReplicaSet,
    RetryBudget,
    ServingEngine,
    ShardBatcher,
    ShardServer,
    ShardedSBF,
    Unavailable,
    current_deadline,
    deadline_scope,
)
from repro.serve.resilience import CLOSED, HALF_OPEN, OPEN

M, K, SEED = 2048, 4, 11


class FakeClock:
    """Injected clock: tests advance time by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_filter() -> SpectralBloomFilter:
    return SpectralBloomFilter(M, K, seed=SEED, method="ms",
                               backend="array", hash_family="blocked")


def make_handle() -> ConcurrentSBF:
    return ConcurrentSBF(make_filter())


class SlowReplica:
    """Local handle with a gray-failure switch: while ``stall`` is
    non-zero every guarded call advances the fake clock by that much and
    then honours the ambient deadline — alive, correct, and late, the
    failure consecutive-failure ejection can never see."""

    _GUARDED = frozenset({"insert", "delete", "set", "query", "contains",
                          "query_many", "insert_many", "delete_many"})

    def __init__(self, handle, clock: FakeClock, stall: float = 0.0):
        self._handle = handle
        self._clock = clock
        self.stall = stall

    def _stalled(self) -> None:
        if self.stall:
            self._clock.advance(self.stall)
            deadline = current_deadline()
            if deadline is not None:
                deadline.check("slow replica")

    def __getattr__(self, name):
        attr = getattr(self._handle, name)
        if name in SlowReplica._GUARDED:
            def guarded(*args, **kwargs):
                self._stalled()
                return attr(*args, **kwargs)
            return guarded
        return attr

    @property
    def total_count(self) -> int:
        self._stalled()
        return self._handle.total_count


def assert_replicas_identical(rset: ReplicaSet) -> None:
    filters = [r.sbf for r in rset.replicas]
    for other in filters[1:]:
        assert list(other.counters) == list(filters[0].counters)


# -- Deadline ---------------------------------------------------------------

def test_deadline_expires_on_the_injected_clock():
    clock = FakeClock()
    deadline = Deadline(0.5, clock=clock, label="op")
    assert not deadline.expired
    assert deadline.remaining() == pytest.approx(0.5)
    deadline.check()                     # plenty left: no raise
    clock.advance(0.7)
    assert deadline.expired
    with pytest.raises(DeadlineExceeded) as caught:
        deadline.check("query")
    assert "query" in str(caught.value)
    assert caught.value.overrun == pytest.approx(0.2)


def test_deadline_bounded_only_tightens():
    clock = FakeClock()
    deadline = Deadline(1.0, clock=clock)
    tight = deadline.bounded(0.1)
    assert tight.remaining() == pytest.approx(0.1)
    # A generous bound cannot extend the parent deadline.
    loose = deadline.bounded(5.0)
    assert loose.remaining() == pytest.approx(1.0)


def test_deadline_rejects_negative_budget():
    with pytest.raises(ValueError, match="budget"):
        Deadline(-1.0)


def test_deadline_scope_nests_and_passes_none_through():
    assert current_deadline() is None
    clock = FakeClock()
    outer = Deadline(1.0, clock=clock)
    inner = Deadline(0.1, clock=clock)
    with deadline_scope(outer):
        assert current_deadline() is outer
        with deadline_scope(None):       # no-op: outer stays current
            assert current_deadline() is outer
        with deadline_scope(inner):
            assert current_deadline() is inner
        assert current_deadline() is outer
    assert current_deadline() is None


# -- RetryBudget ------------------------------------------------------------

def test_retry_budget_spends_earns_and_denies():
    budget = RetryBudget(capacity=2.0, earn_rate=0.5)
    assert budget.try_spend() and budget.try_spend()
    assert not budget.try_spend()        # empty: denied and counted
    assert (budget.spent, budget.denied) == (2, 1)
    budget.earn()
    assert budget.tokens == pytest.approx(0.5)
    assert not budget.try_spend()        # half a token buys no retry
    budget.earn()
    assert budget.try_spend()
    for _ in range(100):
        budget.earn()                    # earning is capped at capacity
    assert budget.tokens == pytest.approx(2.0)


def test_retry_budget_validates():
    with pytest.raises(ValueError, match="capacity"):
        RetryBudget(capacity=0)
    with pytest.raises(ValueError, match="earn_rate"):
        RetryBudget(earn_rate=-1)


# -- LatencyTracker ---------------------------------------------------------

def test_latency_tracker_warms_up_before_answering():
    tracker = LatencyTracker(window=32, min_samples=4)
    for latency in (0.01, 0.02, 0.03):
        tracker.observe(latency)
    assert tracker.quantile(0.95) is None      # still warming up
    tracker.observe(0.04)
    assert tracker.quantile(0.5) == pytest.approx(0.03)
    assert tracker.quantile(0.95) == pytest.approx(0.04)
    with pytest.raises(ValueError, match="quantile"):
        tracker.quantile(1.5)


# -- CircuitBreaker ---------------------------------------------------------

def test_breaker_trips_on_error_rate_after_min_samples():
    clock = FakeClock()
    breaker = CircuitBreaker(clock=clock, window=8, min_samples=4,
                             error_threshold=0.5)
    breaker.record_failure()             # one early failure cannot trip
    assert breaker.state == CLOSED
    for _ in range(3):
        breaker.record_failure()
    assert breaker.state == OPEN
    assert not breaker.allow()


def test_breaker_trips_on_latency_of_successes():
    # The gray-failure catch: every attempt SUCCEEDS, yet the breaker
    # opens — no amount of consecutive-failure counting could do this.
    clock = FakeClock()
    breaker = CircuitBreaker(clock=clock, latency_threshold=0.02,
                             latency_min_samples=2)
    breaker.record_success(0.05)         # one stall is not a pattern
    assert breaker.state == CLOSED
    breaker.record_success(0.05)
    assert breaker.state == OPEN
    assert breaker.opens == 1


def test_breaker_half_open_probe_closes_or_reopens():
    clock = FakeClock()
    breaker = CircuitBreaker(clock=clock, latency_threshold=0.02,
                             latency_min_samples=2, reset_timeout=1.0)
    breaker.record_success(0.05)
    breaker.record_success(0.05)
    assert breaker.state == OPEN
    assert not breaker.allow()           # still cooling off
    clock.advance(1.5)
    assert breaker.allow()               # admits exactly the probe
    assert breaker.state == HALF_OPEN
    # A slow probe re-opens and re-arms the timeout...
    breaker.record_success(0.05)
    assert breaker.state == OPEN
    clock.advance(1.5)
    assert breaker.allow()
    # ...a fast probe closes, judged on its own latency (the EWMA still
    # remembers the sick history — holding the probe to it would keep a
    # recovered replica out forever).
    breaker.record_success(0.001)
    assert breaker.state == CLOSED
    assert breaker.latency_ewma is None  # recovered replicas start clean
    assert (breaker.opens, breaker.half_opens, breaker.closes) == (2, 2, 1)


def test_breaker_failure_during_half_open_reopens():
    clock = FakeClock()
    breaker = CircuitBreaker(clock=clock, window=4, min_samples=2,
                             error_threshold=0.5, reset_timeout=1.0)
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == OPEN
    clock.advance(2.0)
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == OPEN
    assert breaker.opens == 2


def test_breaker_state_codes():
    breaker = CircuitBreaker(clock=FakeClock())
    assert breaker.state_code() == 0.0
    breaker._transition(OPEN)
    assert breaker.state_code() == 1.0
    breaker._transition(HALF_OPEN)
    assert breaker.state_code() == 0.5


# -- FaultPolicy / FaultyNetwork: the slowness fault ------------------------

def test_fault_policy_slow_decision_and_validation():
    policy = FaultPolicy(slow=1.0, slow_seconds=0.05, seed=3)
    assert policy.decide() == SLOW
    with pytest.raises(ValueError, match="sum"):
        FaultPolicy(drop=0.6, slow=0.6)
    with pytest.raises(ValueError, match="slow_seconds"):
        FaultPolicy(slow_seconds=-1)
    with pytest.raises(ValueError, match="latency"):
        FaultPolicy(latency=-1)


def test_faulty_network_advances_injected_clock_per_transit():
    clock = FakeClock()
    network = FaultyNetwork(advance=clock.advance)
    network.set_policy("a", "b", FaultPolicy(slow=1.0, slow_seconds=0.05,
                                             latency=0.001))
    arrivals = network.transmit("a", "b", "x", b"frame")
    assert arrivals == [b"frame"]        # slow frames arrive intact...
    assert clock.now == pytest.approx(0.051)   # ...but late in time
    assert network.faults["slowdowns"] == 1
    # A healthy channel still pays its baseline latency.
    network.set_policy("a", "b", FaultPolicy(latency=0.001))
    network.transmit("a", "b", "x", b"frame")
    assert clock.now == pytest.approx(0.052)


def test_slow_fault_without_advance_hook_degrades_to_intact_delivery():
    network = FaultyNetwork()
    network.set_policy("a", "b", FaultPolicy(slow=1.0, slow_seconds=9.9))
    assert network.transmit("a", "b", "x", b"frame") == [b"frame"]
    assert network.faults["slowdowns"] == 1


# -- transport: deadline-aware sends ----------------------------------------

def test_channel_send_abandons_at_the_deadline():
    clock = FakeClock()
    network = FaultyNetwork(advance=clock.advance)
    network.set_policy("a", "b", FaultPolicy(drop=1.0, latency=0.02))
    channel = ReliableChannel(network, "a", "b", max_retries=6)
    with pytest.raises(DeadlineExceeded):
        channel.send("x", b"payload", deadline=Deadline(0.01, clock=clock))
    stats = channel.stats
    assert stats.deadline_abandons == 1
    # The first transmit burned the whole budget; no retry was paid for.
    assert stats.attempts == 1 and stats.retries == 0


def test_channel_discards_late_arrival_past_deadline():
    clock = FakeClock()
    network = FaultyNetwork(advance=clock.advance)
    network.set_policy("a", "b", FaultPolicy(slow=1.0, slow_seconds=0.05))
    channel = ReliableChannel(network, "a", "b")
    with pytest.raises(DeadlineExceeded):
        channel.send("x", b"payload", deadline=Deadline(0.01, clock=clock))
    # The frame arrived intact — but after the caller stopped waiting,
    # so it was counted delivered on the wire yet abandoned to the user.
    assert channel.stats.delivered == 1
    assert channel.stats.deadline_abandons == 1


def test_channel_backoff_is_capped_by_time_remaining():
    network = FaultyNetwork()                   # no clock: time stands still
    network.set_policy("a", "b", FaultPolicy(drop=1.0))
    channel = ReliableChannel(network, "a", "b", max_retries=3,
                              base_backoff=0.5)
    clock = FakeClock()
    with pytest.raises(DeliveryFailed):
        channel.send("x", b"payload", deadline=Deadline(0.01, clock=clock))
    # Three retries, each pause clipped to the 10ms remaining (the
    # unclipped schedule would have accrued >= 1.5s).
    assert channel.stats.retries == 3
    assert channel.stats.backoff_seconds <= 0.03 + 1e-9


def test_channel_retry_budget_degrades_to_fast_refusal():
    network = FaultyNetwork()
    network.set_policy("a", "b", FaultPolicy(drop=1.0))
    budget = RetryBudget(capacity=2.0, earn_rate=0.0)
    channel = ReliableChannel(network, "a", "b", max_retries=6,
                              budget=budget)
    with pytest.raises(DeliveryFailed, match="retry budget empty"):
        channel.send("x", b"payload")
    assert channel.stats.budget_denied == 1
    assert channel.stats.retries == 2           # capacity bought exactly two
    assert budget.denied == 1
    # Healthy traffic earns the bucket back.
    network.set_policy("a", "b", None)
    for _ in range(8):
        channel.send("x", b"payload")
    assert budget.tokens == 0.0                 # earn_rate=0: still drained
    assert channel.stats.delivered == 8


# -- remote shards: deadlines and budgets over the wire ---------------------

def test_remote_shard_honours_ambient_deadline_over_slow_wire():
    clock = FakeClock()
    metrics = MetricsRegistry(clock=clock)
    network = FaultyNetwork(advance=clock.advance)
    shard = RemoteShard(ShardServer(make_handle()), network,
                        "client", "s0", metrics=metrics)
    shard.insert("a")                           # healthy round trip
    network.set_policy("client", "s0",
                       FaultPolicy(slow=1.0, slow_seconds=0.05))
    assert shard.query("a") == 1                # slow but unbounded: fine
    with deadline_scope(Deadline(0.01, clock=clock)):
        with pytest.raises(DeadlineExceeded):
            shard.query("a")
    channels = metrics.snapshot()["channels"]
    assert channels["remote.s0.requests"]["deadline_abandons"] == 1


def test_remote_shard_shares_one_retry_budget_across_both_legs():
    network = FaultyNetwork()
    budget = RetryBudget(capacity=2.0, earn_rate=0.0)
    shard = RemoteShard(ShardServer(make_handle()), network, "c", "s0",
                        retry_budget=budget, metrics=MetricsRegistry())
    network.set_policy("c", "s0", FaultPolicy(drop=1.0))
    with pytest.raises(DeliveryFailed, match="retry budget empty"):
        shard.query("a")
    assert shard.requests.stats.budget_denied == 1
    assert budget.denied == 1


# -- ReplicaSet: breakers, hedging, budgets, deadlines ----------------------

def make_gray_set(stalls=(0.0, 0.0, 0.0), **options):
    clock = FakeClock()
    metrics = MetricsRegistry(clock=clock)
    handles = [SlowReplica(make_handle(), clock, stall) for stall in stalls]
    options.setdefault("name", "gray")
    options.setdefault("read_consistency", QUORUM)
    options.setdefault("eject_after", 100)      # ejection must NOT fire
    options.setdefault("probe_every", 10_000)   # tests tick explicitly
    rset = ReplicaSet(handles, metrics=metrics, **options)
    return rset, handles, clock, metrics


def test_read_deadline_refusal_is_typed_and_counted():
    rset, _, clock, metrics = make_gray_set()
    rset.insert("a")
    with deadline_scope(Deadline(0.01, clock=clock)):
        clock.advance(0.02)
        with pytest.raises(DeadlineExceeded):
            rset.query("a")
        with pytest.raises(DeadlineExceeded):
            rset.insert("b")
    counters = metrics.snapshot()["counters"]
    assert counters["ha.gray.deadline_refusals"] == 2
    # The expired write landed on no replica: no hint, no partial state.
    assert counters.get("ha.gray.hinted", 0) == 0
    assert rset.query("b") == 0


@pytest.mark.parametrize("verb", ["insert_many", "delete_many",
                                  "query_many"])
def test_bulk_refusal_before_any_replica_is_unexecuted(verb):
    # An already-expired bulk call touches no replica and queues no
    # hint, so its refusal must say so: a write refused that way is a
    # clean refusal, not a maybe-applied one.
    rset, handles, clock, metrics = make_gray_set()
    rset.insert_many(["a", "b"])
    before = [list(h._handle.sbf.counters) for h in handles]
    with deadline_scope(Deadline(0.01, clock=clock)):
        clock.advance(0.02)
        with pytest.raises(DeadlineExceeded) as refused:
            getattr(rset, verb)(["a", "b"])
    assert refused.value.unexecuted
    counters = metrics.snapshot()["counters"]
    assert counters["ha.gray.deadline_refusals"] == 1
    assert counters.get("ha.gray.hinted", 0) == 0
    assert all(len(r.hints) == 0 for r in rset._replicas)
    assert [list(h._handle.sbf.counters) for h in handles] == before


@pytest.mark.parametrize("verb", ["insert_many", "query_many"])
def test_batcher_bulk_refusal_before_any_group_is_unexecuted(verb):
    clock = FakeClock()
    router = ShardedSBF.create(2, M, K, seed=SEED)
    batcher = ShardBatcher(router)
    groups = router.metrics.counter("batch.shard_batches")
    expired = Deadline(0.0, clock=clock)
    clock.advance(0.01)
    with pytest.raises(DeadlineExceeded) as refused:
        getattr(batcher, verb)(["a", "b", 3], deadline=expired)
    assert refused.value.unexecuted
    assert groups.value == 0                    # no group was formed
    assert router.total_count == 0


def test_hedged_read_abandons_straggler_and_refires_on_spare():
    rset, handles, _, metrics = make_gray_set(
        stalls=(0.05, 0.0, 0.0), hedge=0.02)
    oracle = make_filter()
    for key in ("a", "b", "c"):
        # Populate replicas directly: identical state, but the set has
        # no latency history yet — the first read meets the straggler
        # cold, in configured order.
        for handle in handles:
            handle._handle.insert(key)
        oracle.insert(key)
    # The straggler blows its 20ms attempt bound; the read abandons it
    # and re-fires against a spare replica — quorum still answers.
    assert rset.query("a") == oracle.query("a")
    counters = metrics.snapshot()["counters"]
    assert counters["ha.gray.hedges"] >= 1
    # Later reads sort the straggler last (its EWMA now shows) and meet
    # quorum from the fast pair; answers stay oracle-exact throughout.
    for key in ("a", "b", "c", "miss"):
        assert rset.query(key) == oracle.query(key)


def test_write_straggler_is_abandoned_and_hinted_once_quota_met():
    rset, handles, _, metrics = make_gray_set(
        stalls=(0.05, 0.0, 0.0), hedge=0.02)
    oracle = make_filter()
    keys = [f"k{i}" for i in range(6)]
    for key in keys:
        rset.insert(key)
        oracle.insert(key)
    counters = metrics.snapshot()["counters"]
    # After the first (unbounded) slow write taught the EWMA, the slow
    # replica attempts last with the ack quota already met — bounded,
    # abandoned, hinted.
    assert counters["ha.gray.write_abandons"] >= 1
    assert counters["ha.gray.hinted"] >= 1
    # Reads keep answering from the fresh quorum, oracle-exact.
    for key in keys:
        assert rset.query(key) == oracle.query(key)
    # Handoff drains the hints and proves convergence.
    handles[0].stall = 0.0
    assert rset.tick() == 0                     # was never down...
    assert_replicas_identical(rset)             # ...and is now identical


class PartitionedHandle:
    """Hard-fails every call with the transport's transient error."""

    def __getattr__(self, name):
        from repro.db.transport import ChannelStats
        raise DeliveryFailed("partitioned", ChannelStats())

    @property
    def total_count(self) -> int:
        from repro.db.transport import ChannelStats
        raise DeliveryFailed("partitioned", ChannelStats())


def test_read_retry_budget_collapses_storm_to_fast_refusals():
    rset, handles, _, metrics = make_gray_set(
        retry_budget={"capacity": 2.0, "earn_rate": 0.0})
    for handle in handles:
        handle._handle.insert("a")      # identical replicas, all fresh
    handles[1]._handle = PartitionedHandle()
    handles[2]._handle = PartitionedHandle()
    # quorum=2 with one live replica: each read pays the quorum's own
    # two attempts, then a third — a retry — that spends budget.  The
    # two-token bucket buys exactly two such reads.
    for _ in range(2):
        with pytest.raises(Unavailable):
            rset.query("a")
    with pytest.raises(Unavailable, match="retry budget empty"):
        rset.query("a")
    counters = metrics.snapshot()["counters"]
    assert counters["ha.gray.budget_refusals"] == 1
    assert rset.retry_budget.denied == 1
    assert rset.retry_budget.spent == 2


def test_gray_failure_breaker_sheds_slow_replica_and_readmits():
    """The headline chaos drill: 1 slow replica of 3, RF=3 quorum reads.

    The slow replica is never *down* — ejection cannot fire.  The
    latency trip sheds it, hints keep it convergent, the half-open probe
    re-opens while it is still slow and re-admits once healed, and every
    answer along the way is oracle-exact.
    """
    rset, handles, clock, metrics = make_gray_set(
        breaker={"latency_threshold": 0.02, "reset_timeout": 5.0},
        hedge=0.02)
    oracle = make_filter()
    keys = [f"key:{i % 37}" for i in range(120)]
    for key in keys[:30]:                       # healthy warm-up
        rset.insert(key)
        oracle.insert(key)
    handles[0].stall = 0.05                     # r0 goes gray
    for key in keys[30:]:
        rset.insert(key)
        oracle.insert(key)
    wrong = sum(1 for key in keys if rset.query(key) != oracle.query(key))
    assert wrong == 0
    counters = metrics.snapshot()["counters"]
    health = {h["replica"]: h for h in rset.health()}
    assert counters["ha.gray.breaker_opens"] >= 1
    assert health["r0"]["breaker"] == OPEN      # shed...
    assert health["r0"]["up"]                   # ...but never ejected
    assert counters.get("ha.gray.ejections", 0) == 0
    assert counters["ha.gray.hinted"] >= 1      # writes kept flowing past it
    # Probe while still slow: the half-open attempt is judged on its own
    # latency and re-opens — a sick replica cannot talk its way back in.
    clock.advance(10.0)
    rset.tick()
    counters = metrics.snapshot()["counters"]
    assert counters["ha.gray.breaker_half_opens"] >= 1
    assert {h["replica"]: h["breaker"]
            for h in rset.health()}["r0"] == OPEN
    # Heal, wait out the reset timeout, probe again: hints drain, the
    # convergence proof passes, the breaker closes.
    handles[0].stall = 0.0
    clock.advance(10.0)
    rset.tick()
    counters = metrics.snapshot()["counters"]
    health = {h["replica"]: h for h in rset.health()}
    assert health["r0"]["breaker"] == CLOSED
    assert health["r0"]["hint_depth"] == 0
    assert counters["ha.gray.breaker_closes"] >= 1
    assert metrics.snapshot()["gauges"]["ha.gray.r0.breaker_state"] == 0.0
    assert_replicas_identical(rset)
    for key in keys:
        assert rset.query(key) == oracle.query(key)


# -- engine + batcher: the deadline travels the whole path ------------------

def test_engine_submit_timeout_fails_expired_requests_unexecuted():
    clock = FakeClock()
    metrics = MetricsRegistry(clock=clock)
    router = ShardedSBF.create(2, M, K, seed=SEED, metrics=metrics)
    engine = ServingEngine(router, metrics=metrics)
    fast = engine.submit("insert", "a", timeout=10.0)
    slow = engine.submit("insert", "b", timeout=0.01)
    clock.advance(0.05)                         # "b" expires in the queue
    engine.drain()
    assert fast.result(timeout=0) is None
    with pytest.raises(DeadlineExceeded):
        slow.result(timeout=0)
    counters = metrics.snapshot()["counters"]
    assert counters["engine.deadline_expired_total"] == 1
    assert router.query("a") == 1
    assert router.query("b") == 0               # never executed
    histogram = metrics.snapshot()["histograms"]
    assert histogram["engine.queue_wait_seconds"]["count"] == 2
    assert histogram["engine.queue_wait_seconds"]["sum"] == \
        pytest.approx(0.1)


def test_engine_rejects_timeout_and_deadline_together():
    engine = ServingEngine(ShardedSBF.create(2, M, K, seed=SEED))
    with pytest.raises(ValueError, match="not both"):
        engine.submit("insert", "a", timeout=1.0,
                      deadline=Deadline(1.0))


def test_batcher_fails_expired_slot_without_felling_the_batch():
    clock = FakeClock()
    metrics = MetricsRegistry(clock=clock)
    router = ShardedSBF.create(2, M, K, seed=SEED, metrics=metrics)
    batcher = ShardBatcher(router, metrics=metrics)
    expired = Deadline(0.0, clock=clock)
    clock.advance(0.01)
    results = batcher.execute([("insert", "a"), ("insert", "b")],
                              deadlines=[expired, None])
    assert isinstance(results[0], DeadlineExceeded)
    assert results[1] is None
    assert router.query("a") == 0               # expired op never ran
    assert router.query("b") == 1


def test_tight_deadline_does_not_fail_an_uncontended_shard_group():
    # A shard-mate with a nearly spent deadline caps its group's lock
    # wait, but a free lock needs no wait: the whole group must run.
    router = ShardedSBF.create(1, M, K, seed=SEED)
    tight = Deadline(1e-6, clock=FakeClock())   # still clock: never expires
    results = ShardBatcher(router).execute(
        [("insert", "a"), ("insert", "b"), ("query", "b")],
        deadlines=[tight, None, None])
    assert results == [None, None, 1]
    assert router.total_count == 2


def _remote(name: str = "shard0") -> RemoteShard:
    return RemoteShard(ShardServer(ConcurrentSBF(make_filter())),
                       FaultyNetwork(), "router", name)


def test_tight_deadline_does_not_fail_an_uncontended_remote_shard_group():
    # The remote variant: the group's one frame runs under the tightest
    # member deadline, which a still clock never expires.
    router = ShardedSBF([_remote()], family=make_filter().family)
    tight = Deadline(1e-6, clock=FakeClock())
    results = ShardBatcher(router).execute(
        [("insert", "a"), ("insert", "b"), ("query", "b")],
        deadlines=[tight, None, None])
    assert results == [None, None, 1]
    assert router.shards[0].server.requests_served == 1     # one frame
    assert router.total_count == 2


def test_expired_member_fails_unexecuted_and_stays_off_the_frame():
    clock = FakeClock()
    remote = _remote()
    expired = Deadline(0.0, clock=clock)
    loose, tight = Deadline(9.0, clock=clock), Deadline(3.0, clock=clock)
    clock.advance(0.01)
    frames, scopes = [], []
    call = remote._call

    def spy(op, **fields):
        frames.append(fields["ops"])
        scopes.append(current_deadline())
        return call(op, **fields)
    remote._call = spy
    outcomes = remote.execute(
        [("insert", "a"), ("insert", "b"), ("insert", "c"), ("query", "b")],
        [expired, loose, tight, None])
    assert isinstance(outcomes[0], DeadlineExceeded)
    assert outcomes[0].unexecuted
    assert outcomes[1:] == [None, None, 1]
    assert frames == [[["insert", "b"], ["insert", "c"], ["query", "b"]]]
    assert scopes == [tight]
    remote._call = call
    assert remote.query("a") == 0


def test_router_point_path_refuses_expired_ambient_deadline():
    clock = FakeClock()
    metrics = MetricsRegistry(clock=clock)
    router = ShardedSBF.create(2, M, K, seed=SEED, metrics=metrics)
    deadline = Deadline(0.01, clock=clock)
    clock.advance(0.02)
    with deadline_scope(deadline):
        with pytest.raises(DeadlineExceeded):
            router.query("a")
        with pytest.raises(DeadlineExceeded):
            router.insert("a")
    assert metrics.snapshot()["counters"]["router.deadline_refusals"] == 2
    assert router.total_count == 0
