"""RemoteShard / ShardServer: serving across the faulty wire.

Chaos tests are seeded (policies and channels share fixed seeds), so the
fault schedules — and therefore every retry, duplicate, and checksum
rejection — replay identically on every run.
"""

import numpy as np
import pytest

from repro.core.serialize import open_frame, seal_frame
from repro.core.sbf import SpectralBloomFilter
from repro.db.faults import FaultPolicy, FaultyNetwork
from repro.db.transport import DeliveryFailed
from repro.handle import FilterHandle
from repro.persist import ConcurrentSBF
from repro.serve import (
    MetricsRegistry,
    ServingEngine,
    ShardBatcher,
    ShardedSBF,
    ShardServer,
    RemoteShard,
    run_requests,
)
from repro.serve.remote import REQUEST_MAGIC, RESPONSE_MAGIC

M, K, SEED = 1024, 4, 5


def make_handle() -> ConcurrentSBF:
    return ConcurrentSBF(SpectralBloomFilter(
        M, K, seed=SEED, method="ms", backend="array",
        hash_family="blocked"))


def make_remote(policy=None, *, max_retries: int = 6,
                metrics: MetricsRegistry | None = None,
                ) -> tuple[RemoteShard, FaultyNetwork]:
    network = FaultyNetwork(policy)
    server = ShardServer(make_handle())
    remote = RemoteShard(server, network, "client", "shard0",
                         channel_options={"max_retries": max_retries},
                         metrics=metrics)
    return remote, network


def test_remote_matches_local_on_a_clean_wire():
    remote, _ = make_remote()
    local = make_handle()
    keys = [f"key:{i % 37}" for i in range(200)] + list(range(100))
    for key in keys:
        remote.insert(key)
        local.insert(key)
    for key in keys + ["miss", -1]:
        assert remote.query(key) == local.query(key)
        assert remote.contains(key, 2) == local.contains(key, 2)
    assert remote.total_count == local.total_count
    remote.delete(keys[0])
    local.delete(keys[0])
    remote.set("key:0", 3)
    local.set("key:0", 3)
    assert remote.query(keys[0]) == local.query(keys[0])
    assert remote.query("key:0") == 3
    assert remote.params() == {"m": M, "k": K, "seed": SEED, "method": "ms"}


@pytest.mark.chaos
def test_remote_matches_local_under_seeded_chaos():
    registry = MetricsRegistry()
    remote, _ = make_remote(
        FaultPolicy(drop=0.2, duplicate=0.1, corrupt=0.15, seed=23),
        max_retries=12, metrics=registry)
    local = make_handle()
    keys = list(range(120)) + [f"s:{i}" for i in range(30)]
    for key in keys:
        remote.insert(key)
        local.insert(key)
    for key in keys:
        assert remote.query(key) == local.query(key)
    stats = remote.requests.stats
    assert stats.gave_up == 0               # the budget absorbed the chaos
    assert stats.retries > 0                # ...which was real
    assert stats.attempts > stats.delivered
    # Both legs' delivery metrics are scraped from the one registry.
    channels = registry.snapshot()["channels"]
    assert channels["remote.shard0.requests"]["delivered"] > 0
    assert channels["remote.shard0.responses"]["delivered"] > 0
    assert channels["remote.shard0.requests"]["corrupt_detected"] \
        + channels["remote.shard0.responses"]["corrupt_detected"] > 0


@pytest.mark.chaos
def test_exhausted_budget_raises_delivery_failed():
    remote, _ = make_remote(FaultPolicy(drop=1.0, seed=3), max_retries=2)
    with pytest.raises(DeliveryFailed):
        remote.insert("key")
    assert remote.requests.stats.gave_up == 1


def _mixed_fleet() -> tuple[ShardedSBF, FaultyNetwork]:
    """Shard 0 local, shard 1 behind the wire — same filter parameters."""
    network = FaultyNetwork()
    remote = RemoteShard(ShardServer(make_handle()), network,
                         "router", "shard1",
                         channel_options={"max_retries": 2})
    return ShardedSBF([make_handle(), remote]), network


@pytest.mark.chaos
def test_unreachable_shard_degrades_only_its_keys():
    fleet, network = _mixed_fleet()
    keys = list(range(40))
    for key in keys:
        fleet.insert(key)
    local_keys = [key for key in keys if fleet.shard_of(key) == 0]
    remote_keys = [key for key in keys if fleet.shard_of(key) == 1]
    assert local_keys and remote_keys
    before = {key: fleet.query(key) for key in keys}
    # Partition shard 1 away (both legs dead).
    network.set_policy("router", "shard1", FaultPolicy(drop=1.0, seed=7))
    network.set_policy("shard1", "router", FaultPolicy(drop=1.0, seed=8))
    for key in local_keys:
        assert fleet.query(key) == before[key]      # rest of fleet serves
    with pytest.raises(DeliveryFailed):
        fleet.query(remote_keys[0])
    # The batcher isolates the failure per result slot.
    results = ShardBatcher(fleet).execute([("query", key) for key in keys])
    for key, result in zip(keys, results):
        if key in set(local_keys):
            assert result == before[key]
        else:
            assert isinstance(result, DeliveryFailed)
    # ...and the engine maps those slots onto the affected futures only.
    engine = ServingEngine(fleet, max_queue=256)
    outcomes = run_requests(engine, [("query", key) for key in keys])
    for key, outcome in zip(keys, outcomes):
        if key in set(local_keys):
            assert outcome == before[key]
        else:
            assert isinstance(outcome, DeliveryFailed)
    # Healing the partition restores the whole keyspace.
    network.set_policy("router", "shard1", None)
    network.set_policy("shard1", "router", None)
    for key in keys:
        assert fleet.query(key) == before[key]


def test_server_side_errors_return_typed_failures():
    remote, _ = make_remote()
    with pytest.raises(ValueError, match="negative"):
        remote.delete("never-inserted", 5)
    with pytest.raises(TypeError, match="JSON scalars"):
        remote.insert((1, 2))
    # The tuple never left home: only the delete's frame reached the
    # server (its refusal is a failed slot in a served frame).
    assert remote.server.requests_served + remote.server.requests_failed \
        == 1
    # A garbage frame produces an ok=false response, not a server crash.
    response = remote.server.handle_frame(b"not a frame")
    meta, _ = open_frame(response, RESPONSE_MAGIC)
    assert meta["ok"] is False
    assert meta["kind"] == "WireFormatError"


class RefusingHandle(FilterHandle):
    """A server-side handle whose writes raise *error*: a refusal only the
    server can make (the client cannot see the filter's total)."""

    def __init__(self, error: Exception):
        super().__init__(make_handle().sbf)
        self.error = error

    def insert(self, key, count=1):
        raise self.error

    def insert_many(self, keys, counts=None, *, timeout=None):
        raise self.error


@pytest.mark.parametrize("error", [TypeError, ValueError, OverflowError])
def test_server_side_refusals_keep_their_type(error):
    server = ShardServer(RefusingHandle(error("refused")))
    remote = RemoteShard(server, FaultyNetwork(), "client", "shard0")
    with pytest.raises(error, match="shard0: refused") as caught:
        remote.insert("k")
    assert type(caught.value) is error
    outcome = remote.insert_many(["a", "b"])
    assert [(type(f.error), f.retryable) for f in outcome.failures] \
        == [(error, False)] * 2


def test_numpy_keys_land_as_their_python_values():
    remote, seen = _recording_remote(make_handle())
    local = FilterHandle(make_handle().sbf)
    assert remote.insert_many(np.arange(5)).ok
    assert seen[-1][0]["bin"] == 5              # the rule's int64 array
    remote.insert(np.int64(5))
    remote.insert_many(np.array([2 ** 63 + 1, 3], dtype=np.uint64), [2, 1])
    assert seen[-1][0]["keys"] == [2 ** 63 + 1, 3]
    local.insert_many(list(range(5)) + [5, 2 ** 63 + 1, 3], [1] * 6 + [2, 1])
    probe = np.arange(7)
    assert remote.query_many(probe).values.tolist() \
        == local.query_many(probe).values.tolist()
    assert remote.query(np.int64(3)) == local.query(3) == 2


def test_remote_checkpoint_round_trip():
    remote, _ = make_remote()
    remote.insert("x", 3)
    assert remote.checkpoint() is None      # memory shard: frame, no path
    assert remote.query("x") == 3


# -- bulk operations: structured partial failure --------------------------

def test_bulk_ops_match_local_on_a_clean_wire():
    remote, _ = make_remote()
    local = make_handle()
    keys = [f"key:{i % 23}" for i in range(80)] + list(range(40))
    counts = [1 + i % 3 for i in range(len(keys))]
    result = remote.insert_many(keys, counts)
    assert result.ok and result.applied == len(keys)
    local.insert_many(keys, counts)
    answers = remote.query_many(keys + ["miss"])
    assert answers.ok
    assert answers.values.tolist() == \
        local.query_many(keys + ["miss"]).tolist()
    removed = remote.delete_many(keys[:10])
    assert removed.ok
    local.delete_many(keys[:10])
    assert remote.total_count == local.total_count


def test_bulk_batch_holding_a_refused_key_is_refused_whole_client_side():
    # A handle refuses a batch holding a key the key rule refuses whole,
    # as it refuses a batch holding a refused count: nothing is sent.
    remote, _ = make_remote()
    keys = ["good:1", (1, 2), "good:2", ["bad"], "good:3"]
    for verb in ("insert_many", "delete_many", "query_many"):
        with pytest.raises(TypeError, match="JSON scalars"):
            getattr(remote, verb)(keys)
    with pytest.raises(ValueError, match="UTF-8"):
        remote.insert_many(["good:1", "bad\ud800"])
    assert remote.server.requests_served + remote.server.requests_failed \
        == 0                                    # no frame left the client
    assert remote.query_many(keys[::2]).values.tolist() == [0, 0, 0]
    assert remote.total_count == 0


@pytest.mark.chaos
def test_dead_wire_fails_every_chunk_retryably():
    remote, _ = make_remote(FaultPolicy(drop=1.0, seed=9), max_retries=1)
    keys = [f"k:{i}" for i in range(10)]
    result = remote.insert_many(keys)
    assert result.applied == 0
    assert len(result.failures) == len(keys)
    assert all(f.retryable for f in result.failures)
    assert all(isinstance(f.error, DeliveryFailed)
               for f in result.failures)
    answers = remote.query_many(keys)
    assert len(answers.failures) == len(keys)
    assert answers.values.tolist() == [0] * len(keys)


@pytest.mark.chaos
def test_partial_failure_is_per_chunk_and_retry_converges():
    # A flaky wire with a small retry budget: some chunks give up, the
    # rest apply.  Retrying exactly the retryable failures (the
    # BulkResult contract) converges the shard to the full batch.
    network = FaultyNetwork()
    network.set_policy("client", "shard0", FaultPolicy(drop=0.55, seed=41))
    server = ShardServer(make_handle())
    remote = RemoteShard(server, network, "client", "shard0",
                         channel_options={"max_retries": 1},
                         bulk_chunk=4)
    keys = [f"k:{i}" for i in range(48)]
    result = remote.insert_many(keys)
    assert 0 < result.applied < len(keys)       # genuinely partial
    failed = {f.index for f in result.failures}
    # Chunked delivery: failures arrive in whole bulk_chunk-sized runs.
    for index in failed:
        assert (index // 4) * 4 in failed
    assert all(f.retryable for f in result.failures)
    network.set_policy("client", "shard0", None)
    retry_keys = [f.key for f in result.retryable()]
    retried = remote.insert_many(retry_keys)
    assert retried.ok
    # Every key applied at least once; keys whose response frame was
    # lost after the server applied them may count twice — the at-least-
    # once ambiguity hinted handoff and anti-entropy exist to fix.
    answers = remote.query_many(keys)
    assert answers.ok
    assert all(v >= 1 for v in answers.values.tolist())


def test_bulk_semantic_rejection_is_permanent():
    remote, _ = make_remote()
    remote.insert_many(["a", "b"], [1, 1])
    result = remote.delete_many(["a", "never-inserted", "b"], [1, 5, 1])
    # The server rejects the chunk atomically (delete below zero), so
    # every key in it fails with the semantic error, marked permanent.
    assert not result.ok
    assert all(not f.retryable for f in result.failures)
    assert all(isinstance(f.error, ValueError) for f in result.failures)


def test_bulk_count_validation():
    remote, _ = make_remote()
    with pytest.raises(ValueError, match="counts"):
        remote.insert_many(["a", "b"], [1])
    with pytest.raises(ValueError, match="bulk_chunk"):
        RemoteShard(ShardServer(make_handle()), FaultyNetwork(),
                    "c", "s", bulk_chunk=0)


def test_remote_repair_verbs_round_trip():
    from repro.serve import block_checksums, repair_replicas
    remote, _ = make_remote()
    local = make_handle()
    for i in range(60):
        local.insert(f"key:{i}", 1 + i % 4)
    # The remote replica is empty and diverged; repair copies the local
    # reference's counters over the wire, block by differing block.
    report = repair_replicas([local, remote], n_blocks=16)
    assert report.reference == 0
    assert report.converged
    assert report.copied.get(1)
    assert remote.total_count == local.total_count
    assert block_checksums(remote, 16) == block_checksums(local, 16)
    for i in range(60):
        assert remote.query(f"key:{i}") == local.query(f"key:{i}")


# -- shard groups: one execute frame per bulk_chunk ops -------------------

def test_execute_ships_one_frame_per_bulk_chunk():
    remote = RemoteShard(ShardServer(make_handle()), FaultyNetwork(),
                         "client", "shard0", bulk_chunk=8)
    local = make_handle()
    ops = [("insert", f"k:{i % 5}", 1 + i % 3) for i in range(19)] \
        + [("delete", "k:1", 1), ("set", "k:2", 7), ("query", "k:0"),
           ("contains", "k:2", 7), ("delete", "never", 3)]
    outcomes = remote.execute(ops)
    assert remote.server.requests_served == -(-len(ops) // 8)
    for op, outcome in zip(ops, outcomes):
        if op[1] == "never":
            assert isinstance(outcome, ValueError)
            assert "negative" in str(outcome)
        elif op[0] in ("query", "contains"):
            assert outcome == getattr(local, op[0])(*op[1:])
        else:
            assert outcome is None
            getattr(local, op[0])(*op[1:])
    assert remote.total_count == local.total_count


@pytest.mark.chaos
def test_lost_response_fails_every_slot_of_its_frame_retryably():
    network = FaultyNetwork()
    server = ShardServer(make_handle())
    remote = RemoteShard(server, network, "client", "shard0",
                         channel_options={"max_retries": 1}, bulk_chunk=4)
    network.set_policy("shard0", "client", FaultPolicy(drop=0.5, seed=4))
    ops = [("insert", f"k:{i}") for i in range(40)]
    outcomes = remote.execute(ops)
    lost = [isinstance(o, DeliveryFailed) for o in outcomes]
    assert 0 < sum(lost) < len(ops)                 # genuinely partial
    assert all(o is None for o, gone in zip(outcomes, lost) if not gone)
    for frame in range(0, len(ops), 4):             # whole frames fail
        assert len(set(lost[frame:frame + 4])) == 1
    # Every request arrived, so every frame applied: only answers were
    # lost, the at-least-once ambiguity DeliveryFailed is retryable for.
    assert server.requests_served == len(ops) // 4
    network.set_policy("shard0", "client", None)
    local = make_handle()
    keys = [key for _, key in ops]
    local.insert_many(keys)
    assert remote.query_many(keys).values.tolist() \
        == local.query_many(keys).values.tolist()


@pytest.mark.parametrize("entries,kind", [
    ("not a list", "WireFormatError"),
    ([["frobnicate", "k"]], "WireFormatError"),
    ([["insert", ["k"]]], "TypeError"),
    ([["insert", "k", True]], "WireFormatError"),
    ([["set", "k"]], "WireFormatError"),
], ids=["non-list", "unknown-verb", "non-scalar-key", "bool-count",
        "set-without-count"])
def test_malformed_execute_frames_get_typed_errors(entries, kind):
    server = ShardServer(make_handle())
    if isinstance(entries, list):
        entries = [["insert", "good"], *entries]   # validated before any runs
    response = server.handle_frame(
        seal_frame(REQUEST_MAGIC, {"op": "execute", "ops": entries}))
    meta, _ = open_frame(response, RESPONSE_MAGIC)
    assert meta["ok"] is False and meta["kind"] == kind
    assert server.handle.total_count == 0
    # The server keeps serving.
    response = server.handle_frame(seal_frame(
        REQUEST_MAGIC, {"op": "execute",
                        "ops": [["insert", "x", 2], ["query", "x"]]}))
    assert open_frame(response, RESPONSE_MAGIC)[0]["result"] == [None, 2]


# -- bulk forms: binary int64 for int batches, JSON lists otherwise -------

def _recording_remote(handle) -> tuple[RemoteShard, list]:
    """A RemoteShard whose server records every request it opens."""
    server = ShardServer(handle)
    seen = []
    handle_frame = server.handle_frame

    def record(frame: bytes) -> bytes:
        seen.append(open_frame(frame, REQUEST_MAGIC))
        return handle_frame(frame)

    server.handle_frame = record
    return RemoteShard(server, FaultyNetwork(), "client", "shard0"), seen


def test_int_batches_ride_binary_and_other_batches_json():
    remote, seen = _recording_remote(make_handle())
    local = make_handle()
    ints = list(range(-60, 240, 3))
    counts = [1 + i % 4 for i in range(len(ints))]
    assert remote.insert_many(ints, counts).ok
    local.insert_many(ints, counts)
    meta, payload = seen[-1]
    assert meta["bin"] == len(ints) and "keys" not in meta
    assert len(payload) == 16 * len(ints)       # keys, then counts
    probe = ints + list(range(1000, 1040))
    answers = remote.query_many(probe)
    meta, payload = seen[-1]
    assert meta["bin"] == len(probe) and len(payload) == 8 * len(probe)
    assert answers.ok
    assert answers.values.tolist() == local.query_many(probe).tolist()
    for batch in (["a", "b", "c"], [1, "b", 2.5, None, True, 2 ** 63]):
        assert remote.insert_many(batch).ok
        local.insert_many(batch)
        meta, payload = seen[-1]
        assert meta["keys"] == batch and payload == b""
        answers = remote.query_many(batch)
        assert seen[-1][0]["keys"] == batch
        assert answers.values.tolist() == local.query_many(batch).tolist()
    assert remote.delete_many(ints[:30]).ok
    local.delete_many(ints[:30])
    assert "bin" in seen[-1][0]
    assert remote.query_many(probe).values.tolist() \
        == local.query_many(probe).tolist()
    assert remote.total_count == local.total_count


@pytest.mark.parametrize("meta,payload", [
    ({"op": "insert_many", "bin": -1}, b""),
    ({"op": "insert_many", "bin": True}, b"\0" * 16),
    ({"op": "query_many", "bin": "2"}, b"\0" * 16),
    ({"op": "insert_many", "bin": 2}, b"\0" * 24),
    ({"op": "query_many", "bin": 2}, b"\0" * 32),
    ({"op": "insert_many", "bin": 2},
     np.array([5, 6, 1, -1], dtype="<i8").tobytes()),
], ids=["negative-n", "bool-n", "str-n", "short-payload",
        "long-query-payload", "negative-count"])
def test_malformed_binary_bulk_frames_are_refused_whole(meta, payload):
    server = ShardServer(make_handle())
    response = server.handle_frame(seal_frame(REQUEST_MAGIC, meta, payload))
    answer, _ = open_frame(response, RESPONSE_MAGIC)
    assert answer["ok"] is False and answer["kind"] == "WireFormatError"
    assert server.handle.total_count == 0


def test_binary_batches_recover_exactly_from_a_durable_server(tmp_path):
    from repro.persist import DurableSBF, recover

    def factory() -> SpectralBloomFilter:
        return SpectralBloomFilter(M, K, seed=SEED, method="ms",
                                   backend="array", hash_family="blocked")

    durable = DurableSBF.open(str(tmp_path), factory=factory)
    remote, seen = _recording_remote(ConcurrentSBF(durable))
    reference = factory()
    ints = [i * 7919 % 5000 for i in range(300)]
    counts = [1 + i % 3 for i in range(len(ints))]
    assert remote.insert_many(ints, counts).ok
    assert remote.delete_many(ints[:40]).ok
    assert all("bin" in meta for meta, _ in seen)
    reference.insert_many(ints, counts)
    reference.delete_many(ints[:40])
    assert remote.query_many(ints).values.tolist() \
        == reference.query_many(ints).tolist()
    durable.close()
    recovered, _ = recover(str(tmp_path), factory=factory)
    everywhere = np.arange(M)
    assert recovered.counters.get_many(everywhere).tolist() \
        == reference.counters.get_many(everywhere).tolist()
    assert recovered.total_count == reference.total_count
