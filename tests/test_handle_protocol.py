"""One suite for the shard-handle protocol (:mod:`repro.handle`).

Every handle kind runs the same seeded stream of point, bulk, ``set``
and refused operations (deletes below zero, counts and thresholds the
core's count rule refuses, numpy-integer counts it accepts, keys the
key rule refuses, numpy keys it accepts), and every answer must equal —
bit for bit — what one unsharded blocked :class:`SpectralBloomFilter`
answers for the same stream, the key rule run before it.  A refused op
must raise the reference's exception type, leave the handle's integrity
audit clean (for a durable handle: its recovered log too) and its
``total_count`` an unchanged ``int``.  The same contract is then checked
one level up: a router and batcher over a fleet of each kind answer like
the one unsharded filter, at any shard count.
"""

import itertools
import random

import numpy as np
import pytest

from repro.core.sbf import SpectralBloomFilter
from repro.db.site import Network
from repro.handle import BulkResult, FilterHandle, ShardHandle
from repro.hashing.keys import check_key, check_keys
from repro.persist import ConcurrentSBF, DurableSBF
from repro.serve import (
    ProcessShardPool,
    RemoteShard,
    ReplicaSet,
    ShardBatcher,
    ShardedSBF,
    ShardServer,
)
from repro.tenancy import SpectralBloofiTree, TenantDirectory, load_tree

M, K, SEED = 4096, 4, 7
#: bulk batches stay within one remote frame (DEFAULT_BULK_CHUNK), where
#: a refused batch applies nothing on every kind
BATCH = 24


def make_filter() -> SpectralBloomFilter:
    return SpectralBloomFilter(M, K, seed=SEED, method="ms",
                               backend="numpy", hash_family="blocked")


def _ms_audit(handle) -> list[str]:
    """MS integrity through the protocol's own repair verb: counters
    non-negative and summing to exactly k * N."""
    counters = np.asarray(handle.read_blocks(1, [0])[0])
    issues = []
    if counters.size and int(counters.min()) < 0:
        issues.append("negative counter")
    if int(counters.sum()) != K * handle.total_count:
        issues.append(f"counter sum {int(counters.sum())} != "
                      f"{K} * {handle.total_count}")
    return issues


class Kind:
    """A built handle plus how to address, audit and release it."""

    def __init__(self, handle, *, audit, key=None,
                 close=lambda: None, local=True, respawns=False):
        self.handle = handle
        self.audit = audit
        self.wrap = key
        self.key = key or (lambda k: k)
        self.close = close
        self.local = local
        self.respawns = respawns

    def keys(self, batch):
        """*batch* as the handle addresses it (an array stays one)."""
        return batch if self.wrap is None else [self.wrap(k) for k in batch]


def _filter(tmp_path):
    handle = FilterHandle(make_filter())
    return Kind(handle, audit=handle.sbf.check_integrity, respawns=True)


def _concurrent(tmp_path):
    handle = ConcurrentSBF(make_filter())
    return Kind(handle, audit=handle.check_integrity, respawns=True)


def _wal_audit(durable: DurableSBF) -> list[str]:
    """The durable log against the live handle: sync it, recover the
    directory, and require the same counters, total and next sequence."""
    durable.wal.sync()
    recovered = DurableSBF.open(durable.directory, factory=make_filter)
    try:
        every = np.arange(M)
        issues = []
        if not np.array_equal(recovered.sbf.counters.get_many(every),
                              durable.sbf.counters.get_many(every)):
            issues.append("recovered counters differ")
        if recovered.total_count != durable.total_count:
            issues.append(f"recovered total {recovered.total_count} != "
                          f"{durable.total_count}")
        if recovered.wal.next_seq != durable.wal.next_seq:
            issues.append(f"recovered next seq {recovered.wal.next_seq} "
                          f"!= {durable.wal.next_seq}")
        return issues
    finally:
        recovered.close()


def _open_durable(tmp_path) -> DurableSBF:
    return DurableSBF.open(str(tmp_path / "durable"), factory=make_filter,
                           fsync="checkpoint")


def _durable(tmp_path):
    durable = _open_durable(tmp_path)
    return Kind(durable, close=durable.close,
                audit=lambda: durable.sbf.check_integrity()
                + _wal_audit(durable))


def _concurrent_durable(tmp_path):
    durable = _open_durable(tmp_path)
    handle = ConcurrentSBF(durable)
    return Kind(handle, close=durable.close,
                audit=lambda: handle.check_integrity() + _wal_audit(durable))


def _remote(tmp_path):
    server = ShardServer(ConcurrentSBF(make_filter()))
    handle = RemoteShard(server, Network(), "client", "shard0")
    return Kind(handle, audit=server.handle.check_integrity, local=False)


def _process(tmp_path):
    pool = ProcessShardPool(1, M, K, seed=SEED, method="ms",
                            backend="numpy", hash_family="blocked")
    handle = pool.shards[0]
    return Kind(handle, audit=lambda: _ms_audit(handle), close=pool.close,
                local=False)


def _replicas():
    return [ConcurrentSBF(make_filter()) for _ in range(3)]


def _replica_set(tmp_path):
    replicas = _replicas()
    rset = ReplicaSet(replicas, name="rf3")

    def audit():
        issues = [i for r in replicas for i in r.check_integrity()]
        if len({tuple(r.sbf.counters) for r in replicas}) != 1:
            issues.append("replicas diverged")
        return issues
    return Kind(rset, audit=audit)


def _replica_set_mixed(tmp_path):
    """One local replica and two remote ones: a refusal must come before
    the fan-out, or the replicas' counters and totals part ways."""
    local = ConcurrentSBF(make_filter())
    servers = [ShardServer(ConcurrentSBF(make_filter())) for _ in range(2)]
    rset = ReplicaSet([local] + [
        RemoteShard(server, Network(), "client", f"shard{i}")
        for i, server in enumerate(servers)], name="mixed")

    def audit():
        issues = local.check_integrity() + [
            i for s in servers for i in s.handle.check_integrity()]
        if len({tuple(r.read_blocks(1, [0])[0]) for r in rset.replicas}) \
                != 1 or len({r.total_count for r in rset.replicas}) != 1:
            issues.append("replicas diverged")
        return issues
    return Kind(rset, audit=audit)


def _tenant(leaf):
    def build(tmp_path):
        tree = SpectralBloofiTree(M, K, seed=SEED, hash_family="blocked")
        directory = TenantDirectory(tree)
        mounted = {"filter": None,
                   "concurrent": ConcurrentSBF(make_filter()),
                   "replicaset": ReplicaSet(_replicas(), name="leaf")}[leaf]
        directory.mount("t", mounted)
        slot = directory.shards[directory.shard_of(("t", 0))]

        def audit():
            # The pruned descent and a snapshot round trip agree with the
            # slot's own (reference-checked) answers.
            restored = load_tree(tree.dump_tree())
            issues = (tree.verify() + restored.verify()
                      + restored.handle_of("t").check_integrity())
            for key in PROBES:
                estimate = slot.query(("t", key))
                if tree.query(key) != ({"t": estimate} if estimate else {}) \
                        or restored.query(key) != tree.query(key):
                    issues.append(f"descent disagrees on {key!r}")
            return issues
        return Kind(slot, audit=audit, key=lambda k: ("t", k), local=False)
    return build


#: keys every audit and the final comparison probe
PROBES = [f"user:{i}" for i in range(30)] + [-1, 0, 12345]

KINDS = {
    "filter": _filter,
    "durable": _durable,
    "concurrent": _concurrent,
    "concurrent-durable": _concurrent_durable,
    "remote": _remote,
    "process": _process,
    "replicaset-rf3": _replica_set,
    "replicaset-mixed": _replica_set_mixed,
    "tenant-filter": _tenant("filter"),
    "tenant-concurrent": _tenant("concurrent"),
    "tenant-replicaset": _tenant("replicaset"),
}


@pytest.fixture(params=sorted(KINDS))
def kind(request, tmp_path):
    built = KINDS[request.param](tmp_path)
    yield built
    built.close()


# ----------------------------------------------------------------------
# the seeded stream
# ----------------------------------------------------------------------
#: counts and thresholds the count rule refuses: TypeError for the five
#: that are no integer, ValueError for -1, OverflowError past int64
MALFORMED = (1.5, True, np.bool_(True), "2", None, -1, 2 ** 63)

#: every verb that takes a count or threshold, in point and bulk form
COUNTED_VERBS = ("insert", "set", "delete", "contains", "insert_many",
                 "delete_many")

#: keys the key rule refuses: TypeError for all but the lone surrogate
MALFORMED_KEYS = (b"x", (1, 2), [1], {"a": 1}, "a\ud800", np.bytes_(b"x"),
                  object())

#: every verb, in point and bulk form
KEYED_VERBS = ("insert", "delete", "set", "query", "contains",
               "insert_many", "delete_many", "query_many")


def _malformed_op(verb: str, value, keys: list) -> tuple:
    """*value* as the count (or threshold) of one *verb* op; a bulk op
    carries it in its last slot, after well-formed counts."""
    if verb.endswith("_many"):
        return (verb, keys[:4], [1, 1, 1, value])
    return (verb, keys[0], value)


def _malformed_key_op(verb: str, key, keys: list) -> tuple:
    """*key* under one *verb*; a bulk op carries it in its last slot,
    after well-formed keys."""
    if verb == "query_many":
        return (verb, keys[:4] + [key])
    if verb.endswith("_many"):
        return (verb, keys[:4] + [key], [1] * 5)
    return (verb, key) if verb == "query" else (verb, key, 1)


def _numpy_key_op(step: int, keys: list, truth: dict) -> tuple:
    """An op whose keys are numpy values (accepted as their ``.item()``)."""
    key = keys[25 + step % 25]                       # an int key
    form = step // 6 % 8
    if form == 0:
        truth[key] += 2
        return ("insert", np.int64(key), 2)
    if form == 1:
        return ("query", np.int64(key))
    if form == 2:
        return ("insert_many", np.arange(step, step + 6), None)
    if form == 3:
        return ("query_many", np.arange(step - 3, step + 5))
    if form == 4:                         # past int64: the JSON key form
        return ("insert_many", np.array([2 ** 63 + step, key],
                                        dtype=np.uint64), [1, 2])
    if form == 5:
        return ("query_many", np.array([2 ** 63 + step - 5, key, 7],
                                       dtype=np.uint64))
    name = keys[step % 25]
    if form == 6 or not truth[name]:
        truth[name] += 1
        return ("insert", np.str_(name), 1)
    truth[name] -= 1
    return ("delete_many", [np.str_(name)], [np.int64(1)])


def _numpy_op(step: int, keys: list, truth: dict) -> tuple:
    """An op whose counts are numpy integers (accepted, stored as int)."""
    key = keys[step % len(keys)]
    batch = keys[step % 45:step % 45 + 5]
    form = step % 6
    if form == 0:
        truth[key] += 2
        return ("insert", key, np.int64(2))
    if form == 1:
        truth[key] = 3
        return ("set", key, np.uint8(3))
    if form == 2 and truth[key]:
        truth[key] -= 1
        return ("delete", key, np.int32(1))
    if form == 3:
        for k in batch:
            truth[k] += 2
        return ("insert_many", batch, np.int64(2))
    if form == 4:
        counts = np.arange(1, len(batch) + 1, dtype=np.uint16)
        for k, c in zip(batch, counts.tolist()):
            truth[k] += c
        return ("insert_many", batch, counts)
    for k in batch:
        truth[k] += 1
    return ("insert_many", batch, [np.int64(1)] * len(batch))


def stream(seed: int = 11, n: int = 260) -> list[tuple]:
    """Point, bulk, set and refused ops over str and int keys; deletes
    only remove what was inserted, except the deliberately refused ones.
    Every fifth op is a malformed one (each :data:`MALFORMED` value under
    each of :data:`COUNTED_VERBS`), every seventh has numpy counts; every
    fourth has a key the key rule refuses (each of :data:`MALFORMED_KEYS`
    under each of :data:`KEYED_VERBS`), every sixth numpy keys."""
    rng = random.Random(seed)
    keys = [f"user:{i}" for i in range(25)] \
        + [rng.randrange(1 << 40) for _ in range(25)]
    truth = dict.fromkeys(keys, 0)
    ops: list[tuple] = []
    malformed = itertools.cycle([(verb, value) for value in MALFORMED
                                 for verb in COUNTED_VERBS])
    bad_keys = itertools.cycle([(verb, key) for key in MALFORMED_KEYS
                                for verb in KEYED_VERBS])
    for step in range(n):
        if step % 5 == 4:
            ops.append(_malformed_op(*next(malformed), keys))
        if step % 7 == 6:
            ops.append(_numpy_op(step, keys, truth))
        if step % 4 == 3:
            ops.append(_malformed_key_op(*next(bad_keys), keys))
        if step % 6 == 5:
            ops.append(_numpy_key_op(step, keys, truth))
        r = rng.random()
        key = rng.choice(keys)
        if r < 0.25:
            count = rng.randint(1, 3)
            ops.append(("insert", key, count))
            truth[key] += count
        elif r < 0.40:
            ops.append(("query", key))
        elif r < 0.43:
            ops.append(("contains", key, rng.randint(1, 4)))
        elif r < 0.45:
            ops.append(("contains", key, -1))             # refused
        elif r < 0.55 and truth[key]:
            count = rng.randint(1, truth[key])
            ops.append(("delete", key, count))
            truth[key] -= count
        elif r < 0.62:
            count = rng.randint(0, 5)
            ops.append(("set", key, count))
            truth[key] = count
        elif r < 0.70:
            ops.append(("delete", key, 10 ** 6))          # refused
        elif r < 0.78:
            batch = rng.choices(keys, k=BATCH)             # repeats too
            counts = [rng.randint(1, 3) for _ in batch]
            ops.append(("insert_many", batch, counts))
            for k, c in zip(batch, counts):
                truth[k] += c
        elif r < 0.88:
            ops.append(("query_many", rng.sample(keys, BATCH)
                        + [f"miss:{rng.randrange(99)}"]))
        elif r < 0.94:
            present = [k for k in keys if truth[k]][:BATCH]
            ops.append(("delete_many", present, [1] * len(present)))
            for k in present:
                truth[k] -= 1
        else:
            batch = [k for k in keys if truth[k]][:BATCH - 1]
            ops.append(("delete_many", batch + [key],      # refused
                        [1] * len(batch) + [10 ** 6]))
    return ops


def _on_reference(ref: SpectralBloomFilter, op: tuple):
    """The op on the bare filter, the key rule run before it (the filter
    itself hashes any key ``canonical_key`` takes)."""
    verb = op[0]
    if verb == "query_many":
        return ref.query_many(check_keys(op[1])).tolist()
    if verb in ("insert_many", "delete_many"):
        getattr(ref, verb)(check_keys(op[1]), op[2])
        return None
    arg = check_key(op[1])
    if verb == "query":
        return ref.query(arg)
    if verb == "contains":
        return ref.contains(arg, op[2])
    getattr(ref, verb)(arg, op[2])
    return None


def _on_handle(kind: Kind, op: tuple):
    handle, verb, arg = kind.handle, op[0], op[1]
    if verb in ("insert_many", "delete_many", "query_many"):
        keys = kind.keys(arg)
        outcome = (handle.query_many(keys) if verb == "query_many"
                   else getattr(handle, verb)(keys, op[2]))
        assert isinstance(outcome, BulkResult) and len(outcome) == len(keys)
        if outcome.failures:
            # Refused bulk deletes are all-or-nothing: no slot landed.
            assert outcome.applied == 0
            raise outcome.failures[0].error
        return outcome.tolist() if verb == "query_many" else None
    if verb == "query":
        return handle.query(kind.key(arg))
    if verb == "contains":
        return handle.contains(kind.key(arg), op[2])
    getattr(handle, verb)(kind.key(arg), op[2])
    return None


#: what the reference filter raises for an op it refuses
REFUSALS = (TypeError, ValueError, OverflowError)


def _same_refusal(error: Exception, reference: Exception) -> bool:
    """Whether a handle refused an op as the reference did: with the
    reference's exception type and its own message (a remote handle
    prefixes its server's name), or, for a delete, which names the key
    as the handle addresses it, with a counter that would go negative."""
    return type(error) is type(reference) and (
        str(reference) in str(error) or "negative" in str(error))


def test_every_kind_answers_like_one_unsharded_filter(kind):
    assert isinstance(kind.handle, ShardHandle)
    ref = make_filter()
    refused = []
    for step, op in enumerate(stream()):
        try:
            expected = _on_reference(ref, op)
        except REFUSALS as refusal:
            # The reference refused: the handle must refuse too, with the
            # same exception type, and the refusal must change nothing.
            before = kind.handle.total_count
            with pytest.raises(REFUSALS) as caught:
                _on_handle(kind, op)
            assert _same_refusal(caught.value, refusal), (step, op)
            assert kind.handle.total_count == before == ref.total_count
            assert kind.audit() == [], (step, op)
            refused.append(type(refusal))
            continue
        assert _on_handle(kind, op) == expected, (step, op)
        assert type(kind.handle.total_count) is int, (step, op)
    assert len(refused) > 10 and set(refused) == set(REFUSALS)
    assert kind.handle.query_many([kind.key(k) for k in PROBES]).tolist() \
        == ref.query_many(PROBES).tolist()
    assert [kind.handle.query(kind.key(k)) for k in PROBES] \
        == [ref.query(k) for k in PROBES]
    assert kind.handle.total_count == ref.total_count
    assert kind.audit() == []


POINT_VERBS = ("insert", "delete", "set", "query", "contains")


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_execute_answers_like_point_replay(kind, chunk):
    """The stream's point ops through ``execute``, ``chunk`` ops a call:
    every slot equals the reference op's outcome, a refused op fails its
    own slot only, and refusals change nothing."""
    ref = make_filter()
    ops = [op for op in stream() if op[0] in POINT_VERBS]
    refused = []
    for lo in range(0, len(ops), chunk):
        group = ops[lo:lo + chunk]
        outcomes = kind.handle.execute(
            [(op[0], kind.key(op[1]), *op[2:]) for op in group])
        assert len(outcomes) == len(group)
        for op, outcome in zip(group, outcomes):
            try:
                expected = _on_reference(ref, op)
            except REFUSALS as refusal:
                assert _same_refusal(outcome, refusal), (op, outcome)
                refused.append(type(refusal))
                continue
            assert outcome == expected, (op, outcome)
        assert kind.handle.total_count == ref.total_count
        assert type(kind.handle.total_count) is int
    assert len(refused) > 10 and set(refused) == set(REFUSALS)
    assert kind.audit() == []
    assert kind.handle.query_many([kind.key(k) for k in PROBES]).tolist() \
        == ref.query_many(PROBES).tolist()


def test_execute_fails_bad_ops_in_their_own_slots(kind):
    handle = kind.handle
    outcomes = handle.execute([("insert", kind.key("a"), 2),
                               ("set", kind.key("b")),
                               ("delete", kind.key("a"), 10 ** 6),
                               ("query", kind.key("a"))])
    assert outcomes[0] is None and outcomes[3] == 2
    assert isinstance(outcomes[1], ValueError) and "count" in str(outcomes[1])
    assert isinstance(outcomes[2], ValueError)
    assert handle.total_count == 2 and kind.audit() == []


def test_lifecycle_defaults_hold(kind):
    handle = kind.handle
    handle.insert(kind.key("k"), 3)
    handle.tick()
    with handle.exclusive() as inner:
        assert inner.query(kind.key("k")) == 3
    assert handle.query(kind.key("k")) == 3
    assert (handle.local_filter() is not None) == kind.local
    fresh = make_filter()
    if kind.respawns:
        twin = handle.respawn(fresh)
        assert type(twin) is type(handle)
        assert twin.local_filter() is fresh and twin.total_count == 0
    else:
        with pytest.raises(ValueError, match="manifest"):
            handle.respawn(fresh)
    handle.checkpoint()
    assert handle.query(kind.key("k")) == 3
    assert kind.audit() == []


class MinimalHandle(ShardHandle):
    """Only the protocol's abstract verbs, over a bare filter: every
    other verb is the protocol's default."""

    def __init__(self):
        self._inner = FilterHandle(make_filter())

    def insert(self, key, count=1):
        self._inner.insert(key, count)

    def delete(self, key, count=1):
        self._inner.delete(key, count)

    def set(self, key, count):
        self._inner.set(key, count)

    def query(self, key):
        return self._inner.query(key)

    def insert_many(self, keys, counts=None, *, timeout=None):
        return self._inner.insert_many(keys, counts)

    def delete_many(self, keys, counts=None, *, timeout=None):
        return self._inner.delete_many(keys, counts)

    def query_many(self, keys, *, timeout=None):
        return self._inner.query_many(keys)

    @property
    def total_count(self):
        return self._inner.total_count


def test_a_handle_of_only_the_abstract_verbs_gets_the_defaults():
    # No handle kind above inherits every lifecycle default, so a
    # minimal handle pins them: a frozen handle is itself, the group verb
    # is the point loop, and there is nothing to checkpoint, tick, close,
    # expose or respawn.
    handle = MinimalHandle()
    handle.insert("k", 2)
    with handle.exclusive() as frozen:
        assert frozen is handle
    assert handle.execute([("insert", "k"), ("contains", "k", 3),
                           ("query", "k")]) == [None, True, 3]
    assert handle.checkpoint() is None and handle.local_filter() is None
    handle.tick()
    handle.close()
    with pytest.raises(ValueError, match="manifest"):
        handle.respawn(make_filter())
    assert handle.query("k") == handle.total_count == 3


def test_filter_handle_is_the_bare_filter():
    sbf = make_filter()
    handle = FilterHandle(sbf)
    assert handle.insert_many(["a", "b"], [2, 1]).ok
    assert handle.query_many(["a", "b", "c"]).tolist() == [2, 1, 0]
    assert handle.local_filter() is sbf and handle.total_count == 3
    with pytest.raises(ValueError, match="negative"):
        handle.delete("c")
    assert sbf.check_integrity() == []


# ----------------------------------------------------------------------
# one level up: a router and batcher over a fleet of each kind
# ----------------------------------------------------------------------
def _fleet(kind: str, n: int, tmp_path):
    """``(router, close)`` over *n* shards of *kind*."""
    family = SpectralBloomFilter(M, K, seed=SEED,
                                 hash_family="blocked").family
    if kind == "process":
        pool = ProcessShardPool(n, M, K, seed=SEED, method="ms",
                                backend="numpy", hash_family="blocked")
        return pool.router, pool.close
    closers = []
    shards = []
    for i in range(n):
        if kind == "concurrent":
            shards.append(ConcurrentSBF(make_filter()))
        elif kind == "concurrent-durable":
            durable = DurableSBF.open(str(tmp_path / f"shard-{i}"),
                                      factory=make_filter,
                                      fsync="checkpoint")
            closers.append(durable.close)
            shards.append(ConcurrentSBF(durable))
        elif kind == "remote":
            shards.append(RemoteShard(
                ShardServer(ConcurrentSBF(make_filter())), Network(),
                "client", f"shard-{i}"))
        else:
            shards.append(ReplicaSet(_replicas(), name=f"s{i}"))
    router = ShardedSBF(shards, family=family)
    return router, lambda: [close() for close in closers]


def workload(n: int = 600) -> list:
    """Mixed int/str keys with skewed multiplicities."""
    rng = random.Random(SEED)
    return [f"user:{i % 97}" if i % 5 == 0 else rng.randrange(1 << 40)
            for i in range(n)]


FLEETS = [(kind, n) for kind in ("concurrent-durable", "remote", "process",
                                 "replicaset-rf3") for n in (1, 4)] \
    + [("concurrent", n) for n in (1, 2, 4, 8)]


@pytest.mark.parametrize("kind,n_shards", FLEETS)
def test_fleets_answer_like_one_unsharded_filter(kind, n_shards, tmp_path):
    router, close = _fleet(kind, n_shards, tmp_path)
    try:
        ref = make_filter()
        batcher = ShardBatcher(router)
        keys = workload()
        for key in keys[:300]:                     # routed point path
            router.insert(key)
            ref.insert(key)
        int_keys = [key for key in keys[300:] if isinstance(key, int)]
        assert batcher.insert_many(int_keys).ok    # vectorised path
        ref.insert_many(int_keys)
        batcher.execute([("insert", key) for key in keys[300:400]]
                        + [("delete", keys[0]), ("set", keys[1], 9)])
        ref.insert_many(keys[300:400])
        ref.delete(keys[0])
        ref.set(keys[1], 9)
        with pytest.raises(ValueError, match="negative"):
            router.delete("never-inserted", 10 ** 6)
        refused = batcher.execute([("delete", "never-inserted", 10 ** 6),
                                   ("contains", keys[0], -1)])
        assert isinstance(refused[0], ValueError)
        assert isinstance(refused[1], ValueError)
        assert "threshold must be >= 0" in str(refused[1])
        with pytest.raises(ValueError, match="threshold must be >= 0"):
            router.contains(keys[0], -1)
        assert router.total_count == ref.total_count
        probes = list(dict.fromkeys(keys)) \
            + [f"miss:{i}" for i in range(40)] + [-(i + 1) for i in range(40)]
        expected = [ref.query(key) for key in probes]
        assert [router.query(key) for key in probes] == expected
        assert [router.contains(key, 2) for key in probes] \
            == [ref.contains(key, 2) for key in probes]
        assert batcher.query_many(probes) == expected
        assert batcher.execute([("query", key) for key in probes[:60]]
                               + [("contains", key, 2)
                                  for key in probes[:60]]) \
            == expected[:60] + [ref.contains(key, 2) for key in probes[:60]]
    finally:
        close()
