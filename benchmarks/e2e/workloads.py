"""The four workloads of the end-to-end serving benchmark.

Each workload builds its stack through the program's public entry points
(``ShardedSBF.create``, ``ProcessShardPool``, ``ServingEngine``,
``ShardBatcher``), drives a seeded closed-loop load for a wall-clock
budget, and checks every answer against one unsharded reference
:class:`~repro.core.sbf.SpectralBloomFilter`.  Blocked hashing makes a
routed fleet answer counter for counter like that reference, so any
difference is a wrong answer.

Load model: one client process, closed loop.  Engine workloads run 256
callers with one outstanding request each — ``submit`` x256, then
``drain()`` — against an engine with its defaults (``max_queue=1024``,
``batch_size=64``).  There is no open loop: the pump shares the GIL with
any in-process generator, so an open loop would measure the scheduler.

Filters are Minimum Selection, numpy backend, blocked family, k = 4, and
a fixed hash seed: the hash seed is configuration; ``--seed`` only
changes the inputs.

Every timing is reported at a reference host speed (:mod:`hostspeed`):
each timed unit of load is followed by an untimed speed probe.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import time
from array import array
from dataclasses import dataclass
from functools import partial

import numpy as np

import gen
import hostspeed
from stats import MIN_TAIL, segmented_percentile, segmented_rate
from tracing import Tracer, layer_metrics

from repro.core.sbf import SpectralBloomFilter
from repro.persist import FileIO
from repro.serve import (
    Overloaded,
    ProcessShardPool,
    ServingEngine,
    ShardBatcher,
    ShardedSBF,
)

K = 4
#: hash seed of every filter (configuration, not input)
FILTER_SEED = 2003
#: concurrent callers of the engine workloads, one request outstanding each
WINDOW = 256
#: WAL fsync policy of the durable workload (the program's default)
FSYNC = "always"
#: requests per latency segment: p99 is the median of per-segment p99s
LATENCY_SEGMENT = 8192
#: windows (engine) or query calls (bulk) of read-only warm-up that end
#: set-up: the first requests pay for lazy set-up and cold caches, and
#: serving them makes ``setup_s`` time real work rather than a few object
#: constructions that read differently from one process to the next
WARM_UNITS = 8
#: speed probes taken before and after each set-up
SETUP_PROBES = 3

#: answer codes for ops that return no estimate
ACKED = -1
FAILED = -2


@dataclass(frozen=True)
class Sizes:
    """Op counts and geometry that scale between full and smoke runs."""

    n_items: int = 1_000_000        # zipf universe
    acc_ops: int = 32_768           # prefix the accuracy metrics cover
    max_ops: int = 4_000_000        # memory guard on one timed run
    trace_ops: int = 100_000        # traced scope of engine workloads
    trace_keys: int = 1_000_000     # traced scope of bulk-uniform
    ledger_ops: int = 100_000       # the rung ledger's stream
    prep_inserts: int = 60_000      # uncheckpointed WAL recovered by setup
    bulk_keys: int = 1_500_000      # gamma = 4 * 1.5M / 2**23 = 0.72
    bulk_m: int = 1 << 23
    bulk_call: int = 8192
    #: set-ups per run for every workload (None: :data:`SETUP_REPS`)
    setup_reps: int | None = None


FULL = Sizes()
SMOKE = Sizes(n_items=100_000, acc_ops=2048, trace_ops=4096,
              trace_keys=8192, ledger_ops=4096, prep_inserts=2000,
              bulk_keys=1 << 17, bulk_m=1 << 20, bulk_call=128,
              setup_reps=1)

#: set-ups per run; setup_s is their median, so the slower first ones
#: (first builds of an in-process fleet take ~1.4x as long, the first two
#: for ``mixed-zipf``) must never be it.  Fewer where a set-up is costly:
#: each durable one recovers a WAL (~2 s), and after ~17 built-and-freed
#: bulk fleets the allocator starts zeroing reused heap memory for their
#: arrays, a cost no first build pays (set-ups and passes both count).
SETUP_REPS = {"mixed-zipf": 9, "ingest-durable": 3, "mixed-procpool": 5,
              "bulk-uniform": 5}

#: why each workload is in the matrix (the BENCHMARK.json ``why``)
WHY = {
    "mixed-zipf": "engine over 4 in-process shards, zipf 1.1, 80% query: "
                  "per-op engine, batcher and metrics overhead; counters "
                  "fit in L2",
    "ingest-durable": "engine over 4 WAL shards, fsync always, str keys, "
                      "90% insert: WAL append and fsync block every "
                      "result; setup recovers a 60k-insert WAL",
    "mixed-procpool": "engine over a 1-worker process pool: the only "
                      "path through the wire codecs, ReliableChannel and "
                      "pipes",
    "bulk-uniform": "ShardBatcher insert_many/query_many, 8192-key calls, "
                    "gamma 0.72: kernels and hashing over counters beyond "
                    "L2; bypasses the engine",
}


@dataclass(frozen=True)
class EngineSpec:
    z: float
    insert_share: float
    string_keys: bool
    fleet: str          # "local" | "durable" | "procpool"
    shards: int
    m: int


ENGINE_SPECS = {
    "mixed-zipf": EngineSpec(1.1, 0.2, False, "local", 4, 1 << 18),
    "ingest-durable": EngineSpec(0.8, 0.9, True, "durable", 4, 1 << 18),
    # One worker: it takes turns with the client on the run's one vCPU
    # (hostspeed.pin); more would only contend for it.
    "mixed-procpool": EngineSpec(1.1, 0.2, False, "procpool", 1, 1 << 18),
}


def reference(m: int) -> SpectralBloomFilter:
    """The unsharded referee for a fleet of per-shard size *m*."""
    return SpectralBloomFilter(m, K, seed=FILTER_SEED, method="ms",
                               backend="numpy", hash_family="blocked")


def tree_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(root) for f in files)


def fs_type(path: str) -> str | None:
    """Filesystem type of *path* as ``stat -f`` names it (None if unknown)."""
    try:
        out = subprocess.run(["stat", "-f", "-c", "%T", path],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


# -- stacks ------------------------------------------------------------------
class Stack:
    """One built serving stack and what it takes to tear it down."""

    def __init__(self, router, *, engine=None, pool=None, root=None):
        self.router = router
        self.engine = engine
        self.batcher = ShardBatcher(router) if engine is None else None
        self.pool = pool
        self.root = root

    def storage_bits(self) -> int | None:
        """Sum of shard ``storage_bits()`` (in-process fleets only)."""
        shards = self.router.shards
        if not all(hasattr(shard, "sbf") for shard in shards):
            return None
        return sum(shard.sbf.storage_bits() for shard in shards)

    def close(self) -> None:
        """Release handles without checkpointing (durable shards keep
        their WAL, as a killed process would leave it)."""
        if self.pool is not None:
            self.pool.close()
        if self.root is not None:
            for shard in self.router.shards:
                shard.raw.close()


class FsyncClock:
    """Seconds spent in ``FileIO.fsync`` while installed (a context
    manager): disk waits, which :mod:`hostspeed` keeps unscaled."""

    def __init__(self):
        self.seconds = 0.0

    def __enter__(self) -> "FsyncClock":
        original = self._original = FileIO.fsync
        clock = time.perf_counter

        def timed(io, fileobj):
            t0 = clock()
            try:
                original(io, fileobj)
            finally:
                self.seconds += clock() - t0

        FileIO.fsync = timed
        return self

    def __exit__(self, *exc) -> None:
        FileIO.fsync = self._original


class Units:
    """Timed units of load (engine windows, bulk calls): wall seconds,
    acknowledged ops, disk waits, steal, and the speed probe that follows
    each."""

    def __init__(self, fsync: FsyncClock | None = None):
        self.seconds = array("d")
        self.acked = array("q")
        self.io = array("d")
        self.stolen = array("d")
        self.probe = array("d")
        self.timed_s = 0.0
        self._fsync = fsync

    def counters(self) -> tuple[float, float]:
        """Seconds of fsync and of steal so far; read just before and just
        after each unit."""
        fsync = self._fsync.seconds if self._fsync is not None else 0.0
        return fsync, hostspeed.stolen_s()

    def add(self, seconds: float, acked: int, before: tuple[float, float],
            after: tuple[float, float]) -> None:
        """Record one unit, then probe the host's speed (untimed)."""
        self.seconds.append(seconds)
        self.acked.append(acked)
        self.io.append(after[0] - before[0])
        self.stolen.append(after[1] - before[1])
        self.probe.append(hostspeed.probe())
        self.timed_s += seconds

    def factors(self) -> list[float]:
        """Per-unit factors from wall-clock to reference seconds."""
        return hostspeed.scale_units(self.seconds, self.probe, self.io,
                                     self.stolen)

    def ref_seconds(self, factors: list[float]) -> list[float]:
        return [s * f for s, f in zip(self.seconds, factors)]


def measure_setups(workload, sizes: Sizes,
                   fsync: FsyncClock | None = None):
    """Set the workload's stack up :data:`SETUP_REPS` times (or
    ``sizes.setup_reps``); returns ``(last stack, reference seconds of
    each set-up, wall seconds of each, wrong warm-up answers)``.

    A set-up is ``workload.build(prepared)`` plus the timed part of
    ``workload.warm(stack)``; ``workload.prepare()`` runs untimed before
    each (e.g. copying a durable root).  The host's speed is the median
    of :data:`SETUP_PROBES` probes before and after; fsync time, read
    from *fsync*, is not rescaled, and steal is left out.  Every stack
    but the last is closed.
    """
    samples: list[float] = []
    walls: list[float] = []
    wrong = 0
    for rep in range(sizes.setup_reps or SETUP_REPS[workload.name]):
        if rep:
            stack.close()
        prepared = workload.prepare()
        speed = hostspeed.probes(SETUP_PROBES)
        io0 = fsync.seconds if fsync is not None else 0.0
        stolen0 = hostspeed.stolen_s()
        t0 = time.perf_counter()
        stack = workload.build(prepared)
        built = time.perf_counter() - t0
        answers, warm_s = workload.warm(stack)
        io_s = fsync.seconds - io0 if fsync is not None else 0.0
        stolen = hostspeed.stolen_s() - stolen0
        speed += hostspeed.probes(SETUP_PROBES)
        walls.append(built + warm_s)
        samples.append(hostspeed.at_reference(
            built + warm_s, statistics.median(speed), io_s, stolen))
        wrong += int(np.count_nonzero(answers != workload.warm_expected))
    return stack, samples, walls, wrong


# -- the closed-loop engine client ---------------------------------------------
def _stamp(ends: list, i: int, _future) -> None:
    ends[i] = time.perf_counter()


class Drive:
    """Record of one closed-loop run: ops, answers, latencies, timing."""

    def __init__(self, fsync: FsyncClock | None = None):
        self.inserts: list[np.ndarray] = []
        self.ranks: list[np.ndarray] = []
        self.answers = array("q")
        self.latency_s = array("d")
        self.windows = Units(fsync)
        self.ops = 0
        self.failed = 0
        self.prefix_bits: int | None = None

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (np.concatenate(self.inserts), np.concatenate(self.ranks),
                np.frombuffer(self.answers, dtype=np.int64))

    def timing(self, setups: list[float]) -> dict:
        """End-to-end timings at reference speed (see :func:`_timing`)."""
        factors = self.windows.factors()
        latency = array("d", (s * factors[i // WINDOW]
                              for i, s in enumerate(self.latency_s)))
        return _timing(self.windows, factors, LATENCY_SEGMENT // WINDOW,
                       latency, setups)


def drive_engine(stack: Stack, stream: gen.ZipfStream, keys_of, *,
                 seconds: float, min_ops: int, max_ops: int,
                 prefix_ops: int = 0, tracer: Tracer | None = None,
                 fsync: FsyncClock | None = None) -> Drive:
    """Run windows of :data:`WINDOW` requests until *seconds* of timed
    load and at least *min_ops* ops (never more than *max_ops*).

    A request's latency runs from just before ``submit()`` to its
    future's done-callback.  Only the submit/drain loop is timed; drawing
    inputs, reading results and probing the host's speed are not.
    """
    engine = stack.engine
    submit, drain, clock = engine.submit, engine.drain, time.perf_counter
    run = Drive(fsync)
    windows = run.windows
    window = 0
    while (windows.timed_s < seconds or run.ops < min_ops) \
            and run.ops < max_ops:
        inserts, ranks = stream.take(WINDOW)
        keys = keys_of(ranks)
        verbs = ["insert" if flag else "query" for flag in inserts.tolist()]
        n = len(keys)
        starts = [0.0] * n
        ends = [0.0] * n
        futures: list = [None] * n
        if tracer is not None:
            tracer.window = window
        before = windows.counters()
        t0 = clock()
        for i in range(n):
            starts[i] = clock()
            try:
                future = submit(verbs[i], keys[i])
            except Overloaded as exc:
                ends[i] = clock()
                futures[i] = exc
                continue
            future.add_done_callback(partial(_stamp, ends, i))
            futures[i] = future
        drain()
        elapsed = clock() - t0
        after = windows.counters()
        failed = 0
        for i, future in enumerate(futures):
            run.latency_s.append(ends[i] - starts[i])
            if isinstance(future, BaseException) \
                    or future.exception() is not None:
                failed += 1
                run.answers.append(FAILED)
            else:
                result = future.result()
                run.answers.append(ACKED if result is None else int(result))
        run.failed += failed
        windows.add(elapsed, n - failed, before, after)
        run.inserts.append(inserts)
        run.ranks.append(ranks)
        run.ops += n
        window += 1
        if run.ops == prefix_ops:
            run.prefix_bits = stack.storage_bits()
    return run


# -- the oracle ----------------------------------------------------------------
def ms_answers(ref: SpectralBloomFilter, inserts: np.ndarray, keys, *,
               space: np.ndarray | None = None) -> np.ndarray:
    """The answers an empty filter configured like *ref* gives to an op
    sequence (``ACKED`` for inserts).

    Computed offline from the reference's own hash positions
    (``ref.indices``): under Minimum Selection a counter holds the number
    of earlier insert probes that hit it, and a query answers with the
    least of its key's k counters.  That is what replaying the sequence
    on *ref* would return, in one sort instead of one call per verb run.
    *space* (optional, per op) puts ops in disjoint filters — one per
    tenant.
    """
    n = len(inserts)
    if isinstance(keys, np.ndarray):
        keys = keys.tolist()          # hash Python ints, as clients send
    slots: dict = {}
    inverse = np.fromiter((slots.setdefault(key, len(slots)) for key in keys),
                          dtype=np.int64, count=n)
    table = np.array([ref.indices(key) for key in slots],
                     dtype=np.int64).reshape(len(slots), ref.k)
    positions = table[inverse]
    if space is not None:
        positions += np.asarray(space, dtype=np.int64)[:, None] * ref.m
    span = n + 1
    writes = np.flatnonzero(inserts)
    events = np.sort((positions[writes] * span + writes[:, None]).ravel())
    reads = np.flatnonzero(~inserts)
    base = positions[reads] * span
    hits = (np.searchsorted(events, base + reads[:, None])
            - np.searchsorted(events, base))
    out = np.full(n, ACKED, dtype=np.int64)
    out[reads] = hits.min(axis=1)
    return out


def count_wrong(ref: SpectralBloomFilter, inserts: np.ndarray, keys: list,
                answers: np.ndarray, prior: list = ()) -> int:
    """Count answers that differ from the reference's, over the
    acknowledged ops; *prior* keys were inserted before the sequence."""
    ok = answers != FAILED
    head = len(prior)
    keys = [*prior, *(key for key, flag in zip(keys, ok.tolist()) if flag)]
    inserts = np.concatenate([np.ones(head, dtype=bool), inserts[ok]])
    answers = np.concatenate([np.full(head, ACKED, np.int64), answers[ok]])
    return int(np.count_nonzero(ms_answers(ref, inserts, keys) != answers))


def accuracy(inserts: np.ndarray, ranks: np.ndarray, answers: np.ndarray,
             n: int, prior: dict | None = None) -> dict:
    """Accuracy of the first *n* answers against exact counts.

    *prior* holds exact counts already in the filter (``rank -> count``).
    ``query_rel_err`` is the mean of ``(est - true) / true`` over queries
    of present keys; ``false_pos_rate`` the share of absent-key queries
    answering more than 0.
    """
    counts = dict(prior or {})
    rel_sum = 0.0
    present = absent = positives = 0
    for flag, rank, answer in zip(inserts[:n].tolist(), ranks[:n].tolist(),
                                  answers[:n].tolist()):
        if answer == FAILED:
            continue
        if flag:
            counts[rank] = counts.get(rank, 0) + 1
            continue
        true = counts.get(rank, 0)
        if true:
            present += 1
            rel_sum += (answer - true) / true
        else:
            absent += 1
            positives += answer > 0
    return {"query_rel_err": rel_sum / present if present else 0.0,
            "false_pos_rate": positives / absent if absent else 0.0,
            "present_queries": present, "absent_queries": absent,
            "distinct_keys": len(counts), "accuracy_ops": min(n, len(ranks))}


# -- engine workloads ------------------------------------------------------------
class EngineWorkload:
    """One of the engine-fronted workloads (see :data:`ENGINE_SPECS`)."""

    def __init__(self, name: str, seed: int, sizes: Sizes, workdir: str):
        self.name = name
        self.spec = ENGINE_SPECS[name]
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.ids = gen.id_universe(seed, sizes.n_items)
        self._copies = 0
        self.prep_root = None
        self.prep_ranks = np.empty(0, dtype=np.int64)
        if self.spec.fleet == "durable":
            self._prepare_root()
        # Warm-up keys follow the timed stream's law but are all queried.
        _, ranks = self.stream("warm").take(WARM_UNITS * WINDOW)
        self.warm_keys = self.keys_of(ranks)
        prior = self.keys_of(self.prep_ranks)
        self.warm_expected = ms_answers(
            reference(self.spec.m),
            np.arange(len(prior) + len(ranks)) < len(prior),
            prior + self.warm_keys)[len(prior):]

    def stream(self, label: str = "ops") -> gen.ZipfStream:
        return gen.ZipfStream(self.seed, label, z=self.spec.z,
                              n_items=self.sizes.n_items,
                              insert_share=self.spec.insert_share)

    def keys_of(self, ranks: np.ndarray) -> list:
        if self.spec.string_keys:
            return gen.object_names(self.ids, ranks)
        return self.ids[ranks].tolist()

    def _fleet(self, root: str | None = None, fsync: object = FSYNC):
        spec = self.spec
        return ShardedSBF.create(spec.shards, spec.m, K, seed=FILTER_SEED,
                                 method="ms", backend="numpy",
                                 durable_root=root, fsync=fsync)

    def _prepare_root(self) -> None:
        """Write the uncheckpointed WAL that setup recovers (untimed).

        One record per insert, as serving traffic writes them; written
        without per-record fsync and synced once at the end, which leaves
        the same bytes on disk.
        """
        self.prep_root = os.path.join(self.workdir, "prep")
        _, self.prep_ranks = self.stream("prep").take(
            self.sizes.prep_inserts)
        router = self._fleet(self.prep_root, fsync="checkpoint")
        for key in self.keys_of(self.prep_ranks):
            router.insert(key)
        for shard in router.shards:
            shard.raw.close()

    # -- setup ---------------------------------------------------------------
    def prepare(self) -> str | None:
        """Untimed step before each build: a fresh copy of the prep root."""
        if self.prep_root is None:
            return None
        self._copies += 1
        root = os.path.join(self.workdir, f"fleet-{self._copies}")
        shutil.copytree(self.prep_root, root)
        return root

    def build(self, root: str | None) -> Stack:
        spec = self.spec
        if spec.fleet == "procpool":
            pool = ProcessShardPool(spec.shards, spec.m, K, seed=FILTER_SEED,
                                    method="ms", backend="numpy",
                                    hash_family="blocked")
            return Stack(pool.router, engine=ServingEngine(pool.router),
                         pool=pool)
        router = self._fleet(root)
        return Stack(router, engine=ServingEngine(router), root=root)

    def warm(self, stack: Stack) -> tuple[np.ndarray, float]:
        """Serve the warm-up queries through the engine, a window at a
        time; queries leave the filter as the build left it.  Returns
        their answers and the seconds the submit/drain loop took."""
        engine, keys = stack.engine, self.warm_keys
        futures = []
        t0 = time.perf_counter()
        for lo in range(0, len(keys), WINDOW):
            for key in keys[lo:lo + WINDOW]:
                futures.append(engine.submit("query", key))
            engine.drain()
        seconds = time.perf_counter() - t0
        return np.array([FAILED if f.exception() is not None else f.result()
                         for f in futures], dtype=np.int64), seconds

    def count_wrong(self, inserts, ranks, answers) -> int:
        """Wrong answers of a run that started from the prep state."""
        return count_wrong(reference(self.spec.m), inserts,
                           self.keys_of(ranks), answers,
                           self.keys_of(self.prep_ranks))

    def prior_counts(self) -> dict:
        ranks, counts = np.unique(self.prep_ranks, return_counts=True)
        return dict(zip(ranks.tolist(), counts.tolist()))

    # -- the timed run -------------------------------------------------------
    def run(self, seconds: float) -> dict:
        sizes = self.sizes
        with FsyncClock() as fsync:
            stack, setups, setup_walls, warm_wrong = measure_setups(
                self, sizes, fsync)
            try:
                bytes_before = tree_bytes(stack.root) if stack.root else 0
                run = drive_engine(stack, self.stream(), self.keys_of,
                                   seconds=seconds, min_ops=sizes.acc_ops,
                                   max_ops=sizes.max_ops,
                                   prefix_ops=sizes.acc_ops, fsync=fsync)
                inserts, ranks, answers = run.arrays()
                out = {"attempted": run.ops, "failed": run.failed,
                       "wrong_answers": warm_wrong + self.count_wrong(
                           inserts, ranks, answers)}
                acc = accuracy(inserts, ranks, answers, sizes.acc_ops,
                               self.prior_counts())
                if stack.root is not None:
                    acked = inserts & (answers != FAILED)
                    out["disk_bytes_per_op"] = (
                        tree_bytes(stack.root) - bytes_before) / max(
                            int(acked.sum()), 1)
                    reopen_s, lost = self._reopen_check(stack, ranks[acked])
                    out["reopen_s"] = reopen_s
                    out["wrong_answers"] += lost
                    out["lost_writes"] = lost
            finally:
                stack.close()
        bits = run.prefix_bits
        out.update(run.timing(setups))
        out.update({
            "query_rel_err": acc["query_rel_err"],
            "false_pos_rate": acc["false_pos_rate"],
            "bits_per_key": bits / acc["distinct_keys"] if bits else None,
            "detail": {**acc, "windows": run.ops // WINDOW,
                       "setup_samples_s": setups,
                       "setup_wall_samples_s": setup_walls,
                       "fsync_s": sum(run.windows.io)},
        })
        return out

    def _reopen_check(self, stack: Stack,
                      acked_ranks: np.ndarray) -> tuple[float, int]:
        """Re-open the durable root while the running handles are still
        open and unclosed (a crash leaves them so), then compare every
        acknowledged key with a reference filter holding every
        acknowledged insert.  Returns the re-open time and the number of
        keys whose recovered count differs (plus one if the recovered
        total count does)."""
        t0 = time.perf_counter()
        recovered = self._fleet(stack.root)
        reopen_s = time.perf_counter() - t0
        written = np.concatenate([self.prep_ranks, acked_ranks])
        ref = reference(self.spec.m)
        ref.insert_many(self.keys_of(written))
        keys = self.keys_of(np.unique(written))
        batcher = ShardBatcher(recovered)
        got = np.concatenate([
            np.asarray(batcher.query_many(keys[lo:lo + 8192]),
                       dtype=np.int64)
            for lo in range(0, len(keys), 8192)] or [np.empty(0, np.int64)])
        lost = int(np.count_nonzero(got != ref.query_many(keys)))
        total = sum(shard.total_count for shard in recovered.shards)
        lost += int(total != ref.total_count)
        Stack(recovered, root=stack.root).close()
        return reopen_s, lost

    # -- traced scope ----------------------------------------------------------
    def traced(self, tracer: Tracer | None) -> dict:
        """Run the first ``trace_ops`` ops on a fresh stack, under
        *tracer* when given; returns timing, correctness and (traced)
        the per-layer metrics."""
        n = self.sizes.trace_ops
        stack = self.build(self.prepare())
        try:
            warm, _ = self.warm(stack)
            registry = stack.router.metrics
            before = registry.snapshot()
            bytes_before = tree_bytes(stack.root) if stack.root else 0
            if tracer is None:
                run = drive_engine(stack, self.stream(), self.keys_of,
                                   seconds=0.0, min_ops=n, max_ops=n)
            else:
                with tracer:
                    run = drive_engine(stack, self.stream(), self.keys_of,
                                       seconds=0.0, min_ops=n, max_ops=n,
                                       tracer=tracer)
            after = registry.snapshot()
            wal_bytes = (tree_bytes(stack.root) - bytes_before
                         if stack.root else 0)
        finally:
            stack.close()
        inserts, ranks, answers = run.arrays()
        windows = run.windows
        out = {"ops": run.ops, "failed": run.failed,
               "seconds": sum(windows.ref_seconds(windows.factors())),
               "wrong_answers": self.count_wrong(inserts, ranks, answers)
               + int(np.count_nonzero(warm != self.warm_expected))}
        if tracer is not None:
            out["layers"] = layer_metrics(
                tracer, ops=run.ops, mutations=int(inserts.sum()),
                before=before, after=after, wal_bytes=wal_bytes)
        return out


def _timing(units: Units, factors: list[float], segment: int,
            latency_s: array, setups: list) -> dict:
    """The end-to-end timings of one run, at reference speed.

    *units* are the run's timed units of load (engine windows, bulk
    calls) and *factors* their wall-to-reference factors; throughput is
    the median over segments of *segment* units, so a slow phase in a
    minority of the run does not move it.  *latency_s* and *setups* are
    already at reference speed.  The wall-clock figures go to the run
    document's detail.
    """
    seconds = units.ref_seconds(factors)
    samples = latency_s.tolist()
    return {
        "throughput_ops_s": segmented_rate(units.acked, seconds, segment),
        "latency_p50_ms": 1e3 * statistics.median(samples),
        "latency_p99_ms": 1e3 * segmented_percentile(samples, 99,
                                                     LATENCY_SEGMENT),
        "latency_samples": len(samples),
        "timed_s": units.timed_s,
        "wall_throughput_ops_s": segmented_rate(units.acked, units.seconds,
                                                segment),
        "whole_run_ops_s": sum(units.acked) / units.timed_s,
        "host_speed": statistics.median(
            hostspeed.REF_PROBE_S / p for p in units.probe),
        "stolen_s": sum(units.stolen),
        "setup_s": statistics.median(setups),
        "setup_reps": len(setups),
    }


# -- bulk workload ---------------------------------------------------------------
class BulkWorkload:
    """``bulk-uniform``: the batcher's bulk path, bypassing the engine."""

    name = "bulk-uniform"

    def __init__(self, seed: int, sizes: Sizes):
        self.sizes = sizes
        self.inserts, self.queries = gen.bulk_keys(seed, sizes.bulk_keys)
        n_warm = WARM_UNITS * sizes.bulk_call
        self.warm_calls = [self.queries[lo:lo + sizes.bulk_call].tolist()
                           for lo in range(0, n_warm, sizes.bulk_call)]
        # The warm-up queries an empty fleet, so every answer is 0.
        self.warm_expected = np.zeros(n_warm, dtype=np.int64)

    def prepare(self) -> None:
        return None

    def warm(self, stack: Stack) -> tuple[np.ndarray, float]:
        """Serve the warm-up ``query_many`` calls; returns their answers
        (failures as ``FAILED``) and the seconds the calls took."""
        query_many, clock = stack.batcher.query_many, time.perf_counter
        answers: list = []
        seconds = 0.0
        for chunk in self.warm_calls:
            t0 = clock()
            values = query_many(chunk)
            seconds += clock() - t0
            answers += [FAILED if isinstance(v, BaseException) else v
                        for v in values]
        return np.array(answers, dtype=np.int64), seconds

    def build(self, _prepared=None) -> Stack:
        return Stack(ShardedSBF.create(4, self.sizes.bulk_m, K,
                                       seed=FILTER_SEED, method="ms",
                                       backend="numpy"))

    def one_pass(self, batcher, inserts, queries, calls: Units, *,
                 tracer: Tracer | None = None) -> tuple[np.ndarray, array]:
        """Insert every key, then query every key, in fixed-size calls.

        Each call is one unit of *calls*.  Returns the query answers
        (failures as ``FAILED``) and the indices in *calls* of the query
        calls.  Key lists are built outside the timing.
        """
        call, clock = self.sizes.bulk_call, time.perf_counter
        answers = np.empty(len(queries), dtype=np.int64)
        query_calls = array("q")
        for window, lo in enumerate(range(0, len(inserts), call)):
            chunk = inserts[lo:lo + call].tolist()
            if tracer is not None:
                tracer.window = window
            before = calls.counters()
            t0 = clock()
            result = batcher.insert_many(chunk)
            dt = clock() - t0
            calls.add(dt, len(chunk) - len(result.failures), before,
                      calls.counters())
        base = -(-len(inserts) // call)
        for window, lo in enumerate(range(0, len(queries), call), base):
            chunk = queries[lo:lo + call].tolist()
            if tracer is not None:
                tracer.window = window
            before = calls.counters()
            t0 = clock()
            values = batcher.query_many(chunk)
            dt = clock() - t0
            after = calls.counters()
            bad = [i for i, v in enumerate(values)
                   if isinstance(v, BaseException)]
            for i in bad:
                values[i] = FAILED
            query_calls.append(len(calls.seconds))
            calls.add(dt, len(chunk) - len(bad), before, after)
            answers[lo:lo + call] = values
        return answers, query_calls

    def run(self, seconds: float) -> dict:
        """Whole passes on fresh fleets until *seconds* of timed calls and
        enough query calls for a p99; throughput is the median pass's.

        Latency percentiles are over ``query_many`` calls: insert and
        query calls take different times, and a median over both would
        sit on the boundary between the two.
        """
        stack, setups, setup_walls, wrong = measure_setups(self, self.sizes)
        calls = Units()
        query_calls = array("q")
        keys = len(self.inserts) + len(self.queries)
        passes = 0
        bits = 0
        first = None
        while calls.timed_s < seconds \
                or len(query_calls) < 100 * MIN_TAIL:
            if passes:
                stack = self.build()
            answers, queried = self.one_pass(
                stack.batcher, self.inserts, self.queries, calls)
            query_calls.extend(queried)
            passes += 1
            if first is None:
                first = answers
                bits = stack.storage_bits()
            else:
                wrong += int(np.count_nonzero(answers != first))
        ref = reference(self.sizes.bulk_m)
        ref.insert_many(self.inserts)
        wrong += int(np.count_nonzero(first != ref.query_many(self.queries)))
        present = self.queries < (1 << gen.KEY_BITS)
        acked = sum(calls.acked)
        factors = calls.factors()
        durations = calls.ref_seconds(factors)
        latency = array("d", (durations[i] for i in query_calls))
        querying = set(query_calls)
        out = {"attempted": passes * keys, "failed": passes * keys - acked,
               "wrong_answers": wrong}
        out.update(_timing(calls, factors, len(durations) // passes,
                           latency, setups))
        out.update({
            "query_rel_err": float(np.mean(first[present] - 1)),
            "false_pos_rate": float(np.mean(first[~present] > 0)),
            "bits_per_key": bits / len(self.inserts),
            "detail": {"passes": passes, "keys_per_pass": keys,
                       "setup_samples_s": setups,
                       "setup_wall_samples_s": setup_walls,
                       "accuracy_ops": len(self.queries),
                       "insert_call_p50_ms": 1e3 * statistics.median(
                           s for i, s in enumerate(durations)
                           if i not in querying)},
        })
        return out

    def traced(self, tracer: Tracer | None) -> dict:
        """One pass over the first ``trace_keys`` inserts and queries."""
        n = self.sizes.trace_keys
        inserts, queries = self.inserts[:n], self.queries[:n]
        stack = self.build()
        warm, _ = self.warm(stack)
        registry = stack.router.metrics
        before = registry.snapshot()
        calls = Units()
        if tracer is None:
            answers, _ = self.one_pass(stack.batcher, inserts, queries,
                                       calls)
        else:
            with tracer:
                answers, _ = self.one_pass(stack.batcher, inserts, queries,
                                           calls, tracer=tracer)
        after = registry.snapshot()
        ref = reference(self.sizes.bulk_m)
        ref.insert_many(inserts)
        ops = len(inserts) + len(queries)
        out = {"ops": ops, "failed": ops - sum(calls.acked),
               "seconds": sum(calls.ref_seconds(calls.factors())),
               "wrong_answers": int(np.count_nonzero(
                   answers != ref.query_many(queries)))
               + int(np.count_nonzero(warm != self.warm_expected))}
        if tracer is not None:
            out["layers"] = layer_metrics(
                tracer, ops=out["ops"], mutations=len(inserts),
                before=before, after=after)
        return out


def make(name: str, seed: int, sizes: Sizes, workdir: str):
    if name == "bulk-uniform":
        return BulkWorkload(seed, sizes)
    return EngineWorkload(name, seed, sizes, workdir)
