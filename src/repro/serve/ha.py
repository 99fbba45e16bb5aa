"""High availability: replica sets, quorum reads, hinted handoff.

A :class:`~repro.serve.router.ShardedSBF` shard is a single point of
failure — one dead :class:`~repro.serve.remote.RemoteShard` blacks out
its whole keyspace.  :class:`ReplicaSet` removes it: a drop-in shard
handle that keeps ``rf`` replicas of the same logical shard and rides
the spectral filter's exact composition algebra (paper §3) to make the
classic Dynamo-style availability machinery *verifiable*:

- **writes fan out to every replica**.  An operation is acknowledged
  once ``write_consistency`` replicas applied it (:data:`ONE` by
  default); replicas that were down — or failed mid-write — receive the
  operation as a **hint** instead, an ordered queue drained verbatim
  when the replica returns.  With ``hint_dir`` the hint queue is a
  :class:`~repro.persist.wal.WriteAheadLog` on disk, so hints survive a
  coordinator restart (same record format, same torn-tail recovery);
- **reads consult a quorum** (:data:`ONE` / :data:`QUORUM` /
  :data:`ALL` via ``read_consistency``) of *fresh* replicas — up, no
  pending hints — and combine answers with ``max``.  Fresh replicas of
  an MS filter are bit-identical, so any quorum returns the one true
  estimate; the ``max`` combine keeps the one-sided guarantee (estimate
  >= truth) even mid-convergence.  Fewer fresh replicas than the quorum
  raises a typed :class:`Unavailable`;
- **one replica rule**: every replica call — point or bulk, write or
  read, local or remote — is one attempt judged one way: a refusal of
  the rules is the op's fault (never hinted), a deadline is slowness,
  anything else — a bulk call's lost slots too — is the replica failing.
  Point and bulk share one write and one read fan-out, settled per slot
  by one step, so a sick replica is treated alike on either path;
- **health tracking**: ``eject_after`` consecutive failed attempts
  eject a replica (stop paying its retry budget per operation); every
  ``probe_every`` operations the set probes ejected replicas with a
  cheap ``total_count`` call, drains their hints on success, and
  re-admits them **only after proving convergence** — the replica's
  total must equal a fresh peer's.  A replica that cannot be proven
  caught up (its disk lost writes, a hint was double-applied across a
  retry ambiguity) stays out with ``needs_repair`` until
  :meth:`ReplicaSet.repair` runs the anti-entropy pass
  (:mod:`repro.serve.repair`), which converges it counter-for-counter;
- **gray-failure defense** (:mod:`repro.serve.resilience`): ejection
  only catches replicas that *fail*; a replica that merely answers
  slowly passes every consecutive-failure check while dragging each
  operation to its deadline.  Each replica therefore carries a
  :class:`~repro.serve.resilience.CircuitBreaker` keyed on error rate
  *and* a latency EWMA; open breakers are skipped like down replicas
  and re-admitted through the same total-count convergence proof as
  ejection.  Reads prefer closed-breaker/low-latency replicas, **hedge**
  slow attempts onto spare candidates once a latency-percentile bound
  trips, and spend a per-set :class:`RetryBudget` so correlated
  slowness degrades to fast refusals instead of a retry storm.  The
  whole read/write path honours the caller's end-to-end
  :class:`~repro.serve.resilience.Deadline`
  (:func:`~repro.serve.resilience.deadline_scope`);
- **observability**: per-replica ``up`` / ``hint_depth`` /
  ``last_repair`` / ``breaker_state`` gauges
  (:meth:`MetricsRegistry.replica_gauges`) plus set-level counters
  (hinted, handoffs, ejections, re-admissions, unavailable, probes,
  repairs, breaker transitions, hedges, deadline refusals) — all in
  the one ``snapshot()``.

Why this converges: every acknowledged write applied to at least one
replica that stayed fresh, so the fresh replica with the largest
``total_count`` has applied *every* acknowledged write.  Using it as
the anti-entropy reference, a counter copy is exact recovery — not a
heuristic — because an MS filter's entire state is its counter vector.

:func:`replicated_fleet` wires a router where every shard is a replica
set — the HA serving topology the chaos tests and benchmarks exercise.
"""

from __future__ import annotations

import os.path
from collections import deque
from operator import attrgetter, methodcaller
from typing import Callable, Sequence

import numpy as np

from repro.core.sbf import (COUNT_ERRORS, SpectralBloomFilter, check_count,
                            check_counts)
from repro.handle import BulkFailure, BulkResult, ShardHandle
from repro.hashing.families import make_family
from repro.hashing.keys import check_key, check_keys
from repro.persist import ConcurrentSBF
from repro.persist.crashsim import FileIO
from repro.persist.wal import (
    BULK_OPS,
    OP_DELETE_MANY,
    OP_NAMES,
    ScanResult,
    WriteAheadLog,
    replay,
)
from repro.serve.metrics import MetricsRegistry
from repro.serve.repair import DEFAULT_REPAIR_BLOCKS, RepairReport, \
    repair_replicas
from repro.serve.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    LatencyTracker,
    RetryBudget,
    current_deadline,
    deadline_scope,
)
from repro.serve.router import ShardedSBF, _check_blocked

#: consistency levels: how many replicas must answer/apply
ONE = "one"
QUORUM = "quorum"
ALL = "all"

#: the one replica rule's verdicts on an attempt (see :func:`_judge`)
_OK, _REFUSED, _SLOW, _FAILED = range(4)
_TOTAL_COUNT = attrgetter("total_count")    # built once, not per read


def _judge(exc: Exception) -> int:
    """The one replica rule.  A refusal of the rules
    (:data:`~repro.core.sbf.COUNT_ERRORS`, also as a remote replica
    rebuilds it) is the op's fault: the replica answered.  A
    :class:`~repro.serve.resilience.DeadlineExceeded` is slowness, the
    breaker's and never the ejection counter's.  Anything else — a lost
    frame, a lock timeout, a server's ``RemoteShardError``, a disk's
    ``OSError`` — means this replica, local or remote, is failing now."""
    if isinstance(exc, COUNT_ERRORS):
        return _REFUSED
    if isinstance(exc, DeadlineExceeded):
        return _SLOW
    return _FAILED


def _lost(result: BulkResult, refused: dict | None) -> list:
    """The slots a bulk attempt lost; its refusals settle their slots in
    *refused* instead (``None``: a stale replica, whose refusals are its
    own misses)."""
    lost = []
    for failure in result.failures:
        if refused is not None and isinstance(failure.error, COUNT_ERRORS):
            refused.setdefault(failure.index, failure.error)
        else:
            lost.append(failure.index)
    return lost


def _short(n: int, needed: int, landed: int, partial: list,
           refused: dict) -> list:
    """``(slot, replicas that covered it)`` for each unrefused slot short
    of *needed*: *landed* replicas covered every slot, and each *partial*
    entry lists the slots one more replica lost."""
    if landed >= needed:
        return []
    if not partial:
        return [(slot, landed) for slot in range(n) if slot not in refused]
    got = np.full(n, landed + len(partial), dtype=np.int64)
    for lost in partial:
        got[lost] -= 1
    return [(slot, int(got[slot]))
            for slot in np.flatnonzero(got < needed).tolist()
            if slot not in refused]


def _total_of(handle) -> int | None:
    """A replica's total count, or ``None`` when the one rule says it is
    failing or slow: the reachability check of probes and of repair's
    reference (a refusal propagates; a total has nothing to refuse)."""
    try:
        return handle.total_count
    except Exception as exc:
        if _judge(exc) == _REFUSED:
            raise
        return None


def required_replicas(level: str, rf: int) -> int:
    """Replicas a consistency *level* requires out of *rf*."""
    if level == ONE:
        return 1
    if level == QUORUM:
        return rf // 2 + 1
    if level == ALL:
        return rf
    raise ValueError(
        f"consistency must be {ONE!r}, {QUORUM!r}, or {ALL!r}, "
        f"got {level!r}")


class Unavailable(RuntimeError):
    """Too few healthy replicas to satisfy the consistency level.

    Attributes:
        needed: replicas the consistency level required.
        got: replicas that actually answered/applied.
    """

    def __init__(self, message: str, needed: int, got: int):
        super().__init__(message)
        self.needed = needed
        self.got = got


class HintLog:
    """Ordered queue of operations a down replica missed.

    In-memory by default; with *path* every hint is also appended to a
    :class:`~repro.persist.wal.WriteAheadLog` (and recovered from it on
    construction), so an acknowledged-but-not-yet-handed-off write
    survives a coordinator crash.  Handoff replays hints in arrival
    order — per-replica order equals acknowledgement order, which is
    what makes replaying ``set`` operations safe.  The log keeps the
    WAL's default ``fsync="always"``: a hint stands in for an
    acknowledged write.
    """

    def __init__(self, path: str | None = None, *,
                 io: FileIO | None = None):
        self._pending: deque[tuple[str, object, int]] = deque()
        self._wal: WriteAheadLog | None = None
        self._path = path
        self._io: FileIO | None = None
        if path is not None:
            io = io or FileIO()
            self._io = io
            # A crash mid-resync can strand a half-built replacement
            # queue; the main log stayed authoritative (the rename never
            # happened), so the stranded file is dead weight.
            if io.exists(path + ".new"):
                io.remove(path + ".new")
            records, scan = replay(path, io=io)
            for record in records:
                if record.op in BULK_OPS:
                    verb = "delete" if record.op == OP_DELETE_MANY \
                        else "insert"
                    self._pending.extend(
                        (verb, key, count)
                        for key, count in zip(record.key, record.count))
                else:
                    self._pending.append(
                        (OP_NAMES[record.op], record.key, record.count))
            self._wal = WriteAheadLog(path, io=io, scan=scan)

    def __len__(self) -> int:
        return len(self._pending)

    def append(self, verb: str, key: object, count: int) -> None:
        """Queue one missed operation (*verb* is insert/delete/set)."""
        if self._wal is not None:
            getattr(self._wal, f"log_{verb}")(key, count)
        self._pending.append((verb, key, count))

    def append_many(self, verb: str, keys: Sequence[object],
                    counts: Sequence[int]) -> None:
        """Queue a missed bulk batch as one WAL record (one fsync)."""
        if self._wal is not None:
            log = self._wal.log_delete_many if verb == "delete" \
                else self._wal.log_insert_many
            log(list(keys), list(counts))
        self._pending.extend(
            (verb, key, count) for key, count in zip(keys, counts))

    def drain(self, apply: Callable[[str, object, int], None]) -> int:
        """Hand queued hints to *apply* in order; returns how many landed.

        Stops at the first failing hint (which stays queued, along with
        everything after it) — a replica that dies mid-handoff resumes
        where it left off on the next probe.
        """
        applied = 0
        try:
            while self._pending:
                verb, key, count = self._pending[0]
                apply(verb, key, count)
                self._pending.popleft()
                applied += 1
        finally:
            if applied and self._wal is not None:
                self._resync_wal()
        return applied

    def clear(self) -> None:
        """Drop every queued hint (their effects were repaired in bulk)."""
        self._pending.clear()
        if self._wal is not None:
            self._wal.reset()

    def _resync_wal(self) -> None:
        """Rewrite the on-disk queue to match what is still pending.

        Crash-atomic: the replacement queue is built at ``<path>.new``
        and renamed over the log in one step.  A crash at any byte /
        fsync / rename leaves either the old log — a *superset* whose
        already-drained prefix re-applies on restart, the at-least-once
        side the convergence proof flags and :meth:`ReplicaSet.repair`
        converges — or the new log, exactly the still-pending hints.
        Truncate-in-place (the old implementation) had a window where a
        crash lost pending hints outright; the crash tests in
        ``tests/test_ha.py`` sweep every kill point to prove this one
        does not.  The reopened appender continues from what the
        replacement wrote, so a drain never reads the queue back.
        """
        tmp = self._path + ".new"
        if self._io.exists(tmp):
            self._io.remove(tmp)
        replacement = WriteAheadLog(tmp, io=self._io)
        try:
            for verb, key, count in self._pending:
                getattr(replacement, f"log_{verb}")(key, count)
        finally:
            replacement.close()
        scan = ScanResult(last_seq=replacement.last_seq,
                          records=replacement.appends,
                          good_end=self._io.file_size(tmp), reason=None)
        self._wal.close()
        self._io.replace(tmp, self._path)
        self._wal = WriteAheadLog(self._path, io=self._io, scan=scan)

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()


class _Replica:
    """One replica's handle plus its health state."""

    __slots__ = ("handle", "name", "up", "failures", "needs_repair",
                 "hints", "gauges", "breaker")

    def __init__(self, handle, name: str, hints: HintLog, gauges,
                 breaker: CircuitBreaker):
        self.handle = handle
        self.name = name
        self.up = True
        self.failures = 0          # consecutive failed attempts
        self.needs_repair = False
        self.hints = hints
        self.gauges = gauges
        self.breaker = breaker


class ReplicaSet(ShardHandle):
    """``rf`` replicas of one logical shard behind the shard-handle protocol.

    Drop-in wherever a shard handle goes — a
    :class:`~repro.serve.router.ShardedSBF` shard list, under the
    batcher, inside the engine.  Replicas are any mix of local handles
    (:class:`~repro.persist.ConcurrentSBF`) and
    :class:`~repro.serve.remote.RemoteShard` adapters.

    Args:
        replicas: the replica handles (``rf = len(replicas)``).
        name: the set's metrics namespace (``ha.<name>.*``).
        names: per-replica names (default ``r0..r{rf-1}``).
        read_consistency: :data:`ONE` / :data:`QUORUM` / :data:`ALL` —
            fresh replicas a read must reach.
        write_consistency: replicas a write must apply to before it is
            acknowledged (missed replicas get hints either way).
        eject_after: consecutive failed attempts (the one rule's
            failures, not refusals or slowness) before a replica is
            ejected from the write/read paths.
        probe_every: operations between automatic probes of ejected
            replicas (:meth:`tick` probes on demand).
        hint_dir: directory for durable hint logs (one WAL per replica,
            every append fsynced); ``None`` keeps hints in memory only.
        io: filesystem layer for durable hints (crash simulator in tests).
        metrics: registry to report through (one is created if omitted).
        breaker: per-replica :class:`~repro.serve.resilience.
            CircuitBreaker` options (a dict of its keyword arguments).
            The defaults key on error rate only; pass
            ``{"latency_threshold": ...}`` to arm the gray-failure trip
            that ejects a slow-but-alive replica.
        hedge: hedged-read trigger — ``None`` disables hedging; a float
            is a fixed per-attempt bound in seconds; ``"p95"``-style
            strings bound each attempt at twice that percentile of
            recent attempt latencies (an attempt exactly at the
            percentile must not be abandoned).  An attempt that exceeds
            its bound is abandoned and the read fires against a spare
            replica instead — the straggler never holds the quorum.
        retry_budget: a :class:`~repro.serve.resilience.RetryBudget`, a
            dict of its keyword arguments, or ``None`` for the defaults.
            Read attempts (point or bulk) beyond the consistency level's
            quorum are retries and spend from it; successes earn back.
            Shared with other sets by passing the same instance.
    """

    def __init__(self, replicas: Sequence[object], *, name: str = "rs",
                 names: Sequence[str] | None = None,
                 read_consistency: str = QUORUM,
                 write_consistency: str = ONE,
                 eject_after: int = 3, probe_every: int = 64,
                 hint_dir: str | None = None,
                 io: FileIO | None = None,
                 metrics: MetricsRegistry | None = None,
                 breaker: dict | None = None,
                 hedge: float | str | None = None,
                 retry_budget: RetryBudget | dict | None = None):
        replicas = list(replicas)
        if not replicas:
            raise ValueError("a ReplicaSet needs at least one replica")
        if eject_after < 1:
            raise ValueError(f"eject_after must be >= 1, got {eject_after}")
        if probe_every < 1:
            raise ValueError(f"probe_every must be >= 1, got {probe_every}")
        rf = len(replicas)
        self.name = name
        self.rf = rf
        self.read_consistency = read_consistency
        self.write_consistency = write_consistency
        self._read_needed = required_replicas(read_consistency, rf)
        self._write_needed = required_replicas(write_consistency, rf)
        self.eject_after = int(eject_after)
        self.probe_every = int(probe_every)
        self.metrics = metrics or MetricsRegistry()
        if names is None:
            names = [f"r{i}" for i in range(rf)]
        elif len(names) != rf:
            raise ValueError(f"got {rf} replicas but {len(names)} names")
        self._hedge_seconds: float | None = None
        self._hedge_quantile: float | None = None
        if hedge is not None:
            if isinstance(hedge, str):
                if not hedge.startswith("p"):
                    raise ValueError(
                        f"hedge must be seconds, a percentile like "
                        f"'p95', or None; got {hedge!r}")
                quantile = float(hedge[1:]) / 100.0
                if not 0.0 < quantile < 1.0:
                    raise ValueError(
                        f"hedge percentile must be in (0, 100), "
                        f"got {hedge!r}")
                self._hedge_quantile = quantile
            else:
                if hedge <= 0:
                    raise ValueError(
                        f"hedge seconds must be > 0, got {hedge}")
                self._hedge_seconds = float(hedge)
        self._latencies = LatencyTracker()
        if retry_budget is None:
            retry_budget = RetryBudget()
        elif isinstance(retry_budget, dict):
            retry_budget = RetryBudget(**retry_budget)
        self.retry_budget = retry_budget
        self._breaker_options = dict(breaker or {})
        self._breaker_options.setdefault("clock", self.metrics.clock)
        self._replicas: list[_Replica] = []
        for handle, rname in zip(replicas, names):
            path = None
            if hint_dir is not None:
                path = os.path.join(hint_dir, f"{name}-{rname}.hints")
            gauges = self.metrics.replica_gauges(name, rname)
            gauges.up.set(1.0)
            hints = HintLog(path, io=io)
            replica = _Replica(handle, rname, hints, gauges,
                               self._make_breaker(gauges))
            gauges.hint_depth.set(len(hints))
            self._replicas.append(replica)
        self._ops = 0
        self._last_probe = 0

    def _make_breaker(self, gauges) -> CircuitBreaker:
        breaker = CircuitBreaker(**self._breaker_options)

        def on_transition(old: str, new: str) -> None:
            gauges.breaker_state.set(breaker.state_code())
            if new == OPEN:
                self._counter("breaker_opens").inc()
            elif new == HALF_OPEN:
                self._counter("breaker_half_opens").inc()
            else:
                self._counter("breaker_closes").inc()

        breaker.on_transition = on_transition
        return breaker

    # -- introspection -----------------------------------------------------
    @property
    def replicas(self) -> tuple:
        """The replica handles, by replica index (read-only view)."""
        return tuple(r.handle for r in self._replicas)

    def health(self) -> list[dict]:
        """Per-replica health, one dict each (scrape-friendly)."""
        return [{"replica": r.name, "up": r.up,
                 "needs_repair": r.needs_repair,
                 "consecutive_failures": r.failures,
                 "hint_depth": len(r.hints),
                 "breaker": r.breaker.state,
                 "latency_ewma": r.breaker.latency_ewma}
                for r in self._replicas]

    def local_filter(self) -> SpectralBloomFilter | None:
        """The first local replica's in-memory filter (routing/compat
        introspection); ``None`` when every replica is remote."""
        for replica in self._replicas:
            sbf = replica.handle.local_filter()
            if sbf is not None:
                return sbf
        return None

    # -- internal plumbing -------------------------------------------------
    def _counter(self, event: str):
        return self.metrics.counter(f"ha.{self.name}.{event}")

    def _fresh(self, replica: _Replica) -> bool:
        return replica.up and not replica.needs_repair \
            and not len(replica.hints)

    def _attempt(self, replica: _Replica, call: Callable[[object], object],
                 deadline: Deadline | None, point: bool) -> tuple:
        """Run *call* on one replica's handle under *deadline*, judge it
        by the one rule (:func:`_judge`) and do the breaker, ejection and
        latency bookkeeping, once for every path.  Only point attempts
        feed the latency tracker (a bulk call's latency is not one op's).
        A bulk call that lost slots for a non-refusal reason failed, as
        the point call would have by raising: it is judged by the first
        such slot's error, and its landed slots still count.  Returns
        ``(verdict, value)``: the call's return value (a bulk result even
        when judged failed), else the refusal it raised, else ``None``.
        """
        clock = self.metrics.clock
        start = clock()
        try:
            if deadline is None:
                value = call(replica.handle)
            else:
                with deadline_scope(deadline):
                    value = call(replica.handle)
        except Exception as exc:
            verdict = _judge(exc)
            value = exc if verdict == _REFUSED else None
        else:
            verdict = _OK
            for failure in () if point else value.failures:
                if not isinstance(failure.error, COUNT_ERRORS):
                    verdict = _judge(failure.error)
                    break
        latency = clock() - start
        if verdict == _FAILED:
            replica.failures += 1
            if replica.up and replica.failures >= self.eject_after:
                replica.up = False
                replica.gauges.up.set(0.0)
                self._counter("ejections").inc()
            replica.breaker.record_failure(latency)
        elif verdict == _SLOW:
            replica.breaker.record_failure(latency)
            if point:
                self._latencies.observe(latency)
        else:
            replica.failures = 0
            replica.breaker.record_success(latency)
            if point and verdict == _OK:
                self._latencies.observe(latency)
        return verdict, value

    def _attempt_deadline(self, op_deadline: Deadline | None,
                          hedged: bool) -> Deadline | None:
        """The deadline one replica attempt runs under: the request's,
        tightened when *hedged* by the hedge bound — fixed seconds, or
        twice the latency percentile once the window has warmed up."""
        bound = self._hedge_seconds if hedged else None
        if hedged and self._hedge_quantile is not None:
            quantile = self._latencies.quantile(self._hedge_quantile)
            bound = None if quantile is None else quantile * 2.0
        if bound is None:
            return op_deadline
        if op_deadline is None:
            return Deadline(bound, clock=self.metrics.clock,
                            label=f"ha.{self.name} attempt")
        return op_deadline.bounded(bound)

    def _refuse_expired(self, deadline: Deadline, what: str) -> None:
        """Refuse a request whose deadline has already passed, before any
        replica is sent anything (unexecuted, no op counted)."""
        if deadline.remaining() <= 0.0:
            self._counter("deadline_refusals").inc()
            deadline.check(what, unexecuted=True)

    def _settle(self, what: str, keys, point: bool, needed: int,
                landed: int, partial: list, refused: dict,
                deadline: Deadline | None, detail: str = "") -> list:
        """The one per-slot settlement, write or read (skipped when every
        replica covered every slot).  A refused slot fails non-retryably;
        a slot short of *needed* fails with :class:`Unavailable`, or with
        the request's ``DeadlineExceeded`` once it ran out, and counts
        once.  Returns the failures in slot order."""
        n = 1 if point else len(keys)
        short = _short(n, needed, landed, partial, refused)
        failures = [BulkFailure(slot, keys if point else keys[slot], error,
                                retryable=False)
                    for slot, error in refused.items()]
        if short:
            expired = deadline is not None and deadline.remaining() <= 0.0
            self._counter("deadline_refusals" if expired
                          else "unavailable").inc(len(short))
        for slot, got in short:
            key = keys if point else keys[slot]
            subject = what if what == "total_count" else f"{what} {key!r}"
            error = Unavailable(
                f"{subject}: {got} of the required {needed} replica(s) "
                f"took it{detail}", needed=needed, got=got)
            if expired:
                try:
                    deadline.check(subject)
                except DeadlineExceeded as exc:
                    error = exc
            failures.append(BulkFailure(slot, key, error, retryable=True))
        if len(failures) > 1:
            failures.sort(key=attrgetter("index"))
        return failures

    def _ordered(self, pool: list[_Replica]) -> list[_Replica]:
        """Healthy-first attempt order: closed breakers before probing
        ones, then by latency EWMA — the straggler is consulted last,
        where its cost can be hedged away (stable, so equally-healthy
        replicas keep their configured order)."""
        return sorted(pool, key=lambda r: (r.breaker.state != CLOSED,
                                           r.breaker.latency_ewma or 0.0))

    def _bump(self, n: int = 1) -> None:
        """Count *n* operations toward the probe cadence.  The cadence
        check is separate (:meth:`_maybe_tick`) and MUST run only after
        the current operation's hints are queued — a probe between apply
        and hint would see the recovering replica one op behind its peer
        and wrongly fail the convergence proof."""
        self._ops += n

    def _maybe_tick(self) -> None:
        if self._ops - self._last_probe >= self.probe_every:
            self.tick()

    # -- the write path ----------------------------------------------------
    def insert(self, key: object, count: int = 1) -> None:
        self._write("insert", key, count)

    def delete(self, key: object, count: int = 1) -> None:
        self._write("delete", key, count)

    def set(self, key: object, count: int) -> None:
        self._write("set", key, count)

    def insert_many(self, keys: Sequence[object],
                    counts: Sequence[int] | None = None, *,
                    timeout: float | None = None) -> BulkResult:
        return self._bulk_write("insert", keys, counts)

    def delete_many(self, keys: Sequence[object],
                    counts: Sequence[int] | None = None, *,
                    timeout: float | None = None) -> BulkResult:
        return self._bulk_write("delete", keys, counts)

    def _write(self, verb: str, key: object, count: int) -> None:
        key, count = check_key(key), check_count(count)  # before fan-out
        failures = self._fan_write(verb, key, count, True)
        if failures:
            raise failures[0].error

    def _bulk_write(self, verb: str, keys: Sequence[object],
                    counts: Sequence[int] | None) -> BulkResult:
        keys = check_keys(keys)
        counts = check_counts(counts, len(keys)).tolist()
        return BulkResult(len(keys), None,
                          self._fan_write(verb, keys, counts, False))

    def _fan_write(self, verb: str, keys, counts, point: bool) -> list:
        """The one write fan-out: the skip rule, one :meth:`_attempt` per
        replica, the shared per-slot settlement (:meth:`_settle`), then
        hints.  A point write is a batch of one (*keys*, *counts* are its
        key and count); *point* chooses only the hedge on stragglers,
        whether attempts feed the latency tracker and the hint record's
        form.  Returns the failed slots in order."""
        n = 1 if point else len(keys)
        what = verb if point else f"{verb}_many"
        call = methodcaller(what, keys, counts)
        op_deadline = current_deadline()
        if op_deadline is not None:
            self._refuse_expired(op_deadline, what)
        needed = self._write_needed
        landed = 0                       # replicas that applied every slot
        refused: dict[int, Exception] = {}
        missed: list[tuple] = []         # (replica, lost slots; None: all)
        for replica in self._ordered(self._replicas):
            if not replica.up or not replica.breaker.allow() or (
                    op_deadline is not None
                    and op_deadline.remaining() <= 0.0):
                # Down, breaker-open (slow-but-alive) or out of time: shed
                # from the fan-out, and hinted if the write acknowledges.
                missed.append((replica, None))
                continue
            # Only a fresh replica's refusal is the op's (a delete below
            # zero, a total past int64: the slots fail, never hinted).  One
            # owed hints may refuse for want of them (a delete of a key its
            # queue still inserts): its own miss, hinted behind its queue.
            fresh = self._fresh(replica)
            # Past the ack quota a point write's stragglers are hedged, so
            # one slow replica never prices every write.
            attempt = self._attempt_deadline(op_deadline,
                                             point and landed >= needed)
            verdict, value = self._attempt(replica, call, attempt, point)
            if verdict == _REFUSED and fresh:
                for slot in range(n):
                    refused.setdefault(slot, value)
                continue
            if verdict == _SLOW:
                self._counter("write_abandons").inc()
            if verdict != _OK and not isinstance(value, BulkResult):
                missed.append((replica, None))       # raised: lost it all
                continue
            lost = () if point else _lost(value, refused if fresh else None)
            if lost:
                missed.append((replica, lost))
            else:
                landed += 1
        self._bump(n)
        failures = [] if landed >= needed and not refused else self._settle(
            verb, keys, point, needed, landed,
            [lost for _, lost in missed if lost is not None], refused,
            op_deadline)
        # Only acknowledged slots are hinted: an unacknowledged write is
        # the client's to retry, and hinting it would make replicas
        # remember an operation the client was told failed.  (A hinted
        # deadline abandon may double-apply — the send was in flight when
        # the clock ran out — which is exactly the retry ambiguity the
        # convergence proof flags and repair() converges.)
        failed = {failure.index for failure in failures}
        for replica, lost in missed:
            slots = [slot for slot in (range(n) if lost is None else lost)
                     if slot not in failed]
            if not slots:
                continue
            if point:
                replica.hints.append(verb, keys, counts)
            else:
                replica.hints.append_many(verb, [keys[s] for s in slots],
                                          [counts[s] for s in slots])
            replica.gauges.hint_depth.set(len(replica.hints))
            self._counter("hinted").inc(len(slots))
        self._maybe_tick()
        return failures

    # -- the read path -----------------------------------------------------
    def query(self, key: object) -> int:
        return self._fan_read("query", check_key(key), True)

    @property
    def total_count(self) -> int:
        return self._fan_read("total_count", None, True)

    def query_many(self, keys: Sequence[object], *,
                   timeout: float | None = None) -> BulkResult:
        """Quorum estimates for a key batch; raises only when no slot
        answered, so a one-key batch raises what :meth:`query` raises."""
        return self._fan_read("query_many", check_keys(keys), False)

    def _fan_read(self, what: str, keys, point: bool):
        """The one read fan-out: fresh, breaker-admitted replicas,
        healthiest first, until each slot has its quorum or a refusal,
        then the shared settlement.  A point read is a batch of one (*keys*
        is its key) that alone hedges, feeds the tracker, answers a value."""
        n = 1 if point else len(keys)
        call = _TOTAL_COUNT if what == "total_count" \
            else methodcaller(what, keys)
        op_deadline = current_deadline()
        if op_deadline is not None:
            self._refuse_expired(op_deadline, what)
        needed = self._read_needed
        candidates = self._ordered(
            [r for r in self._replicas
             if self._fresh(r) and r.breaker.allow()])
        answers: list = []               # point: values; bulk: results
        partial: list[list[int]] = []    # slots each partial answer lost
        refused: dict[int, Exception] = {}
        landed = attempts = 0            # replicas that answered every slot
        detail = ""
        for position, replica in enumerate(candidates):
            # Done once every slot has its quorum or a refusal (a healthy
            # read stops as its quorum lands, below, never listing slots).
            if (refused or partial or not n) \
                    and not _short(n, needed, landed, partial, refused):
                break
            if op_deadline is not None and op_deadline.remaining() <= 0.0:
                break
            # The first `needed` attempts are the quorum's own; every
            # attempt beyond them exists because something failed or
            # stalled — that is a retry, and retries spend budget.
            if attempts >= needed and not self.retry_budget.try_spend():
                self._counter("budget_refusals").inc()
                detail = " (retry budget empty)"
                break
            # Hedge only while spare candidates remain: abandoning the
            # last possible answer would trade a slow success for none.
            spares = len(candidates) - position - 1
            attempts += 1
            attempt = self._attempt_deadline(
                op_deadline, point and spares >= needed - landed)
            verdict, value = self._attempt(replica, call, attempt, point)
            if verdict == _OK:
                self.retry_budget.earn()
            elif verdict == _REFUSED:
                self.retry_budget.earn()     # it answered, with a refusal
                for slot in range(n):
                    refused.setdefault(slot, value)
                continue
            elif verdict == _SLOW and (op_deadline is None
                                       or op_deadline.remaining() > 0.0):
                self._counter("hedges").inc()    # re-fired on a spare
            if value is None:
                continue
            if not point and (lost := _lost(value, refused)):
                partial.append(lost)
            else:
                landed += 1
            answers.append(value)
            if landed >= needed:
                break
        self._bump(n)
        failures = [] if landed >= needed and not refused else self._settle(
            what, keys, point, needed, landed, partial, refused, op_deadline,
            detail)
        self._maybe_tick()
        if failures and len(failures) == n:      # no slot answered
            raise failures[0].error
        # max keeps the one-sided guarantee: every answer is >= the true
        # count, so the largest is too (and fresh replicas agree anyway).
        if point:
            return max(answers)
        best = np.zeros(n, dtype=np.int64)
        for result in answers:              # a failed slot holds no answer
            values = result.values.copy()
            values[[failure.index for failure in result.failures]] = 0
            np.maximum(best, values, out=best)
        best[[failure.index for failure in failures]] = 0
        return BulkResult(n, best, failures)

    # -- health: probes, handoff, re-admission -----------------------------
    def tick(self) -> int:
        """Probe every unhealthy replica once; returns how many rejoined.

        Unhealthy means ejected, flagged for repair, up with pending
        hints (a transient write failure, or durable hints recovered
        after a coordinator restart), or up with a non-closed circuit
        breaker (a slow-but-alive replica the latency trip shed) —
        handoff must not wait for an ejection.  Called automatically
        every ``probe_every`` operations and by the engine's maintenance
        hook — call it directly after healing a partition to re-admit
        replicas without waiting for traffic.
        """
        self._last_probe = self._ops
        rejoined = 0
        for replica in self._replicas:
            if replica.up and self._fresh(replica) \
                    and replica.breaker.state == CLOSED:
                continue
            was_down = not replica.up
            if self._probe(replica) and was_down:
                rejoined += 1
        return rejoined

    def _probe(self, replica: _Replica) -> bool:
        """One probe of an unhealthy replica: reachability, handoff,
        proof of convergence, (re-)admission — in that order.

        The breaker gates the probe (an open breaker sheds probes too,
        until ``reset_timeout`` passes and it half-opens) and judges the
        probe's own reachability latency: a replica that converged but
        still answers slowly re-opens and stays out.
        """
        if not replica.breaker.allow():
            return False
        self._counter("probes").inc()
        handle = replica.handle
        clock = self.metrics.clock
        start = clock()
        if _total_of(handle) is None:
            # Unreachable: the ejection machinery owns dead replicas.
            # Probe outcomes stay out of the breaker window — it is a
            # traffic-path instrument, and letting failed probes trip it
            # would wall off re-admission behind the reset timeout.
            return False
        reach_latency = clock() - start
        try:
            landed = replica.hints.drain(
                lambda verb, key, count:
                getattr(handle, verb)(key, count))
        except Exception:
            # Died mid-handoff: undrained hints (and the failing one)
            # stay queued for the next probe.
            replica.gauges.hint_depth.set(len(replica.hints))
            return False
        replica.gauges.hint_depth.set(len(replica.hints))
        if landed:
            self._counter("handoffs").inc(landed)
        # Re-admission requires *proof* of convergence: the replica's
        # total must match a fresh peer's.  (Exact, not probabilistic —
        # every acknowledged op moved the fresh peer's total.)  A replica
        # that cannot be proven converged stays out for repair().
        peer = next((r for r in self._replicas
                     if r is not replica and self._fresh(r)), None)
        if peer is not None:
            total = _total_of(handle)
            peer_total = None if total is None else _total_of(peer.handle)
            if peer_total is None:
                return False
            if total != peer_total:
                replica.needs_repair = True
                return False
        # A half-open breaker closes on a fast probe and re-opens on a
        # slow one (judged on this probe's latency, not the sick EWMA).
        replica.breaker.record_success(reach_latency)
        if replica.breaker.state != CLOSED:
            return False
        was_down = not replica.up
        replica.up = True
        replica.failures = 0
        replica.needs_repair = False
        replica.gauges.up.set(1.0)
        if was_down:
            self._counter("readmissions").inc()
        return True

    def repair(self, *, n_blocks: int = DEFAULT_REPAIR_BLOCKS,
               ) -> RepairReport:
        """Run one anti-entropy pass over the replicas and re-admit
        every replica the pass converged (see :mod:`repro.serve.repair`).

        The reference is the fresh replica with the largest total count
        — the one that saw every acknowledged write.  Repaired replicas
        have their hint queues cleared (the counter copy subsumes them)
        and their ``last_repair`` gauge stamped from the registry clock.
        """
        reference = None
        best = -1
        for idx, replica in enumerate(self._replicas):
            if not self._fresh(replica):
                continue
            total = _total_of(replica.handle)
            if total is not None and total > best:
                reference, best = idx, total
        report = repair_replicas([r.handle for r in self._replicas],
                                 n_blocks=n_blocks, reference=reference)
        now = self.metrics.clock()
        touched = {report.reference, *report.scanned}
        for idx, replica in enumerate(self._replicas):
            if idx not in touched:
                continue
            replica.hints.clear()
            replica.gauges.hint_depth.set(0)
            replica.needs_repair = False
            replica.failures = 0
            if not replica.up:
                replica.up = True
                replica.gauges.up.set(1.0)
                self._counter("readmissions").inc()
            replica.gauges.last_repair.set(now)
        self._counter("repairs").inc()
        return report

    # -- lifecycle -----------------------------------------------------------
    def checkpoint(self) -> list:
        """Checkpoint every up replica; returns their results in replica
        order (``None`` for an ejected replica or a failed checkpoint)."""
        results = []
        for replica in self._replicas:
            try:
                results.append(replica.handle.checkpoint()
                               if replica.up else None)
            except Exception:
                results.append(None)
        return results

    def close(self) -> None:
        """Release durable hint logs (replica handles stay open)."""
        for replica in self._replicas:
            replica.hints.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        up = sum(r.up for r in self._replicas)
        return (f"ReplicaSet({self.name!r}, rf={self.rf}, up={up}, "
                f"read={self.read_consistency!r}, "
                f"write={self.write_consistency!r})")


def replicated_fleet(n_shards: int, m: int, k: int, *, rf: int = 3,
                     seed: int = 0, method: object = "ms",
                     backend: object = "array",
                     hash_family: object = "blocked",
                     read_consistency: str = QUORUM,
                     write_consistency: str = ONE,
                     eject_after: int = 3, probe_every: int = 64,
                     hint_dir: str | None = None, timeout: float = 5.0,
                     replica_factory: Callable[[int, int], object]
                     | None = None,
                     metrics: MetricsRegistry | None = None,
                     breaker: dict | None = None,
                     hedge: float | str | None = None,
                     retry_budget: RetryBudget | dict | None = None,
                     ) -> ShardedSBF:
    """A router whose every shard is an ``rf``-way :class:`ReplicaSet`.

    The HA serving topology in one call: ``n_shards`` logical shards,
    each replicated ``rf`` ways, behind the usual
    :class:`~repro.serve.router.ShardedSBF` routing.  A fleet routes by
    block, so *hash_family* must be blocked (the default); any other is
    refused before a replica or hint log exists.  *replica_factory* builds
    replica ``r`` of shard ``s`` — return a
    :class:`~repro.serve.remote.RemoteShard` to place replicas behind
    the wire; the default builds local
    :class:`~repro.persist.ConcurrentSBF` handles.

    The gray-failure defenses pass straight through: *breaker* (a dict
    of :class:`~repro.serve.resilience.CircuitBreaker` options) and
    *hedge* apply to every replica set; *retry_budget* given as a dict
    builds one bucket per set, while a :class:`RetryBudget` instance is
    shared fleet-wide (one global cap on retry amplification).
    """
    if rf < 1:
        raise ValueError(f"rf must be >= 1, got {rf}")
    # The router gets its family explicitly: a factory may have placed
    # every replica behind the wire, leaving no local filter to read.
    family = make_family(hash_family, m, k, seed)
    _check_blocked(family)
    metrics = metrics or MetricsRegistry()
    shards = []
    for s in range(n_shards):
        replicas = []
        for r in range(rf):
            if replica_factory is not None:
                replicas.append(replica_factory(s, r))
            else:
                replicas.append(ConcurrentSBF(
                    SpectralBloomFilter(m, k, seed=seed, method=method,
                                        backend=backend,
                                        hash_family=hash_family),
                    timeout=timeout))
        shards.append(ReplicaSet(
            replicas, name=f"shard{s}",
            read_consistency=read_consistency,
            write_consistency=write_consistency,
            eject_after=eject_after, probe_every=probe_every,
            hint_dir=hint_dir, metrics=metrics,
            breaker=breaker, hedge=hedge,
            retry_budget=retry_budget))
    return ShardedSBF(shards, metrics=metrics, family=family)
