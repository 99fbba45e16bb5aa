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
- **health tracking**: ``eject_after`` consecutive transport failures
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
from typing import Callable, Sequence

import numpy as np

from repro.core.sbf import SpectralBloomFilter, check_count, check_counts
from repro.db.transport import DeliveryFailed
from repro.handle import BulkFailure, BulkResult, ShardHandle
from repro.hashing.families import make_family
from repro.persist import ConcurrentSBF, LockTimeout
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
from repro.serve.remote import RemoteShardError
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

#: exceptions that mean "this replica, right now" — not "this operation"
_TRANSIENT = (DeliveryFailed, LockTimeout, RemoteShardError)


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
        self.failures = 0          # consecutive transport failures
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
        eject_after: consecutive transport failures before a replica is
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
            Read attempts beyond the consistency level's quorum are
            retries and spend from it; successes earn back.  Shared with
            other sets by passing the same instance.
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

    def _note_ok(self, replica: _Replica) -> None:
        replica.failures = 0

    def _note_failure(self, replica: _Replica, exc: Exception) -> None:
        replica.failures += 1
        if replica.up and replica.failures >= self.eject_after:
            replica.up = False
            replica.gauges.up.set(0.0)
            self._counter("ejections").inc()

    def _hint(self, replica: _Replica, verb: str, key: object,
              count: int) -> None:
        replica.hints.append(verb, key, count)
        replica.gauges.hint_depth.set(len(replica.hints))
        self._counter("hinted").inc()

    def _hedge_bound(self) -> float | None:
        """The per-attempt time bound, or ``None`` (no hedging / still
        warming up the latency window)."""
        if self._hedge_seconds is not None:
            return self._hedge_seconds
        if self._hedge_quantile is None:
            return None
        quantile = self._latencies.quantile(self._hedge_quantile)
        return None if quantile is None else quantile * 2.0

    def _attempt_deadline(self, op_deadline: Deadline | None,
                          bound: float | None) -> Deadline | None:
        """The deadline one replica attempt runs under: the request
        deadline, tightened by the hedge bound when one applies."""
        if bound is None:
            return op_deadline
        if op_deadline is None:
            return Deadline(bound, clock=self.metrics.clock,
                            label=f"ha.{self.name} attempt")
        return op_deadline.bounded(bound)

    def _check_op_deadline(self, deadline: Deadline | None, what: str,
                           bump: int = 0, *,
                           unexecuted: bool = False) -> None:
        """Raise the typed refusal if the request deadline has passed
        (*unexecuted* when no replica has been sent anything yet)."""
        if deadline is None or deadline.remaining() > 0.0:
            return
        self._counter("deadline_refusals").inc()
        if bump:
            self._bump(bump)
            self._maybe_tick()
        deadline.check(what, unexecuted=unexecuted)

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

    def _write(self, verb: str, key: object, count: int) -> None:
        count = check_count(count)      # refused alike whoever is up
        op_deadline = current_deadline()
        clock = self.metrics.clock
        applied = 0
        missed: list[_Replica] = []
        semantic: Exception | None = None
        for replica in self._ordered(self._replicas):
            if not replica.up:
                missed.append(replica)
                continue
            if not replica.breaker.allow():
                # Breaker-open (slow-but-alive) replica: shed it from the
                # fan-out; if the write acknowledges it gets a hint, so
                # nothing is lost while it is out.
                missed.append(replica)
                continue
            if op_deadline is not None and op_deadline.remaining() <= 0.0:
                missed.append(replica)
                continue
            # Once the ack quota is met the remaining replicas are
            # stragglers: bound their attempts so one slow replica never
            # prices every write (an abandoned straggler gets a hint).
            bound = self._hedge_bound() if applied >= self._write_needed \
                else None
            attempt = self._attempt_deadline(op_deadline, bound)
            start = clock()
            try:
                with deadline_scope(attempt):
                    getattr(replica.handle, verb)(key, count)
            except DeadlineExceeded:
                # Slow, not dead: the breaker (not the ejection counter)
                # is the health channel for slowness.
                replica.breaker.record_failure(clock() - start)
                self._latencies.observe(clock() - start)
                self._counter("write_abandons").inc()
                missed.append(replica)
            except _TRANSIENT as exc:
                self._note_failure(replica, exc)
                replica.breaker.record_failure(clock() - start)
                missed.append(replica)
            except (ValueError, TypeError) as exc:
                # The operation itself is invalid (bad key, delete below
                # zero) — it would fail on every replica; never hint it.
                self._note_ok(replica)
                replica.breaker.record_success(clock() - start)
                semantic = semantic or exc
            else:
                latency = clock() - start
                self._note_ok(replica)
                replica.breaker.record_success(latency)
                self._latencies.observe(latency)
                applied += 1
        self._bump()
        if semantic is not None:
            self._maybe_tick()
            raise semantic
        if applied < self._write_needed:
            self._maybe_tick()
            if op_deadline is not None and op_deadline.remaining() <= 0.0:
                self._counter("deadline_refusals").inc()
                op_deadline.check(f"{verb} {key!r}")
            self._counter("unavailable").inc()
            raise Unavailable(
                f"{verb} {key!r}: {applied} of the required "
                f"{self._write_needed} replica(s) applied it", needed=
                self._write_needed, got=applied)
        # Only acknowledged writes are hinted: an unacknowledged write is
        # the client's to retry, and hinting it would make replicas
        # remember an operation the client was told failed.  (A hinted
        # deadline abandon may double-apply — the send was in flight when
        # the clock ran out — which is exactly the retry ambiguity the
        # convergence proof flags and repair() converges.)
        for replica in missed:
            self._hint(replica, verb, key, count)
        self._maybe_tick()

    # -- the read path -----------------------------------------------------
    def query(self, key: object) -> int:
        return self._read("query", lambda handle: handle.query(key))

    @property
    def total_count(self) -> int:
        return self._read("total_count",
                          lambda handle: handle.total_count)

    def _read(self, what: str, fetch: Callable[[object], int]) -> int:
        op_deadline = current_deadline()
        clock = self.metrics.clock
        needed = self._read_needed
        candidates = self._ordered(
            [r for r in self._replicas
             if self._fresh(r) and r.breaker.allow()])
        answers: list[int] = []
        attempts = 0
        budget_refused = False
        for position, replica in enumerate(candidates):
            if len(answers) == needed:
                break
            if op_deadline is not None and op_deadline.remaining() <= 0.0:
                break
            # The first `needed` attempts are the quorum's own; every
            # attempt beyond them exists because something failed or
            # stalled — that is a retry, and retries spend budget.
            if attempts >= needed and not self.retry_budget.try_spend():
                self._counter("budget_refusals").inc()
                budget_refused = True
                break
            # Hedge only while spare candidates remain: abandoning the
            # last possible answer would trade a slow success for none.
            spares = len(candidates) - position - 1
            still_needed = needed - len(answers)
            bound = self._hedge_bound() if spares >= still_needed else None
            attempt = self._attempt_deadline(op_deadline, bound)
            start = clock()
            attempts += 1
            try:
                with deadline_scope(attempt):
                    value = fetch(replica.handle)
            except DeadlineExceeded:
                latency = clock() - start
                replica.breaker.record_failure(latency)
                self._latencies.observe(latency)
                if op_deadline is not None \
                        and op_deadline.remaining() <= 0.0:
                    break  # the request itself is out of time
                # The straggler's read re-fires against the next (spare)
                # candidate: the hedge.
                self._counter("hedges").inc()
            except _TRANSIENT as exc:
                self._note_failure(replica, exc)
                replica.breaker.record_failure(clock() - start)
            else:
                latency = clock() - start
                self._note_ok(replica)
                replica.breaker.record_success(latency)
                self._latencies.observe(latency)
                self.retry_budget.earn()
                answers.append(value)
        self._bump()
        self._maybe_tick()
        if len(answers) < needed:
            if op_deadline is not None and op_deadline.remaining() <= 0.0:
                self._counter("deadline_refusals").inc()
                op_deadline.check(what)
            self._counter("unavailable").inc()
            detail = " (retry budget empty)" if budget_refused else ""
            raise Unavailable(
                f"{what}: {len(answers)} of the required "
                f"{needed} fresh replica(s) answered{detail}",
                needed=needed, got=len(answers))
        # max keeps the one-sided guarantee: every answer is >= the true
        # count, so the largest is too (and fresh replicas agree anyway).
        return max(answers)

    # -- bulk operations ---------------------------------------------------
    def query_many(self, keys: Sequence[object], *,
                   timeout: float | None = None) -> BulkResult:
        """Quorum estimates for a key batch.

        Every slot needs ``read_consistency`` fresh answers; the combine
        is an elementwise ``max``.  A slot that falls short fails with
        :class:`Unavailable` in the result; when no slot got its quorum
        the call raises it.
        """
        keys = list(keys)
        op_deadline = current_deadline()
        clock = self.metrics.clock
        if op_deadline is not None:
            self._check_op_deadline(op_deadline, "query_many",
                                    unexecuted=True)
        needed = self._read_needed
        best = np.zeros(len(keys), dtype=np.int64)
        answered = np.zeros(len(keys), dtype=np.int64)
        for replica in self._ordered(
                [r for r in self._replicas
                 if self._fresh(r) and r.breaker.allow()]):
            if bool((answered >= needed).all()):
                break
            if op_deadline is not None:
                self._check_op_deadline(op_deadline, "query_many",
                                        bump=len(keys))
            start = clock()
            try:
                with deadline_scope(op_deadline):
                    result = replica.handle.query_many(keys)
            except DeadlineExceeded:
                replica.breaker.record_failure(clock() - start)
                self._check_op_deadline(op_deadline, "query_many",
                                        bump=len(keys))
                continue
            except _TRANSIENT as exc:
                self._note_failure(replica, exc)
                replica.breaker.record_failure(clock() - start)
                continue
            self._note_ok(replica)
            replica.breaker.record_success(clock() - start)
            ok = np.ones(len(keys), dtype=bool)
            for failure in result.failures:
                ok[failure.index] = False
            best = np.where(ok, np.maximum(best, result.values), best)
            answered += ok
        self._bump(len(keys))
        self._maybe_tick()
        short = np.flatnonzero(answered < needed).tolist()
        if short:
            self._counter("unavailable").inc()
            error = Unavailable(
                f"query_many: {len(short)} of {len(keys)} key(s) fell "
                f"short of {needed} fresh answer(s)", needed=needed,
                got=int(answered.min()))
            if len(short) == len(keys):
                raise error
            best[short] = 0   # a failed slot holds 0, per BulkResult
        return BulkResult(len(keys), best, [
            BulkFailure(i, keys[i], error, retryable=True) for i in short])

    def insert_many(self, keys: Sequence[object],
                    counts: Sequence[int] | None = None, *,
                    timeout: float | None = None) -> BulkResult:
        return self._bulk_write("insert", keys, counts)

    def delete_many(self, keys: Sequence[object],
                    counts: Sequence[int] | None = None, *,
                    timeout: float | None = None) -> BulkResult:
        return self._bulk_write("delete", keys, counts)

    def _bulk_write(self, verb: str, keys: Sequence[object],
                    counts: Sequence[int] | None) -> BulkResult:
        keys = list(keys)
        counts = check_counts(counts, len(keys)).tolist()
        op_deadline = current_deadline()
        clock = self.metrics.clock
        if op_deadline is not None:
            self._check_op_deadline(op_deadline, f"{verb}_many",
                                    unexecuted=True)
        applied = np.zeros(len(keys), dtype=np.int64)
        semantic: dict[int, Exception] = {}
        missed: list[tuple[_Replica, list[int] | None]] = []
        for replica in self._ordered(self._replicas):
            if not replica.up or not replica.breaker.allow():
                missed.append((replica, None))
                continue
            if op_deadline is not None and op_deadline.remaining() <= 0.0:
                missed.append((replica, None))
                continue
            start = clock()
            try:
                with deadline_scope(op_deadline):
                    result = getattr(replica.handle, f"{verb}_many")(
                        keys, counts)
            except DeadlineExceeded:
                replica.breaker.record_failure(clock() - start)
                self._counter("write_abandons").inc()
                missed.append((replica, None))
                continue
            except _TRANSIENT as exc:
                self._note_failure(replica, exc)
                replica.breaker.record_failure(clock() - start)
                missed.append((replica, None))
                continue
            except (ValueError, TypeError) as exc:
                # Local bulk apply is all-or-nothing: the whole batch was
                # rejected before mutating anything.
                self._note_ok(replica)
                replica.breaker.record_success(clock() - start)
                for idx in range(len(keys)):
                    semantic.setdefault(idx, exc)
                continue
            self._note_ok(replica)
            replica.breaker.record_success(clock() - start)
            ok = np.ones(len(keys), dtype=np.int64)
            retry_idx = []
            for failure in result.failures:
                ok[failure.index] = 0
                if failure.retryable:
                    retry_idx.append(failure.index)
                else:
                    semantic.setdefault(failure.index, failure.error)
            if retry_idx:
                missed.append((replica, retry_idx))
            applied += ok
        self._bump(len(keys))
        failures: list[BulkFailure] = []
        acked = set()
        for idx, key in enumerate(keys):
            if idx in semantic:
                failures.append(BulkFailure(idx, key, semantic[idx],
                                            retryable=False))
            elif int(applied[idx]) < self._write_needed:
                self._counter("unavailable").inc()
                failures.append(BulkFailure(idx, key, Unavailable(
                    f"{verb} {key!r}: {int(applied[idx])} of the "
                    f"required {self._write_needed} replica(s) applied",
                    needed=self._write_needed, got=int(applied[idx])),
                    retryable=True))
            else:
                acked.add(idx)
        for replica, indices in missed:
            indices = range(len(keys)) if indices is None else indices
            hint_idx = [i for i in indices if i in acked]
            if not hint_idx:
                continue
            replica.hints.append_many(verb, [keys[i] for i in hint_idx],
                                      [counts[i] for i in hint_idx])
            replica.gauges.hint_depth.set(len(replica.hints))
            self._counter("hinted").inc(len(hint_idx))
        self._maybe_tick()
        return BulkResult(len(keys), None, failures)

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
        try:
            handle.total_count
        except _TRANSIENT:
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
            try:
                if handle.total_count != peer.handle.total_count:
                    replica.needs_repair = True
                    return False
            except _TRANSIENT:
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
            try:
                total = replica.handle.total_count
            except _TRANSIENT:
                continue
            if total > best:
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
        order (``None`` placeholders for ejected replicas)."""
        results = []
        for replica in self._replicas:
            results.append(replica.handle.checkpoint()
                           if replica.up else None)
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
