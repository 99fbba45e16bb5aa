"""Hash-partitioned shard routing for spectral filters (Bloofi's lesson).

Scaling Bloom-filter serving past one filter is a routing problem in its
own right (Crainiceanu & Lemire's *Bloofi* solves it with a filter tree).
For spectral filters we use the flat variant production key-value systems
converged on: **hash partitioning with pre-split shards** — made exact by
the paper's own blocked hashing (§1.1.3 / [MW94]).

- a fleet routes by block: with the
  :class:`~repro.hashing.blocked.BlockedHashFamily` every probe of a key
  lands inside one block, and the router assigns
  ``shard_of(key) = block_of(key) % n_shards``.  Keys and the counters
  they touch shard *together*: a shard's counter vector is exactly the
  slice of the one big filter covering its blocks, so a routed query
  reads the identical counters an unsharded deployment would — sharding
  is **transparent**, answer for answer, at any load (the seeded
  equivalence tests pin this down).  That is the one routing rule: a
  fleet whose routing family (the explicit ``family=``, else the local
  shards') is not blocked is refused at construction, one shard or many;
- each shard is a handle of the shard-handle protocol
  (:mod:`repro.handle`), typically a :class:`~repro.persist.ConcurrentSBF`
  over a plain or :class:`~repro.persist.DurableSBF` filter, so
  disjoint-shard traffic never contends;
- all shards share one parameter set ``(m, k, seed, family)``, which
  makes them *unionable*: the multiset union of all shards is exactly the
  filter an unsharded deployment would have built (counter for counter),
  the property resharding and the manifest exploit.

Resharding comes in two disciplines:

- **union reshard** (``new_n`` divides ``n``): new shard ``j`` is the
  union of old shards ``{i : i % new_n == j}`` — because assignment is
  ``h % n``, every key routed to old shard ``i`` routes to new shard
  ``i % new_n``, so the union *is* the reshard.  The rebuild freezes
  every shard simultaneously (a snapshot-consistent cut), works for any
  method, and is what :meth:`ShardedSBF.reshard` uses when the
  divisibility holds — the only reshard path for MI, RM and TRM fleets;
- **rolling reshard** (any ``new_n``, MS fleets): blocked
  hashing makes counter vectors *splittable* — a shard's state is the
  disjoint union of its blocks' counter spans, and each span can be
  copied independently.  :class:`RollingReshard` migrates old shards one
  at a time (each under only *its own* exclusive lock — no full-fleet
  freeze) into a parallel fleet of ``new_n`` shards.  Meanwhile the
  fleet keeps **one topology**: each old shard's slot holds a shard
  handle that runs every call under that old shard's lock, and once the
  shard's blocks are copied it replays each applied write on the key's
  new owner.  The old fleet receives *every* write and answers every
  read, so it stays fully authoritative: :meth:`RollingReshard.abort`
  puts the old shards back, :meth:`RollingReshard.commit` installs the
  new ones, and answers are bit-identical to an unsharded filter at
  every instant.  A batch keeps its shard groups, lock budget and
  deadline mid-reshard, since the handle is just another shard.  This
  lifts the ``new_n % n == 0`` restriction — 4 shards roll to 6 under
  live traffic.

The shard **manifest** (:meth:`dump_manifest` / :func:`load_manifest`)
frames the fleet for the wire: one :func:`~repro.core.serialize.seal_sections`
frame whose sections are the shards' v2 filter frames, carrying the shard
count so a receiver rebuilds an identical router.
"""

from __future__ import annotations

import math
import threading
from contextlib import ExitStack, contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.core.params import bloom_error
from repro.core.sbf import SpectralBloomFilter, check_counts, check_threshold
from repro.core.serialize import (
    dump_sbf,
    load_sbf,
    open_sections,
    seal_sections,
)
from repro.handle import BulkResult, ShardHandle
from repro.hashing.blocked import BlockedHashFamily
from repro.hashing.families import make_family
from repro.hashing.keys import KEY_ERRORS, check_key, check_keys, int_keys
from repro.hashing.vectorized import indices_matrix
from repro.persist import ConcurrentSBF, DurableSBF
from repro.serve.metrics import MetricsRegistry
from repro.serve.resilience import current_deadline

#: shard-manifest frame magic ("Repro Shard Manifest v1")
MANIFEST_MAGIC = b"RSM1"


class ShardedSBF:
    """A hash-partitioned fleet of spectral-filter shards.

    Args:
        shards: the serving handles, one per shard — any
            :class:`~repro.handle.ShardHandle`: in practice
            :class:`~repro.persist.ConcurrentSBF` handles locally and
            :class:`~repro.serve.remote.RemoteShard` adapters for shards
            living behind a :class:`~repro.db.transport.ReliableChannel`.
        metrics: registry to report through (one is created if omitted).
        family: the routing family — required when no shard is local
            (a remote-only fleet has no filter to introspect); otherwise
            the first local shard's.

    Raises:
        ValueError: the shards do not share parameters, or the routing
            family is not a :class:`~repro.hashing.blocked.
            BlockedHashFamily` (a fleet routes by block).
    """

    def __init__(self, shards: Sequence[object], *,
                 metrics: MetricsRegistry | None = None,
                 family: object = None):
        shards = list(shards)
        if not shards:
            raise ValueError("a ShardedSBF needs at least one shard")
        # All local shards must share (m, k, seed, family) — the property
        # that makes union, reshard, and the manifest meaningful.
        local = [sbf for sbf in (s.local_filter() for s in shards)
                 if sbf is not None]
        for other in local[1:]:
            if not local[0].is_compatible(other):
                raise ValueError(
                    "shards must share parameters and hash functions "
                    f"(m, k, seed, family); got {local[0].family!r} vs "
                    f"{other.family!r}")
        if family is None and local:
            family = local[0].family
        _check_blocked(family)
        if local and not local[0].family.is_compatible(family):
            raise ValueError(
                f"explicit routing family {family!r} is incompatible with "
                f"the shards' own family {local[0].family!r}")
        self._shards = shards
        self._family = family
        self.metrics = metrics or MetricsRegistry()
        self._ops_lock = threading.Lock()
        self._shard_ops = [0] * len(shards)
        self._reshard: RollingReshard | None = None
        self.metrics.gauge("router.shards").set(len(shards))

    # -- construction ------------------------------------------------------
    @classmethod
    def create(cls, n_shards: int, m: int, k: int, *, seed: int = 0,
               method: object = "ms", backend: object = "array",
               hash_family: object = "blocked", timeout: float = 5.0,
               durable_root: str | None = None, fsync: object = "always",
               metrics: MetricsRegistry | None = None) -> "ShardedSBF":
        """Build a fresh fleet of *n_shards* identically-parameterised shards.

        A fleet routes by block, so *hash_family* must name (or be) a
        blocked family — the default ``"blocked"`` — and any other is
        refused with :class:`ValueError` before a shard or durability
        directory exists.  With *durable_root*, shard *i* persists under
        ``<durable_root>/shard-<i>`` (recovering whatever a previous
        process left there); without it, shards are in-memory filters.
        """
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        _check_blocked(make_family(hash_family, m, k, seed))
        shards = []
        for i in range(n_shards):
            factory = _shard_factory(m, k, seed, method, backend,
                                     hash_family)
            if durable_root is not None:
                handle = DurableSBF.open(f"{durable_root}/shard-{i}",
                                         factory=factory, fsync=fsync)
            else:
                handle = factory()
            shards.append(ConcurrentSBF(handle, timeout=timeout))
        return cls(shards, metrics=metrics)

    # -- routing -----------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> tuple:
        """The shard handles, indexed by shard id (read-only view)."""
        return tuple(self._shards)

    @property
    def migrating(self) -> bool:
        """True while a :class:`RollingReshard` is in flight (what an
        operator reads; the fleet moments are fenced meanwhile)."""
        return self._reshard is not None

    def shard_of(self, key: object) -> int:
        """Deterministic owner shard of *key* (stable across processes).

        The owner is ``block_of(key) % n_shards``, so a key and its
        counters live on the same shard.  A rolling reshard keeps the
        old shard count until it commits.  A key the key rule refuses
        raises its error.
        """
        return self._family.block_of(check_key(key)) % len(self._shards)

    def shard_of_many(self, keys: Sequence[object]) -> np.ndarray:
        """Owner shards, as an int64 array, for a key batch the key rule
        accepts whole, in one vectorised pass."""
        blocks = indices_matrix(self._family._selector, check_keys(keys))
        return blocks[:, 0] % len(self._shards)

    def _route(self, key: object) -> object:
        # One read of the shard list: a commit may swap it meanwhile.
        shards = self._shards
        shard_id = self._family.block_of(key) % len(shards)
        self.note_shard_ops(shard_id, 1)
        return shards[shard_id]

    def note_shard_ops(self, shard_id: int, n: int) -> None:
        """Credit *n* operations to shard *shard_id*'s accounting (used by
        the batch executor, which bypasses :meth:`_route`)."""
        with self._ops_lock:
            # A batch grouped before a shrinking commit may name an old id.
            if shard_id < len(self._shard_ops):
                self._shard_ops[shard_id] += n

    # -- the serving surface ----------------------------------------------
    def insert(self, key: object, count: int = 1) -> None:
        self._write("insert", key, count)
        self.metrics.counter("router.inserts").inc()

    def delete(self, key: object, count: int = 1) -> None:
        self._write("delete", key, count)
        self.metrics.counter("router.deletes").inc()

    def set(self, key: object, count: int) -> None:
        self._write("set", key, count)
        self.metrics.counter("router.sets").inc()

    def _write(self, verb: str, key: object, count: int) -> None:
        self._refuse_if_expired(verb)
        key = check_key(key)
        getattr(self._route(key), verb)(key, count)

    def query(self, key: object) -> int:
        self._refuse_if_expired("query")
        key = check_key(key)
        self.metrics.counter("router.queries").inc()
        return self._route(key).query(key)

    def contains(self, key: object, threshold: int = 1) -> bool:
        check_threshold(threshold)
        return self.query(key) >= threshold

    def _refuse_if_expired(self, what: str) -> None:
        """Refuse point work whose ambient deadline already passed —
        the cheapest place to stop a request that nobody is waiting for
        (before shard routing, locks, or replica fan-out)."""
        deadline = current_deadline()
        if deadline is not None and deadline.expired:
            self.metrics.counter("router.deadline_refusals").inc()
            deadline.check(what, unexecuted=True)

    @property
    def total_count(self) -> int:
        return sum(shard.total_count for shard in self._shards)

    # -- accounting --------------------------------------------------------
    def shard_report(self) -> list[dict]:
        """Per-shard parameters and error accounting, one dict per shard.

        Shard *i* can only touch the counters of its own blocks
        (``b ≡ i (mod n)``), so every figure is priced over those
        ``m_i`` counters: ``fill_ratio`` is their non-zero fraction,
        ``distinct_estimate`` inverts it (``n̂ = -(m_i/k) · ln(1 -
        fill)``, the standard Bloom occupancy estimator) and
        ``expected_error`` is the Bloom error ``E_b`` of ``n̂`` keys over
        ``m_i`` counters — so overload shows up *per shard*, not averaged
        away across the fleet.  ``m`` stays the filter's own size.
        """
        report = []
        n = len(self._shards)
        for i, shard in enumerate(self._shards):
            entry = {"shard": i, "ops": self._shard_ops[i],
                     "total_count": shard.total_count}
            sbf = shard.local_filter()
            # A shard numbered past the block count owns no counters.
            spans = [span for _, span in _block_spans(self._family, i, n)]
            if sbf is not None and spans:
                idx = np.concatenate(spans)
                m_i = len(idx)
                fill = np.count_nonzero(sbf.counters.get_many(idx)) / m_i
                if fill >= 1.0:
                    distinct = float("inf")
                elif fill <= 0.0:
                    distinct = 0.0
                else:
                    distinct = -(m_i / sbf.k) * math.log(1.0 - fill)
                entry.update({
                    "m": sbf.m, "k": sbf.k, "method": sbf.method.name,
                    "fill_ratio": fill,
                    "distinct_estimate": distinct,
                    "expected_error": bloom_error(
                        max(1, int(round(distinct))), sbf.k, m_i),
                })
            report.append(entry)
        return report

    # -- whole-fleet moments ----------------------------------------------
    def _local_shards(self, operation: str) -> list:
        for i, shard in enumerate(self._shards):
            if shard.local_filter() is None:
                raise ValueError(
                    f"{operation} requires local shards; shard {i} is "
                    f"{type(shard).__name__}")
        return list(self._shards)

    def _frozen(self, operation: str, stack: ExitStack,
                timeout: float | None) -> list[ConcurrentSBF]:
        """Enter every shard's exclusive section (in shard order, so two
        concurrent fleet-wide moments cannot deadlock) and return the
        shards; the caller's ExitStack releases them."""
        shards = self._local_shards(operation)
        for shard in shards:
            stack.enter_context(shard.exclusive(timeout))
        return shards

    def checkpoint(self) -> list:
        """Checkpoint every shard; returns the per-shard results
        (snapshot paths for durable shards, v2 frames for memory shards)."""
        self._no_migration("checkpoint")
        results = [shard.checkpoint() for shard in self._shards]
        self.metrics.counter("router.checkpoints").inc()
        return results

    def _no_migration(self, operation: str) -> None:
        if self._reshard is not None:
            raise ValueError(
                f"{operation} is unavailable while a rolling reshard is "
                f"in flight; finish (run/commit) or abort it first")

    def reshard(self, new_n: int, *,
                timeout: float | None = None) -> "ShardedSBF":
        """Reshard the fleet to *new_n* shards, in place.

        When *new_n* divides :attr:`n_shards`, this is the union reshard:
        all shards frozen simultaneously, new shard ``j`` the exact union
        of old shards ``i ≡ j (mod new_n)`` — works for any method.
        Otherwise the fleet must hold local MS shards, and the call runs
        a :class:`RollingReshard` to completion — block-range migration
        behind one routing topology, no full-fleet freeze; use
        :meth:`start_reshard` to drive the migration step-by-step under
        live traffic instead.  The router is rewired in place (and
        returned for chaining).  New shards are the old ones'
        :meth:`~repro.handle.ShardHandle.respawn`, so durable
        and replicated shards are refused either way: their on-disk
        lineage or replicas cannot be silently rearranged — rebuild via
        the manifest instead.  *timeout* bounds the freeze.
        """
        if new_n < 1:
            raise ValueError(f"new_n must be >= 1, got {new_n}")
        self._no_migration("reshard")
        if self.n_shards % new_n != 0:
            self.start_reshard(new_n).run()
            return self
        with ExitStack() as stack:
            old = self._frozen("reshard", stack, timeout)
            groups: list[list[SpectralBloomFilter]] = [
                [] for _ in range(new_n)]
            ops = [0] * new_n
            for i, shard in enumerate(old):
                groups[i % new_n].append(shard.local_filter())
                ops[i % new_n] += self._shard_ops[i]
            merged = []
            for group in groups:
                union = group[0]
                for sbf in group[1:]:
                    union = union.union(sbf)
                merged.append(union)
            # Swap inside the frozen section: no operation can interleave
            # between the cut and the new fleet taking over.
            self._shards = [old[j].respawn(sbf)
                            for j, sbf in enumerate(merged)]
            with self._ops_lock:
                self._shard_ops = ops
        self.metrics.counter("router.reshards").inc()
        self.metrics.gauge("router.shards").set(new_n)
        return self

    def start_reshard(self, new_n: int) -> "RollingReshard":
        """Begin a rolling reshard to *new_n* shards; returns the handle.

        The fleet keeps serving throughout: call
        :meth:`RollingReshard.step` between traffic (each step freezes
        exactly one old shard while its blocks are copied), then
        :meth:`RollingReshard.commit` — or :meth:`RollingReshard.run` to
        drive all steps and commit in one call, or
        :meth:`RollingReshard.abort` to drop the new fleet with nothing
        lost.  Until then each old shard's slot holds its migration
        handle, so the fleet keeps its shard count and routing.
        Requires local in-memory Minimum Selection shards (counter
        spans must be exactly copyable — see the module docstring); new
        shards are the first old shard's
        :meth:`~repro.handle.ShardHandle.respawn`.
        """
        if new_n < 1:
            raise ValueError(f"new_n must be >= 1, got {new_n}")
        self._no_migration("start_reshard")
        old = self._local_shards("start_reshard")
        for shard in old:
            method = shard.local_filter().method.name
            if method != "ms":
                raise ValueError(
                    f"rolling reshard requires Minimum Selection (all "
                    f"state in the counter vector); got method {method!r}")
        reshard = RollingReshard(self, [
            old[0].respawn(old[0].local_filter()._spawn_like())
            for _ in range(new_n)])
        self._shards = list(reshard._handles)
        self._reshard = reshard
        self.metrics.gauge("router.migrating").set(1.0)
        return reshard

    # -- the shard manifest ------------------------------------------------
    def dump_manifest(self, *, timeout: float | None = None) -> bytes:
        """Serialise the fleet to one checksummed manifest frame.

        All shards are frozen simultaneously (the manifest is a consistent
        cut) and each shard travels as its own embedded
        :func:`~repro.core.serialize.dump_sbf` frame.
        """
        self._no_migration("dump_manifest")
        with ExitStack() as stack:
            shards = self._frozen("dump_manifest", stack, timeout)
            sections = [dump_sbf(shard.local_filter()) for shard in shards]
        meta = {"version": 1, "n_shards": len(sections)}
        return seal_sections(MANIFEST_MAGIC, meta, sections)

    @classmethod
    def load_manifest(cls, data: bytes, *, timeout: float = 5.0,
                      metrics: MetricsRegistry | None = None,
                      ) -> "ShardedSBF":
        """Rebuild a fleet from a :meth:`dump_manifest` frame.

        Raises:
            WireFormatError: on any truncation, corruption, or a shard
                count inconsistent with the section table.
        """
        from repro.core.serialize import WireFormatError
        meta, sections = open_sections(data, MANIFEST_MAGIC)
        n = meta.get("n_shards")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise WireFormatError(
                f"manifest field 'n_shards' must be a positive integer, "
                f"got {n!r}")
        if n != len(sections):
            raise WireFormatError(
                f"manifest declares {n} shard(s) but carries "
                f"{len(sections)} section(s)")
        shards = [ConcurrentSBF(load_sbf(frame), timeout=timeout)
                  for frame in sections]
        return cls(shards, metrics=metrics)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardedSBF(n_shards={self.n_shards}, "
                f"N={self.total_count})")


class RollingReshard:
    """Driver for a live block-range migration to a new shard count.

    While it runs, the fleet's shard list holds one
    :class:`_MigratingShard` per old shard, so routing never changes
    before :meth:`commit`.  One old shard migrates per :meth:`step`: its
    blocks' counter spans are copied into the new fleet under the old
    shard's exclusive lock (the rest of the fleet keeps serving), and its
    handle is flipped to replay writes before the lock is released.  The
    old fleet receives every write until :meth:`commit` installs the new
    shards, so :meth:`abort` at any point simply puts the old shards back.

    Exactness: with Minimum Selection every insert of ``count`` adds
    ``count`` to all ``k`` counters of one block, so a block's counter
    sum is exactly ``k ×`` the net keyed count it holds — which is how
    the copy reconstructs each new shard's ``total_count`` without
    replaying any keys (``sum // k`` per copied span).
    """

    def __init__(self, router: ShardedSBF, new_shards: Sequence[object]):
        self._router = router
        self._new = ShardedSBF(new_shards, family=router._family)
        self._handles = [_MigratingShard(shard, self._new)
                         for shard in router._shards]

    @property
    def done(self) -> bool:
        """True once every old shard has been migrated (commit is next)."""
        return not self.remaining

    @property
    def remaining(self) -> list[int]:
        """Old shard ids still to be migrated, in step order."""
        return [i for i, handle in enumerate(self._handles)
                if not handle.flipped]

    def _check_live(self) -> None:
        if self._router._reshard is not self:
            raise ValueError("this rolling reshard is no longer active "
                             "(committed or aborted)")

    def step(self) -> int:
        """Migrate the next old shard; returns its id.

        Freezes only that shard: its blocks' counter spans are copied
        verbatim into their new owners, each new shard's ``total_count``
        is advanced by ``span_sum // k``, and the shard's handle is
        flipped inside the same exclusive section — a racing write
        provably lands either before the copy (and is copied) or after
        (and is replayed).
        """
        self._check_live()
        remaining = self.remaining
        if not remaining:
            raise ValueError("all shards are migrated; call commit()")
        i = remaining[0]
        handle = self._handles[i]
        new = self._new._shards
        with handle.old.exclusive():
            src = handle.old.local_filter()
            for block, idx in _block_spans(self._router._family, i,
                                           len(self._handles)):
                values = src.counters.get_many(idx)
                if not values.any():
                    continue
                # Old ⊃ new is the only order two shard locks are held
                # in (a replaying handle nests them the same way), so
                # lock order cannot cycle.
                with new[block % len(new)].exclusive() as dst:
                    copy = dst.local_filter()
                    copy.counters.set_many(idx, values)
                    copy.total_count += int(values.sum()) // src.k
            handle.flipped = True
        return i

    def run(self) -> ShardedSBF:
        """Drive every remaining step, then :meth:`commit`."""
        while not self.done:
            self.step()
        return self.commit()

    def commit(self) -> ShardedSBF:
        """Swap the router onto the new fleet (all shards must be
        migrated); returns the router for chaining."""
        self._check_live()
        if not self.done:
            raise ValueError(
                f"cannot commit with {len(self.remaining)} shard(s) "
                f"un-migrated; step() them first (or abort())")
        router, shards = self._router, self._new._shards
        self._finish(shards)
        with router._ops_lock:
            router._shard_ops = [0] * len(shards)
        router.metrics.counter("router.reshards").inc()
        router.metrics.gauge("router.shards").set(len(shards))
        return router

    def abort(self) -> ShardedSBF:
        """Drop the new fleet and return to the old topology.

        Loses nothing: the old fleet received every write throughout the
        migration, so it is exactly the filter an unsharded deployment
        would hold.
        """
        self._check_live()
        self._finish([handle.old for handle in self._handles])
        self._router.metrics.counter("router.reshard_aborts").inc()
        return self._router

    def _finish(self, shards: list) -> None:
        router = self._router
        router._shards = list(shards)
        router._reshard = None
        router.metrics.gauge("router.migrating").set(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RollingReshard({len(self._handles)} -> "
                f"{len(self._new._shards)}, "
                f"remaining={len(self.remaining)})")


class _MigratingShard(ShardHandle):
    """An old shard's slot while a :class:`RollingReshard` runs.

    Writes run under the old shard's write side — the lock
    :meth:`RollingReshard.step` copies and flips under — in one
    acquisition bounded by the caller's timeout; reads take its read
    side.  Once :attr:`flipped`, :meth:`exclusive` yields a
    :class:`_Replay`, so every write path (the protocol's default
    :meth:`~repro.handle.ShardHandle.execute` included) reaches the
    key's new owner too.  The lock is taken once per call: it is not
    reentrant.
    """

    def __init__(self, old: ConcurrentSBF, new: ShardedSBF):
        self.old = old
        self._new = new
        self.flipped = False

    @contextmanager
    def exclusive(self, timeout: float | None = None,
                  ) -> Iterator[ShardHandle]:
        with self.old.exclusive(timeout) as raw:
            yield _Replay(raw, self._new) if self.flipped else raw

    def _write(self, timeout: float | None, verb: str, *args):
        with self.exclusive(timeout) as handle:
            return getattr(handle, verb)(*args)

    def insert(self, key: object, count: int = 1) -> None:
        self._write(None, "insert", key, count)

    def delete(self, key: object, count: int = 1) -> None:
        self._write(None, "delete", key, count)

    def set(self, key: object, count: int) -> None:
        self._write(None, "set", key, count)

    def query(self, key: object) -> int:
        return self.old.query(key)

    def insert_many(self, keys, counts=None, *,
                    timeout: float | None = None) -> BulkResult:
        return self._write(timeout, "insert_many", keys, counts)

    def delete_many(self, keys, counts=None, *,
                    timeout: float | None = None) -> BulkResult:
        return self._write(timeout, "delete_many", keys, counts)

    def query_many(self, keys, *, timeout: float | None = None,
                   ) -> BulkResult:
        return self.old.query_many(keys, timeout=timeout)

    @property
    def total_count(self) -> int:
        return self.old.total_count

    def local_filter(self) -> SpectralBloomFilter:
        return self.old.local_filter()


class _Replay(ShardHandle):
    """A flipped old shard inside its write section: each write applies
    to the old shard (unlocked, as the section yields it), then to the
    key's owner in the new fleet; reads answer from the old shard."""

    def __init__(self, raw: ShardHandle, new: ShardedSBF):
        self._raw = raw
        self._new = new

    def _point(self, verb: str, key: object, count: int) -> None:
        getattr(self._raw, verb)(key, count)
        getattr(self._new._shards[self._new.shard_of(key)], verb)(key, count)

    def insert(self, key: object, count: int = 1) -> None:
        self._point("insert", key, count)

    def delete(self, key: object, count: int = 1) -> None:
        self._point("delete", key, count)

    def set(self, key: object, count: int) -> None:
        self._point("set", key, count)

    def query(self, key: object) -> int:
        return self._raw.query(key)

    def _many(self, verb: str, keys, counts) -> BulkResult:
        # A local handle applies a bulk write whole or raises, so every
        # key the old shard took is replayed.
        outcome = getattr(self._raw, verb)(keys, counts)
        keys = check_keys(keys)
        counts = check_counts(counts, len(keys))
        shards, groups, _ = owner_pass(self._new, keys)
        for shard_id, slots, group in groups:
            getattr(shards[shard_id], verb)(group, counts[slots])
        return outcome

    def insert_many(self, keys, counts=None, *,
                    timeout: float | None = None) -> BulkResult:
        return self._many("insert_many", keys, counts)

    def delete_many(self, keys, counts=None, *,
                    timeout: float | None = None) -> BulkResult:
        return self._many("delete_many", keys, counts)

    def query_many(self, keys, *, timeout: float | None = None,
                   ) -> BulkResult:
        return self._raw.query_many(keys)

    @property
    def total_count(self) -> int:
        return self._raw.total_count


def owner_pass(router, keys: Sequence[object]) -> tuple:
    """The one grouping step of a fleet batch, over a router's
    ``shard_of_many``/``shard_of``: ``(shards, [(owner shard, slots,
    group keys), ...] in shard order, {slot: error})``.  The owners index
    *shards*, the router's list; a pass that sees its length change
    (a reshard swapped it) regroups.

    An integer batch is converted by the key rule once
    (:func:`~repro.hashing.keys.int_keys`) and each group gets its
    int64 slice, which a shard's own ``check_keys`` passes through
    unconverted; any other batch gives each group the list of its keys.
    *slots* is an int64 array of the group's positions in *keys*, from
    one **stable** sort of the owners: each group keeps submission
    order, which MI and RM updates and WAL record order depend on.
    *keys* is already in the key rule's batch form
    (:func:`~repro.hashing.keys.key_batch`), so a refusal from
    ``shard_of_many`` is a key's: that key gets its error instead of an
    owner and fails in its own slot; only a batch holding one pays the
    per-key pass.
    """
    shards = router.shards
    checked = int_keys(keys)
    routed, refused = None, {}
    try:
        owners = router.shard_of_many(keys if checked is None else checked)
    except KEY_ERRORS:
        owners, routed = [], []
        for slot, key in enumerate(keys):
            try:
                owners.append(router.shard_of(key))
            except KEY_ERRORS as exc:
                refused[slot] = exc
            else:
                routed.append(slot)
        routed = np.array(routed, dtype=np.int64)
    if len(router.shards) != len(shards):
        return owner_pass(router, keys)
    owners = np.asarray(owners, dtype=np.int64)
    if not owners.size:
        return shards, [], refused
    # numpy's stable sort is a radix sort on 16-bit ints, ~6x its int64
    # merge sort at 8192 keys; shard ids fit one.
    narrow = int(owners.max()) < 1 << 16
    order = np.argsort(owners.astype(np.uint16) if narrow else owners,
                       kind="stable")
    slots = order if routed is None else routed[order]
    owners = owners[order]
    cuts = (np.flatnonzero(owners[1:] != owners[:-1]) + 1).tolist()
    groups = []
    for lo, hi in zip([0, *cuts], [*cuts, len(slots)]):
        group = slots[lo:hi]
        batch = (checked[group] if checked is not None
                 else [keys[i] for i in group.tolist()])
        groups.append((int(owners[lo]), group, batch))
    return shards, groups, refused


def _block_spans(family: BlockedHashFamily, shard: int, n_shards: int):
    """``(block, counter indices)`` for every block shard *shard* of
    *n_shards* owns — the only counters its keys can touch."""
    for block in range(shard, family.n_blocks, n_shards):
        start, width = family._block_span(block)
        yield block, np.arange(start, start + width, dtype=np.int64)


def _check_blocked(family: object) -> None:
    """Refuse a routing family that is not blocked: a fleet routes by
    block, which is what makes it answer like one unsharded filter."""
    if not isinstance(family, BlockedHashFamily):
        raise ValueError(
            "a fleet routes by block: its routing family (family=, else "
            "the local shards') must be a BlockedHashFamily "
            f"(hash_family='blocked'), got {family!r}")


def _shard_factory(m: int, k: int, seed: int, method: object,
                   backend: object, hash_family: object,
                   ) -> Callable[[], SpectralBloomFilter]:
    def factory() -> SpectralBloomFilter:
        return SpectralBloomFilter(m, k, seed=seed, method=method,
                                   backend=backend, hash_family=hash_family)
    return factory
