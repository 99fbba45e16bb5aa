"""The spectral Bloofi index: a flat fleet index over per-tenant filters.

A fleet holding thousands of per-tenant spectral filters needs the
multi-set query "**which sets contain key x, and how often?**" — and
scanning N filters is O(N).  Crainiceanu & Lemire's *Bloofi* prunes that
scan; this module keeps its *Flat-Bloofi* layout: a bit-sliced presence
matrix with one row per counter and one bit column per mounted tenant.

Structure and invariants:

- every tenant wraps one serving handle (a plain
  :class:`~repro.core.sbf.SpectralBloomFilter`, or any handle of the
  shard-handle protocol: a :class:`~repro.persist.ConcurrentSBF`, a
  :class:`~repro.persist.DurableSBF`, a replicated
  :class:`~repro.serve.ha.ReplicaSet`) — any method, any backend — and
  every filter in the index shares one hash family ``(m, k, seed)``, so a
  key's ``k`` counter positions are computed **once** per query and are
  valid for every tenant;
- the index is an ``(m, W)`` uint64 matrix; tenant t owns bit column t
  (word ``t // 64``, bit ``t % 64``), and bit ``(p, t)`` is set exactly
  when t's *source* is nonzero at counter p.  For a bare filter of any
  method the source is the filter's own primary counters; every other
  handle, and a ``signature=`` mount, has a tracked Minimum-Selection
  signature instead (a replica set's local filter can lag behind hinted
  writes, and a remote one has none);
- a write re-derives the tenant's bits at the positions it touched, so
  the bit invariant holds after every operation, which
  :meth:`SpectralBloofiTree.verify` checks and the property tests
  exercise under interleaved mount/unmount/insert/delete sequences;
- a query ANDs the ``k`` rows at the key's positions, and only the
  tenants whose bit survives answer.  The pruning is **exact** (never
  drops an answer): every method's estimate (MS, MI, RM, TRM) is at most
  the minimum of the key's primary counters, and a tracked signature is
  pointwise at least the counters it shadows, so a clear bit at any of
  the key's positions proves the tenant answers zero — the index's
  answers are bit-identical to scanning all tenants.

Lifecycle is live: :meth:`~SpectralBloofiTree.mount` sets one column
from the tenant's source and :meth:`~SpectralBloofiTree.unmount` clears
it and frees it for the next mount; the matrix doubles its width when
every column is taken.

Snapshot/restore rides the existing multi-section wire manifest
(:func:`~repro.core.serialize.seal_sections`): one checksummed frame
whose sections are the tenants' v2 filter frames; :func:`load_tree`
remounts the loaded filters, so the index is rebuilt from them and a
corrupted bitmap can never be smuggled in through a snapshot.

Everything reports through ``tenancy.*`` metrics in the shared
:class:`~repro.serve.metrics.MetricsRegistry`: lifecycle and traffic
counters, and ``tenancy.leaves_probed``, the (key, tenant) pairs that
survive the AND.

All writes to a mounted tenant must flow through the index (or the
:class:`~repro.tenancy.directory.TenantDirectory` front) — a write
applied directly to a tenant's handle would desynchronise its column,
which :meth:`verify` detects but nothing repairs automatically.
"""

from __future__ import annotations

import heapq
import threading
from typing import Sequence

import numpy as np

from repro.core.sbf import (
    SpectralBloomFilter,
    check_count,
    check_counts,
    prepare_batch,
)
from repro.core.serialize import (
    WireFormatError,
    dump_sbf,
    family_name,
    load_sbf,
    open_sections,
    seal_sections,
)
from repro.handle import BulkFailure, BulkResult, as_handle
from repro.hashing.families import make_family
from repro.hashing.keys import check_key, check_keys
from repro.hashing.vectorized import canonicalize_many, matrix_for
from repro.serve.metrics import MetricsRegistry

#: tree-manifest frame magic ("Repro Bloofi Tree"); the header's
#: ``version`` field says which layout the frame carries
TREE_MAGIC = b"RBT1"

#: the manifest header version :func:`load_tree` reads
TREE_VERSION = 2


class UnknownTenant(ValueError):
    """The tenant id is not mounted in the index."""


class _Leaf:
    """One mounted tenant: its handle and its bit column.

    ``view`` is the handle as a :class:`~repro.handle.ShardHandle`
    (every tenant op goes through it); ``signature`` is the tracked
    signature vector, ``None`` when the bare filter's own counters are
    the source of the tenant's bits.
    """

    __slots__ = ("tenant", "handle", "view", "column", "signature")

    def __init__(self, tenant: object, handle: object):
        self.tenant = tenant
        self.handle = handle
        self.view = as_handle(handle)
        self.column = -1
        self.signature: np.ndarray | None = None

    def source_at(self, positions: np.ndarray) -> np.ndarray:
        """The source's values at *positions*."""
        if self.signature is not None:
            return self.signature[positions]
        return self.handle.counters.get_many(positions)


def _counters_array(sbf: SpectralBloomFilter) -> np.ndarray:
    """The filter's primary counter vector as a fresh int64 array."""
    raw = getattr(sbf.counters, "raw", None)
    if isinstance(raw, np.ndarray):
        return raw.astype(np.int64)
    return np.fromiter(iter(sbf.counters), dtype=np.int64, count=sbf.m)


def _direct_counters(handle: object) -> np.ndarray | None:
    """Counter array for tenants a query may read in place of
    ``handle.query``: a bare filter whose estimate is the plain counter
    minimum (ms/mi) over an array-raw backend.  The index already holds
    the batch position matrix, so these tenants cost one gather instead
    of a full hash-and-dispatch round trip per probe.  RM consults its
    secondary filter and wrapped handles (concurrent / durable /
    replicated) own their read paths, so both stay on the handle.
    """
    if type(handle) is not SpectralBloomFilter:
        return None
    if handle.method.name not in ("ms", "mi"):
        return None
    raw = getattr(handle.counters, "raw", None)
    return raw if isinstance(raw, np.ndarray) else None


def _survivors(alive: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, columns)`` of every set bit in the ``(n, words)`` matrix,
    sorted by row, then column."""
    rows, words = np.nonzero(alive)
    octets = alive[rows, words].astype("<u8").view(np.uint8)
    bits = np.unpackbits(octets.reshape(-1, 8), axis=1, bitorder="little")
    pair, bit = np.nonzero(bits)
    return rows[pair], words[pair] * 64 + bit


class SpectralBloofiTree:
    """A flat presence index of spectral filters answering multi-set
    frequency queries.

    Args:
        m: counters per filter (shared by every tenant).
        k: hash probes per key (shared).
        seed: determinism seed for the shared hash family.
        hash_family: family name or class (``"modmul"`` default — the
            same default as :class:`~repro.core.sbf.SpectralBloomFilter`,
            so default-constructed filters mount without ceremony).
        metrics: registry for the ``tenancy.*`` surface (one is created
            if omitted).
    """

    def __init__(self, m: int, k: int, *, seed: int = 0,
                 hash_family: object = "modmul",
                 metrics: MetricsRegistry | None = None):
        self.m = int(m)
        self.k = int(k)
        self.seed = int(seed)
        self.family = make_family(hash_family, self.m, self.k,
                                  seed=self.seed)
        self.metrics = metrics or MetricsRegistry()
        self._bits = np.zeros((self.m, 1), dtype=np.uint64)
        self._columns: list[_Leaf | None] = [None] * 64
        self._free = list(range(64))     # a heap: the lowest column first
        self._words = 0                  # words up to the highest column used
        self._leaves: dict[object, _Leaf] = {}
        self._lock = threading.RLock()
        self.metrics.gauge("tenancy.tenants").set(0)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def tenants(self) -> tuple:
        """Mounted tenant ids (unordered snapshot)."""
        with self._lock:
            return tuple(self._leaves)

    @property
    def n_tenants(self) -> int:
        return len(self._leaves)

    @property
    def index_bytes(self) -> int:
        """Bytes the presence matrix holds, free columns included."""
        return self._bits.nbytes

    def handle_of(self, tenant: object) -> object:
        """The serving handle mounted for *tenant*."""
        return self._leaf(tenant).handle

    def _leaf(self, tenant: object) -> _Leaf:
        leaf = self._leaves.get(tenant)
        if leaf is None:
            raise UnknownTenant(f"tenant {tenant!r} is not mounted")
        return leaf

    # ------------------------------------------------------------------
    # tenant lifecycle
    # ------------------------------------------------------------------
    def mount(self, tenant: object, handle: object = None, *,
              method: object = "ms", backend: object = "numpy",
              method_options: dict | None = None,
              backend_options: dict | None = None,
              signature: np.ndarray | None = None) -> object:
        """Attach *tenant*'s filter to the index; returns its handle.

        With no *handle* a fresh index-compatible
        :class:`~repro.core.sbf.SpectralBloomFilter` is created
        (*method*/*backend* and their options apply to it).  An existing
        handle — possibly pre-populated — must share the index's
        ``(m, k, seed, family)``; its current counters set its column, so
        queries see the mounted content immediately.

        *signature* supplies the mount-time signature vector explicitly
        for handles whose counters the index cannot read (remote-only
        replica sets); it is otherwise derived from the handle.

        Raises:
            ValueError: tenant already mounted, non-scalar tenant id, or
                an incompatible filter.
            TypeError: a non-empty handle whose signature cannot be
                derived and was not supplied.
        """
        if not isinstance(tenant, (str, int)) or isinstance(tenant, bool):
            raise ValueError(
                f"tenant ids must be str or int (they travel in the wire "
                f"manifest header), got {type(tenant).__name__}")
        with self._lock:
            if tenant in self._leaves:
                raise ValueError(f"tenant {tenant!r} is already mounted")
            if handle is None:
                handle = SpectralBloomFilter(
                    self.m, self.k, seed=self.seed,
                    hash_family=self.family.spawn(),
                    method=method, backend=backend,
                    method_options=method_options,
                    backend_options=backend_options)
            leaf = _Leaf(tenant, handle)
            source = self._mount_source(leaf, signature)
            leaf.column = self._take_column()
            self._columns[leaf.column] = leaf
            self._bits[source > 0, leaf.column >> 6] |= _mask(leaf.column)
            self._leaves[tenant] = leaf
            self.metrics.counter("tenancy.mounts").inc()
            self.metrics.gauge("tenancy.tenants").set(len(self._leaves))
        return handle

    def _mount_source(self, leaf: _Leaf,
                      signature: np.ndarray | None) -> np.ndarray:
        """The source vector of a tenant entering the index; sets
        ``leaf.signature`` for tenants whose source the index tracks."""
        sbf = leaf.view.local_filter()
        if sbf is not None:
            if sbf.m != self.m or not self.family.is_compatible(sbf.family):
                raise ValueError(
                    f"tenant filter must share the tree's parameters and "
                    f"hash family {self.family!r}; got {sbf.family!r}")
        if signature is not None:
            vector = np.asarray(signature, dtype=np.int64)
            if vector.shape != (self.m,):
                raise ValueError(
                    f"signature must have shape ({self.m},), got "
                    f"{vector.shape}")
            if vector.size and int(vector.min()) < 0:
                raise ValueError("signature counters must be >= 0")
            leaf.signature = vector.copy()
        elif sbf is leaf.handle:
            return _counters_array(sbf)
        elif sbf is not None:
            leaf.signature = _counters_array(sbf)
        elif leaf.view.total_count == 0:
            leaf.signature = np.zeros(self.m, dtype=np.int64)
        else:
            raise TypeError(
                f"cannot derive a mount signature from "
                f"{type(leaf.handle).__name__} (no readable local filter); "
                f"mount it empty or pass signature=")
        return leaf.signature

    def _take_column(self) -> int:
        """The lowest free column, doubling the width when none is."""
        if not self._free:
            words = self._bits.shape[1]
            grown = np.zeros((self.m, 2 * words), dtype=np.uint64)
            grown[:, :words] = self._bits
            self._bits = grown
            self._columns.extend([None] * (64 * words))
            self._free = list(range(64 * words, 128 * words))
        column = heapq.heappop(self._free)
        self._words = max(self._words, (column >> 6) + 1)
        return column

    def unmount(self, tenant: object) -> object:
        """Detach *tenant*; returns its handle (still fully usable).

        Its column is cleared and freed for the next mount — other
        tenants keep serving throughout.
        """
        with self._lock:
            leaf = self._leaf(tenant)
            self._bits[:, leaf.column >> 6] &= ~_mask(leaf.column)
            self._columns[leaf.column] = None
            heapq.heappush(self._free, leaf.column)
            del self._leaves[tenant]
            self.metrics.counter("tenancy.unmounts").inc()
            self.metrics.gauge("tenancy.tenants").set(len(self._leaves))
        return leaf.handle

    # ------------------------------------------------------------------
    # the write path: the tenant first, then its bits where it moved
    # ------------------------------------------------------------------
    def insert(self, tenant: object, key: object, count: int = 1) -> None:
        """Record *count* occurrences of *key* for *tenant*."""
        key, count = check_key(key), check_count(count)
        if count == 0:
            return
        with self._lock:
            leaf = self._leaf(tenant)
            leaf.view.insert(key, count)
            self._apply_point(leaf, key, count)
            self.metrics.counter("tenancy.inserts").inc()

    def delete(self, tenant: object, key: object, count: int = 1) -> None:
        """Remove *count* occurrences of *key* from *tenant*.

        Refused cleanly (no partial application, bits untouched) when
        the tenant's counters could not absorb the decrement — every
        handle's delete is all-or-nothing.
        """
        key, count = check_key(key), check_count(count)
        if count == 0:
            return
        with self._lock:
            leaf = self._leaf(tenant)
            leaf.view.delete(key, count)
            self._apply_point(leaf, key, -count)
            self.metrics.counter("tenancy.deletes").inc()

    def set_count(self, tenant: object, key: object, count: int) -> None:
        """Drive *tenant*'s estimate for *key* to exactly *count*."""
        key, count = check_key(key), check_count(count)
        with self._lock:
            current = self.query_tenant(tenant, key)
            if count > current:
                self.insert(tenant, key, count - current)
            elif count < current:
                self.delete(tenant, key, current - count)

    def _apply_point(self, leaf: _Leaf, key: object, count: int) -> None:
        """The scalar form of :meth:`_apply` for one key's k positions
        (a handful of numpy calls would cost more than the loop)."""
        positions = self.family.indices(key)
        signature = leaf.signature
        if signature is not None:
            for position in positions:
                signature[position] = max(signature[position] + count, 0)
        source = leaf.handle.counters.get if signature is None \
            else signature.__getitem__
        bits, word, mask = self._bits, leaf.column >> 6, _mask(leaf.column)
        for position in positions:
            if source(position) > 0:
                bits[position, word] |= mask
            else:
                bits[position, word] &= ~mask

    def _apply(self, leaf: _Leaf, positions: np.ndarray, deltas) -> None:
        """Move a tracked signature by *deltas* at *positions*, then
        re-derive *leaf*'s bits there from its source."""
        if leaf.signature is not None:
            signature = leaf.signature
            np.add.at(signature, positions, deltas)
            # A Minimal-Increase delete clamps its counters at zero; the
            # signature clamps too, so it stays at or above them.
            signature[positions] = np.maximum(signature[positions], 0)
        present = leaf.source_at(positions) > 0
        word = self._bits[:, leaf.column >> 6]
        mask = _mask(leaf.column)
        word[positions[present]] |= mask
        word[positions[~present]] &= ~mask

    def insert_many(self, tenant: object, keys, counts=None) -> BulkResult:
        """Bulk insert through the tenant's vectorised kernels.

        One hashing pass covers the bits: the ``(n, k)`` position matrix
        drives one aggregated scatter-add into a tracked signature, over
        the slots the tenant's :class:`~repro.handle.BulkResult` reports
        as landed (hinted writes on replicated tenants land, which stays
        one-sided while handoff drains), and one re-derivation of the
        tenant's bits at every position the batch touched.  Returns that
        result over the caller's slots: a zero-count slot never reaches
        the tenant and succeeds, and each failure keeps its index in
        *keys*.
        """
        return self._bulk(tenant, keys, counts, +1)

    def delete_many(self, tenant: object, keys, counts=None) -> BulkResult:
        """Bulk delete; all-or-nothing per tenant handle, like
        :meth:`~repro.core.sbf.SpectralBloomFilter.delete_many`."""
        return self._bulk(tenant, keys, counts, -1)

    def _bulk(self, tenant: object, keys, counts, sign: int) -> BulkResult:
        keys = check_keys(keys)
        n = len(keys)
        counts = check_counts(counts, n)
        kept = np.flatnonzero(counts)       # the slots prepare_batch keeps
        keys, counts = prepare_batch(keys, counts)
        with self._lock:
            leaf = self._leaf(tenant)
            verb = leaf.view.insert_many if sign > 0 \
                else leaf.view.delete_many
            outcome = verb(keys, counts)
            if len(keys):
                self._apply_bulk(leaf, keys, counts, sign, outcome)
            self.metrics.counter(
                "tenancy.inserts" if sign > 0 else "tenancy.deletes",
            ).inc(outcome.applied)
        if len(keys) == n:
            return outcome
        return BulkResult(n, failures=[
            BulkFailure(int(kept[f.index]), f.key, f.error, f.retryable)
            for f in outcome.failures])

    def _apply_bulk(self, leaf: _Leaf, keys, counts, sign: int,
                    outcome: BulkResult) -> None:
        matrix = matrix_for(self.family, canonicalize_many(keys))
        deltas = sign * counts
        for failure in outcome.failures:
            deltas[failure.index] = 0  # a slot that never landed
        self._apply(leaf, matrix.ravel(), np.repeat(deltas, self.k))

    # ------------------------------------------------------------------
    # the read path: AND the key's rows, probe the survivors
    # ------------------------------------------------------------------
    def query(self, key: object) -> dict:
        """``{tenant: estimate}`` over every tenant whose estimate is > 0.

        Probes only the tenants whose bits are set at all of the key's
        positions; bit-identical to querying every mounted tenant and
        keeping the positive answers (the pruning-exactness argument in
        the module docstring).
        """
        return self.query_many([key])[0]

    def query_many(self, keys: Sequence[object]) -> list[dict]:
        """Per-key ``{tenant: estimate}`` dicts, one hashing pass.

        Each key ANDs ``k`` rows of ``ceil(T / 64)`` words, T the most
        tenants mounted at once; each surviving tenant then answers its
        keys with one gather (or one bulk query on its handle).
        """
        keys = check_keys(keys)
        results: list[dict] = [{} for _ in keys]
        if not len(keys):
            return results
        with self._lock:
            matrix = matrix_for(self.family, canonicalize_many(keys))
            bits = self._bits[:, :self._words]
            alive = bits[matrix[:, 0]]
            for j in range(1, self.k):
                alive &= bits[matrix[:, j]]
            rows, columns = _survivors(alive)
            order = np.argsort(columns, kind="stable")
            rows, columns = rows[order], columns[order]
            starts = np.flatnonzero(np.diff(columns, prepend=-1))
            for column, probed in zip(columns[starts].tolist(),
                                      np.split(rows, starts[1:])):
                self._leaf_answers(self._columns[column], keys, probed,
                                   results, matrix)
            self.metrics.counter("tenancy.queries").inc(len(keys))
            self.metrics.counter("tenancy.leaves_probed").inc(len(rows))
        return results

    def _leaf_answers(self, leaf: _Leaf, keys, alive: np.ndarray,
                      results: list[dict], matrix: np.ndarray) -> None:
        direct = _direct_counters(leaf.handle)
        if direct is not None:
            estimates = direct[matrix[alive]].min(axis=1)
            for slot, estimate in zip(alive.tolist(), estimates.tolist()):
                if estimate > 0:
                    results[slot][leaf.tenant] = int(estimate)
            return
        slots = alive.tolist()
        estimates = leaf.view.query_many([keys[i] for i in slots])
        for slot, estimate in zip(slots,
                                  estimates.raise_first().values.tolist()):
            if estimate > 0:
                results[slot][leaf.tenant] = estimate

    def query_tenant(self, tenant: object, key: object) -> int:
        """Single-tenant estimate — straight to the tenant's handle, no
        AND (what the directory front routes through)."""
        with self._lock:
            return self._leaf(tenant).view.query(key)

    def query_tenant_many(self, tenant: object, keys) -> BulkResult:
        """Single-tenant bulk estimates: the tenant handle's
        :class:`~repro.handle.BulkResult`."""
        with self._lock:
            return self._leaf(tenant).view.query_many(keys)

    def view_of(self, tenant: object):
        """*tenant*'s handle as a :class:`~repro.handle.ShardHandle`."""
        return self._leaf(tenant).view

    @property
    def total_count(self) -> int:
        """Total multiplicity across the fleet."""
        with self._lock:
            return sum(leaf.view.total_count
                       for leaf in self._leaves.values())

    # ------------------------------------------------------------------
    # snapshot / restore (multi-section wire manifest)
    # ------------------------------------------------------------------
    def dump_tree(self) -> bytes:
        """Serialise the whole index to one checksummed manifest frame.

        Sections are the tenants' v2 filter frames, one per tenant in
        the header's ``tenants`` order.  The bitmap is *not* shipped —
        :func:`load_tree` rebuilds it from the filters, so a snapshot can
        never carry a desynchronised column.
        """
        with self._lock:
            tenants: list = []
            sections: list[bytes] = []
            for leaf in self._leaves.values():
                sbf = leaf.view.local_filter()
                if sbf is None:
                    raise TypeError(
                        f"tenant {leaf.tenant!r} has no readable local "
                        f"filter; snapshot its remote state separately")
                tenants.append(leaf.tenant)
                sections.append(dump_sbf(sbf))
            meta = {
                "version": TREE_VERSION,
                "m": self.m, "k": self.k, "seed": self.seed,
                "family": family_name(self.family), "tenants": tenants,
            }
            self.metrics.counter("tenancy.snapshots").inc()
            return seal_sections(TREE_MAGIC, meta, sections)

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def verify(self) -> list[str]:
        """Audit every index invariant; returns the issues found.

        Checks that each mounted tenant's column equals its source > 0,
        that every free column is zero, and that columns map one-to-one
        to the mounted tenants.  Empty list means the index is sound.
        """
        with self._lock:
            issues: list[str] = []
            everywhere = np.arange(self.m)
            for word in range(self._bits.shape[1]):
                block = np.ascontiguousarray(self._bits[:, word])
                for column in range(64 * word, 64 * word + 64):
                    bits = (block & _mask(column)) != 0
                    leaf = self._columns[column]
                    if leaf is None:
                        if bits.any():
                            issues.append(
                                f"free column {column} holds "
                                f"{int(bits.sum())} set bits")
                        continue
                    if self._leaves.get(leaf.tenant) is not leaf \
                            or leaf.column != column:
                        issues.append(f"column {column} holds tenant "
                                      f"{leaf.tenant!r}, which is not "
                                      f"mounted there")
                    expected = leaf.source_at(everywhere) > 0
                    if not np.array_equal(bits, expected):
                        bad = int(np.count_nonzero(bits != expected))
                        issues.append(
                            f"tenant {leaf.tenant!r}'s column diverges "
                            f"from its source in {bad} counters")
            held = len(self._columns) - self._columns.count(None)
            if held != len(self._leaves):
                issues.append(f"{held} columns are held but "
                              f"{len(self._leaves)} tenants are mounted")
            if sorted(self._free) != [column for column, leaf
                                      in enumerate(self._columns)
                                      if leaf is None]:
                issues.append("the free list disagrees with the columns")
            return issues

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SpectralBloofiTree(m={self.m}, k={self.k}, "
                f"tenants={len(self._leaves)}, "
                f"words={self._bits.shape[1]})")


def _mask(column: int) -> np.uint64:
    """The bit of *column* within its word."""
    return np.uint64(1 << (column & 63))


# ----------------------------------------------------------------------
# restore
# ----------------------------------------------------------------------
def load_tree(data: bytes, *,
              metrics: MetricsRegistry | None = None) -> SpectralBloofiTree:
    """Rebuild an index serialised by :meth:`SpectralBloofiTree.dump_tree`.

    Tenants are reconstructed from their embedded v2 filter frames and
    remounted, so the bitmap is rebuilt from them (correct by
    construction).  Restored tenants are plain in-memory filters —
    re-wrap them (durable/concurrent/replicated) and remount as needed.

    Raises:
        WireFormatError: on truncation, corruption, a header of another
            version (version-1 frames carried a B+-tree shape and are
            refused), or a structurally invalid header (wrong arity,
            duplicate tenants, incompatible filters).
    """
    meta, sections = open_sections(data, TREE_MAGIC)

    def need(condition: bool, message: str) -> None:
        if not condition:
            raise WireFormatError(message)

    need(meta.get("version") == TREE_VERSION,
         f"unsupported tree-manifest version {meta.get('version')!r}")
    for field in ("m", "k", "seed"):
        value = meta.get(field)
        need(isinstance(value, int) and not isinstance(value, bool),
             f"header field {field!r} must be an integer, got {value!r}")
    need(meta["m"] >= 1 and meta["k"] >= 1, "m/k out of range")
    tenants = meta.get("tenants")
    need(isinstance(tenants, list) and len(tenants) == len(sections),
         f"'tenants' must list one id per section "
         f"({len(sections)}), got {tenants!r}")
    family = meta.get("family")
    need(isinstance(family, str), f"'family' must be a string, got "
                                  f"{family!r}")
    try:
        tree = SpectralBloofiTree(
            meta["m"], meta["k"], seed=meta["seed"], hash_family=family,
            metrics=metrics)
    except (ValueError, TypeError) as exc:
        raise WireFormatError(f"invalid tree parameters: {exc}") from None
    for tenant, section in zip(tenants, sections):
        sbf = load_sbf(section)
        try:
            tree.mount(tenant, sbf)
        except ValueError as exc:   # a bad or duplicate id, a foreign filter
            raise WireFormatError(f"invalid tenant section: {exc}") from None
    issues = tree.verify()
    need(not issues, f"restored tree failed verification: {issues[:3]}")
    return tree
