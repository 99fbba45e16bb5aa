"""The shard-handle protocol: one contract for every serving layer.

The paper's SBF is one multiset synopsis with a fixed set of verbs —
insert, delete and query (§2.2).  Every serving layer wraps one, and a
caller holding a :class:`ShardHandle` never asks which kind it holds:
Bloofi's filter tree composes only because every node answers the same
interface, and so do the router, batcher, engine, replica sets and the
tenant directory here.

- **point verbs** — ``insert`` / ``delete`` / ``set`` / ``query`` /
  ``contains``.  A refused op (a key or count the rules refuse, a delete
  that would drive a counter negative) raises and changes nothing;
- **the group verb** — :meth:`~ShardHandle.execute` runs a shard group
  of point ops in one call and returns one outcome per op: the default
  freezes the handle once and loops over the point verbs; handles with a
  fixed cost per call override it (one lock acquisition, one fsync, one
  wire frame per group);
- **bulk verbs** — ``insert_many`` / ``delete_many`` / ``query_many``
  return a :class:`BulkResult`.  A bulk verb that raises applied
  nothing (a batch holding a refused key or count is refused whole); a
  slot that failed while others landed is named in
  :attr:`BulkResult.failures`, never raised — a caller that retried the
  whole call would re-apply the slots that landed;
- ``total_count`` — the multiplicity ``N`` the handle holds;
- **lifecycle defaults** — :meth:`~ShardHandle.exclusive` yields the
  handle itself, :meth:`~ShardHandle.checkpoint` writes nothing,
  :meth:`~ShardHandle.close` and :meth:`~ShardHandle.tick` do nothing,
  :meth:`~ShardHandle.local_filter` is ``None`` (remote handles have no
  in-memory filter) and :meth:`~ShardHandle.respawn` refuses;
- **anti-entropy verbs** — ``block_checksums`` / ``read_blocks`` /
  ``write_blocks`` (:mod:`repro.serve.repair`) scan the local filter on
  a frozen cut; remote handles ship them over the wire instead.

Implementations: :class:`FilterHandle` (a bare in-memory filter),
:class:`~repro.persist.DurableSBF`, :class:`~repro.persist.ConcurrentSBF`,
:class:`~repro.serve.remote.RemoteShard` and its
:class:`~repro.serve.procpool.ProcessShard`,
:class:`~repro.serve.ha.ReplicaSet`, and the
:class:`~repro.tenancy.directory.TenantDirectory`'s tenant slots.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np

from repro.core.sbf import SpectralBloomFilter, check_threshold
from repro.core.serialize import dump_sbf
from repro.hashing.keys import check_key, check_keys

#: the point verbs an op tuple of :meth:`ShardHandle.execute` may name
POINT_VERBS = frozenset({"insert", "delete", "set", "query", "contains"})


class BulkFailure:
    """One key of a bulk operation that did not apply.

    Attributes:
        index: the key's position in the submitted batch.
        key: the key itself.
        error: the exception instance that felled it.
        retryable: ``True`` when resubmitting the same key can succeed
            (transport gave up, a lock timed out, a deadline ran out, a
            server failed untyped); ``False`` for the rules' refusals (a
            refused key, a delete below zero) that would fail identically
            again.  A hint for the caller's retry loop: a replica set
            judges a lost slot by its error's type (one rule for point
            and bulk calls), never by this flag.
    """

    __slots__ = ("index", "key", "error", "retryable")

    def __init__(self, index: int, key: object, error: Exception,
                 retryable: bool):
        self.index = index
        self.key = key
        self.error = error
        self.retryable = retryable

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "retryable" if self.retryable else "permanent"
        return (f"BulkFailure(index={self.index}, key={self.key!r}, "
                f"{kind}: {type(self.error).__name__})")


class BulkResult:
    """Outcome of a bulk verb: what applied, what failed.

    Iterating (or :meth:`tolist`) yields one outcome per slot in batch
    order: the estimate (queries) or ``None`` (mutations), and the
    exception *instance* in failed slots — the same convention as
    :meth:`~repro.serve.batch.ShardBatcher.execute`.

    Attributes:
        n: batch size submitted.
        values: for query batches, the estimates as an int64 array
            (failed slots hold 0 — check :attr:`failures`); ``None`` for
            mutation batches.
        failures: the keys that did not apply, as :class:`BulkFailure`
            entries in batch order.
    """

    __slots__ = ("n", "values", "failures")

    def __init__(self, n: int, values: np.ndarray | None = None,
                 failures: list[BulkFailure] | None = None):
        self.n = int(n)
        self.values = values
        self.failures = failures if failures is not None else []

    @property
    def applied(self) -> int:
        """Keys that applied (or answered) successfully."""
        return self.n - len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def retryable(self) -> list[BulkFailure]:
        return [f for f in self.failures if f.retryable]

    def raise_first(self) -> "BulkResult":
        """Raise the first failure's error, if any — opt back into the
        old all-or-nothing behaviour."""
        if self.failures:
            raise self.failures[0].error
        return self

    def tolist(self) -> list:
        """Per-slot outcomes: value or ``None``, or the slot's error."""
        out = ([None] * self.n if self.values is None
               else self.values.tolist())
        for failure in self.failures:
            out[failure.index] = failure.error
        return out

    def __iter__(self) -> Iterator:
        return iter(self.tolist())

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BulkResult(applied={self.applied}/{self.n}, "
                f"failures={len(self.failures)})")


class ShardHandle(ABC):
    """One shard's serving surface (see the module docstring)."""

    # -- point verbs -------------------------------------------------------
    @abstractmethod
    def insert(self, key: object, count: int = 1) -> None:
        """Record *count* occurrences of *key*."""

    @abstractmethod
    def delete(self, key: object, count: int = 1) -> None:
        """Remove *count* occurrences of *key*, all-or-nothing."""

    @abstractmethod
    def set(self, key: object, count: int) -> None:
        """Force ``f_key := count``."""

    @abstractmethod
    def query(self, key: object) -> int:
        """Frequency estimate for *key*."""

    def contains(self, key: object, threshold: int = 1) -> bool:
        """Spectral membership: is the estimate at least *threshold*?
        A negative *threshold* is refused, as the filter refuses it."""
        check_threshold(threshold)
        return self.query(key) >= threshold

    # -- bulk verbs (keys: a sequence; timeout: bounds the handle's own
    # lock waits, ignored by handles that take none) ----------------------
    @abstractmethod
    def insert_many(self, keys: Sequence, counts=None, *,
                    timeout: float | None = None) -> BulkResult:
        """Record ``counts[j]`` occurrences of ``keys[j]`` (one each when
        *counts* is ``None``)."""

    @abstractmethod
    def delete_many(self, keys: Sequence, counts=None, *,
                    timeout: float | None = None) -> BulkResult:
        """Remove ``counts[j]`` occurrences of ``keys[j]``."""

    @abstractmethod
    def query_many(self, keys: Sequence, *,
                   timeout: float | None = None) -> BulkResult:
        """Estimates for a key batch, in :attr:`BulkResult.values`."""

    @property
    @abstractmethod
    def total_count(self) -> int:
        """Total multiplicity held (the paper's ``N``)."""

    # -- the group verb ----------------------------------------------------
    def execute(self, ops: Sequence[tuple], deadlines: Sequence | None = None,
                *, timeout: float | None = None) -> list:
        """Run a shard group of point ops; one outcome per op, in order.

        Each op is ``(verb, key[, count_or_threshold])`` with a verb of
        :data:`POINT_VERBS`.  A slot holds the op's value, ``None`` for a
        mutation, or the exception instance that felled it — the
        :meth:`~repro.serve.batch.ShardBatcher.execute` convention.
        *deadlines* parallels *ops* (``None`` entries are unbounded): each
        op runs inside its own
        :func:`~repro.serve.resilience.deadline_scope`, and one already
        expired when its turn comes fails unexecuted.  *timeout* bounds
        the handle's own lock wait.  Raises only when nothing applied
        (a lock wait past *timeout*).

        The default freezes the handle once (:meth:`exclusive`) and runs
        the point verbs in order — the right shape wherever one call is
        cheap.  Handles with a fixed cost per call override it.
        """
        # Imported here: repro.serve's package init imports this module.
        from repro.serve.resilience import deadline_scope
        if deadlines is None:
            deadlines = [None] * len(ops)
        results: list = [None] * len(ops)
        with self.exclusive(timeout) as raw:
            for idx, op in enumerate(ops):
                deadline = deadlines[idx]
                try:
                    if deadline is None:
                        results[idx] = _apply(raw, op)
                    else:
                        deadline.check(op[0], unexecuted=True)
                        with deadline_scope(deadline):
                            results[idx] = _apply(raw, op)
                except Exception as exc:
                    results[idx] = exc
        return results

    # -- lifecycle defaults ------------------------------------------------
    @contextmanager
    def exclusive(self, timeout: float | None = None,
                  ) -> Iterator["ShardHandle"]:
        """Freeze the handle; yields a handle whose verbs need no further
        locking while the section is open (this one, by default)."""
        yield self

    def checkpoint(self):
        """Persist a consistent cut; returns what was written."""
        return None

    def close(self) -> None:
        """Release files and logs.  Never checkpoints: a closed durable
        handle recovers from its log, as a killed process would."""

    def tick(self) -> None:
        """Periodic maintenance (replica sets probe ejected replicas)."""

    def local_filter(self) -> SpectralBloomFilter | None:
        """The in-memory filter behind the handle (unlocked)."""
        return None

    def respawn(self, sbf: SpectralBloomFilter) -> "ShardHandle":
        """A handle of this kind and configuration over *sbf* — what a
        reshard swaps in.  Refused unless the handle's whole state is its
        in-memory filter."""
        raise ValueError(
            f"a reshard cannot rebuild a {type(self).__name__}: its state "
            f"lives beyond one in-memory filter (a write-ahead log, "
            f"replicas, a server); rebuild the fleet instead "
            f"(dump_manifest()/load_manifest(), or replicated_fleet)")

    # -- anti-entropy verbs ------------------------------------------------
    def block_checksums(self, n_blocks: int) -> list[int]:
        """One CRC32 per repair block over the counter values."""
        with self.exclusive():
            sbf = self.local_filter()
            return [zlib.crc32(np.ascontiguousarray(
                sbf.counters.get_many(_repair_block(sbf.m, n_blocks, b)),
                dtype="<i8").tobytes()) & 0xFFFFFFFF
                for b in range(n_blocks)]

    def read_blocks(self, n_blocks: int, blocks: Sequence[int],
                    ) -> dict[int, list[int]]:
        """Counter values of the given repair blocks, ``{block: values}``."""
        with self.exclusive():
            sbf = self.local_filter()
            return {int(b): sbf.counters.get_many(
                _repair_block(sbf.m, n_blocks, int(b))).tolist()
                for b in blocks}

    def write_blocks(self, n_blocks: int, blocks: dict, *,
                     total_count: int | None = None) -> int:
        """Overwrite repair blocks; returns the counters written.

        Minimum Selection only: every other method keeps state a counter
        copy would silently miss.
        """
        with self.exclusive():
            sbf = self.local_filter()
            _repair_block(sbf.m, n_blocks, 0)  # the grid is checked first
            if sbf.method.name != "ms":
                raise ValueError(
                    f"anti-entropy repair requires Minimum Selection (all "
                    f"state in the counter vector); got method "
                    f"{sbf.method.name!r}")
            written = 0
            for block, values in blocks.items():
                idx = _repair_block(sbf.m, n_blocks, int(block))
                values = np.asarray(values, dtype=np.int64)
                if values.size != idx.size:
                    raise ValueError(
                        f"block {block} spans {idx.size} counters, got "
                        f"{values.size} values")
                sbf.counters.set_many(idx, values)
                written += int(values.size)
            if total_count is not None:
                sbf.total_count = int(total_count)
            return written


def _apply(handle, op: tuple):
    """Apply one op tuple through a handle's (or the router's) point
    verbs; returns the op's value (``None`` for mutations)."""
    verb, key = op[0], op[1]
    if verb == "query":
        return handle.query(key)
    if verb == "contains":
        return handle.contains(key, op[2] if len(op) > 2 else 1)
    if verb == "set" and len(op) < 3:
        raise ValueError(f"set op needs a count: {op!r}")
    getattr(handle, verb)(key, op[2] if len(op) > 2 else 1)
    return None


def _repair_block(m: int, n_blocks: int, block: int) -> np.ndarray:
    """Counter positions of repair block *block*: ``[0, m)`` cut into
    *n_blocks* spans, independent of the hash family's blocks."""
    if not 1 <= n_blocks <= m:
        raise ValueError(f"n_blocks must be in [1, m={m}], got {n_blocks}")
    return np.arange(block * m // n_blocks, (block + 1) * m // n_blocks,
                     dtype=np.int64)


class FilterHandle(ShardHandle):
    """The protocol over a bare in-memory filter: no locks, no log, the
    key rule (:func:`~repro.hashing.keys.check_key`) before every verb.

    :meth:`checkpoint` returns a checksummed v2 frame of the filter — an
    in-memory handle has nowhere durable to write it.
    """

    def __init__(self, sbf: SpectralBloomFilter):
        self.sbf = sbf

    def insert(self, key: object, count: int = 1) -> None:
        self.sbf.insert(check_key(key), count)

    def delete(self, key: object, count: int = 1) -> None:
        self.sbf.delete(check_key(key), count)

    def set(self, key: object, count: int) -> None:
        self.sbf.set(check_key(key), count)

    def query(self, key: object) -> int:
        return self.sbf.query(check_key(key))

    def insert_many(self, keys: Sequence, counts=None, *,
                    timeout: float | None = None) -> BulkResult:
        self.sbf.insert_many(check_keys(keys), counts)
        return BulkResult(len(keys))

    def delete_many(self, keys: Sequence, counts=None, *,
                    timeout: float | None = None) -> BulkResult:
        self.sbf.delete_many(check_keys(keys), counts)
        return BulkResult(len(keys))

    def query_many(self, keys: Sequence, *,
                   timeout: float | None = None) -> BulkResult:
        return BulkResult(len(keys), self.sbf.query_many(check_keys(keys)))

    @property
    def total_count(self) -> int:
        return self.sbf.total_count

    def checkpoint(self) -> bytes:
        return dump_sbf(self.sbf)

    def local_filter(self) -> SpectralBloomFilter:
        return self.sbf

    def respawn(self, sbf: SpectralBloomFilter) -> "FilterHandle":
        return FilterHandle(sbf)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FilterHandle({self.sbf!r})"


def as_handle(target: object) -> ShardHandle:
    """*target* as a protocol handle: a bare in-memory filter is wrapped
    in a :class:`FilterHandle`, a handle is returned as it is.

    The protocol's one local-filter lookup — everything else asks the
    handle.
    """
    if isinstance(target, SpectralBloomFilter):
        return FilterHandle(target)
    return target
