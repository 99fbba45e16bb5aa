"""Serving a shard across the wire: request/response over ReliableChannel.

A fleet need not be co-located: :class:`RemoteShard` is a drop-in shard
adapter that forwards operations to a :class:`ShardServer` through the
PR-1 transport stack — every request and response travels as a
checksummed :func:`~repro.core.serialize.seal_frame` frame inside a
:class:`~repro.db.transport.ReliableChannel` envelope, so dropped,
duplicated, reordered, and bit-flipped frames are retried and detected
exactly as filter summaries are.

Degradation follows the existing contract: when either leg exhausts its
retry budget, the channel's :class:`~repro.db.transport.DeliveryFailed`
propagates out of the operation.  Inside a
:class:`~repro.serve.engine.ServingEngine` that failure lands in the one
affected request's future (the batcher isolates per-op failures), so an
unreachable shard degrades that shard's keys — the rest of the fleet
keeps serving.

Point ops and shard groups travel as ``execute`` requests, each entry
``[verb, key, arg?]``: a shard group (:meth:`RemoteShard.execute`) as
one request per ``bulk_chunk`` ops, a point op as a one-entry request
whose slot error is raised.  The server validates every entry, runs the
frame through its own handle's ``execute`` and answers every slot in
one response.

Key batches (``insert_many``/``delete_many``/``query_many``) travel as
one request per ``bulk_chunk`` keys, in one of two forms.  When every
key is an ``int`` in int64 range the header carries ``"bin": n`` and the
payload holds n little-endian int64 keys, then, for a mutation, n
counts; any other batch carries JSON ``keys`` and ``counts`` lists.
Either way a ``query_many`` answer comes back as n int64s in the
response payload.

Keys must be JSON scalars (the WAL's :data:`~repro.persist.wal.SCALAR_KEY_TYPES`
discipline — the request header is JSON, so richer keys would not
round-trip faithfully).

Both channels' :class:`~repro.db.transport.ChannelStats` are attached to
the metrics registry, so transport health is visible in the same
``snapshot()`` as serving throughput.
"""

from __future__ import annotations

import zlib
from typing import Sequence

import numpy as np

from repro.core.sbf import (COUNT_ERRORS, check_count, check_counts,
                             check_threshold)
from repro.core.serialize import WireFormatError, open_frame, seal_frame
from repro.db.site import Network
from repro.db.transport import DeliveryFailed, ReliableChannel
from repro.handle import (
    POINT_VERBS,
    BulkFailure,
    BulkResult,
    ShardHandle,
    as_handle,
)
from repro.persist.wal import SCALAR_KEY_TYPES
from repro.serve.metrics import MetricsRegistry
from repro.serve.resilience import (
    DeadlineExceeded,
    current_deadline,
    deadline_scope,
)

#: remote-shard frame magics ("Repro Shard reQuest / resPonse v1")
REQUEST_MAGIC = b"RSQ1"
RESPONSE_MAGIC = b"RSP1"

#: verbs a shard server answers (point ops ride ``execute``)
_SERVER_VERBS = frozenset({"total_count", "params", "checkpoint",
                           "insert_many", "delete_many", "query_many",
                           "blocksums", "readblocks", "writeblocks",
                           "execute"})

#: bulk verbs whose request carries key/count batches
_BULK_VERBS = frozenset({"insert_many", "delete_many", "query_many"})

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1

#: keys per request frame on the bulk path (one channel round trip each;
#: chunking bounds both frame size and the blast radius of one lost frame)
DEFAULT_BULK_CHUNK = 256


class RemoteShardError(RuntimeError):
    """The server reported a failure the client cannot type more precisely."""


def _retryable(exc: Exception) -> bool:
    """Can resubmitting the same operation succeed?  Transport give-ups
    and lock timeouts are transient; semantic rejections are not."""
    from repro.persist import LockTimeout
    return isinstance(exc, (DeliveryFailed, LockTimeout))


def _remote_error(server_name: str, kind: object, error: object,
                  ) -> Exception:
    """The local exception for a failure the server reported: the types a
    client can reconstruct keep their type, the rest become
    :class:`RemoteShardError`."""
    if kind in ("ValueError", "WireFormatError"):
        return ValueError(f"{server_name}: {error}")
    if kind == "LockTimeout":
        from repro.persist import LockTimeout
        return LockTimeout(f"{server_name}: {error}")
    return RemoteShardError(f"{server_name}: {kind}: {error}")


def _op_entry(op, *, wire: bool = False) -> list:
    """One point op as an ``execute`` wire entry ``[verb, key, arg?]``.

    Validates the op: a point verb, a JSON-scalar key, a count for
    ``set``, and an argument the core's count rule accepts (a query's
    argument is dropped — the verb ignores it).  A bad argument raises
    the rule's own exception on a client, and on a server checking a
    request (*wire*) a ``WireFormatError`` that refuses the whole frame.

    Raises:
        TypeError: the key is not a JSON scalar.
        WireFormatError: the op is otherwise malformed.
    """
    if not isinstance(op, (list, tuple)) or not 2 <= len(op) <= 3 \
            or not isinstance(op[0], str) or op[0] not in POINT_VERBS:
        raise WireFormatError(
            f"execute entries are [verb, key, arg?] with a verb of "
            f"{sorted(POINT_VERBS)}, got {op!r}")
    verb, key = op[0], op[1]
    if not isinstance(key, SCALAR_KEY_TYPES):
        raise TypeError(f"remote-shard keys must be JSON scalars "
                        f"(str/int/float/bool/None), got "
                        f"{type(key).__name__}")
    if len(op) < 3 or verb == "query":
        if verb == "set":
            raise WireFormatError(f"set op needs a count: {op!r}")
        return [verb, key]
    try:
        arg = (check_threshold if verb == "contains" else check_count)(op[2])
    except COUNT_ERRORS as exc:
        if wire:
            raise WireFormatError(f"{exc} in {op!r}") from exc
        raise
    return [verb, key, arg]


def _bulk_batch(keys: Sequence[object], counts: Sequence[int] | None,
                ) -> tuple[list, np.ndarray, list[int], list[BulkFailure]]:
    """Normalise a client's key batch: the core's count array (1 each by
    default; a batch the count rule refuses raises), a key that is not a
    JSON scalar failing its own slot non-retryably.  Returns ``(keys,
    counts, sendable indices, failures)``."""
    keys = list(keys)
    counts = check_counts(counts, len(keys))
    valid: list[int] = []
    failures: list[BulkFailure] = []
    for idx, key in enumerate(keys):
        if isinstance(key, SCALAR_KEY_TYPES):
            valid.append(idx)
        else:
            failures.append(BulkFailure(idx, key, TypeError(
                f"remote-shard keys must be JSON scalars "
                f"(str/int/float/bool/None), got "
                f"{type(key).__name__}"), retryable=False))
    return keys, counts, valid, failures


def _bulk_request(keys: list, counts: np.ndarray | None,
                  ) -> tuple[dict, bytes]:
    """The header fields and payload of one bulk request: the binary
    int64 form when every key is an ``int`` in int64 range, JSON lists
    otherwise (*counts*, checked int64 counts, is ``None`` for
    ``query_many``)."""
    if keys and all(type(k) is int and _INT64_MIN <= k <= _INT64_MAX
                    for k in keys):
        payload = np.asarray(keys, dtype="<i8").tobytes()
        if counts is not None:
            payload += counts.astype("<i8").tobytes()
        return {"bin": len(keys)}, payload
    if counts is None:
        return {"keys": keys}, b""
    return {"keys": keys, "counts": counts.tolist()}, b""


def _answer(server_name: str, frame: bytes):
    """What a response frame carries: its payload when the server
    answered bytes, else its JSON result.  A failure the server reports
    is raised with the type a client can reconstruct."""
    meta, payload = open_frame(frame, RESPONSE_MAGIC)
    if not meta.get("ok"):
        raise _remote_error(server_name, meta.get("kind"),
                            meta.get("error", "remote failure"))
    return payload if meta.get("bin") else meta.get("result")


def _validate_request(payload: bytes) -> None:
    open_frame(payload, REQUEST_MAGIC)


def _validate_response(payload: bytes) -> None:
    open_frame(payload, RESPONSE_MAGIC)


class ShardServer:
    """Server side: owns a shard handle and answers one request frame.

    *handle* is any local shard handle — a
    :class:`~repro.persist.ConcurrentSBF` (typical: it brings its own
    locking), a bare :class:`~repro.persist.DurableSBF`, or a
    :class:`~repro.core.sbf.SpectralBloomFilter` (served through a
    :class:`~repro.handle.FilterHandle`).  Local handles apply bulk
    batches all-or-nothing, so a batch either answers whole or fails as
    one chunk on the client.
    """

    def __init__(self, handle):
        self.handle = as_handle(handle)
        self.requests_served = 0
        self.requests_failed = 0

    def handle_frame(self, frame: bytes) -> bytes:
        """Execute one request frame; returns the response frame.

        Server-side failures never crash the server: they come back as
        ``ok=false`` responses carrying the exception kind and message, so
        the client re-raises a faithful local exception.
        """
        try:
            meta, payload = open_frame(frame, REQUEST_MAGIC)
            result = self._dispatch(meta, payload)
        except Exception as exc:
            self.requests_failed += 1
            return seal_frame(RESPONSE_MAGIC,
                              {"ok": False, "kind": type(exc).__name__,
                               "error": str(exc)})
        self.requests_served += 1
        if isinstance(result, bytes):
            return seal_frame(RESPONSE_MAGIC, {"ok": True, "bin": True},
                              result)
        return seal_frame(RESPONSE_MAGIC, {"ok": True, "result": result})

    def _dispatch(self, meta: dict, payload: bytes):
        """One request's result (a bytes result rides the payload)."""
        op = meta.get("op")
        if op not in _SERVER_VERBS:
            raise WireFormatError(f"unknown remote-shard op {op!r}")
        handle = self.handle
        if op == "total_count":
            return handle.total_count
        if op == "params":
            sbf = handle.local_filter()
            return {"m": sbf.m, "k": sbf.k, "seed": sbf.seed,
                    "method": sbf.method.name}
        if op == "checkpoint":
            result = handle.checkpoint()
            return result if isinstance(result, (str, bytes)) else None
        if op in _BULK_VERBS:
            return self._dispatch_bulk(op, meta, payload)
        if op == "execute":
            return self._dispatch_execute(meta.get("ops"))
        return self._dispatch_repair(op, meta)

    def _dispatch_bulk(self, op: str, meta: dict, payload: bytes):
        """A key batch in either form (see the module docstring); the
        handle gets a binary batch as int64 arrays."""
        n = meta.get("bin")
        if n is None:
            keys, counts = meta.get("keys"), meta.get("counts")
            if not isinstance(keys, list):
                raise WireFormatError(f"bulk op {op!r} needs a key list, "
                                      f"got {type(keys).__name__}")
            for key in keys:
                if not isinstance(key, SCALAR_KEY_TYPES):
                    raise WireFormatError(
                        f"remote-shard keys must be JSON scalars, got "
                        f"{type(key).__name__}")
        else:
            if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                raise WireFormatError(f"bin must be a count >= 0, got "
                                      f"{n!r}")
            expect = 8 * n if op == "query_many" else 16 * n
            if len(payload) != expect:
                raise WireFormatError(
                    f"binary bulk payload is {len(payload)} bytes, "
                    f"expected {expect} for {n} key(s)")
            keys = np.frombuffer(payload[:8 * n], dtype="<i8")
            counts = np.frombuffer(payload[8 * n:], dtype="<i8")
        handle = self.handle
        if op == "query_many":
            values = handle.query_many(keys).raise_first().values
            return values.astype("<i8").tobytes()
        if not isinstance(counts, (list, np.ndarray)):
            raise WireFormatError(f"bulk op {op!r} needs a count list, "
                                  f"got {type(counts).__name__}")
        try:
            counts = check_counts(counts, len(keys))
        except COUNT_ERRORS as exc:
            raise WireFormatError(
                f"bulk op {op!r} needs counts (ints >= 0) matching its "
                f"{len(keys)} key(s): {exc}") from exc
        getattr(handle, op)(keys, counts).raise_first()
        return len(keys)

    def _dispatch_execute(self, entries) -> list:
        """A shard group: every entry is validated before any runs, then
        the frame is one call to the handle's own ``execute``.  A failed
        slot answers ``[kind, message]`` (a success is never a list)."""
        if not isinstance(entries, list):
            raise WireFormatError(f"execute needs an op list, got "
                                  f"{type(entries).__name__}")
        ops = [tuple(_op_entry(entry, wire=True)) for entry in entries]
        return [[type(out).__name__, str(out)]
                if isinstance(out, Exception) else out
                for out in self.handle.execute(ops)]

    def _dispatch_repair(self, op: str, meta: dict):
        n_blocks = meta.get("n_blocks")
        if not isinstance(n_blocks, int) or isinstance(n_blocks, bool) \
                or n_blocks < 1:
            raise WireFormatError(
                f"repair ops need a positive n_blocks, got {n_blocks!r}")
        handle = self.handle
        if op == "blocksums":
            return handle.block_checksums(n_blocks)
        blocks = meta.get("blocks")
        if not isinstance(blocks, list):
            raise WireFormatError(
                f"repair op {op!r} needs a block list, got "
                f"{type(blocks).__name__}")
        if op == "readblocks":
            spans = handle.read_blocks(n_blocks, blocks)
            return [[block, values] for block, values in spans.items()]
        spans = {}
        for entry in blocks:
            if not isinstance(entry, list) or len(entry) != 2:
                raise WireFormatError(
                    f"writeblocks entries are [block, values] pairs, got "
                    f"{entry!r}")
            spans[entry[0]] = entry[1]
        return handle.write_blocks(n_blocks, spans,
                                   total_count=meta.get("total_count"))


class RemoteShard(ShardHandle):
    """Client side: the shard-handle protocol over two reliable channels.

    Fits anywhere a local shard does — in a
    :class:`~repro.serve.router.ShardedSBF` shard list, under the
    batcher.  The server side holds the real locks (remote ops are one
    round trip each) and the filter: there is no local one.

    Args:
        server: the :class:`ShardServer` reachable through *network* (the
            simulation keeps it in-process; the frames still cross the
            faulty wire both ways).
        network: transmission substrate, possibly a
            :class:`~repro.db.faults.FaultyNetwork`.
        client / server_name: endpoint names for traffic accounting.
        channel_options: forwarded to both :class:`ReliableChannel` legs
            (max retries, backoff, jitter).
        retry_budget: optional token bucket (duck-typed
            ``try_spend()``/``earn()``, in practice a
            :class:`~repro.serve.resilience.RetryBudget`) shared by both
            channel legs, so the whole round trip draws on one pool and
            correlated retransmission storms degrade to fast
            :class:`~repro.db.transport.DeliveryFailed` refusals.
        bulk_chunk: keys per frame on the bulk paths (:meth:`insert_many`
            etc.); each chunk is one round trip and one unit of partial
            failure.
        metrics: registry the channel stats are attached to.
    """

    def __init__(self, server: ShardServer, network: Network,
                 client: str, server_name: str, *,
                 channel_options: dict | None = None,
                 retry_budget=None,
                 bulk_chunk: int = DEFAULT_BULK_CHUNK,
                 metrics: MetricsRegistry | None = None):
        if bulk_chunk < 1:
            raise ValueError(f"bulk_chunk must be >= 1, got {bulk_chunk}")
        self.bulk_chunk = int(bulk_chunk)
        options = dict(channel_options or {})
        options.setdefault("seed", zlib.crc32(
            f"{client}->{server_name}".encode("utf-8")))
        if retry_budget is not None:
            options.setdefault("budget", retry_budget)
        self.server = server
        self.client = client
        self.server_name = server_name
        self.requests = ReliableChannel(network, client, server_name,
                                        validator=_validate_request,
                                        **options)
        options["seed"] = zlib.crc32(
            f"{server_name}->{client}".encode("utf-8"))
        self.responses = ReliableChannel(network, server_name, client,
                                         validator=_validate_response,
                                         **options)
        self.metrics = metrics or MetricsRegistry()
        self.metrics.attach_channel(f"remote.{server_name}.requests",
                                    self.requests.stats)
        self.metrics.attach_channel(f"remote.{server_name}.responses",
                                    self.responses.stats)

    # -- the wire ----------------------------------------------------------
    def _call(self, op: str, payload: bytes = b"", **fields):
        """One request/response round trip (*payload* is the frame body).

        The ambient :func:`~repro.serve.resilience.current_deadline`
        (installed upstream by the batcher or replica set) bounds both
        channel legs: retries stop, backoff is capped, and late answers
        are discarded the moment the caller's budget runs out.

        Raises:
            DeliveryFailed: a leg exhausted its retry budget — the caller
                (router/batcher/engine) degrades per the PR-1 contract.
            ValueError: the server rejected the operation (re-raised with
                its original type where the client can reconstruct it).
        """
        deadline = current_deadline()
        if deadline is not None:
            deadline.check(f"shard-{op}")
        frame = seal_frame(REQUEST_MAGIC, {"op": op, **fields}, payload)
        delivered = self.requests.send(f"shard-{op}", frame,
                                       deadline=deadline)
        response = self.server.handle_frame(delivered)
        answer = self.responses.send(f"shard-{op}-reply", response,
                                     deadline=deadline)
        return _answer(self.server_name, answer)

    def _point(self, op: tuple):
        """One point op as a one-entry ``execute`` frame, bounded by the
        ambient deadline; its slot's error is raised."""
        deadline = current_deadline()
        outcome = self.execute(
            [op], None if deadline is None else [deadline])[0]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    # -- the shard surface -------------------------------------------------
    def insert(self, key: object, count: int = 1) -> None:
        self._point(("insert", key, count))

    def delete(self, key: object, count: int = 1) -> None:
        self._point(("delete", key, count))

    def set(self, key: object, count: int) -> None:
        self._point(("set", key, count))

    def query(self, key: object) -> int:
        return self._point(("query", key))

    def contains(self, key: object, threshold: int = 1) -> bool:
        return self._point(("contains", key, threshold))

    @property
    def total_count(self) -> int:
        return self._call("total_count")

    def params(self) -> dict:
        """The remote filter's (m, k, seed, method) — compatibility info."""
        return self._call("params")

    def checkpoint(self):
        """The server's snapshot path; ``None`` for an in-memory server."""
        result = self._call("checkpoint")
        return None if isinstance(result, bytes) else result

    # -- shard groups (one frame per bulk_chunk ops) -----------------------
    def execute(self, ops: Sequence[tuple], deadlines=None, *,
                timeout: float | None = None) -> list:
        """Run a shard group as one request frame per :attr:`bulk_chunk`
        ops; one outcome per op, in order.

        An op that fails client-side validation (a non-scalar key, ``set``
        without a count) fails its own slot and never leaves the client.
        A member whose deadline has expired by the time its frame is
        built fails unexecuted and stays off the frame; the frame runs
        under the tightest deadline of the members that ride it.  A frame
        whose delivery fails (either leg) fails every slot it carried —
        retryably, for a transport give-up.  The server holds the locks,
        so *timeout* is unused.
        """
        results: list = [None] * len(ops)
        entries: dict[int, list] = {}
        for idx, op in enumerate(ops):
            try:
                entries[idx] = _op_entry(op)
            except COUNT_ERRORS as exc:
                results[idx] = exc
        pending = list(entries)
        for lo in range(0, len(pending), self.bulk_chunk):
            frame, tightest = [], None
            for idx in pending[lo:lo + self.bulk_chunk]:
                deadline = deadlines[idx] if deadlines is not None else None
                if deadline is not None:
                    if deadline.expired:
                        try:
                            deadline.check(ops[idx][0], unexecuted=True)
                        except DeadlineExceeded as exc:
                            results[idx] = exc
                        continue
                    if tightest is None \
                            or deadline.expires_at < tightest.expires_at:
                        tightest = deadline
                frame.append(idx)
            if not frame:
                continue
            try:
                with deadline_scope(tightest):
                    outcomes = self._call(
                        "execute", ops=[entries[idx] for idx in frame])
            except Exception as exc:
                for idx in frame:
                    results[idx] = exc
                continue
            for idx, outcome in zip(frame, outcomes):
                results[idx] = (_remote_error(self.server_name, *outcome)
                                if isinstance(outcome, list) else outcome)
        return results

    # -- bulk operations (structured partial failure) ----------------------
    def insert_many(self, keys: Sequence[object],
                    counts: Sequence[int] | None = None, *,
                    timeout: float | None = None) -> BulkResult:
        """Insert a key batch; returns a :class:`BulkResult`.

        The batch travels in :attr:`bulk_chunk`-sized frames.  A chunk
        whose delivery fails (either leg) fails *only its own keys*, and
        marks them retryable — the rest of the batch still applies.
        Invalid keys never leave the client (permanent failures).
        """
        return self._bulk("insert_many", keys, counts)

    def delete_many(self, keys: Sequence[object],
                    counts: Sequence[int] | None = None, *,
                    timeout: float | None = None) -> BulkResult:
        """Delete a key batch; returns a :class:`BulkResult` (a chunk the
        server rejects — e.g. a delete below zero — fails permanently)."""
        return self._bulk("delete_many", keys, counts)

    def query_many(self, keys: Sequence[object], *,
                   timeout: float | None = None) -> BulkResult:
        """Estimates for a key batch; :attr:`BulkResult.values` holds the
        answers (failed slots are 0 and listed in ``failures``)."""
        return self._bulk("query_many", keys, None)

    def _bulk(self, op: str, keys: Sequence[object],
              counts: Sequence[int] | None) -> BulkResult:
        keys, counts, valid, failures = _bulk_batch(keys, counts)
        is_query = op == "query_many"
        values = np.zeros(len(keys), dtype=np.int64) if is_query else None
        for lo in range(0, len(valid), self.bulk_chunk):
            chunk = valid[lo:lo + self.bulk_chunk]
            try:
                fields, payload = _bulk_request(
                    [keys[i] for i in chunk],
                    None if is_query else counts[chunk])
                result = self._call(op, payload, **fields)
            except Exception as exc:
                retryable = _retryable(exc)
                failures.extend(BulkFailure(i, keys[i], exc, retryable)
                                for i in chunk)
                continue
            if is_query:
                values[chunk] = np.frombuffer(result, dtype="<i8")
        failures.sort(key=lambda f: f.index)
        return BulkResult(len(keys), values, failures)

    # -- anti-entropy hooks (see repro.serve.repair) -----------------------
    def block_checksums(self, n_blocks: int) -> list[int]:
        """Per-repair-block CRC32s, computed server-side (one round trip
        ships ``n_blocks`` checksums, never the counters)."""
        return self._call("blocksums", n_blocks=int(n_blocks))

    def read_blocks(self, n_blocks: int, blocks: Sequence[int],
                    ) -> dict[int, list[int]]:
        pairs = self._call("readblocks", n_blocks=int(n_blocks),
                           blocks=[int(b) for b in blocks])
        return {int(block): values for block, values in pairs}

    def write_blocks(self, n_blocks: int, blocks: dict, *,
                     total_count: int | None = None) -> int:
        payload = [[int(block), [int(v) for v in values]]
                   for block, values in blocks.items()]
        return self._call("writeblocks", n_blocks=int(n_blocks),
                          blocks=payload, total_count=total_count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteShard({self.client!r} -> {self.server_name!r})"
