"""Reliable framed transport over an unreliable :class:`Network`.

The fault-tolerance layer between the raw physical channel
(:meth:`Network.transmit`, which may drop, duplicate, corrupt, or reorder
frames — see :mod:`repro.db.faults`) and the protocols that need their
synopses delivered intact (Bloomjoins §5.3, Summary Cache §1.1.1).

A :class:`ReliableChannel` wraps each payload in a sequence-numbered,
CRC32-protected envelope and retries until an intact copy arrives:

- *timeouts* — an attempt with no intact arrival counts as a timeout and
  triggers a retransmission under capped exponential backoff with seeded
  jitter (de-synchronising retries across shards during fault storms).
  By default the substrate has no wall clock: the backoff is accumulated
  in :attr:`ChannelStats.backoff_seconds` rather than slept, keeping
  chaos tests deterministic; a real deployment passes ``sleep=time.sleep``
  to actually pace retransmissions;
- *retry budgets* — after ``max_retries`` retransmissions the channel
  gives up and raises :class:`DeliveryFailed`, letting protocols degrade
  gracefully (e.g. a Bloomjoin falls back to full-tuple shipping);
- *idempotent receive* — sequence numbers deduplicate duplicated frames
  and identify stale delayed copies of earlier transmissions;
- *metrics* — every attempt, retry, detected corruption, ignored
  duplicate, and give-up is counted in :class:`ChannelStats`.
"""

from __future__ import annotations

import random
import struct
import zlib

from repro.db.site import Network

#: transport envelope magic ("Reliable CHannel v1")
_ENVELOPE_MAGIC = b"RCH1"
_HEADER = struct.Struct("<4sII")          # magic, seq, payload length
_TRAILER = struct.Struct("<I")            # CRC32 over header + payload

#: sequence numbers a channel remembers as seen, counting back from the
#: one in flight: a late copy carries the current or the previous one
#: (a faulty network holds a frame for one transmit at most), so the
#: window is generous and the memory constant
_SEEN_WINDOW = 64


class TransportError(RuntimeError):
    """Base class for transport-layer failures."""


class DeliveryFailed(TransportError):
    """The retry budget was exhausted without an intact delivery.

    Attributes:
        stats: the channel's :class:`ChannelStats` at the moment of
            giving up (shared object, keeps updating afterwards).
    """

    def __init__(self, message: str, stats: "ChannelStats"):
        super().__init__(message)
        self.stats = stats


def seal_envelope(seq: int, payload: bytes) -> bytes:
    """Wrap *payload* in the sequence-numbered, checksummed envelope."""
    if seq < 0:
        raise ValueError(f"sequence numbers are non-negative, got {seq}")
    body = _HEADER.pack(_ENVELOPE_MAGIC, seq, len(payload)) + payload
    return body + _TRAILER.pack(zlib.crc32(body) & 0xFFFFFFFF)


def open_envelope(envelope: bytes) -> tuple[int, bytes] | None:
    """Unwrap an envelope; returns ``(seq, payload)`` or ``None`` if the
    frame is truncated, garbled, or fails its checksum."""
    if len(envelope) < _HEADER.size + _TRAILER.size:
        return None
    magic, seq, length = _HEADER.unpack_from(envelope)
    if magic != _ENVELOPE_MAGIC:
        return None
    if len(envelope) != _HEADER.size + length + _TRAILER.size:
        return None
    (stored_crc,) = _TRAILER.unpack_from(envelope, len(envelope) - 4)
    if stored_crc != zlib.crc32(envelope[:-4]) & 0xFFFFFFFF:
        return None
    return seq, envelope[_HEADER.size:-_TRAILER.size]


class ChannelStats:
    """Delivery metrics for one :class:`ReliableChannel`."""

    __slots__ = ("attempts", "retries", "delivered", "timeouts",
                 "corrupt_detected", "duplicates_ignored", "stale_frames",
                 "gave_up", "backoff_seconds", "deadline_abandons",
                 "budget_denied")

    def __init__(self):
        self.attempts = 0            # transmissions put on the wire
        self.retries = 0             # attempts beyond the first, per send
        self.delivered = 0           # payloads accepted intact
        self.timeouts = 0            # attempts with no intact arrival
        self.corrupt_detected = 0    # checksum / validation rejections
        self.duplicates_ignored = 0  # redeliveries of an accepted seq
        self.stale_frames = 0        # late copies of older sequences
        self.gave_up = 0             # sends that exhausted the budget
        self.backoff_seconds = 0.0   # simulated backoff time accumulated
        self.deadline_abandons = 0   # sends cut short by caller deadlines
        self.budget_denied = 0       # retries refused by the retry budget

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def merge(self, other: "ChannelStats") -> "ChannelStats":
        """Accumulate *other* into this stats object (for fleet totals)."""
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"ChannelStats({fields})"


class ReliableChannel:
    """A unidirectional reliable byte-frame channel ``sender -> recipient``.

    Args:
        network: the (possibly faulty) substrate to transmit over.
        max_retries: retransmissions allowed per send before giving up
            (the retry budget; total attempts = ``max_retries + 1``).
        base_backoff: simulated seconds slept before the first retry.
        max_backoff: cap on the exponential backoff.
        jitter: fractional jitter applied to each backoff (0.5 means the
            sleep is scaled by a seeded uniform draw from [1.0, 1.5]).
        seed: seeds the jitter RNG — chaos runs are fully reproducible.
        validator: optional callable applied to each arriving payload; a
            :class:`ValueError` (e.g. ``WireFormatError``) marks the frame
            corrupt and triggers a retransmission.
        sleep: optional callable actually slept for each backoff (e.g.
            ``time.sleep`` in a real deployment).  The default ``None``
            keeps the simulation convention: backoff time is *accounted*
            in :attr:`ChannelStats.backoff_seconds` but never slept, so
            seeded chaos tests replay instantly and deterministically.
            The jittered exponential schedule is identical either way —
            the point of the jitter is that a fault storm does not
            resynchronise retries across shards.
        budget: optional retry budget shared across sends (and possibly
            across channels): each retry must ``try_spend()`` a token and
            each delivery ``earn()``\\ s one back, so correlated failures
            drain the bucket and degrade to fast :class:`DeliveryFailed`
            refusals instead of a retry storm.  Duck-typed (any object
            with ``try_spend()``/``earn()`` works — in practice a
            :class:`repro.serve.resilience.RetryBudget`) so this layer
            never imports the serve layer.
    """

    def __init__(self, network: Network, sender: str, recipient: str, *,
                 max_retries: int = 6, base_backoff: float = 0.05,
                 max_backoff: float = 2.0, jitter: float = 0.5,
                 seed: int = 0, validator=None, sleep=None, budget=None):
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if base_backoff <= 0 or max_backoff <= 0:
            raise ValueError("backoff durations must be positive")
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        self.network = network
        self.sender = sender
        self.recipient = recipient
        self.max_retries = int(max_retries)
        self.base_backoff = float(base_backoff)
        self.max_backoff = float(max_backoff)
        self.jitter = float(jitter)
        self.validator = validator
        self.sleep = sleep
        self.budget = budget
        self.stats = ChannelStats()
        self._rng = random.Random(seed)
        self._next_seq = 0
        self._seen: set[int] = set()

    def _backoff(self, retry_number: int) -> float:
        """Capped exponential backoff with seeded jitter, in seconds."""
        sleep = min(self.max_backoff,
                    self.base_backoff * (2 ** (retry_number - 1)))
        return sleep * (1.0 + self.jitter * self._rng.random())

    def send(self, label: str, payload: bytes, *, validator=None,
             deadline=None) -> bytes:
        """Deliver *payload* reliably; returns the accepted payload bytes.

        Retries (with capped exponential backoff) until an arrival passes
        the envelope checksum, sequence-number dedup, and the optional
        *validator*.

        *deadline* (duck-typed — any object with ``remaining()`` and
        ``check()``, in practice a
        :class:`repro.serve.resilience.Deadline`) bounds the whole send:
        it is checked before every retry (no backoff is accrued for a
        caller that already timed out — abandons are counted in
        :attr:`ChannelStats.deadline_abandons`), each backoff pause is
        capped at the time remaining, and a payload accepted only after
        expiry is discarded (the caller's wait is over; a late answer is
        no answer).

        Raises:
            DeliveryFailed: after ``max_retries`` retransmissions without
                an intact delivery, or when the retry budget refuses a
                retransmission.
            Exception: whatever ``deadline.check()`` raises
                (:class:`repro.serve.resilience.DeadlineExceeded`) once
                the deadline has passed.
        """
        validator = validator if validator is not None else self.validator
        if deadline is not None:
            deadline.check(label)
        seq = self._next_seq
        self._next_seq += 1
        self._seen.discard(seq - _SEEN_WINDOW)
        envelope = seal_envelope(seq, bytes(payload))
        stats = self.stats
        for attempt in range(self.max_retries + 1):
            if attempt:
                if deadline is not None and deadline.remaining() <= 0.0:
                    stats.deadline_abandons += 1
                    deadline.check(label)
                if self.budget is not None and not self.budget.try_spend():
                    stats.budget_denied += 1
                    stats.gave_up += 1
                    raise DeliveryFailed(
                        f"{label}: retry budget empty delivering seq {seq} "
                        f"from {self.sender} to {self.recipient} after "
                        f"{attempt} attempt(s)", stats)
                stats.retries += 1
                pause = self._backoff(attempt)
                if deadline is not None:
                    pause = min(pause, max(deadline.remaining(), 0.0))
                stats.backoff_seconds += pause
                if self.sleep is not None:
                    self.sleep(pause)
            stats.attempts += 1
            accepted = None
            arrivals = self.network.transmit(self.sender, self.recipient,
                                             label, envelope)
            for arrival in arrivals:
                opened = open_envelope(arrival)
                if opened is None:
                    stats.corrupt_detected += 1
                    continue
                got_seq, got_payload = opened
                if got_seq in self._seen:
                    stats.duplicates_ignored += 1
                    continue
                if got_seq != seq:
                    # A delayed copy of an earlier sequence finally arrived;
                    # that send already concluded, so the copy is stale.
                    self._seen.add(got_seq)
                    stats.stale_frames += 1
                    continue
                if validator is not None:
                    try:
                        validator(got_payload)
                    except ValueError:
                        # CRC-passing but semantically invalid: treat as
                        # corrupt and leave seq unclaimed so a retry can
                        # still succeed.
                        stats.corrupt_detected += 1
                        continue
                self._seen.add(got_seq)
                stats.delivered += 1
                accepted = got_payload
            if accepted is not None:
                if self.budget is not None:
                    self.budget.earn()
                if deadline is not None and deadline.remaining() <= 0.0:
                    # Accepted, but past the caller's deadline — e.g. a
                    # slowness fault stalled the wire.  The caller has
                    # already timed out; delivering now would report
                    # success nobody waited for.
                    stats.deadline_abandons += 1
                    deadline.check(label)
                return accepted
            stats.timeouts += 1
        stats.gave_up += 1
        raise DeliveryFailed(
            f"{label}: gave up delivering seq {seq} from {self.sender} to "
            f"{self.recipient} after {self.max_retries + 1} attempts",
            stats)
