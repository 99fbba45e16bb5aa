"""Request-lifecycle resilience: deadlines, retry budgets, breakers.

The serving stack survives *dead* replicas (ejection, hinted handoff,
anti-entropy — :mod:`repro.serve.ha`) but a replica that answers
correctly-but-*late* is a different failure mode: it is never ejected,
it stalls every quorum read it participates in, and each stall burns the
transport's full retry budget — the gray failure that dominates tail
latency in real fleets.  This module holds the four primitives the
serving path threads through itself to defend against it:

- :class:`Deadline` — an end-to-end time budget carried from the front
  door (:meth:`~repro.serve.engine.ServingEngine.submit`) down to each
  :class:`~repro.db.transport.ReliableChannel` attempt.  Everything on
  the way — lock waits, retransmission backoff, replica fan-out — stops
  at expiry with a typed :class:`DeadlineExceeded` instead of silently
  accruing the full per-hop retry schedule.  Deadlines follow the
  injected-clock convention (:mod:`repro.serve.metrics`): the clock is a
  constructor argument, so chaos tests drive a fake clock and stay
  deterministic;
- :func:`deadline_scope` / :func:`current_deadline` — a thread-local
  deadline stack.  The shard surface (``insert``/``query``/…) is shared
  by seven layers; a scope threads the deadline through all of them
  without widening every signature.  Scopes nest: the replica layer
  pushes a *tighter* per-attempt deadline (the hedge bound) on top of
  the request deadline;
- :class:`RetryBudget` — a token bucket shared per replica set and per
  remote channel: every retry spends a token, every success earns a
  fraction back.  Under correlated failure the bucket drains and retries
  degrade to fast typed refusals — the classic defense against
  multiplicative retry storms (each layer retrying the layer below);
- :class:`CircuitBreaker` — per-replica closed/open/half-open breaker
  keyed on *both* the error rate over a sliding outcome window and a
  latency EWMA.  The latency key is the point: consecutive-failure
  ejection can never catch a replica that keeps succeeding slowly; the
  breaker trips it, the open state sheds it from the read/write paths,
  and after ``reset_timeout`` a single half-open probe — judged on its
  own latency, not the poisoned EWMA — re-admits or re-opens;
- :class:`LatencyTracker` — a windowed quantile estimate over recent
  attempt latencies; the replica layer uses it as the hedge trigger
  (attempts slower than the observed p95 are abandoned and re-fired
  against a spare replica).

Everything here is stdlib-only on purpose: :mod:`repro.db.transport`
honours deadlines and budgets **by duck type** (``deadline.check()``
raises the typed error itself), so the db layer never imports the serve
layer and the dependency direction stays acyclic.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = [
    "CLOSED", "OPEN", "HALF_OPEN",
    "Deadline", "DeadlineExceeded", "deadline_scope", "current_deadline",
    "RetryBudget", "CircuitBreaker", "LatencyTracker",
]

#: circuit-breaker states
CLOSED = "closed"          # normal: traffic flows, outcomes recorded
OPEN = "open"              # tripped: traffic shed until reset_timeout
HALF_OPEN = "half-open"    # probing: one attempt decides close/re-open


class DeadlineExceeded(RuntimeError):
    """A request's end-to-end time budget ran out.

    Attributes:
        overrun: seconds past the deadline at the moment of the check
            (0.0 when raised exactly at expiry).
        unexecuted: ``True`` when the refusal provably happened *before*
            the operation touched any shard state (failed in queue, shed
            at admission, pre-failed by the batcher or router) — the
            caller may retry without at-most-once ambiguity, and an
            oracle can treat the write as never applied.  ``False``
            (default) means the budget ran out somewhere mid-flight and
            partial application is possible.
    """

    def __init__(self, message: str, *, overrun: float = 0.0,
                 unexecuted: bool = False):
        super().__init__(message)
        self.overrun = float(overrun)
        self.unexecuted = bool(unexecuted)


class Deadline:
    """An absolute expiry instant on an injected clock.

    Args:
        budget: seconds from *now* (per ``clock``) until expiry.
        clock: seconds-returning callable (the injected-clock
            convention); defaults to ``time.monotonic``.
        label: what the deadline guards — appears in the typed error.
    """

    __slots__ = ("expires_at", "clock", "label")

    def __init__(self, budget: float, *,
                 clock: Callable[[], float] | None = None,
                 label: str = "request"):
        if budget < 0:
            raise ValueError(f"deadline budget must be >= 0, got {budget}")
        self.clock = clock or time.monotonic
        self.expires_at = self.clock() + float(budget)
        self.label = label

    @classmethod
    def at(cls, expires_at: float, *,
           clock: Callable[[], float] | None = None,
           label: str = "request") -> "Deadline":
        """A deadline at an absolute clock instant (may lie in the past)."""
        deadline = cls(0.0, clock=clock, label=label)
        deadline.expires_at = float(expires_at)
        return deadline

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.expires_at - self.clock()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, what: str | None = None, *,
              unexecuted: bool = False) -> None:
        """Raise :class:`DeadlineExceeded` if the deadline has passed.

        Pass ``unexecuted=True`` from pre-execution refusal sites (the
        operation has not touched shard state yet) so the typed error
        carries the retry-safety signal.
        """
        left = self.remaining()
        if left <= 0.0:
            what = what or self.label
            raise DeadlineExceeded(
                f"{what}: deadline exceeded by {-left:.6f}s",
                overrun=-left, unexecuted=unexecuted)

    def bounded(self, budget: float) -> "Deadline":
        """The tighter of this deadline and ``now + budget``.

        The hedge mechanism: a per-attempt sub-deadline that can only
        shrink the request deadline, never extend it.
        """
        sub = Deadline.at(min(self.expires_at, self.clock() + budget),
                          clock=self.clock, label=self.label)
        return sub

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Deadline({self.label!r}, "
                f"remaining={self.remaining():.6f}s)")


_SCOPE = threading.local()


def current_deadline() -> Deadline | None:
    """The innermost active deadline on this thread (or ``None``)."""
    stack = getattr(_SCOPE, "stack", None)
    return stack[-1] if stack else None


@contextmanager
def deadline_scope(deadline: Deadline | None) -> Iterator[Deadline | None]:
    """Make *deadline* the thread's current deadline for the block.

    ``None`` is a no-op passthrough (the enclosing scope, if any, stays
    current) so call sites need no conditional.
    """
    if deadline is None:
        yield None
        return
    stack = getattr(_SCOPE, "stack", None)
    if stack is None:
        stack = _SCOPE.stack = []
    stack.append(deadline)
    try:
        yield deadline
    finally:
        stack.pop()


class RetryBudget:
    """Token bucket gating retries: spend on retry, earn on success.

    The gRPC-style retry throttle: the bucket starts full; each retry
    must :meth:`try_spend` one token, each success :meth:`earn`\\ s back
    ``earn_rate`` of one.  Under healthy traffic the occasional retry is
    free; under correlated failure the bucket drains in bounded time and
    every layer's retries collapse to fast refusals instead of a storm.

    Args:
        capacity: bucket size (and initial fill), in tokens.
        earn_rate: tokens restored per recorded success.
    """

    __slots__ = ("capacity", "earn_rate", "tokens",
                 "spent", "denied", "earned", "_lock")

    def __init__(self, capacity: float = 32.0, earn_rate: float = 0.5):
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        if earn_rate < 0:
            raise ValueError(f"earn_rate must be >= 0, got {earn_rate}")
        self.capacity = float(capacity)
        self.earn_rate = float(earn_rate)
        self.tokens = float(capacity)
        self.spent = 0             # retries granted
        self.denied = 0            # retries refused (bucket empty)
        self.earned = 0            # successes recorded
        self._lock = threading.Lock()

    def try_spend(self) -> bool:
        """Take one retry's token; ``False`` (and counted) if empty."""
        with self._lock:
            if self.tokens >= 1.0:
                self.tokens -= 1.0
                self.spent += 1
                return True
            self.denied += 1
            return False

    def earn(self) -> None:
        """Record a success, restoring ``earn_rate`` tokens (capped)."""
        with self._lock:
            self.tokens = min(self.capacity, self.tokens + self.earn_rate)
            self.earned += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RetryBudget(tokens={self.tokens:.1f}/{self.capacity:.0f},"
                f" spent={self.spent}, denied={self.denied})")


class LatencyTracker:
    """Windowed latency quantiles — the hedge trigger.

    Keeps the last *window* attempt latencies; :meth:`quantile` answers
    only once *min_samples* observations exist (hedging against a guess
    would fire constantly during warm-up).
    """

    __slots__ = ("_window", "_min_samples")

    def __init__(self, window: int = 128, min_samples: int = 16):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if min_samples < 1:
            raise ValueError(
                f"min_samples must be >= 1, got {min_samples}")
        self._window: deque[float] = deque(maxlen=int(window))
        self._min_samples = int(min_samples)

    def observe(self, latency: float) -> None:
        self._window.append(float(latency))

    def quantile(self, q: float) -> float | None:
        """The *q*-quantile of the window, or ``None`` before warm-up."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if len(self._window) < self._min_samples:
            return None
        ordered = sorted(self._window)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]


class CircuitBreaker:
    """Closed/open/half-open breaker keyed on error rate *and* latency.

    Two independent trips:

    - **error rate** — at least ``error_threshold`` of the last
      ``window`` outcomes failed (judged only once ``min_samples``
      outcomes exist, so a single early failure cannot trip);
    - **latency EWMA** — the smoothed attempt latency exceeds
      ``latency_threshold`` (``None`` disables the latency key).  This
      is the gray-failure catch: a replica that keeps *succeeding*
      slowly trips here, which consecutive-failure ejection can never
      do.  Judged only once ``latency_min_samples`` latencies were
      recorded, so one transient stall does not shed a healthy replica.

    Open sheds traffic (``allow()`` is ``False``) until
    ``reset_timeout`` seconds pass on the injected clock, then one
    half-open probe is admitted.  The probe is judged on **its own
    latency** — the EWMA still carries the sick history, and holding the
    probe to it would keep a recovered replica out forever.  A good
    probe closes the breaker and resets the window and EWMA (a
    recovered replica starts clean); a failing or slow probe re-opens
    and re-arms the timeout.

    Args:
        clock: injected clock for the reset timeout.
        window: outcomes kept for the error-rate key.
        min_samples: outcomes required before the error rate can trip.
        error_threshold: failure fraction that trips the breaker.
        latency_threshold: EWMA seconds that trip the breaker
            (``None`` disables latency tripping).
        latency_alpha: EWMA smoothing factor (weight of the newest
            sample).
        latency_min_samples: latencies required before the EWMA can trip.
        reset_timeout: seconds open before a half-open probe is allowed.
        on_transition: optional ``(old_state, new_state)`` callback —
            the HA layer wires counters and gauges through it.
    """

    __slots__ = ("clock", "window", "min_samples", "error_threshold",
                 "latency_threshold", "latency_alpha",
                 "latency_min_samples", "reset_timeout", "on_transition",
                 "state", "opened_at", "latency_ewma", "opens",
                 "half_opens", "closes", "_outcomes", "_latency_samples")

    def __init__(self, *, clock: Callable[[], float] | None = None,
                 window: int = 16, min_samples: int = 8,
                 error_threshold: float = 0.5,
                 latency_threshold: float | None = None,
                 latency_alpha: float = 0.3,
                 latency_min_samples: int = 2,
                 reset_timeout: float = 1.0,
                 on_transition: Callable[[str, str], None] | None = None):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        if not 0.0 < error_threshold <= 1.0:
            raise ValueError(
                f"error_threshold must be in (0, 1], got {error_threshold}")
        if latency_threshold is not None and latency_threshold <= 0:
            raise ValueError(f"latency_threshold must be > 0, "
                             f"got {latency_threshold}")
        if not 0.0 < latency_alpha <= 1.0:
            raise ValueError(
                f"latency_alpha must be in (0, 1], got {latency_alpha}")
        if latency_min_samples < 1:
            raise ValueError(f"latency_min_samples must be >= 1, "
                             f"got {latency_min_samples}")
        if reset_timeout <= 0:
            raise ValueError(
                f"reset_timeout must be > 0, got {reset_timeout}")
        self.clock = clock or time.monotonic
        self.window = int(window)
        self.min_samples = int(min_samples)
        self.error_threshold = float(error_threshold)
        self.latency_threshold = None if latency_threshold is None \
            else float(latency_threshold)
        self.latency_alpha = float(latency_alpha)
        self.latency_min_samples = int(latency_min_samples)
        self.reset_timeout = float(reset_timeout)
        self.on_transition = on_transition
        self.state = CLOSED
        self.opened_at: float | None = None
        self.latency_ewma: float | None = None
        self.opens = 0
        self.half_opens = 0
        self.closes = 0
        self._outcomes: deque[bool] = deque(maxlen=self.window)
        self._latency_samples = 0

    # -- state machine -----------------------------------------------------
    def _transition(self, new: str) -> None:
        old = self.state
        if old == new:
            return
        self.state = new
        if new == OPEN:
            self.opens += 1
            self.opened_at = self.clock()
        elif new == HALF_OPEN:
            self.half_opens += 1
        else:
            self.closes += 1
            self.opened_at = None
            # A recovered replica starts clean: holding it to the sick
            # window/EWMA would re-trip it on its first healthy attempt.
            self._outcomes.clear()
            self.latency_ewma = None
            self._latency_samples = 0
        if self.on_transition is not None:
            self.on_transition(old, new)

    def allow(self) -> bool:
        """May an attempt proceed?  Open transitions to half-open once
        ``reset_timeout`` has elapsed — the caller's next attempt *is*
        the probe."""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if self.clock() - self.opened_at >= self.reset_timeout:
                self._transition(HALF_OPEN)
                return True
            return False
        return True  # HALF_OPEN: the probe is in the caller's hands

    def record_success(self, latency: float | None = None) -> None:
        """Record a successful attempt (and its latency, if measured)."""
        self._note_latency(latency)
        self._outcomes.append(True)
        if self.state == HALF_OPEN:
            # Judge the probe on its own latency, not the sick EWMA.
            if (self.latency_threshold is not None and latency is not None
                    and latency > self.latency_threshold):
                self._transition(OPEN)
            else:
                self._transition(CLOSED)
        elif self.state == CLOSED and self._latency_tripped():
            self._transition(OPEN)

    def record_failure(self, latency: float | None = None) -> None:
        """Record a failed attempt (and how long it took to fail)."""
        self._note_latency(latency)
        self._outcomes.append(False)
        if self.state == HALF_OPEN:
            self._transition(OPEN)
        elif self.state == CLOSED and (self._errors_tripped()
                                       or self._latency_tripped()):
            self._transition(OPEN)

    # -- trip keys ---------------------------------------------------------
    def _note_latency(self, latency: float | None) -> None:
        if latency is None:
            return
        self._latency_samples += 1
        if self.latency_ewma is None:
            self.latency_ewma = float(latency)
        else:
            alpha = self.latency_alpha
            self.latency_ewma += alpha * (float(latency) - self.latency_ewma)

    def _errors_tripped(self) -> bool:
        if len(self._outcomes) < self.min_samples:
            return False
        failures = sum(1 for ok in self._outcomes if not ok)
        return failures / len(self._outcomes) >= self.error_threshold

    def _latency_tripped(self) -> bool:
        return (self.latency_threshold is not None
                and self.latency_ewma is not None
                and self._latency_samples >= self.latency_min_samples
                and self.latency_ewma > self.latency_threshold)

    # -- observability -----------------------------------------------------
    def state_code(self) -> float:
        """Gauge encoding: 0.0 closed, 0.5 half-open, 1.0 open."""
        return {CLOSED: 0.0, HALF_OPEN: 0.5, OPEN: 1.0}[self.state]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ewma = "-" if self.latency_ewma is None \
            else f"{self.latency_ewma:.6f}s"
        return (f"CircuitBreaker({self.state}, ewma={ewma}, "
                f"opens={self.opens})")
