"""Zero-wrong-answer oracles: the bit-exact referee of every scenario.

The spectral filter's exactness guarantees make a chaos harness
falsifiable in a way liveness checks never are: blocked-hash routing is
*bit-identical* to one unsharded filter (router module docstring), so a
reference filter replaying the same op stream must agree with the fleet
answer for answer.  The one wrinkle is **write ambiguity**: under
faults, a write can fail in a way that leaves it unknown whether shard
state moved (the transport gave up mid-flight, a quorum write applied
on one replica and timed out overall).  A single reference cannot model
that — so the oracle keeps a **bounding pair**:

- ``lower`` holds every *acknowledged* write and every *ambiguous
  delete* (the delete may have applied, so the floor must assume it
  did);
- ``upper`` holds every acknowledged write and every *ambiguous insert*
  (the insert may have applied, so the ceiling must assume it did).

Counter-wise, the fleet's vector is then provably pinched:
``lower[c] <= fleet[c] <= upper[c]`` for every counter ``c`` — acked
writes are in all three, each ambiguous insert adds to ``fleet`` at
most what it adds to ``upper``, each ambiguous delete removes at most
what it removes from ``lower``.  Minimum Selection queries are monotone
in the counters (a min), so every fleet answer must fall in
``[lower.query(key), upper.query(key)]`` — and the moment no ambiguity
is outstanding the pair coincides and the check degenerates to strict
bit-equality.  (The monotonicity step is MS-specific, which is why the
oracle refuses other methods.)

Clean refusals — :class:`~repro.serve.engine.Overloaded`, semantic
``ValueError``/``TypeError``, :class:`~repro.tenancy.tree.UnknownTenant`,
and :class:`~repro.serve.resilience.DeadlineExceeded` with the
``unexecuted`` guarantee — touch neither reference: the stack promised
the op never reached a shard, and the oracle holds it to that promise.

On top of the per-answer check the oracle asserts two whole-run
invariants: **counter conservation** (the fleet's ``total_count`` must
sit inside the pair's totals — no acknowledged op lost, none double
counted) and **bounded unavailability** (per-phase availability floors
from the spec).
"""

from __future__ import annotations

from repro.core.sbf import SpectralBloomFilter
from repro.scenario.spec import SpecError

__all__ = ["OracleChecker", "OracleViolation",
            "ACKED", "REFUSED", "AMBIGUOUS"]

#: write outcomes the runner classifies (see ScenarioRunner._classify)
ACKED = "acked"
REFUSED = "refused"
AMBIGUOUS = "ambiguous"


class OracleViolation(AssertionError):
    """The fleet returned an answer the reference pair cannot explain."""


def _check_hint_soundness(spec: dict, topology) -> None:
    """Refuse replicated specs where hinted handoff can double-apply.

    With ``write_consistency`` below ``all``, a write can be *acked*
    while some replica's response frame was merely lost — the replica
    applied the op, the coordinator counted it missed and hinted it, and
    the hint replays the op on a replica that already holds it
    (at-least-once delivery).  The fleet then exceeds the oracle's upper
    bound on that replica even though every client-visible outcome was
    clean.  That can only happen when something can lose a frame or
    abandon an in-flight write, so: ``replicated`` + partial write
    consistency + (loss faults or deadlines) is rejected up front —
    declare ``write_consistency: all`` (partial writes become typed
    :class:`~repro.serve.ha.Unavailable`, which the envelope covers) or
    drop the lossy events.
    """
    if topology.kind != "replicated" \
            or topology.cfg["write_consistency"] == "all":
        return
    lossy = [event for event in spec["faults"]
             if event.get("action") in ("partition", "kill")
             or any(event.get(key) for key in ("drop", "corrupt"))]
    deadline = (spec["workload"]["deadline"] is not None
                or any(phase["deadline"] is not None
                       for phase in spec["phases"])
                or any(event.get("action") == "deadline"
                       and event.get("seconds")
                       for event in spec["faults"]))
    if lossy or deadline:
        cause = "loss-injecting fault events" if lossy \
            else "end-to-end deadlines"
        raise SpecError(
            f"a replicated topology with write_consistency "
            f"{topology.cfg['write_consistency']!r} and {cause} can "
            f"double-apply acked writes through hinted handoff, which "
            f"the oracle envelope cannot bound; declare "
            f"write_consistency: all or remove the lossy events")


class _ReferencePair:
    """Lower/upper reference filters for one keyspace (fleet or tenant)."""

    __slots__ = ("lower", "upper")

    def __init__(self, factory):
        self.lower: SpectralBloomFilter = factory()
        self.upper: SpectralBloomFilter = factory()

    def apply(self, verb: str, key: object, count: int,
              outcome: str) -> None:
        if outcome == ACKED:
            getattr(self.lower, verb)(key, count)
            getattr(self.upper, verb)(key, count)
        elif outcome == AMBIGUOUS:
            # May or may not have landed: the insert raises only the
            # ceiling, the delete only lowers the floor.
            if verb == "insert":
                self.upper.insert(key, count)
            else:
                self.lower.delete(key, count)

    def bounds(self, key: object) -> tuple[int, int]:
        return self.lower.query(key), self.upper.query(key)


class OracleChecker:
    """Replays the acknowledged op stream and referees every answer.

    One instance per run.  The runner feeds it two calls:
    :meth:`note_write` with the classified outcome of each mutation, and
    :meth:`check_read` with each successful read's value — both in
    submission order, which per-key equals the fleet's execution order
    (FIFO queue + blocked routing), so the reference state at each read
    is exactly the state the fleet answered from.
    """

    def __init__(self, spec: dict, topology):
        cfg = topology.cfg
        if cfg["method"] != "ms":
            raise SpecError(
                "the oracle's bounding argument needs Minimum Selection "
                f"(queries monotone in the counters); got method "
                f"{cfg['method']!r}")
        _check_hint_soundness(spec, topology)
        self._spec = spec
        self._topology = topology
        self._factory = self._reference_factory()
        self._pairs: dict[object, _ReferencePair] = {}
        if topology.kind != "tenants":
            self._pairs[None] = _ReferencePair(self._factory)
        else:
            for tenant in topology.tenants:
                self._pairs[tenant] = _ReferencePair(self._factory)
        self.compared = 0
        self.exact_compared = 0
        self.ambiguous_writes = 0
        self.violations: list[dict] = []

    def _reference_factory(self):
        cfg = self._topology.cfg
        if self._topology.kind == "tenants":
            # Match the tree leaf's construction (tree.mount defaults):
            # same (m, k, seed, family), numpy backend.
            def factory() -> SpectralBloomFilter:
                return SpectralBloomFilter(
                    cfg["m"], cfg["k"], seed=cfg["seed"],
                    method=cfg["method"], backend="numpy",
                    hash_family=cfg["hash_family"])
            return factory
        return self._topology.filter_factory()

    def _pair_for(self, key: object) -> tuple[_ReferencePair, object]:
        if self._topology.kind != "tenants":
            return self._pairs[None], key
        tenant, plain = key
        pair = self._pairs.get(tenant)
        if pair is None:
            raise OracleViolation(
                f"the fleet acknowledged an op for unmounted tenant "
                f"{tenant!r}")
        return pair, plain

    # -- tenant lifecycle (mirrors the fault schedule) ---------------------
    def mount_tenant(self, tenant: object) -> None:
        """A (re)mounted tenant starts from an empty leaf — so does its
        reference pair."""
        self._pairs[tenant] = _ReferencePair(self._factory)

    def unmount_tenant(self, tenant: object) -> None:
        self._pairs.pop(tenant, None)

    # -- the two referee calls --------------------------------------------
    def note_write(self, op, outcome: str) -> None:
        if outcome == REFUSED:
            return
        if outcome == AMBIGUOUS:
            self.ambiguous_writes += 1
        pair, key = self._pair_for(op.key)
        pair.apply(op.verb, key, op.count, outcome)

    def check_read(self, op, value) -> None:
        pair, key = self._pair_for(op.key)
        low, high = pair.bounds(key)
        if op.verb == "contains":
            expected_low = low >= op.threshold
            expected_high = high >= op.threshold
            ok = expected_low <= bool(value) <= expected_high
        else:
            ok = low <= int(value) <= high
        self.compared += 1
        if low == high:
            self.exact_compared += 1
        if not ok:
            self.violations.append({
                "key": repr(op.key), "verb": op.verb,
                "answer": int(value) if op.verb != "contains"
                else bool(value),
                "lower": low, "upper": high})

    # -- whole-run invariants ----------------------------------------------
    def check_conservation(self) -> dict:
        """Fleet ``total_count`` must sit inside the pair's totals."""
        lower_total = sum(p.lower.total_count for p in self._pairs.values())
        upper_total = sum(p.upper.total_count for p in self._pairs.values())
        fleet_total = self._topology.router.total_count
        ok = lower_total <= fleet_total <= upper_total
        if not ok:
            self.violations.append({
                "invariant": "conservation", "fleet_total": fleet_total,
                "lower": lower_total, "upper": upper_total})
        return {"lower": lower_total, "upper": upper_total,
                "fleet": fleet_total, "ok": ok,
                "exact": lower_total == upper_total
                and fleet_total == lower_total}

    def audit(self, keys, query_fn) -> int:
        """Re-query *keys* through *query_fn* and referee each answer.

        The settle audit: after the schedule heals and replicas
        converge, every sampled answer must sit in (usually: equal) its
        reference bounds.  Returns how many keys were checked.
        """
        checked = 0
        for key in keys:
            pair, plain = self._pair_for(key)
            low, high = pair.bounds(plain)
            value = query_fn(key)
            if value is None:
                continue
            checked += 1
            self.compared += 1
            if low == high:
                self.exact_compared += 1
            if not low <= int(value) <= high:
                self.violations.append({
                    "key": repr(key), "verb": "audit",
                    "answer": int(value), "lower": low, "upper": high})
        return checked

    def report(self) -> dict:
        return {
            "compared": self.compared,
            "exact_compared": self.exact_compared,
            "ambiguous_writes": self.ambiguous_writes,
            "wrong_answers": len(self.violations),
            "violations": self.violations[:20],
        }

    def assert_clean(self) -> None:
        if self.violations:
            first = self.violations[0]
            raise OracleViolation(
                f"{len(self.violations)} oracle violation(s); first: "
                f"{first}")
        maximum = self._spec["oracle"]["max_ambiguous"]
        if maximum is not None and self.ambiguous_writes > maximum:
            raise OracleViolation(
                f"{self.ambiguous_writes} ambiguous writes exceed the "
                f"spec bound {maximum}")
