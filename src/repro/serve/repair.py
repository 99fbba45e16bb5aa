"""Anti-entropy repair: converge replica counter vectors exactly.

Replicas of a spectral-filter shard diverge when a write reaches some
replicas and not others (a crash before hinted handoff drained, a hint
log lost with its disk, an operator restoring an old snapshot).  Classic
membership filters can only detect such divergence probabilistically;
SBF counters make it *exact* — two replicas agree iff their counter
vectors are equal, and the union/difference algebra (paper §3) means
copying counters from a caught-up replica is a complete repair, not an
approximation.

The pass is the standard two-level anti-entropy scan (Dynamo-style, but
with exact summaries instead of Merkle trees):

1. **checksum phase** — the counter space ``[0, m)`` is cut into
   ``n_blocks`` spans and each replica reports one CRC32 per span over
   its counter values.  Agreeing spans are proven identical without
   shipping a single counter;
2. **copy phase** — for each disagreeing span, the reference replica's
   counters are copied verbatim (``set_many``), then ``total_count`` is
   aligned.  Because Minimum Selection keeps *all* its state in the
   counter vector, the copy converges the replica bit-identically.

The repair grid is independent of the hash family's blocks — any
``n_blocks`` works against any family — though with blocked hashing a
span-aligned grid localises a single diverged key to one span.

Only Minimum Selection filters are repairable this way: MI shares the
counter-only representation but RM keeps a secondary filter whose state
a counter copy would silently miss, so non-MS methods are refused.

Both phases ride verbs of the shard-handle protocol
(:meth:`~repro.handle.ShardHandle.block_checksums` / ``read_blocks`` /
``write_blocks``): local handles scan their filter under their exclusive
lock, a :class:`~repro.serve.remote.RemoteShard` ships them over the
wire.
"""

from __future__ import annotations

from typing import Sequence

#: default repair-grid resolution (spans per scan)
DEFAULT_REPAIR_BLOCKS = 64


class RepairReport:
    """What one anti-entropy pass saw and did.

    Attributes:
        reference: index of the replica used as the source of truth.
        n_blocks: repair-grid resolution of the scan.
        scanned: indices of replicas whose checksums were compared.
        skipped: indices of replicas that were unreachable.
        copied: ``{replica index: [block ids copied]}`` for replicas that
            needed repair (missing index = already identical).
        counters_copied: total counters shipped in the copy phase.
        converged: every scanned replica's checksums (and total counts)
            matched the reference after the pass.
    """

    __slots__ = ("reference", "n_blocks", "scanned", "skipped", "copied",
                 "counters_copied", "converged")

    def __init__(self, reference: int, n_blocks: int):
        self.reference = reference
        self.n_blocks = n_blocks
        self.scanned: list[int] = []
        self.skipped: list[int] = []
        self.copied: dict[int, list[int]] = {}
        self.counters_copied = 0
        self.converged = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RepairReport(reference={self.reference}, "
                f"copied={sum(map(len, self.copied.values()))} block(s), "
                f"converged={self.converged})")


def block_checksums(handle, n_blocks: int = DEFAULT_REPAIR_BLOCKS,
                    ) -> list[int]:
    """One CRC32 per repair block over *handle*'s counter values."""
    return handle.block_checksums(n_blocks)


def _reachable_total(handle) -> int | None:
    try:
        return handle.total_count
    except Exception:
        return None


def repair_replicas(replicas: Sequence[object], *,
                    n_blocks: int = DEFAULT_REPAIR_BLOCKS,
                    reference: int | None = None) -> RepairReport:
    """Run one anti-entropy pass over *replicas*; returns the report.

    The reference (source of truth) is the replica with the largest
    ``total_count`` among the reachable ones unless *reference* pins it
    — with one-sided hinted handoff the most-written replica is the one
    that saw every acknowledged operation.  Unreachable replicas are
    skipped (and reported); repair them on re-admission.
    """
    if not replicas:
        raise ValueError("repair needs at least one replica")
    totals = [_reachable_total(handle) for handle in replicas]
    if reference is None:
        candidates = [i for i, total in enumerate(totals)
                      if total is not None]
        if not candidates:
            raise ValueError("no replica is reachable; nothing to repair "
                             "from")
        reference = max(candidates, key=lambda i: totals[i])
    elif totals[reference] is None:
        raise ValueError(f"reference replica {reference} is unreachable")
    report = RepairReport(reference, n_blocks)
    ref = replicas[reference]
    ref_total = totals[reference]
    ref_sums = ref.block_checksums(n_blocks)
    for i, handle in enumerate(replicas):
        if i == reference:
            continue
        if totals[i] is None:
            report.skipped.append(i)
            continue
        try:
            sums = handle.block_checksums(n_blocks)
        except Exception:
            report.skipped.append(i)
            continue
        report.scanned.append(i)
        diff = [b for b in range(n_blocks) if sums[b] != ref_sums[b]]
        if not diff and totals[i] == ref_total:
            continue
        payload = ref.read_blocks(n_blocks, diff) if diff else {}
        report.counters_copied += handle.write_blocks(
            n_blocks, payload, total_count=ref_total)
        report.copied[i] = diff
        after = handle.block_checksums(n_blocks)
        if after != ref_sums or handle.total_count != ref_total:
            report.converged = False
    return report
