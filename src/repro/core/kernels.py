"""Vectorised bulk-operation kernels shared by all SBF methods.

Scalar SBF operations pay one Python call chain per key — hashing, counter
touches, method logic.  These kernels process a whole batch with a handful
of numpy array operations while remaining **bit-identical** to the scalar
path: every kernel's final counter state equals the state the equivalent
``for key in keys: sbf.insert(key)`` loop would have produced.

Why each kernel is exact:

- **MS insert/delete** (:func:`ms_add_kernel`): plain adds commute, so the
  batch collapses to one aggregated scatter — sum the deltas per distinct
  counter, apply once.  A delete batch that would drive any counter
  negative raises before array-shaped backends mutate anything (the
  scalar loop would also have raised, because same-signed deltas make the
  running value monotone: it dips below zero iff the final value does).
- **MI insert** (:func:`mi_insert_kernel`): conservative update is *not*
  order-free (a key's target depends on the current minimum, which
  interfering keys move), so the kernel runs *wavefront scheduling*: an
  entry (row j, counter c) may apply once every earlier row's entry on
  ``c`` has applied, and a row applies once all its entries may.  Each
  round processes every currently-ready row at once; two rows ready in
  the same round are provably counter-disjoint (if rows ``j < j'`` share
  ``c``, then ``rank(j', c) > rank(j, c)`` and readiness pins
  ``done[c]`` to both ranks — impossible), so a round's gather /
  row-minima / scatter is equivalent to applying its rows sequentially,
  and ordering rounds preserves the stream order between every
  conflicting pair.  The smallest pending row is always ready, so the
  loop terminates in at most ``max per-counter multiplicity`` rounds —
  tens of numpy passes for a duplicate-heavy stream, against the
  thousands of conflict-free segments the previous formulation cut the
  same stream into.
- **MI delete** (:func:`mi_delete_kernel`): the clamped decrement
  ``v <- max(0, v - c)`` composes to ``max(0, v - sum(c))`` for any
  same-signed sequence (once clamped to zero it stays there), so the
  batch is one aggregated gather/clamp/scatter.
- **Observed values** (:func:`sequential_observed`,
  :func:`observed_add_kernel`): Recurring Minimum needs the value each
  ``counters.add`` *returned* in stream order, not just the final state.
  For pure adds that value is ``start + inclusive running sum of the
  deltas landing on the same counter``, recovered with one stable sort
  and a grouped cumulative sum.  :func:`sequential_observed` is the
  reference formulation (explicit per-group offsets);
  :func:`observed_add_kernel` is the production kernel — it fuses the
  pre-gather, the aggregated scatter-add, and the grouped running sum
  around a *single* value-sort of the position stream, carrying the
  group-start offsets with one monotone ``maximum.accumulate`` instead
  of materialising per-group offset/length vectors (the
  ``repeat``/``diff`` pair over millions of tiny groups was the RM bulk
  path's dominant cost).

Backends participate through the ``get_many``/``add_many``/``set_many``
hooks, so the same kernels drive the numpy backend (true vector speed)
and the succinct backends (loop under the hood, still one hash pass).
"""

from __future__ import annotations

import numpy as np


def _grouped_order(indices: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Group a position stream by value, submission order within groups.

    Returns ``(sorted_values, order)`` where ``order`` holds the original
    entry index of each sorted slot — the same pair a stable argsort
    produces, but computed by packing ``(value << b) | entry`` into one
    int64 and *value*-sorting it, which skips argsort's permutation
    machinery and runs ~10x faster.  Falls back to stable argsort when
    the packed key would not fit.
    """
    size = indices.size
    bits = max(1, int(size - 1).bit_length())
    if size and int(indices.max()) < (1 << (62 - bits)):
        packed = ((indices.astype(np.int64) << np.int64(bits))
                  | np.arange(size, dtype=np.int64))
        packed.sort()
        return packed >> np.int64(bits), packed & np.int64((1 << bits) - 1)
    order = np.argsort(indices, kind="stable")
    return indices[order], order


def aggregate_deltas(indices: np.ndarray, deltas: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Sum *deltas* per distinct index; returns (unique_indices, sums).

    Uses a stable sort plus ``np.add.reduceat`` — exact int64 arithmetic
    for any inputs (the dense ``bincount`` shortcut in
    :func:`ms_add_kernel` needs a magnitude bound; this path does not).
    """
    si, order = _grouped_order(indices)
    sd = deltas[order]
    starts = np.flatnonzero(np.r_[True, si[1:] != si[:-1]])
    return si[starts], np.add.reduceat(sd, starts)


def underflows(counters, positions, count: int) -> bool:
    """Would deleting *count* of one key drive a counter negative?

    A delete lowers each of the key's positions once per occurrence, and
    the ``k`` positions may repeat, so a distinct counter must hold
    *count* times its multiplicity — the one-key case of the aggregated
    bulk check (:func:`aggregate_deltas`).
    """
    return any(counters.get(i) < count * positions.count(i)
               for i in set(positions))


def gather_rows(counters, matrix: np.ndarray) -> np.ndarray:
    """Counter values at every position of the ``(n, k)`` matrix."""
    n, k = matrix.shape
    return counters.get_many(matrix.ravel()).reshape(n, k)


def row_minima(counters, matrix: np.ndarray) -> np.ndarray:
    """Per-row minimum counter value — the vectorised ``m_x`` (§2.2)."""
    return gather_rows(counters, matrix).min(axis=1)


def ms_add_kernel(counters, matrix: np.ndarray, counts: np.ndarray,
                  sign: int = 1) -> None:
    """Aggregated Minimum-Selection scatter: add ``sign*count`` everywhere.

    Exact for any same-signed batch (adds commute; see module docstring
    for the negative-delta error equivalence).  Large batches accumulate
    through a dense ``bincount`` — O(m + nk) with no sort; the weighted
    variant goes through float64, which is exact for integer partial sums
    below 2^53, guarded by the total-mass check.
    """
    n, k = matrix.shape
    flat = matrix.ravel()
    m = len(counters)
    total = int(counts.sum())
    if flat.size >= (m >> 4) and total < (1 << 52):
        if bool((counts == 1).all()):
            dense = np.bincount(flat, minlength=m)
        else:
            weights = np.repeat(counts.astype(np.float64), k)
            dense = np.bincount(flat, weights=weights, minlength=m)
        uniq = np.flatnonzero(dense)
        sums = dense[uniq].astype(np.int64) * sign
    else:
        deltas = np.repeat(counts.astype(np.int64) * sign, k)
        uniq, sums = aggregate_deltas(flat, deltas)
    counters.add_many(uniq, sums)


def mi_schedule(matrix: np.ndarray,
                counts: np.ndarray | None = None,
                ) -> tuple[np.ndarray, np.ndarray, int]:
    """Wavefront dependency data for a Minimal-Increase row stream.

    An entry ``(row j, counter c)`` depends on the latest *earlier* row
    touching ``c`` (duplicate positions inside one row count once — the
    scalar path reads and writes them identically, so only the first
    occurrence is a dependency).  Returned as Kahn's-algorithm inputs:

    - ``succ`` — shaped like *matrix*; ``succ[j, l]`` is the next row
      after ``j`` touching the same counter (``-1`` when none, and on
      every deduplicated repeat of a counter within row ``j``);
    - ``indeg`` — per row, how many of its distinct counters were
      touched by an earlier row (its in-degree in the dependency DAG);
    - ``max_mass`` — with *counts* given, the largest per-counter total
      count mass of the batch (0 otherwise): an MI update never lifts a
      counter above ``value + count``, so ``current max + max_mass``
      bounds every counter the batch can produce, and the backend can be
      widened once without over-shooting the dtype ladder.

    One value-sort of the position stream produces all three: stable
    grouping orders each counter's entries by row, so a group lists the
    counter's dependency chain in order and each kept entry's successor
    is simply the next kept entry of its group.
    """
    n, k = matrix.shape
    if n == 0:
        empty = np.empty((0, k), dtype=np.int32)
        return empty, np.zeros(0, dtype=np.int64), 0
    sf, order = _grouped_order(matrix.ravel())
    rows_sorted = (order // np.int64(k)).astype(np.int32)
    is_start = np.r_[True, sf[1:] != sf[:-1]]
    # Same-row duplicates are adjacent inside a group (stable grouping
    # orders entries by original index, i.e. by row); keep the first.
    keep = is_start.copy()
    keep[1:] |= rows_sorted[1:] != rows_sorted[:-1]
    rsel = rows_sorted[keep]
    # Group starts are always kept, so consecutive kept entries sit in
    # the same group exactly when the second one is not a group start.
    chained = ~is_start[keep][1:]
    succ_sel = np.full(rsel.size, -1, dtype=np.int32)
    succ_sel[:-1][chained] = rsel[1:][chained]
    succ = np.full(n * k, -1, dtype=np.int32)
    succ[order[keep]] = succ_sel
    indeg = np.bincount(rsel[1:][chained], minlength=n)
    max_mass = 0
    if counts is not None and n:
        cum = np.cumsum(counts[rows_sorted])
        ends = np.r_[np.flatnonzero(is_start[1:]), n * k - 1]
        group_end = cum[ends]
        group_end[1:] -= group_end[:-1]
        max_mass = int(group_end.max())
    return succ.reshape(n, k), indeg, max_mass


def mi_insert_kernel(counters, matrix: np.ndarray,
                     counts: np.ndarray) -> None:
    """Minimal-Increase insert by wavefront (level) scheduling.

    Each round gathers every *ready* row's values (rows whose dependency
    in-degree has dropped to zero — see :func:`mi_schedule`), computes
    the conservative targets ``min + count`` and scatters only the
    counters below target — the exact scalar update for those rows.
    A round's rows are provably counter-disjoint (if rows ``j < j'``
    share a counter, ``j'`` sits strictly deeper in that counter's
    dependency chain, so it becomes ready strictly after ``j`` runs), so
    the batched gather/scatter is equivalent to applying them one at a
    time, and round order preserves the stream order between every
    conflicting pair — bit-identical to the scalar loop.  Processing a
    row releases each of its chain successors exactly once, so the
    scheduling work is one pass over the entries in total, not one scan
    per round.
    """
    n, k = matrix.shape
    if n == 0:
        return
    counts64 = counts.astype(np.int64)
    raw = None
    if hasattr(counters, "ensure_capacity"):
        succ, indeg, max_mass = mi_schedule(matrix, counts64)
        # Widen once up front — a counter never exceeds its start value
        # plus the count mass landing on it (targets are min + count ≤
        # own value + count), so per-round scatters cannot reallocate
        # mid-kernel and the raw array can be written directly, skipping
        # the get_many/set_many copies.  The per-counter mass bound
        # keeps narrow dtypes narrow where the whole-batch total would
        # have forced a wide (cache-hostile) ladder step.
        counters.ensure_capacity(int(counters.raw.max(initial=0)) + max_mass)
        raw = counters.raw
    else:
        succ, indeg, _ = mi_schedule(matrix)
    ready = np.flatnonzero(indeg == 0)
    while ready.size:
        rows = matrix[ready]
        if raw is not None:
            values = raw[rows]
            targets = values.min(axis=1).astype(np.int64) + counts64[ready]
            mask = values < targets[:, None]
            if mask.any():
                raw[rows[mask]] = np.broadcast_to(
                    targets[:, None], values.shape)[mask].astype(raw.dtype)
        else:
            flat = rows.ravel()
            values = counters.get_many(flat).reshape(ready.size, k)
            targets = values.min(axis=1) + counts64[ready]
            mask = values < targets[:, None]
            if mask.any():
                counters.set_many(
                    flat[mask.ravel()],
                    np.broadcast_to(targets[:, None], values.shape)[mask])
        released = succ[ready].ravel()
        released = released[released >= 0]
        if not released.size:
            break
        candidates, hits = np.unique(released, return_counts=True)
        indeg[candidates] -= hits
        ready = candidates[indeg[candidates] == 0]


def mi_delete_kernel(counters, matrix: np.ndarray,
                     counts: np.ndarray) -> None:
    """Minimal-Increase clamped delete: ``v <- max(0, v - sum)`` at once."""
    n, k = matrix.shape
    deltas = np.repeat(counts.astype(np.int64), k)
    uniq, sums = aggregate_deltas(matrix.ravel(), deltas)
    current = counters.get_many(uniq)
    counters.set_many(uniq, np.maximum(current - sums, 0))


def sequential_observed(flat: np.ndarray, deltas: np.ndarray,
                        start: np.ndarray, n: int, k: int) -> np.ndarray:
    """Per-entry post-add values, as sequential ``counters.add`` returns.

    *flat* is the row-major ``(n*k,)`` position stream, *deltas* the
    per-entry increments (row-major, signed), *start* the counter values
    gathered **before** any of the adds.  Returns an ``(n, k)`` matrix
    whose entry ``[j, l]`` equals what ``counters.add(flat[j*k+l],
    deltas[j*k+l])`` would have returned in stream order.
    """
    if flat.size == 0:
        return np.zeros((n, k), dtype=np.int64)
    sf, order = _grouped_order(flat)
    sd = deltas[order]
    cum = np.cumsum(sd)
    starts = np.flatnonzero(np.r_[True, sf[1:] != sf[:-1]])
    # Inclusive running sum within each equal-counter group.
    offsets = np.where(starts > 0, cum[starts - 1], 0)
    lengths = np.diff(np.r_[starts, sf.size])
    inclusive = cum - np.repeat(offsets, lengths)
    observed = np.empty(n * k, dtype=np.int64)
    observed[order] = start[order] + inclusive
    return observed.reshape(n, k)


def observed_add_kernel(counters, matrix: np.ndarray, counts: np.ndarray,
                        sign: int = 1) -> np.ndarray:
    """Apply the MS scatter-add *and* return the per-entry observed values.

    One call replaces the Recurring-Minimum bulk preamble — ``start =
    get_many(flat)``; :func:`ms_add_kernel`; :func:`sequential_observed`
    — with a single value-sort of the position stream:

    - the inclusive per-group running sum yields the observed deltas
      (group-start offsets carried by one monotone
      ``maximum.accumulate`` / ``minimum.accumulate``: same-signed
      deltas make the exclusive cumulative sum monotone, so the latest
      group start dominates every earlier one and the zero filler;
      mixed signs fall back to a group-id gather);
    - each group's *last* inclusive sum is simultaneously the aggregated
      per-counter delta, so the primary add needs no second
      aggregation pass (and no dense bincount over ``m``);
    - the batch-start counter values are gathered once per *distinct*
      counter and broadcast back through the group ids, instead of once
      per entry.

    Returns the ``(n, k)`` observed matrix — entry ``[j, l]`` equals what
    ``counters.add(matrix[j, l], sign * counts[j])`` would have returned
    in stream order.  Exactly the values :func:`sequential_observed`
    computes (the property tests pin this down), with the counter state
    advanced the same way :func:`ms_add_kernel` advances it — including
    raising before any mutation when a same-signed batch would drive a
    counter negative.
    """
    n, k = matrix.shape
    if n == 0:
        return np.zeros((0, k), dtype=np.int64)
    sf, order = _grouped_order(matrix.ravel())
    # counts[order // k] beats materialising the k-repeated delta stream
    # and then permuting it: one divide replaces repeat + gather.
    sd = (counts.astype(np.int64) * sign)[order // k]
    cum = np.cumsum(sd)
    is_start = np.r_[True, sf[1:] != sf[:-1]]
    excl = cum - sd
    if sign >= 0 and bool(sd.min(initial=0) >= 0):
        base = np.maximum.accumulate(np.where(is_start, excl, 0))
        gid = None
    elif sign < 0 and bool(sd.max(initial=0) <= 0):
        base = np.minimum.accumulate(np.where(is_start, excl, 0))
        gid = None
    else:
        gid = np.cumsum(is_start) - 1
        base = excl[is_start][gid]
    inclusive = cum - base
    is_end = np.r_[is_start[1:], True]
    uniq = sf[is_end]
    start_vals = counters.get_many(uniq)
    counters.add_many(uniq, inclusive[is_end])
    if gid is None:
        gid = np.cumsum(is_start) - 1
    observed = np.empty(n * k, dtype=np.int64)
    observed[order] = start_vals[gid] + inclusive
    return observed.reshape(n, k)


def set_bits(bitvector, positions: np.ndarray) -> None:
    """Set every bit position in *positions* (duplicates fine) at once.

    The scalar equivalent — ``set_bit`` per position — is the hot loop of
    a bulk Recurring Minimum insert when most keys move to the secondary
    (millions of marker bits).  Build the new bits as a boolean array,
    pack, and OR into the existing words.
    """
    words = bitvector._words
    if not words:
        for position in np.unique(positions).tolist():
            bitvector.set_bit(position)
        return
    fresh = np.zeros(len(words) * 64, dtype=bool)
    fresh[positions] = True
    packed = np.packbits(fresh, bitorder="little").view(np.uint64)
    current = np.asarray(words, dtype=np.uint64)
    words[:] = (current | packed).tolist()


def bits_array(bitvector, nbits: int) -> np.ndarray:
    """A BitVector's first *nbits* bits as a boolean numpy array."""
    words = np.asarray(bitvector._words, dtype=np.uint64)
    if words.size == 0:
        return np.zeros(nbits, dtype=bool)
    unpacked = np.unpackbits(words.view(np.uint8), bitorder="little")
    return unpacked[:nbits].astype(bool)
