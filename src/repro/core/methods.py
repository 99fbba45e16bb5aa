"""SBF maintenance and lookup methods (paper §2.2, §3.2, §3.3).

Each method is a strategy object bound to one
:class:`~repro.core.sbf.SpectralBloomFilter`.  The filter forwards
``insert``/``delete``/``estimate`` here; methods own any auxiliary state
(Recurring Minimum's secondary SBF and optional marker Bloom filter).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core import kernels


def _as_key_list(keys) -> list:
    """Batch keys as plain Python objects (numpy ints would not hash)."""
    if isinstance(keys, np.ndarray):
        return keys.tolist()
    return list(keys)


class Method(ABC):
    """Strategy interface for SBF maintenance and lookup."""

    #: short name used in reports and tables
    name: str = "abstract"
    #: whether deletions are supported without breaking one-sided errors
    supports_deletion: bool = True

    def __init__(self, sbf):
        self.sbf = sbf

    @abstractmethod
    def insert(self, key: object, count: int) -> None:
        """Record *count* occurrences of *key*."""

    @abstractmethod
    def delete(self, key: object, count: int) -> None:
        """Remove *count* occurrences of *key*."""

    @abstractmethod
    def estimate(self, key: object) -> int:
        """Frequency estimate for *key*."""

    # -- bulk operations ------------------------------------------------
    # The filter hands every batch to the method together with the
    # already-computed canonical values and primary position matrix, so
    # methods never re-hash.  The base implementations fall back to the
    # scalar loop — exact by construction — and each paper method
    # overrides them with the vectorised kernel proven equivalent in
    # :mod:`repro.core.kernels`.

    def insert_many(self, keys, counts: np.ndarray, canon: np.ndarray,
                    matrix: np.ndarray) -> None:
        """Record ``counts[j]`` occurrences of ``keys[j]`` for every j."""
        for key, count in zip(_as_key_list(keys), counts.tolist()):
            self.insert(key, int(count))

    def delete_many(self, keys, counts: np.ndarray, canon: np.ndarray,
                    matrix: np.ndarray) -> None:
        """Remove ``counts[j]`` occurrences of ``keys[j]`` for every j."""
        for key, count in zip(_as_key_list(keys), counts.tolist()):
            self.delete(key, int(count))

    def estimate_many(self, keys, canon: np.ndarray,
                      matrix: np.ndarray) -> np.ndarray:
        """Frequency estimates for a key batch, as an int64 array."""
        key_list = _as_key_list(keys)
        return np.fromiter((self.estimate(key) for key in key_list),
                           dtype=np.int64, count=len(key_list))

    def storage_bits(self) -> int:
        """Extra bits beyond the primary counter vector (default none)."""
        return 0

    def options(self) -> dict:
        """Constructor options needed to clone this method's configuration."""
        return {}

    def merge_from(self, a: "Method", b: "Method") -> None:
        """Hook called on the method of a freshly-unioned filter.

        The primary counters were already added by
        :meth:`SpectralBloomFilter.union`; methods with auxiliary state
        (Recurring Minimum) merge it here.
        """

    def integrity_issues(self) -> list[str]:
        """Method-specific invariant violations (empty list = consistent).

        Called by :meth:`SpectralBloomFilter.check_integrity` so receivers
        of a deserialised filter can audit it before trusting it; each
        method knows the relation its maintenance scheme keeps between the
        counter vector and ``total_count``.
        """
        return []


class MinimumSelection(Method):
    """The basic scheme (§2.2): increment all counters, estimate = minimum.

    Claim 1: for every x, ``m_x >= f_x`` and ``P(m_x != f_x) = E_b`` — the
    standard Bloom error.  Supports deletions by decrementing (§2.2).
    """

    name = "ms"
    supports_deletion = True

    def insert(self, key: object, count: int) -> None:
        sbf = self.sbf
        add = sbf.counters.add
        for i in sbf.family.indices(key):
            add(i, count)

    def delete(self, key: object, count: int) -> None:
        sbf = self.sbf
        add = sbf.counters.add
        for i in sbf.family.indices(key):
            add(i, -count)

    def estimate(self, key: object) -> int:
        return self.sbf.min_counter(key)

    def insert_many(self, keys, counts, canon, matrix) -> None:
        kernels.ms_add_kernel(self.sbf.counters, matrix, counts)

    def delete_many(self, keys, counts, canon, matrix) -> None:
        kernels.ms_add_kernel(self.sbf.counters, matrix, counts, sign=-1)

    def estimate_many(self, keys, canon, matrix) -> np.ndarray:
        return kernels.row_minima(self.sbf.counters, matrix)

    def integrity_issues(self) -> list[str]:
        # MS adds every insert/delete to all k counters, so the counter sum
        # is exactly k * N — except for join products, whose total_count is
        # defined as sum // k (see SpectralBloomFilter.multiply), hence the
        # one-sub-k tolerance.
        sbf = self.sbf
        total = sum(sbf.counters)
        low = sbf.k * sbf.total_count
        if not low <= total < low + sbf.k:
            return [f"ms: counter sum {total} inconsistent with "
                    f"k*N = {sbf.k} * {sbf.total_count}"]
        return []


class MinimalIncrease(Method):
    """Minimal Increase (§3.2; independently "conservative update" [EV02]).

    On insert of r occurrences, only counters equal to the minimum advance;
    every counter becomes ``max(old, m_x + r)``.  This performs the minimal
    number of increases that preserves ``m_x >= f_x``, cutting both error
    probability and error size (Claims 4-5: never worse than MS; ~k-fold
    error reduction for uniform data).

    Deletions are *not* supported by the scheme (§3.2: "when allowing
    deletions the Minimal Increase algorithm introduces ... false-negative
    errors").  We implement delete as a clamped decrement of all counters so
    Figure 8's "MI with deletions" experiments can quantify exactly that
    failure mode; production users should pick RM when deletes are needed.
    """

    name = "mi"
    supports_deletion = False

    def insert(self, key: object, count: int) -> None:
        counters = self.sbf.counters
        idx = self.sbf.indices(key)
        values = [counters.get(i) for i in idx]
        target = min(values) + count
        for i, value in zip(idx, values):
            if value < target:
                counters.set(i, target)

    def delete(self, key: object, count: int) -> None:
        counters = self.sbf.counters
        for i in self.sbf.indices(key):
            counters.add_clamped(i, -count)

    def estimate(self, key: object) -> int:
        return self.sbf.min_counter(key)

    def insert_many(self, keys, counts, canon, matrix) -> None:
        # Conservative update is order-dependent, so the kernel runs
        # wavefront rounds (see repro.core.kernels).  Array-shaped
        # backends get true vector speed; the succinct backends still
        # profit because each round's get_many/set_many touches every
        # coded subgroup at most once instead of once per key.
        kernels.mi_insert_kernel(self.sbf.counters, matrix, counts)

    def delete_many(self, keys, counts, canon, matrix) -> None:
        kernels.mi_delete_kernel(self.sbf.counters, matrix, counts)

    def estimate_many(self, keys, canon, matrix) -> np.ndarray:
        return kernels.row_minima(self.sbf.counters, matrix)

    def integrity_issues(self) -> list[str]:
        # An MI insert of r raises each counter by at most r, so the sum
        # never exceeds k * N.  (Clamped deletions — unsupported by the
        # scheme — can break this bound; a filter that trips it genuinely
        # lost its one-sided guarantee.)
        sbf = self.sbf
        issues = []
        if sbf.total_count < 0:
            issues.append(f"mi: total_count is negative "
                          f"({sbf.total_count})")
        total = sum(sbf.counters)
        if total > sbf.k * max(0, sbf.total_count):
            issues.append(f"mi: counter sum {total} exceeds "
                          f"k*N = {sbf.k} * {sbf.total_count}")
        return issues


class RecurringMinimum(Method):
    """Recurring Minimum (§3.3): shadow single-minimum items in a 2nd SBF.

    Observation: an item suffering a Bloom error typically has a *single*
    minimum among its k counters; items with a recurring (repeated) minimum
    are very likely accurate.  On insert, items detected with a single
    minimum are copied into a smaller secondary SBF that sees only that
    small fraction of items, hence enjoys much better parameters.  Lookups
    trust a recurring minimum, otherwise consult the secondary.

    Args:
        secondary_m: size of the secondary SBF (default ``m // 2``, the
            Table 1 setting).
        secondary_k: hash count of the secondary (default: same ``k``).
        use_marker: maintain the §3.3 refinement — a Bloom filter ``Bf`` of
            size ``m`` marking items that were moved to the secondary, so
            they keep being handled there.  Defaults to True: the marker
            makes secondary updates *symmetric* (an item only ever
            decrements secondary counters it incremented), which is what
            guarantees RM never under-estimates under deletions.  With
            ``use_marker=False`` the method follows §3.3's text criterion
            ("if it has a single minimum") instead; that version can — as
            a rare edge under delete-heavy workloads — corrupt a shadow
            downwards and produce a false negative.
    """

    name = "rm"
    supports_deletion = True

    def __init__(self, sbf, secondary_m: int | None = None,
                 secondary_k: int | None = None, use_marker: bool = True):
        super().__init__(sbf)
        from repro.core.sbf import SpectralBloomFilter
        self.secondary_m = int(secondary_m if secondary_m is not None
                               else max(1, sbf.m // 2))
        self.secondary_k = int(secondary_k if secondary_k is not None
                               else sbf.k)
        self.use_marker = bool(use_marker)
        # Decorrelate the secondary's hash functions from the primary's by
        # deriving a distinct seed; same family type keeps reproducibility.
        self.secondary = SpectralBloomFilter(
            self.secondary_m, self.secondary_k, method="ms",
            seed=sbf.seed + 0x5B0F, hash_family=type(sbf.family),
            backend=type(sbf.counters),
            backend_options=sbf.counters.options())
        if self.use_marker:
            from repro.filters.bloom import BloomFilter
            self.marker = BloomFilter(sbf.m, sbf.k, seed=sbf.seed + 0xB1F,
                                      hash_family=type(sbf.family))
        else:
            self.marker = None

    def options(self) -> dict:
        return {
            "secondary_m": self.secondary_m,
            "secondary_k": self.secondary_k,
            "use_marker": self.use_marker,
        }

    # -- helpers -------------------------------------------------------
    def _has_recurring_minimum(self, values: tuple[int, ...]) -> bool:
        """True if the minimal value occurs in two or more counters.

        With k = 1 there is a single counter, hence always a "single
        minimum"; the method then degenerates gracefully (everything is
        shadowed).
        """
        lowest = min(values)
        seen = 0
        for v in values:
            if v == lowest:
                seen += 1
                if seen == 2:
                    return True
        return False

    def _secondary_min(self, key: object) -> int:
        return self.secondary.min_counter(key)

    # -- operations ----------------------------------------------------
    def insert(self, key: object, count: int) -> None:
        sbf = self.sbf
        counters = sbf.counters
        idx = sbf.indices(key)
        values = []
        for i in idx:
            values.append(counters.add(i, count))
        if self.marker is not None:
            if key in self.marker:
                self.secondary.insert(key, count)
                return
        elif self._secondary_min(key) > 0:
            # Already shadowed: keep the shadow in lockstep so it never
            # undercounts.  (The paper's §3.3 text only touches the
            # secondary for single-minimum inserts, which can leave a stale
            # shadow behind and — rarely — a false negative; always updating
            # a present shadow is exactly what the marker-filter refinement
            # achieves and preserves the one-sided-error guarantee.)
            self.secondary.insert(key, count)
            return
        if self._has_recurring_minimum(tuple(values)):
            return
        # Single minimum: move the item into the secondary SBF with an
        # initial value equal to its (possibly contaminated) primary minimum.
        self.secondary.insert(key, min(values))
        if self.marker is not None:
            self.marker.add(key)
        self._on_moved_to_secondary(key, values)

    def _on_moved_to_secondary(self, key: object,
                               values: list[int]) -> None:
        """Hook for the Trapping refinement (§3.3.1)."""

    def delete(self, key: object, count: int) -> None:
        sbf = self.sbf
        counters = sbf.counters
        idx = sbf.indices(key)
        values = []
        for i in idx:
            values.append(counters.add(i, -count))
        in_secondary = (key in self.marker) if self.marker is not None \
            else not self._has_recurring_minimum(tuple(values))
        if in_secondary:
            # "decrease its counters in the secondary SBF, unless at least
            # one of them is 0" (§3.3) — a counter the key's positions
            # repeat must cover the decrement once per repeat.
            secondary = self.secondary
            if not kernels.underflows(secondary.counters,
                                      secondary.indices(key), count):
                secondary.delete(key, count)

    def estimate(self, key: object) -> int:
        values = self.sbf.counter_values(key)
        lowest = min(values)
        if self._has_recurring_minimum(values):
            return lowest
        if self.marker is not None and key not in self.marker:
            return lowest
        shadow = self._secondary_min(key)
        if shadow > 0:
            # Both the primary minimum and the shadow upper-bound f_x (the
            # shadow starts at the transfer-time minimum and then moves in
            # lockstep), so the tighter of the two is still one-sided.  The
            # paper returns the shadow outright; taking the min dominates
            # that choice.
            return min(shadow, lowest)
        return lowest

    # -- bulk operations ------------------------------------------------
    def insert_many(self, keys, counts, canon, matrix) -> None:
        if (self.marker is None
                or type(self)._on_moved_to_secondary
                is not RecurringMinimum._on_moved_to_secondary):
            # Without the marker the §3.3 text criterion reads the
            # secondary mid-stream, and a move hook (Trapping) needs the
            # per-key sequence — both keep the exact scalar order.
            Method.insert_many(self, keys, counts, canon, matrix)
            return
        from repro.hashing.vectorized import matrix_for
        n, k = matrix.shape
        # One fused pass applies the primary adds and recovers the values
        # each scalar add() would have returned, in stream order — the
        # inputs to the recurring-minimum test.
        observed = kernels.observed_add_kernel(self.sbf.counters, matrix,
                                               counts)
        lowest = observed.min(axis=1)
        recurring = (observed == lowest[:, None]).sum(axis=1) >= 2
        # Marker membership *at each key's turn*: batch-start bits plus
        # the earliest earlier key that covered each bit.  Only
        # non-recurring keys matter as coverers — a moved key sets its
        # bits, and a key already in the marker has them set anyway, so
        # including it never changes any bit's cover time.
        marker = self.marker
        mrows = matrix_for(marker.family, canon)
        start_set = kernels.bits_array(marker.bits, marker.m)
        first_cover = np.where(start_set, np.int64(-1), np.int64(n))
        adders = np.flatnonzero(~recurring)
        if adders.size:
            np.minimum.at(first_cover, mrows[adders].ravel(),
                          np.repeat(adders, mrows.shape[1]))
        in_marker = first_cover[mrows].max(axis=1) < np.arange(n)
        moved = ~in_marker & ~recurring
        # Secondary updates are MS adds with already-fixed values (count
        # for shadow-following keys, the observed minimum for moves), so
        # they commute and apply as one bulk pass; the scalar path never
        # reads the secondary during marker-mode inserts.
        shadowed = in_marker | moved
        if shadowed.any():
            values = np.where(in_marker, counts, lowest)[shadowed]
            smatrix = matrix_for(self.secondary.family, canon[shadowed])
            kernels.ms_add_kernel(self.secondary.counters, smatrix, values)
            self.secondary.total_count += int(values.sum())
        if moved.any():
            kernels.set_bits(marker.bits, mrows[moved].ravel())
            marker.n_added += int(moved.sum())

    def delete_many(self, keys, counts, canon, matrix) -> None:
        from repro.hashing.vectorized import matrix_for
        n, k = matrix.shape
        observed = kernels.observed_add_kernel(self.sbf.counters, matrix,
                                               counts, sign=-1)
        if self.marker is not None:
            # Deletes never change the marker, so one batch-start gather
            # answers every membership test.
            mrows = matrix_for(self.marker.family, canon)
            bits = kernels.bits_array(self.marker.bits, self.marker.m)
            in_secondary = bits[mrows].all(axis=1)
        else:
            lowest = observed.min(axis=1)
            in_secondary = (observed == lowest[:, None]).sum(axis=1) < 2
        # The "unless a shadow counter is 0" guard reads values earlier
        # deletes may have lowered, so shadow updates replay in stream
        # order — they are the rare fraction; the primary scatter above
        # carries the batch.
        secondary = self.secondary
        for j in np.flatnonzero(in_secondary).tolist():
            srow = secondary.family.indices_hashed(int(canon[j]))
            count = int(counts[j])
            if not kernels.underflows(secondary.counters, srow, count):
                for i in srow:
                    secondary.counters.add(i, -count)
                secondary.total_count -= count

    def estimate_many(self, keys, canon, matrix) -> np.ndarray:
        from repro.hashing.vectorized import matrix_for
        values = kernels.gather_rows(self.sbf.counters, matrix)
        lowest = values.min(axis=1)
        consult = (values == lowest[:, None]).sum(axis=1) < 2
        if self.marker is not None and consult.any():
            mrows = matrix_for(self.marker.family, canon)
            bits = kernels.bits_array(self.marker.bits, self.marker.m)
            consult &= bits[mrows].all(axis=1)
        out = lowest.astype(np.int64)
        if consult.any():
            smatrix = matrix_for(self.secondary.family, canon[consult])
            shadow = kernels.row_minima(self.secondary.counters, smatrix)
            primary = lowest[consult]
            out[consult] = np.where(shadow > 0,
                                    np.minimum(shadow, primary), primary)
        return out

    def storage_bits(self) -> int:
        bits = self.secondary.storage_bits()
        if self.marker is not None:
            bits += self.marker.storage_bits()
        return bits

    def merge_from(self, a: "Method", b: "Method") -> None:
        if isinstance(a, RecurringMinimum) and isinstance(b, RecurringMinimum):
            self.secondary = a.secondary.union(b.secondary)
            if self.marker is not None and a.marker and b.marker:
                self.marker = a.marker.union(b.marker)

    def integrity_issues(self) -> list[str]:
        # The RM primary is maintained exactly like MS (every operation
        # touches all k counters), so the same sum invariant applies; on
        # top of that the secondary/marker configuration must be
        # self-consistent for lookups to stay one-sided.
        sbf = self.sbf
        issues = []
        total = sum(sbf.counters)
        low = sbf.k * sbf.total_count
        if not low <= total < low + sbf.k:
            issues.append(f"rm: primary counter sum {total} inconsistent "
                          f"with k*N = {sbf.k} * {sbf.total_count}")
        if (self.secondary.m != self.secondary_m
                or self.secondary.k != self.secondary_k):
            issues.append(
                f"rm: secondary is ({self.secondary.m}, {self.secondary.k}) "
                f"but options declare ({self.secondary_m}, "
                f"{self.secondary_k})")
        else:
            issues.extend(f"rm secondary: {issue}"
                          for issue in self.secondary.check_integrity())
        if self.use_marker:
            if self.marker is None:
                issues.append("rm: use_marker=True but no marker filter")
            elif (self.marker.m, self.marker.k) != (sbf.m, sbf.k):
                issues.append(
                    f"rm: marker is ({self.marker.m}, {self.marker.k}) but "
                    f"must match the primary ({sbf.m}, {sbf.k})")
            elif self.secondary.total_count > 0 and self.marker.n_added == 0:
                issues.append("rm: secondary holds shadows but the marker "
                              "filter is empty")
        elif self.marker is not None:
            issues.append("rm: marker present although use_marker=False")
        return issues


_METHODS = {
    "ms": MinimumSelection,
    "minimum-selection": MinimumSelection,
    "mi": MinimalIncrease,
    "minimal-increase": MinimalIncrease,
    "rm": RecurringMinimum,
    "recurring-minimum": RecurringMinimum,
}


def make_method(method: object, sbf, **options) -> Method:
    """Build a method by short name or class for the given filter.

    Accepted names: ``"ms"``, ``"mi"``, ``"rm"``, ``"trm"`` (and their long
    forms).  ``"trm"`` resolves lazily to avoid an import cycle.
    """
    if isinstance(method, Method):
        raise TypeError(
            "method instances are bound to one filter; pass the class or "
            "its short name instead"
        )
    if isinstance(method, type) and issubclass(method, Method):
        return method(sbf, **options)
    if method in ("trm", "trapping", "trapping-recurring-minimum"):
        from repro.core.trapping import TrappingRecurringMinimum
        return TrappingRecurringMinimum(sbf, **options)
    try:
        cls = _METHODS[method]
    except (KeyError, TypeError):
        known = sorted(_METHODS) + ["trm"]
        raise ValueError(
            f"unknown method {method!r}; expected one of {known}"
        ) from None
    return cls(sbf, **options)
