"""The Spectral Bloom Filter (paper §2).

An SBF replaces the Bloom filter's bit vector with a vector ``C`` of ``m``
counters addressed by ``k`` hash functions.  Inserting an item increases its
``k`` counters; the frequency estimate for a query item is derived from
those counters by the configured *method*:

- ``"ms"`` — Minimum Selection (§2.2): plain increments, estimate = minimum
  counter.  Errors are one-sided (``estimate >= true``) and occur with the
  classic Bloom-error probability ``E_b``.
- ``"mi"`` — Minimal Increase (§3.2): on insert only the minimal counters
  advance; roughly ``k`` times fewer errors on insert-only streams, but
  deletions produce false negatives (Figure 8).
- ``"rm"`` — Recurring Minimum (§3.3): single-minimum items are shadowed in
  a secondary SBF; supports deletions with accuracy well beyond MS.
- ``"trm"`` — Trapping Recurring Minimum (§3.3.1): RM plus per-counter traps
  that repair late-detected contamination.

Example:
    >>> from repro.core import SpectralBloomFilter
    >>> sbf = SpectralBloomFilter(m=1000, k=5, seed=42)
    >>> for item in ["a", "b", "a", "c", "a"]:
    ...     sbf.insert(item)
    >>> sbf.query("a")
    3
    >>> sbf.query("zzz")          # non-member -> 0 (w.h.p.)
    0
    >>> sbf.contains("a", threshold=2)
    True
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.core import kernels
from repro.core.params import bloom_error, optimal_k, optimal_m
from repro.hashing.families import HashFamily, make_family
from repro.storage.backends import CounterBackend, make_backend

#: counts stay below 2**63: int64 counters, WAL bodies and frames hold them
_COUNT_END = 1 << 63

#: what the count rule raises for a count it refuses
COUNT_ERRORS = (TypeError, ValueError, OverflowError)


def check_count(count, what: str = "count") -> int:
    """The count rule: a frequency is an integer in ``[0, 2**63)``.

    Returns it as an ``int`` (numpy integers included); refuses a
    ``bool`` or any non-integer with ``TypeError``, a negative value with
    ``ValueError`` and one past int64 with ``OverflowError``.  Every
    serving layer runs it, so each refuses what the filter refuses.
    """
    if type(count) is not int:
        if isinstance(count, bool) or not isinstance(count,
                                                     (int, np.integer)):
            raise TypeError(f"{what} must be an integer, got {count!r}")
        count = int(count)
    if 0 <= count < _COUNT_END:
        return count
    if count < 0:
        raise ValueError(f"{what} must be >= 0, got {count}")
    raise OverflowError(f"{what} must be below 2**63, got {count}")


def check_threshold(threshold) -> int:
    """The spectral-membership guard: the count rule for a ``contains``
    *threshold* (every serving layer's ``contains`` runs it too)."""
    return check_count(threshold, "threshold")


def check_counts(counts, n: int) -> np.ndarray:
    """The count rule over a batch of *n* keys, as an int64 array:
    *counts* is ``None`` (one each), one count for every key, or a list,
    tuple or integer array of *n* counts.  Refuses with the point rule's
    types, and with ``ValueError`` when the lengths differ."""
    if counts is None:
        return np.ones(n, dtype=np.int64)
    if not isinstance(counts, (list, tuple, np.ndarray)):
        return np.full(n, check_count(counts), dtype=np.int64)
    if isinstance(counts, np.ndarray) and counts.dtype.kind in "iu" \
            and np.can_cast(counts.dtype, np.int64):
        array = counts.astype(np.int64, copy=False)
    else:
        array = _count_array(counts)
    if array.shape != (n,):
        raise ValueError(f"expected {n} counts, got shape {array.shape}")
    if array.size and int(array.min()) < 0:
        raise ValueError(f"count must be >= 0, got {int(array.min())}")
    return array


def _count_array(counts) -> np.ndarray:
    """Counts as int64: numpy's own conversion when every entry is an
    ``int`` in range, else the point rule entry by entry (numpy reads
    ``True`` as 1, ``"2"`` as 2 and ``[2**63, 1]`` as floats)."""
    if isinstance(counts, np.ndarray):
        counts = counts.tolist()
    if set(map(type, counts)) <= {int}:
        try:
            return np.asarray(counts, dtype=np.int64)
        except OverflowError:
            pass                 # an int past int64: the point rule names it
    return np.asarray([check_count(c) for c in counts], dtype=np.int64)


def batch_total(counts: np.ndarray) -> int:
    """The exact sum of a :func:`check_counts` array (an int64 sum can
    wrap)."""
    if counts.size and int(counts.max()) >= _COUNT_END // counts.size:
        return sum(counts.tolist())
    return int(counts.sum())


def prepare_batch(keys, counts) -> tuple:
    """Normalise a key/count batch for the bulk kernels.

    Returns ``(keys, counts)``: *keys* a list, tuple or array, *counts*
    the :func:`check_counts` array, and zero-count entries dropped from
    both (the scalar path skips them before the method sees them — for
    RM a zero insert must not touch the secondary).
    """
    if not isinstance(keys, (list, tuple, np.ndarray)):
        keys = list(keys)
    counts = check_counts(counts, len(keys))
    if counts.size and int(counts.min()) == 0:
        keep = counts > 0
        counts = counts[keep]
        if isinstance(keys, np.ndarray):
            keys = keys[keep]
        else:
            keys = [key for key, flag in zip(keys, keep.tolist()) if flag]
    return keys, counts


class SpectralBloomFilter:
    """A multiset synopsis supporting frequency queries with one-sided error.

    Args:
        m: number of counters.
        k: number of hash functions.
        method: maintenance/lookup scheme — ``"ms"``, ``"mi"``, ``"rm"``,
            ``"trm"`` or a :class:`~repro.core.methods.Method` subclass.
        seed: master seed; hash functions and any auxiliary structures are
            derived from it deterministically.
        hash_family: ``"modmul"`` (the paper's scheme, default),
            ``"multiply-shift"``, ``"tabulation"``, ``"double"`` or a
            :class:`~repro.hashing.families.HashFamily` instance.
        backend: counter storage — ``"array"`` (default), ``"numpy"``
            (vectorised counters, the bulk-operation backend),
            ``"compact"`` (String-Array Index, §4) or ``"stream"``
            (§4.5).
        backend_options: extra keyword arguments for the backend.
        method_options: extra keyword arguments for the method (e.g.
            ``secondary_m`` / ``use_marker`` for Recurring Minimum).
    """

    def __init__(self, m: int, k: int, *, method: object = "ms",
                 seed: int = 0, hash_family: object = "modmul",
                 backend: object = "array",
                 backend_options: Mapping | None = None,
                 method_options: Mapping | None = None):
        if m <= 0:
            raise ValueError(f"m must be positive, got {m}")
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.m = int(m)
        self.k = int(k)
        self.seed = int(seed)
        self.family: HashFamily = make_family(hash_family, self.m, self.k,
                                              seed=self.seed)
        self.counters: CounterBackend = make_backend(
            backend, self.m, **dict(backend_options or {}))
        # Total multiplicity currently represented (the paper's N = sum f_x);
        # needed by the §3.1 unbiased estimator and for sizing diagnostics.
        self.total_count = 0
        from repro.core.methods import make_method
        self.method = make_method(method, self, **dict(method_options or {}))

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def for_items(cls, n: int, error_rate: float = 0.01,
                  **kwargs) -> "SpectralBloomFilter":
        """Size a filter for *n* expected distinct items at *error_rate*."""
        m = optimal_m(n, error_rate)
        k = optimal_k(m, n)
        return cls(m, k, **kwargs)

    @classmethod
    def from_counts(cls, counts: Mapping[object, int],
                    error_rate: float = 0.01,
                    **kwargs) -> "SpectralBloomFilter":
        """Build a filter holding a whole multiset given as ``{key: f}``."""
        sbf = cls.for_items(max(1, len(counts)), error_rate, **kwargs)
        sbf.update(counts)
        return sbf

    # ------------------------------------------------------------------
    # core operations
    # ------------------------------------------------------------------
    def indices(self, key: object) -> tuple[int, ...]:
        """The ``k`` counter positions of *key*."""
        return tuple(self.family.indices(key))

    def counter_values(self, key: object) -> tuple[int, ...]:
        """The sequence ``v_x`` of *key*'s counter values (§2.2)."""
        get = self.counters.get
        return tuple([get(i) for i in self.family.indices(key)])

    def min_counter(self, key: object) -> int:
        """``m_x`` — the minimal counter value of *key* (§2.2)."""
        get = self.counters.get
        return min([get(i) for i in self.family.indices(key)])

    def insert(self, key: object, count: int = 1) -> None:
        """Record *count* occurrences of *key* (:func:`check_count`)."""
        count = self.check_total(check_count(count))
        if count == 0:
            return
        self.method.insert(key, count)
        self.total_count += count

    def check_total(self, added: int) -> int:
        """The total guard: ``OverflowError`` if inserting *added* would
        take ``total_count`` to 2**63.  Read-only; returns *added*."""
        if self.total_count + added >= _COUNT_END:
            raise OverflowError(
                f"inserting {added} would take total_count to "
                f"{self.total_count + added}, past int64")
        return added

    def delete(self, key: object, count: int = 1) -> None:
        """Remove *count* occurrences of *key* (assumed present, §2.2).

        All-or-nothing: a delete :meth:`check_delete` refuses raises
        before any counter moves.
        """
        count = self.check_delete(key, count)
        if count == 0:
            return
        self.method.delete(key, count)
        self.total_count -= count

    def check_delete(self, key: object, count: int = 1) -> int:
        """The delete guard: the count rule, then ``ValueError`` if
        deleting *count* of *key* would drive a counter negative.

        Read-only (returns the checked count), so a durable handle runs
        it before logging.  Minimal Increase deletes clamp at zero (§3.2)
        and are never refused for underflow.
        """
        count = check_count(count)
        if count and self.method.name != "mi" and kernels.underflows(
                self.counters, self.indices(key), count):
            raise ValueError(
                f"deleting {count} of {key!r} would drive a counter "
                f"negative (estimate {self.min_counter(key)})")
        return count

    def set(self, key: object, count: int) -> None:
        """Force ``f_key := count``.

        Applied as the insert/delete delta against the current estimate;
        WAL replay performs this same reduction, so recovered state
        matches served state.
        """
        count = check_count(count)
        current = self.query(key)
        if count > current:
            self.insert(key, count - current)
        elif count < current:
            self.delete(key, current - count)

    def check_set(self, key: object, count: int) -> int:
        """The guard of :meth:`set`: the count rule, then the delete or
        total guard for the reduction's delta.  Read-only, like
        :meth:`check_delete`; returns the checked count."""
        count = check_count(count)
        current = self.query(key)
        if count < current:
            self.check_delete(key, current - count)
        else:
            self.check_total(count - current)
        return count

    def update(self, items: Mapping[object, int] | Iterable) -> None:
        """Bulk insert: a ``{key: count}`` mapping or an iterable of keys.

        Routed through :meth:`insert_many`, so dict/stream construction
        gets the vectorised kernels for free.
        """
        if isinstance(items, Mapping):
            self.insert_many(list(items.keys()), list(items.values()))
        elif isinstance(items, (list, tuple, np.ndarray)):
            self.insert_many(items)
        else:
            self.insert_many(list(items))

    # ------------------------------------------------------------------
    # bulk operations
    # ------------------------------------------------------------------
    def insert_many(self, keys, counts=None) -> None:
        """Record a whole batch: ``counts[j]`` occurrences of ``keys[j]``.

        Equivalent to ``for key, c in zip(keys, counts): insert(key, c)``
        — the bulk kernels are proven bit-identical per method (see
        :mod:`repro.core.kernels`) — but vectorised: one hashing pass and
        aggregated counter scatters instead of per-key Python calls.

        Args:
            keys: a sequence (or numpy array) of keys.
            counts: per-key multiplicities — ``None`` (one each), a single
                int applied to every key, or a sequence aligned with
                *keys* (:func:`check_counts`).  Zero counts are skipped.
        """
        from repro.hashing.vectorized import canonicalize_many, matrix_for
        keys, counts = prepare_batch(keys, counts)
        if not counts.size:
            return
        added = self.check_total(batch_total(counts))
        canon = canonicalize_many(keys)
        matrix = matrix_for(self.family, canon)
        self.method.insert_many(keys, counts, canon, matrix)
        self.total_count += added

    def delete_many(self, keys, counts=None) -> None:
        """Remove a batch of occurrences (each key assumed present, §2.2).

        Bit-identical to the scalar delete loop on success, and
        all-or-nothing on every backend: a batch :meth:`check_delete_many`
        refuses raises before any counter moves.
        """
        from repro.hashing.vectorized import canonicalize_many, matrix_for
        keys, counts = prepare_batch(keys, counts)
        if not counts.size:
            return
        canon = canonicalize_many(keys)
        matrix = matrix_for(self.family, canon)
        self._check_underflow(matrix, counts)
        self.method.delete_many(keys, counts, canon, matrix)
        self.total_count -= batch_total(counts)

    def check_delete_many(self, keys, counts=None) -> None:
        """The bulk delete-underflow guard (read-only, like
        :meth:`check_delete`).

        Every delete lowers all ``k`` primary counters of its key, so a
        batch underflows in any order iff the aggregated decrement of some
        counter exceeds its current value — the one check, made up front.
        """
        from repro.hashing.vectorized import canonicalize_many, matrix_for
        keys, counts = prepare_batch(keys, counts)
        if counts.size:
            self._check_underflow(
                matrix_for(self.family, canonicalize_many(keys)), counts)

    def _check_underflow(self, matrix: np.ndarray,
                         counts: np.ndarray) -> None:
        if self.method.name == "mi":
            return
        uniq, sums = kernels.aggregate_deltas(
            matrix.ravel(), np.repeat(counts, self.k))
        current = self.counters.get_many(uniq)
        short = current < sums
        if bool(short.any()):
            raise ValueError(
                f"bulk delete would drive counter {int(uniq[short][0])} "
                f"negative ({int(current[short][0])} - "
                f"{int(sums[short][0])})")

    def query_many(self, keys) -> np.ndarray:
        """Frequency estimates for a key batch, as an int64 array.

        ``query_many(keys)[j] == query(keys[j])`` for every j and method.
        """
        from repro.hashing.vectorized import canonicalize_many, matrix_for
        if not isinstance(keys, (list, tuple, np.ndarray)):
            keys = list(keys)
        if len(keys) == 0:
            return np.empty(0, dtype=np.int64)
        canon = canonicalize_many(keys)
        matrix = matrix_for(self.family, canon)
        return self.method.estimate_many(keys, canon, matrix)

    def query(self, key: object) -> int:
        """Frequency estimate ``f̂_x`` for *key* (method-dependent).

        For MS/RM the estimate is one-sided: ``f̂_x >= f_x`` always, with
        ``P(f̂_x != f_x)`` at most the Bloom error (Claim 1 / §3.3).
        """
        return self.method.estimate(key)

    def estimate(self, key: object) -> int:
        """Alias for :meth:`query`."""
        return self.query(key)

    def contains(self, key: object, threshold: int = 1) -> bool:
        """Spectral membership: is ``f_x >= threshold``? (§2.2).

        For ``threshold=1`` this is exactly Bloom-filter membership; larger
        thresholds give the ad-hoc filtering the paper is named after.
        False positives only (for MS/RM).
        """
        check_threshold(threshold)
        return self.query(key) >= threshold

    def __contains__(self, key: object) -> bool:
        return self.contains(key, 1)

    # ------------------------------------------------------------------
    # multiset algebra (§2.2 "Distributed processing" / "Queries over joins")
    # ------------------------------------------------------------------
    def is_compatible(self, other: "SpectralBloomFilter") -> bool:
        """True if union/multiplication with *other* is meaningful."""
        return (isinstance(other, SpectralBloomFilter)
                and self.family.is_compatible(other.family))

    def _require_compatible(self, other: "SpectralBloomFilter",
                            operation: str) -> None:
        if not self.is_compatible(other):
            raise ValueError(
                f"{operation} requires identical parameters and hash "
                f"functions (m, k, seed, family); got "
                f"{self.family!r} vs {getattr(other, 'family', other)!r}"
            )

    def union(self, other: "SpectralBloomFilter") -> "SpectralBloomFilter":
        """Multiset union: counter vectors are added (§2.2).

        Both filters must share parameters and hash functions.  The result
        uses this filter's method; Recurring Minimum merges its secondary
        structures as well.
        """
        self._require_compatible(other, "union")
        result = self._spawn_like()
        for i in range(self.m):
            result.counters.set(i, self.counters.get(i)
                                + other.counters.get(i))
        result.total_count = self.total_count + other.total_count
        result.method.merge_from(self.method, other.method)
        return result

    def multiply(self, other: "SpectralBloomFilter") -> "SpectralBloomFilter":
        """Join multiplication: counters multiplied pointwise (§2.2).

        The result represents the multiset of the equi-join of the two
        multisets: for a key x, ``min_i(a_i * b_i) >= f^a_x * f^b_x`` with
        one-sided error, enabling Spectral Bloomjoins (§5.3).  The result
        always uses Minimum Selection.
        """
        self._require_compatible(other, "multiplication")
        result = SpectralBloomFilter(
            self.m, self.k, method="ms", seed=self.seed,
            hash_family=type(self.family), backend="array")
        total = 0
        for i in range(self.m):
            value = self.counters.get(i) * other.counters.get(i)
            result.counters.set(i, value)
            total += value
        result.total_count = total // max(1, self.k)
        return result

    def difference(self, other: "SpectralBloomFilter",
                   ) -> "SpectralBloomFilter":
        """Multiset difference: counter vectors are subtracted.

        The inverse of :meth:`union` for the batched sliding-window
        pattern: build an SBF over the expiring batch and subtract it,
        instead of deleting item by item.  *other* must represent a
        sub-multiset of this filter (same insertion history for the
        removed items), otherwise counters would go negative.

        Raises:
            ValueError: on incompatible filters or if any counter would
                become negative (i.e. *other* is not a sub-multiset).
        """
        self._require_compatible(other, "difference")
        result = SpectralBloomFilter(
            self.m, self.k, method="ms", seed=self.seed,
            hash_family=type(self.family), backend="array")
        for i in range(self.m):
            value = self.counters.get(i) - other.counters.get(i)
            if value < 0:
                raise ValueError(
                    "difference requires the subtrahend to be a "
                    f"sub-multiset (counter {i} would become {value})")
            result.counters.set(i, value)
        result.total_count = self.total_count - other.total_count
        return result

    def __add__(self, other: "SpectralBloomFilter") -> "SpectralBloomFilter":
        return self.union(other)

    def __sub__(self, other: "SpectralBloomFilter") -> "SpectralBloomFilter":
        return self.difference(other)

    def __mul__(self, other: "SpectralBloomFilter") -> "SpectralBloomFilter":
        return self.multiply(other)

    def _spawn_like(self) -> "SpectralBloomFilter":
        """A fresh empty filter with identical configuration.

        The live backend's construction options travel along (via
        :meth:`CounterBackend.options`), so a union of stream/compact-backed
        filters keeps the codec and slack tuning instead of silently
        reverting to backend defaults.
        """
        return SpectralBloomFilter(
            self.m, self.k, method=type(self.method), seed=self.seed,
            hash_family=type(self.family), backend=type(self.counters),
            backend_options=self.counters.options(),
            method_options=self.method.options())

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    @property
    def gamma(self) -> float:
        """Observed load hint ``N*k/m`` based on total multiplicity.

        Note the paper's gamma uses *distinct* items; callers tracking
        distinct counts should use :func:`repro.core.params.gamma`.
        """
        return self.total_count * self.k / self.m

    def expected_bloom_error(self, n_distinct: int) -> float:
        """``E_b`` for this filter's (m, k) at *n_distinct* items (§2.1)."""
        return bloom_error(n_distinct, self.k, self.m)

    def storage_bits(self) -> int:
        """Total model size in bits: counters plus method side structures."""
        return self.counters.storage_bits() + self.method.storage_bits()

    def fill_ratio(self) -> float:
        """Fraction of counters that are non-zero."""
        nonzero = sum(1 for c in self.counters if c)
        return nonzero / self.m

    def check_integrity(self) -> list[str]:
        """Audit the filter's internal invariants; returns found issues.

        Intended for receivers of a deserialised filter (Bloomjoin /
        Summary-Cache peers): a checksum proves the *frame* arrived intact,
        this audit proves the *structure* is self-consistent before it is
        trusted.  Checks counter non-negativity and dimensions, then the
        method-specific counter-sum vs ``total_count`` invariant (exact
        ``k*N`` for MS and the RM primary, the ``<= k*N`` bound for MI)
        and Recurring Minimum's secondary/marker consistency.

        Returns an empty list when every invariant holds.
        """
        issues = []
        if len(self.counters) != self.m:
            issues.append(f"backend holds {len(self.counters)} counters "
                          f"but m = {self.m}")
        for i, value in enumerate(self.counters):
            if value < 0:
                issues.append(f"counter {i} is negative ({value})")
                break
        if self.total_count < 0 and self.method.name != "mi":
            issues.append(f"total_count is negative ({self.total_count})")
        issues.extend(self.method.integrity_issues())
        return issues

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SpectralBloomFilter(m={self.m}, k={self.k}, "
                f"method={self.method.name!r}, N={self.total_count})")

    def __iter__(self) -> Iterator[int]:
        """Iterate over raw counter values (mainly for tests/serialisation)."""
        return iter(self.counters)
