"""Counter-vector backends: plain array, String-Array Index, coded stream.

All backends store ``m`` non-negative integer counters and expose the same
interface; they differ in speed and in the bit budget they would occupy in a
packed implementation:

- :class:`ArrayBackend` — a plain Python list.  O(1) everything, and the
  default for experiments whose subject is the SBF's *accuracy*.  Its
  ``storage_bits`` reports the paper's ``N = sum(ceil(log C_i))`` model cost
  so accuracy experiments can still reason about size.
- :class:`CompactBackend` — counters live in a
  :class:`~repro.succinct.string_array.StringArrayIndex` (paper §4.3-4.4):
  the faithful N + o(N) + O(m) bits representation with O(1) access.
- :class:`StreamBackend` — counters live in a
  :class:`~repro.succinct.compact_stream.CompactCounterStream` (paper §4.5):
  smaller index, O(log log N)-step lookups.
- :class:`NumpyBackend` — counters in a numpy array with automatic dtype
  widening (uint8 → uint16 → uint32 → uint64).  The bulk-operation
  backend: ``get_many``/``add_many``/``set_many`` are single vectorised
  gathers/scatters, which is what makes
  :meth:`SpectralBloomFilter.insert_many` run at array speed.

Besides the scalar interface, every backend offers the *bulk hooks*
``get_many``/``add_many``/``set_many``.  The base class implements them as
loops over the scalar operations (in submission order, so compact
backends see exactly the operation sequence the scalar path would have
issued); array-shaped backends override them with aggregated vectorised
versions that produce identical counter values.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator

import numpy as np

from repro.succinct.compact_stream import CompactCounterStream
from repro.succinct.string_array import StringArrayIndex


class CounterBackend(ABC):
    """Abstract vector of ``m`` non-negative counters."""

    name: str = "abstract"

    @abstractmethod
    def get(self, i: int) -> int:
        """Value of counter *i*."""

    @abstractmethod
    def add(self, i: int, delta: int) -> int:
        """Add *delta* (possibly negative) to counter *i*; return new value.

        Raises:
            ValueError: if the counter would become negative.
        """

    @abstractmethod
    def set(self, i: int, value: int) -> None:
        """Set counter *i* to *value* (>= 0)."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of counters ``m``."""

    @abstractmethod
    def storage_bits(self) -> int:
        """Model size in bits of this representation."""

    def __iter__(self) -> Iterator[int]:
        for i in range(len(self)):
            yield self.get(i)

    def to_list(self) -> list[int]:
        """All counter values as a plain list."""
        return list(self)

    def add_clamped(self, i: int, delta: int) -> int:
        """Like :meth:`add` but floors the result at zero.

        Used by Minimal Increase deletions, which the paper shows produce
        false negatives — clamping keeps the structure well-defined anyway.

        This base implementation is a generic ``get`` + ``set`` round trip;
        backends whose element access is expensive (a locate in the
        String-Array Index, a subgroup decode in the coded stream) override
        it with a single-touch version.
        """
        value = self.get(i) + delta
        if value < 0:
            value = 0
        self.set(i, value)
        return value

    def options(self) -> dict:
        """Constructor options needed to rebuild an equivalent backend.

        Used by :meth:`SpectralBloomFilter._spawn_like` (and hence
        ``union``) so a derived filter preserves the live backend's
        configuration — codec choice, slack tuning, chunk sizes — instead
        of silently falling back to the defaults.
        """
        return {}

    # ------------------------------------------------------------------
    # bulk hooks (vectorised by array-shaped backends)
    # ------------------------------------------------------------------
    def get_many(self, indices) -> np.ndarray:
        """Counter values at *indices* (repeats allowed) as an int64 array.

        The base implementation loops over :meth:`get`; array backends
        override it with a single fancy-index gather.
        """
        idx = np.asarray(indices, dtype=np.int64)
        return np.fromiter((self.get(int(i)) for i in idx),
                           dtype=np.int64, count=idx.size)

    def add_many(self, indices, deltas) -> None:
        """Apply ``add(i, d)`` for every pair of *indices* / *deltas*.

        Repeated indices accumulate.  The base implementation performs the
        adds one by one in submission order — exactly the operation
        sequence the scalar path would issue, which matters for backends
        whose internal layout depends on operation history.  Aggregating
        overrides must produce the same final counter values and raise
        ``ValueError`` (before mutating anything) whenever the sequential
        application would have driven a counter negative; since all the
        bulk callers pass same-signed deltas, the two failure conditions
        coincide.
        """
        idx = np.asarray(indices, dtype=np.int64)
        dts = np.asarray(deltas, dtype=np.int64)
        if idx.shape != dts.shape:
            raise ValueError(
                f"add_many needs matching shapes, got {idx.shape} indices "
                f"and {dts.shape} deltas")
        for i, d in zip(idx.tolist(), dts.tolist()):
            self.add(i, d)

    def set_many(self, indices, values) -> None:
        """Apply ``set(i, v)`` pairwise, in submission order.

        Repeated indices follow last-write-wins (the bulk kernels only
        repeat an index with an identical value, mirroring the scalar
        path's duplicate-probe writes).
        """
        idx = np.asarray(indices, dtype=np.int64)
        vals = np.asarray(values, dtype=np.int64)
        if idx.shape != vals.shape:
            raise ValueError(
                f"set_many needs matching shapes, got {idx.shape} indices "
                f"and {vals.shape} values")
        for i, v in zip(idx.tolist(), vals.tolist()):
            self.set(i, v)


def _aggregate(indices: np.ndarray, deltas: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray]:
    """Sum *deltas* per distinct index; returns (unique_indices, sums)."""
    if indices.size < 2 or bool((indices[1:] > indices[:-1]).all()):
        # Already sorted and unique — the common case when the bulk
        # kernels pre-aggregate before calling add_many.
        return indices, deltas
    order = np.argsort(indices, kind="stable")
    si = indices[order]
    sd = deltas[order]
    starts = np.flatnonzero(np.r_[True, si[1:] != si[:-1]])
    return si[starts], np.add.reduceat(sd, starts)


class ArrayBackend(CounterBackend):
    """Plain word-per-counter array (the fast default)."""

    name = "array"

    def __init__(self, m: int):
        if m <= 0:
            raise ValueError(f"m must be positive, got {m}")
        self._counts = [0] * m

    def get(self, i: int) -> int:
        return self._counts[i]

    def add(self, i: int, delta: int) -> int:
        value = self._counts[i] + delta
        if value < 0:
            raise ValueError(f"counter {i} would become negative ({value})")
        self._counts[i] = value
        return value

    def set(self, i: int, value: int) -> None:
        if value < 0:
            raise ValueError(f"counter values must be >= 0, got {value}")
        self._counts[i] = value

    def add_clamped(self, i: int, delta: int) -> int:
        value = self._counts[i] + delta
        if value < 0:
            value = 0
        self._counts[i] = value
        return value

    def __len__(self) -> int:
        return len(self._counts)

    def __iter__(self) -> Iterator[int]:
        return iter(self._counts)

    def storage_bits(self) -> int:
        """The paper's N = sum(ceil(log C_i)) with 1 bit per zero counter."""
        return sum(max(1, c.bit_length()) for c in self._counts)

    def get_many(self, indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        counts = self._counts
        return np.fromiter((counts[i] for i in idx.tolist()),
                           dtype=np.int64, count=idx.size)

    def add_many(self, indices, deltas) -> None:
        idx = np.asarray(indices, dtype=np.int64)
        dts = np.asarray(deltas, dtype=np.int64)
        if idx.shape != dts.shape:
            raise ValueError(
                f"add_many needs matching shapes, got {idx.shape} indices "
                f"and {dts.shape} deltas")
        if idx.size == 0:
            return
        uniq, sums = _aggregate(idx, dts)
        counts = self._counts
        new = [counts[i] + d for i, d in zip(uniq.tolist(), sums.tolist())]
        if min(new) < 0:
            bad = uniq[new.index(min(new))]
            raise ValueError(
                f"counter {bad} would become negative ({min(new)})")
        for i, v in zip(uniq.tolist(), new):
            counts[i] = v

    def set_many(self, indices, values) -> None:
        idx = np.asarray(indices, dtype=np.int64)
        vals = np.asarray(values, dtype=np.int64)
        if idx.shape != vals.shape:
            raise ValueError(
                f"set_many needs matching shapes, got {idx.shape} indices "
                f"and {vals.shape} values")
        if vals.size and vals.min() < 0:
            raise ValueError(
                f"counter values must be >= 0, got {int(vals.min())}")
        counts = self._counts
        for i, v in zip(idx.tolist(), vals.tolist()):
            counts[i] = v


#: the counter dtypes, narrowest first, each with the largest value it
#: holds — a table because building ``np.iinfo`` per scalar add costs more
#: than the add
_DTYPE_MAX = {np.dtype(dt): int(np.iinfo(dt).max)
              for dt in (np.uint8, np.uint16, np.uint32, np.uint64)}


class NumpyBackend(CounterBackend):
    """Counters in a numpy array with automatic dtype widening.

    Starts at uint8 and widens (uint16 → uint32 → uint64) whenever a
    counter would overflow the current dtype, so a mostly-small filter
    stays one byte per counter.  Widening replaces the underlying array —
    code holding the zero-copy :attr:`raw` view must call
    :meth:`ensure_capacity` with an upper bound *before* taking the view
    (the bulk kernels pre-widen with ``max() + sum(counts)``).
    """

    name = "numpy"

    def __init__(self, m: int, dtype=np.uint8):
        if m <= 0:
            raise ValueError(f"m must be positive, got {m}")
        dt = np.dtype(dtype)
        if dt not in _DTYPE_MAX:
            raise ValueError(
                f"dtype must be one of uint8/16/32/64, got {dt}")
        self._counts = np.zeros(m, dtype=dt)

    @property
    def raw(self) -> np.ndarray:
        """The live counter array (zero-copy; invalidated by widening)."""
        return self._counts

    def ensure_capacity(self, max_value: int) -> None:
        """Widen the dtype until *max_value* fits without overflow."""
        # The bound follows the live array, not a cached dtype: a process
        # pool worker swaps a shared-memory view in after construction.
        if max_value <= _DTYPE_MAX[self._counts.dtype]:
            return
        for dt, bound in _DTYPE_MAX.items():
            if max_value <= bound:
                self._counts = self._counts.astype(dt)
                return
        raise OverflowError(
            f"counter value {max_value} exceeds uint64 capacity")

    def get(self, i: int) -> int:
        return self._counts.item(i)

    def add(self, i: int, delta: int) -> int:
        counts = self._counts
        value = counts.item(i) + delta
        if value < 0:
            raise ValueError(f"counter {i} would become negative ({value})")
        if value > _DTYPE_MAX[counts.dtype]:
            self.ensure_capacity(value)
            counts = self._counts
        counts[i] = value
        return value

    def set(self, i: int, value: int) -> None:
        if value < 0:
            raise ValueError(f"counter values must be >= 0, got {value}")
        if i < 0 or i >= self._counts.size:
            raise IndexError(f"counter index {i} out of range")
        self.ensure_capacity(value)
        self._counts[i] = value

    def add_clamped(self, i: int, delta: int) -> int:
        value = self._counts.item(i) + delta
        if value < 0:
            value = 0
        self.ensure_capacity(value)
        self._counts[i] = value
        return value

    def __len__(self) -> int:
        return int(self._counts.size)

    def __iter__(self) -> Iterator[int]:
        return iter(self._counts.tolist())

    def storage_bits(self) -> int:
        """The paper's N model cost, like :class:`ArrayBackend`.

        ``frexp``'s exponent equals ``bit_length`` exactly for values
        below 2**53; beyond that (never reached by realistic counts) fall
        back to the python loop.
        """
        counts = self._counts
        if int(counts.max(initial=0)) >= (1 << 53):
            return sum(max(1, v.bit_length()) for v in counts.tolist())
        _, exponents = np.frexp(counts.astype(np.float64))
        return int(np.maximum(exponents, 1).sum())

    def get_many(self, indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        return self._counts[idx].astype(np.int64)

    def add_many(self, indices, deltas) -> None:
        idx = np.asarray(indices, dtype=np.int64)
        dts = np.asarray(deltas, dtype=np.int64)
        if idx.shape != dts.shape:
            raise ValueError(
                f"add_many needs matching shapes, got {idx.shape} indices "
                f"and {dts.shape} deltas")
        if idx.size == 0:
            return
        uniq, sums = _aggregate(idx, dts)
        new = self._counts[uniq].astype(np.int64) + sums
        low = int(new.min())
        if low < 0:
            bad = int(uniq[int(np.argmin(new))])
            raise ValueError(f"counter {bad} would become negative ({low})")
        self.ensure_capacity(int(new.max()))
        self._counts[uniq] = new.astype(self._counts.dtype)

    def set_many(self, indices, values) -> None:
        idx = np.asarray(indices, dtype=np.int64)
        vals = np.asarray(values, dtype=np.int64)
        if idx.shape != vals.shape:
            raise ValueError(
                f"set_many needs matching shapes, got {idx.shape} indices "
                f"and {vals.shape} values")
        if vals.size == 0:
            return
        if int(vals.min()) < 0:
            raise ValueError(
                f"counter values must be >= 0, got {int(vals.min())}")
        self.ensure_capacity(int(vals.max()))
        self._counts[idx] = vals.astype(self._counts.dtype)


class CompactBackend(CounterBackend):
    """Counters stored in the String-Array Index (paper §4.3-4.4)."""

    name = "compact"

    def __init__(self, m: int, **sai_options):
        if m <= 0:
            raise ValueError(f"m must be positive, got {m}")
        self._options = dict(sai_options)
        self.index = StringArrayIndex([0] * m, **sai_options)

    def get(self, i: int) -> int:
        return self.index.get(i)

    def add(self, i: int, delta: int) -> int:
        return self.index.increment(i, delta)

    def set(self, i: int, value: int) -> None:
        self.index.set(i, value)

    def add_clamped(self, i: int, delta: int) -> int:
        return self.index.increment_clamped(i, delta)

    def options(self) -> dict:
        return dict(self._options)

    def __len__(self) -> int:
        return len(self.index)

    def storage_bits(self) -> int:
        return self.index.total_bits()

    def storage_breakdown(self) -> dict[str, int]:
        """Per-component bits (see Figure 14)."""
        return self.index.storage_breakdown()


class StreamBackend(CounterBackend):
    """Counters stored in the §4.5 prefix-free coded stream."""

    name = "stream"

    def __init__(self, m: int, codec: object = "elias", **stream_options):
        if m <= 0:
            raise ValueError(f"m must be positive, got {m}")
        self._options = {"codec": codec, **stream_options}
        self.stream = CompactCounterStream([0] * m, codec=codec,
                                           **stream_options)

    def get(self, i: int) -> int:
        return self.stream.get(i)

    def add(self, i: int, delta: int) -> int:
        return self.stream.increment(i, delta)

    def set(self, i: int, value: int) -> None:
        self.stream.set(i, value)

    def add_clamped(self, i: int, delta: int) -> int:
        return self.stream.increment_clamped(i, delta)

    def get_many(self, indices) -> np.ndarray:
        return self.stream.get_many(indices)

    def add_many(self, indices, deltas) -> None:
        self.stream.add_many(indices, deltas)

    def set_many(self, indices, values) -> None:
        self.stream.set_many(indices, values)

    def options(self) -> dict:
        return dict(self._options)

    def __len__(self) -> int:
        return len(self.stream)

    def storage_bits(self) -> int:
        return self.stream.total_bits()


_BACKENDS = {
    "array": ArrayBackend,
    "numpy": NumpyBackend,
    "compact": CompactBackend,
    "stream": StreamBackend,
}


def make_backend(backend: str | CounterBackend | type, m: int,
                 **options) -> CounterBackend:
    """Build a counter backend by short name, class, or pass through.

    Accepted names: ``"array"`` (default), ``"numpy"``, ``"compact"``,
    ``"stream"``.
    """
    if isinstance(backend, CounterBackend):
        if options:
            raise ValueError(
                f"backend options {sorted(options)} cannot be applied to an "
                f"already-constructed {type(backend).__name__}; pass the "
                f"class or short name instead"
            )
        if len(backend) != m:
            raise ValueError(
                f"backend has {len(backend)} counters but the filter needs {m}"
            )
        return backend
    if isinstance(backend, type) and issubclass(backend, CounterBackend):
        return backend(m, **options)
    try:
        cls = _BACKENDS[backend]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {sorted(_BACKENDS)}"
        ) from None
    return cls(m, **options)
