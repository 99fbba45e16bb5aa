"""Families of ``k`` hash functions mapping keys into ``{0, ..., m-1}``.

The Bloom filter and all its spectral extensions need ``k`` independent hash
functions ``h_1 ... h_k`` from the key universe into the counter array
(Section 2.1 of the paper).  Each family here produces such a bundle from a
single integer seed, so that two filters built with the same ``(m, k, seed,
family)`` are *compatible*: they hash every key to the same positions, which
is the precondition for SBF union and join multiplication (Section 2.2).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Sequence

from repro.hashing.keys import canonical_key

_MASK64 = (1 << 64) - 1


class HashFamily(ABC):
    """A bundle of ``k`` hash functions onto ``{0, ..., m-1}``.

    Attributes:
        m: size of the target range (number of counters / bits).
        k: number of hash functions in the bundle.
        seed: the seed all internal randomness was derived from.
    """

    def __init__(self, m: int, k: int, seed: int = 0):
        if m <= 0:
            raise ValueError(f"m must be positive, got {m}")
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.m = int(m)
        self.k = int(k)
        self.seed = int(seed)

    @abstractmethod
    def indices_hashed(self, hashed: int) -> Sequence[int]:
        """Positions for an already-canonicalised 64-bit key value.

        Splitting canonicalisation (:func:`canonical_key`) from position
        computation lets bulk kernels canonicalise a whole batch once —
        vectorised for ints, per-key BLAKE2b for strings — and then feed
        the same values to any family, including ones whose position
        arithmetic is not vectorisable (tabulation, double hashing).
        """

    def indices(self, key: object) -> Sequence[int]:
        """Return the ``k`` positions for *key*, each in ``[0, m)``."""
        return self.indices_hashed(canonical_key(key))

    def is_compatible(self, other: "HashFamily") -> bool:
        """True if *other* hashes every key to the same positions.

        Compatibility is required for filter union and multiplication; the
        paper requires "the SBF to be identical in their parameters and hash
        functions" (Section 2.2).
        """
        return (
            type(self) is type(other)
            and self.m == other.m
            and self.k == other.k
            and self.seed == other.seed
        )

    def spawn(self, m: int | None = None, k: int | None = None) -> "HashFamily":
        """A family of the same type/seed with possibly different ``m``/``k``.

        Used by Recurring Minimum to derive the secondary SBF's functions
        from the primary's seed (so the two stay decorrelated but the whole
        structure remains reproducible from one seed).
        """
        return type(self)(m if m is not None else self.m,
                          k if k is not None else self.k,
                          self.seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(m={self.m}, k={self.k}, seed={self.seed})"


class ModuloMultiplyFamily(HashFamily):
    """The paper's hash functions: ``H(v) = ceil(m * (alpha*v mod 1))``.

    Section 6.1: "The SBF was implemented using hash functions of
    modulo/multiply type: given a value v, its hash value H(v),
    0 <= H(v) < m is computed by H(v) = ceil(m*(alpha*v mod 1)), where alpha
    is taken uniformly at random from [0, 1]."

    We realise ``alpha`` as a random odd 64-bit integer ``A`` interpreted as
    the fixed-point fraction ``A / 2**64``; then ``alpha*v mod 1`` is the low
    64 bits of ``A*v`` and the final index is ``(m * frac) >> 64`` — exact
    integer arithmetic, no floating point drift.
    """

    def __init__(self, m: int, k: int, seed: int = 0):
        super().__init__(m, k, seed)
        rng = random.Random((seed, "modmul", m, k).__repr__())
        # Odd multipliers avoid the degenerate alpha = 0 / even-cycle cases.
        self._multipliers = tuple(rng.randrange(1 << 63, 1 << 64) | 1
                                  for _ in range(k))

    def indices_hashed(self, hashed: int) -> tuple[int, ...]:
        m = self.m
        return tuple([(m * ((a * hashed) & _MASK64)) >> 64
                      for a in self._multipliers])


class MultiplyShiftFamily(HashFamily):
    """Dietzfelbinger-style multiply-shift: ``((a*x + b) mod 2^64) * m >> 64``.

    A 2-universal family; slightly stronger mixing than the plain
    modulo/multiply scheme thanks to the additive term.
    """

    def __init__(self, m: int, k: int, seed: int = 0):
        super().__init__(m, k, seed)
        rng = random.Random((seed, "mshift", m, k).__repr__())
        self._params = tuple(
            (rng.randrange(1 << 63, 1 << 64) | 1, rng.randrange(1 << 64))
            for _ in range(k)
        )

    def indices_hashed(self, hashed: int) -> tuple[int, ...]:
        m = self.m
        return tuple([(m * ((a * hashed + b) & _MASK64)) >> 64
                      for a, b in self._params])


class TabulationFamily(HashFamily):
    """Simple tabulation hashing (Zobrist): XOR of 8 byte-indexed tables.

    Tabulation is 3-independent and behaves like full randomness for many
    data-structure applications; included as the "strong mixing" ablation
    point.
    """

    def __init__(self, m: int, k: int, seed: int = 0):
        super().__init__(m, k, seed)
        rng = random.Random((seed, "tab", m, k).__repr__())
        self._tables = [
            [[rng.randrange(1 << 64) for _ in range(256)] for _ in range(8)]
            for _ in range(k)
        ]

    def indices_hashed(self, hashed: int) -> tuple[int, ...]:
        key_bytes = [(hashed >> (8 * byte)) & 0xFF for byte in range(8)]
        out = []
        m = self.m
        for tables in self._tables:
            h = 0
            for byte, table in zip(key_bytes, tables):
                h ^= table[byte]
            out.append((m * h) >> 64)
        return tuple(out)


class DoubleHashingFamily(HashFamily):
    """Kirsch-Mitzenmacher double hashing: ``g_i(x) = h1(x) + i*h2(x) mod m``.

    Derives all ``k`` positions from two base hashes; asymptotically matches
    independent hashing for Bloom filters while costing two multiplications
    per key regardless of ``k``.
    """

    def __init__(self, m: int, k: int, seed: int = 0):
        super().__init__(m, k, seed)
        rng = random.Random((seed, "double", m, k).__repr__())
        self._a1 = rng.randrange(1 << 63, 1 << 64) | 1
        self._b1 = rng.randrange(1 << 64)
        self._a2 = rng.randrange(1 << 63, 1 << 64) | 1
        self._b2 = rng.randrange(1 << 64)

    def indices_hashed(self, hashed: int) -> tuple[int, ...]:
        m = self.m
        h1 = (m * ((self._a1 * hashed + self._b1) & _MASK64)) >> 64
        h2 = (m * ((self._a2 * hashed + self._b2) & _MASK64)) >> 64
        # Force the stride to be nonzero so the k probes stay distinct
        # whenever m > 1.
        if h2 == 0:
            h2 = 1
        return tuple((h1 + i * h2) % m for i in range(self.k))


_FAMILIES = {
    "modmul": ModuloMultiplyFamily,
    "multiply-shift": MultiplyShiftFamily,
    "tabulation": TabulationFamily,
    "double": DoubleHashingFamily,
}


def make_family(name: str | HashFamily | type, m: int, k: int,
                seed: int = 0) -> HashFamily:
    """Build a hash family by short name, class, or pass an instance through.

    Accepted names: ``"modmul"`` (the paper's scheme, the default
    everywhere), ``"multiply-shift"``, ``"tabulation"``, ``"double"``.
    """
    if isinstance(name, HashFamily):
        if name.m != m or name.k != k:
            raise ValueError(
                f"hash family has (m={name.m}, k={name.k}) but the filter "
                f"needs (m={m}, k={k})"
            )
        return name
    if isinstance(name, type) and issubclass(name, HashFamily):
        return name(m, k, seed)
    if name == "blocked":
        from repro.hashing.blocked import BlockedHashFamily
        return BlockedHashFamily(m, k, seed)
    try:
        cls = _FAMILIES[name]
    except KeyError:
        known = sorted(_FAMILIES) + ["blocked"]
        raise ValueError(
            f"unknown hash family {name!r}; expected one of {known}"
        ) from None
    return cls(m, k, seed)
