"""Seeded input generators: key universes, zipf op streams, bulk key sets.

Every generator is a pure function of ``(seed, label)``: the label picks
an independent sub-stream (``numpy.random.SeedSequence([seed, crc32])``),
so the timed stream, the durable prep stream and the ledger stream never
share draws, and the same seed always yields the same inputs however many
of them a run consumes (streams are drawn in fixed-size chunks).
"""

from __future__ import annotations

import zlib

import numpy as np

#: ops drawn per chunk; fixed so the stream is independent of read sizes
CHUNK = 1 << 14

#: key space of the integer universes: ids in ``[1, 2**40)``
KEY_BITS = 40


def rng_for(seed: int, label: str) -> np.random.Generator:
    """The generator of sub-stream *label* under *seed*."""
    return np.random.default_rng([int(seed), zlib.crc32(label.encode())])


def id_universe(seed: int, n_items: int) -> np.ndarray:
    """*n_items* distinct ids in ``[1, 2**40)``, in seeded random order.

    Rank ``r`` of a zipf draw maps to ``ids[r]`` — the seeded permutation
    that decides which ids are hot.
    """
    rng = rng_for(seed, "ids")
    ids = np.unique(rng.integers(1, 1 << KEY_BITS, n_items + n_items // 16,
                                 dtype=np.int64))
    if len(ids) < n_items:  # pragma: no cover - needs ~n/16 collisions
        raise RuntimeError("id universe draw collided too often")
    return rng.permutation(ids)[:n_items]


def object_names(ids: np.ndarray, ranks: np.ndarray) -> list[str]:
    """String keys ``obj:<10 hex>`` of the ids at *ranks*."""
    return [f"obj:{i:010x}" for i in ids[ranks].tolist()]


class ZipfStream:
    """An endless seeded stream of ``(is_insert, rank)`` operations.

    Ranks follow a zipf law with exponent *z* over *n_items* items (rank
    0 is the hottest); each op is an insert with probability
    *insert_share*, otherwise a query.
    """

    def __init__(self, seed: int, label: str, *, z: float, n_items: int,
                 insert_share: float):
        self._rng = rng_for(seed, label)
        weights = 1.0 / np.arange(1, n_items + 1, dtype=np.float64) ** z
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        self._share = float(insert_share)
        self._inserts = np.empty(0, dtype=bool)
        self._ranks = np.empty(0, dtype=np.int64)

    def take(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The next *n* ops as ``(is_insert, ranks)`` arrays."""
        while len(self._ranks) < n:
            ranks = np.searchsorted(self._cdf, self._rng.random(CHUNK),
                                    side="right")
            inserts = self._rng.random(CHUNK) < self._share
            self._ranks = np.concatenate([self._ranks, ranks])
            self._inserts = np.concatenate([self._inserts, inserts])
        inserts, self._inserts = self._inserts[:n], self._inserts[n:]
        ranks, self._ranks = self._ranks[:n], self._ranks[n:]
        return inserts, ranks


def bulk_keys(seed: int, n_keys: int) -> tuple[np.ndarray, np.ndarray]:
    """Unique uniform insert keys and a half-present, half-absent query set.

    Inserts are *n_keys* distinct ids in ``[1, 2**40)``; absent query keys
    come from ``[2**40, 2**41)``, so they are absent by construction.
    Returns ``(inserts, queries)``; ``queries[j]`` is present iff it is
    below ``2**40``.
    """
    rng = rng_for(seed, "bulk")
    inserts = np.unique(rng.integers(1, 1 << KEY_BITS, n_keys + n_keys // 16,
                                     dtype=np.int64))
    inserts = rng.permutation(inserts)[:n_keys]
    half = n_keys // 2
    present = rng.choice(inserts, size=half, replace=False)
    absent = rng.integers(1 << KEY_BITS, 1 << (KEY_BITS + 1), n_keys - half,
                          dtype=np.int64)
    queries = rng.permutation(np.concatenate([present, absent]))
    return inserts, queries
