"""Blocked ("external memory") hashing [MW94] (paper §1.1.3, §2.2).

"In [MW94], a multi-level hashing scheme was proposed for Bloom filters,
in which a first [hash function] hashes each value to a specific block,
and the hash functions of the Bloom Filter hash within that block."  All
``k`` probes of a key then land inside one block, so a disk-resident
filter pays a single block read per lookup instead of up to ``k``.

"The analysis in [MW94] showed that the accuracy of the Bloom Filter is
affected by the segmentation of the available hashing domain, but for
large enough segments, the difference is negligible.  The same analysis
applies in the SBF case" — the ablation benchmark measures exactly that
accuracy delta as the block size shrinks.
"""

from __future__ import annotations

from repro.hashing.families import HashFamily, MultiplyShiftFamily
from repro.hashing.keys import canonical_key

_MASK64 = (1 << 64) - 1


class BlockedHashFamily(HashFamily):
    """Two-level hash family: block selector + within-block probes.

    Args:
        m: total number of counters/bits.
        k: probes per key (all inside one block).
        block_size: counters per block; the last block may be smaller.
            Must satisfy ``1 <= block_size <= m``.
        seed: determinism seed.

    The I/O cost model: one lookup touches exactly one block, so
    :meth:`blocks_touched` is always 1 (vs up to ``k`` for an unblocked
    family of the same parameters).
    """

    def __init__(self, m: int, k: int, seed: int = 0, *,
                 block_size: int | None = None):
        super().__init__(m, k, seed)
        if block_size is None:
            block_size = max(1, m // 64)
        if not 1 <= block_size <= m:
            raise ValueError(
                f"block_size must be in [1, m={m}], got {block_size}")
        self.block_size = int(block_size)
        # Blocks partition [0, m) as evenly as possible: block b covers
        # [b*m // n_blocks, (b+1)*m // n_blocks).  This avoids the
        # degenerate tiny remainder block a fixed-width layout would leave
        # when block_size does not divide m.
        self.n_blocks = max(1, round(self.m / self.block_size))
        # Selector over blocks and k probes mapped into the block width.
        self._selector = MultiplyShiftFamily(self.n_blocks, 1, seed ^ 0xB10C)
        self._inner = MultiplyShiftFamily(self.m, k, seed ^ 0x1AEA)
        # The scalar path does both levels' multiply-shifts inline from
        # these pairs (the vector kernel reads the two families).
        self._block_a, self._block_b = self._selector._params[0]
        self._probes = self._inner._params

    def _block_span(self, block: int) -> tuple[int, int]:
        start = block * self.m // self.n_blocks
        end = (block + 1) * self.m // self.n_blocks
        return start, max(1, end - start)

    def indices_hashed(self, hashed: int) -> tuple[int, ...]:
        m, n_blocks = self.m, self.n_blocks
        block = (n_blocks
                 * ((self._block_a * hashed + self._block_b) & _MASK64)) >> 64
        # The span of _block_span; no block is empty, as n_blocks <= m.
        start = block * m // n_blocks
        width = (block + 1) * m // n_blocks - start
        return tuple([start + ((m * ((a * hashed + b) & _MASK64)) >> 64)
                      % width for a, b in self._probes])

    def block_of(self, key: object) -> int:
        """The block owning *key* — every probe of *key* lands inside it.

        This makes the block the natural sharding unit: a fleet that
        routes keys by ``block_of(key) % n_shards`` partitions the
        *counter space* along with the keyspace, so per-shard counters are
        exactly the slices of the one big filter (see
        :mod:`repro.serve.router`).
        """
        return (self.n_blocks * ((self._block_a * canonical_key(key)
                                  + self._block_b) & _MASK64)) >> 64

    def blocks_touched(self, key: object) -> int:
        """Blocks a lookup for *key* reads — always 1 by construction."""
        return 1

    def is_compatible(self, other: "HashFamily") -> bool:
        return (super().is_compatible(other)
                and isinstance(other, BlockedHashFamily)
                and self.block_size == other.block_size)

    def spawn(self, m: int | None = None, k: int | None = None,
              ) -> "BlockedHashFamily":
        return BlockedHashFamily(m if m is not None else self.m,
                                 k if k is not None else self.k,
                                 self.seed, block_size=self.block_size)
