"""Vectorised hashing for bulk stream ingestion.

The experiments and any production use of the SBF ingest long streams of
keys; hashing them one Python call at a time dominates the cost.  This
module vectorises the pipeline over batches:

- :func:`canonicalize_many` — batch :func:`repro.hashing.keys.canonical_key`.
  Integer keys go through a vectorised SplitMix64 finaliser; str/bytes/
  float/tuple keys need a per-key BLAKE2b digest (inherently scalar) but
  mixed batches split into the two populations by position, so an int-heavy
  stream pays the digest only for its non-int minority.
- :func:`indices_matrix` — an ``(n, k)`` position matrix in a handful of
  array operations for the multiplication-based families (and the blocked
  family built from them).
- :func:`matrix_for` — the same matrix for *any* family: vectorised when
  possible, otherwise an exact ``indices_hashed`` loop over the already
  canonicalised values.  This is what the core bulk kernels call, so every
  method × family combination has a correct bulk path.

Numerical note: numpy has no 128-bit integers, so the 64x64→high-64
multiply ``(m * (a*v mod 2^64)) >> 64`` is decomposed into 32-bit halves —
one limb of ``m`` when ``m < 2^32``, two otherwise — exactly
bit-equivalent to the scalar path, which the tests assert.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.hashing.families import (
    HashFamily,
    ModuloMultiplyFamily,
    MultiplyShiftFamily,
)
from repro.hashing.keys import _MIX1, _MIX2, _SPLITMIX_GAMMA, canonical_key

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_MASK64 = (1 << 64) - 1


def _mul_mod_2_64(a: np.ndarray | int, b: np.ndarray) -> np.ndarray:
    """``(a * b) mod 2^64`` for uint64 arrays (numpy wraps, but silence
    overflow semantics explicitly)."""
    with np.errstate(over="ignore"):
        return (np.uint64(a) * b).astype(np.uint64)


def _mul_high_64(m: int, x: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit product ``m * x`` (m a non-negative
    scalar, x a uint64 array of any shape, overwritten with the result).

    With ``x = x1*2^32 + x0``, an *m* below 2^32 takes one limb:
    ``(m*x1 + ((m*x0) >> 32)) >> 32`` — each partial product, and their
    sum, stays below 2^64.  A larger *m* takes the standard four-product
    decomposition ``m = m1*2^32 + m0``:
        m*x = m1*x1*2^64 + (m1*x0 + m0*x1)*2^32 + m0*x0
    The arithmetic runs in place where it can: at bulk sizes a fresh
    temporary costs more in page faults than the multiply it holds.
    (Array arithmetic wraps silently; only numpy scalars warn.)
    """
    m = int(m)
    x0 = x & _MASK32
    x >>= _SHIFT32                        # x1
    if m >> 32 == 0:
        m = np.uint64(m)
        x0 *= m
        x0 >>= _SHIFT32
        x *= m
        x += x0
        x >>= _SHIFT32
        return x
    m0 = np.uint64(m & 0xFFFFFFFF)
    m1 = np.uint64(m >> 32)
    lo = m0 * x0                          # < 2^64, exact
    mid1 = m1 * x0                        # < 2^64, exact
    mid2 = m0 * x                         # m0*x1
    carry = ((lo >> _SHIFT32) + (mid1 & _MASK32)
             + (mid2 & _MASK32)) >> _SHIFT32
    x *= m1
    x += (mid1 >> _SHIFT32) + (mid2 >> _SHIFT32) + carry
    return x


def canonical_keys_array(keys: np.ndarray) -> np.ndarray:
    """Vectorised :func:`repro.hashing.keys.canonical_key` for int arrays.

    Applies the same SplitMix64 finaliser, so mixed scalar/vector usage
    sees identical hash positions.
    """
    x = np.asarray(keys).astype(np.uint64)
    with np.errstate(over="ignore"):
        x = x + np.uint64(_SPLITMIX_GAMMA)
        x = x ^ (x >> np.uint64(30))
        x = _mul_mod_2_64(_MIX1, x)
        x = x ^ (x >> np.uint64(27))
        x = _mul_mod_2_64(_MIX2, x)
        x = x ^ (x >> np.uint64(31))
    return x


def _ints_to_uint64(values: list) -> np.ndarray:
    """Python ints → uint64 with the same wrap as ``key & MASK64``."""
    try:
        # int64 accepts negatives; the uint64 view is the two's-complement
        # wrap, identical to masking.
        return np.asarray(values, dtype=np.int64).astype(np.uint64)
    except OverflowError:
        return np.asarray([v & _MASK64 for v in values], dtype=np.uint64)


def _digest_batch(values: list, encode) -> np.ndarray:
    """Batched BLAKE2b canonicalisation for one homogeneous key type.

    The digest itself is inherently per-key, but the batch still beats
    ``canonical_key`` in a generator two ways: the type-dispatch cascade
    is resolved once for the whole batch with the hot names (``blake2b``,
    ``int.from_bytes``, *encode*) bound locally, and duplicate keys are
    digested once — a skewed stream (the common case for string keys:
    URLs, tenant names, zipf workloads) pays one digest per *distinct*
    key.  A cheap full-batch ``set()`` (an order of magnitude cheaper
    than the digests it can save) decides whether the memo table pays;
    mostly-unique batches skip it and just run the tight loop.
    Bit-identical to the scalar path by construction: *encode* produces
    exactly the domain-prefixed bytes :func:`canonical_key` digests.
    """
    blake2b = hashlib.blake2b
    from_bytes = int.from_bytes
    n = len(values)
    distinct = set(values)
    if len(distinct) <= n // 2:
        memo = {value: from_bytes(
            blake2b(encode(value), digest_size=8).digest(), "little")
            for value in distinct}
        return np.fromiter((memo[value] for value in values),
                           dtype=np.uint64, count=n)
    return np.fromiter(
        (from_bytes(blake2b(encode(value), digest_size=8).digest(),
                    "little") for value in values),
        dtype=np.uint64, count=n)


def _encode_str(value: str) -> bytes:
    return b"s" + value.encode("utf-8")


def _encode_bytes(value: bytes) -> bytes:
    return b"b" + value


#: exact key type → domain-prefix encoder for the batched digest path
#: (subclasses and composite types fall back to scalar canonical_key,
#: which handles them identically — just slower)
_BATCH_ENCODERS = {str: _encode_str, bytes: _encode_bytes}


def canonicalize_many(keys) -> np.ndarray:
    """Canonical 64-bit values for a batch of arbitrary keys.

    Accepts any sequence :func:`canonical_key` accepts element-wise (plus
    integer/string/bytes numpy arrays) and returns a ``uint64`` array with
    identical values, so bulk and scalar paths hash every key to the same
    positions.  Exact-``int`` keys vectorise through the SplitMix64
    kernel; ``str``/``bytes`` keys take the batched-digest fast path
    (:func:`_digest_batch` — one memoised BLAKE2b per distinct key);
    floats, tuples, and exotic subclasses pay the scalar digest.  Mixed
    batches split into these populations by position.
    """
    if isinstance(keys, np.ndarray):
        if keys.dtype.kind in ("i", "u"):
            return canonical_keys_array(keys)
        if keys.dtype.kind == "b":
            return canonical_keys_array(keys.astype(np.uint64))
        if keys.dtype.kind == "U":
            return _digest_batch(keys.tolist(), _encode_str)
        if keys.dtype.kind == "S":
            return _digest_batch(keys.tolist(), _encode_bytes)
        keys = keys.tolist()
    elif not isinstance(keys, (list, tuple)):
        keys = list(keys)
    n = len(keys)
    out = np.empty(n, dtype=np.uint64)
    if n == 0:
        return out
    first_type = type(keys[0])
    encode = _BATCH_ENCODERS.get(first_type)
    if encode is not None and all(type(key) is first_type for key in keys):
        # Homogeneous str/bytes batch: straight to the digest loop, no
        # population split or position gather.
        return _digest_batch(keys, encode)
    if first_type in (int, bool):
        # Let numpy's C conversion loop try the whole batch at once —
        # an order of magnitude cheaper than the per-element type scan
        # below.  It only yields an integer/bool 1-D array when every
        # element is an int or bool (floats infer float64, ints beyond
        # int64 and None infer object, nested tuples go 2-D or raise),
        # and bools canonicalise exactly like their int values, so the
        # fast path can never change a hash.
        try:
            arr = np.asarray(keys)
        except (ValueError, OverflowError):
            arr = None
        if arr is not None and arr.ndim == 1:
            if arr.dtype.kind in ("i", "u"):
                return canonical_keys_array(arr)
            if arr.dtype.kind == "b":
                return canonical_keys_array(arr.astype(np.uint64))
    is_int = np.fromiter((type(key) is int for key in keys),
                         dtype=bool, count=n)
    if is_int.all():
        return canonical_keys_array(_ints_to_uint64(list(keys)))
    int_pos = np.flatnonzero(is_int)
    if int_pos.size:
        ints = [keys[i] for i in int_pos.tolist()]
        out[int_pos] = canonical_keys_array(_ints_to_uint64(ints))
    other_pos = np.flatnonzero(~is_int)
    by_type: dict[type, list[int]] = {}
    for i in other_pos.tolist():
        by_type.setdefault(type(keys[i]), []).append(i)
    for key_type, positions in by_type.items():
        encode = _BATCH_ENCODERS.get(key_type)
        if encode is not None:
            out[positions] = _digest_batch(
                [keys[i] for i in positions], encode)
        else:
            out[positions] = np.fromiter(
                (canonical_key(keys[i]) for i in positions),
                dtype=np.uint64, count=len(positions))
    return out


def supports_vectorized(family: HashFamily) -> bool:
    """True if :func:`indices_matrix` has an array kernel for *family*."""
    from repro.hashing.blocked import BlockedHashFamily

    if isinstance(family, BlockedHashFamily):
        return (supports_vectorized(family._selector)
                and supports_vectorized(family._inner))
    return isinstance(family, (ModuloMultiplyFamily, MultiplyShiftFamily))


def _matrix_from_hashed(family: HashFamily, hashed: np.ndarray) -> np.ndarray:
    """``(n, k)`` positions from already-canonicalised uint64 values."""
    from repro.hashing.blocked import BlockedHashFamily

    if isinstance(family, BlockedHashFamily):
        # Two vectorised passes mirror the scalar two-level scheme
        # exactly: block selection, then within-block probes.
        m, n_blocks = family.m, family.n_blocks
        blocks = _matrix_from_hashed(family._selector, hashed)[:, 0]
        if n_blocks * m >= 1 << 63:
            # block * m would wrap int64: the spans in Python ints.
            blocks = blocks.astype(object)
        start = blocks * m // n_blocks
        width = ((blocks + 1) * m // n_blocks - start).astype(
            np.int64, copy=False)
        out = _matrix_from_hashed(family._inner, hashed)
        np.remainder(out, width[:, None], out=out)
        out += start.astype(np.int64, copy=False)[:, None]
        return out
    # All k columns in one (n, k) broadcast: row i, column j mixes key i
    # with the family's j-th parameters (mod 2^64), as indices_hashed
    # does.
    if isinstance(family, ModuloMultiplyFamily):
        mixed = hashed[:, None] * np.array(family._multipliers,
                                           dtype=np.uint64)
    elif isinstance(family, MultiplyShiftFamily):
        a, b = np.array(family._params, dtype=np.uint64).T
        mixed = hashed[:, None] * a
        mixed += b
    else:
        raise TypeError(
            f"vectorised hashing not implemented for "
            f"{type(family).__name__}; use the scalar indices() path")
    # Positions are below m <= 2^63: the int64 view reads them unchanged.
    return _mul_high_64(family.m, mixed).view(np.int64)


def indices_matrix(family: HashFamily, keys, *,
                   canonical: bool = False) -> np.ndarray:
    """``(n, k)`` counter positions for a key batch.

    Supports :class:`ModuloMultiplyFamily`, :class:`MultiplyShiftFamily`,
    and :class:`~repro.hashing.blocked.BlockedHashFamily` (whose selector
    and inner families are both multiply-shift); other families raise
    ``TypeError`` (use :func:`matrix_for`, which falls back to an exact
    scalar loop).  With ``canonical=True``, *keys* must already be the
    uint64 output of :func:`canonicalize_many` and the mixer is skipped —
    this is how callers hash one batch against several families (e.g. the
    blocked selector and inner, or a shard router plus its shards) without
    re-canonicalising.
    """
    if canonical:
        hashed = np.asarray(keys, dtype=np.uint64)
    else:
        hashed = canonicalize_many(keys)
    return _matrix_from_hashed(family, hashed)


def matrix_for(family: HashFamily, canon: np.ndarray) -> np.ndarray:
    """``(n, k)`` positions from canonical values, for *any* family.

    Vectorised when the family supports it; otherwise an exact
    ``indices_hashed`` loop.  Either way the rows equal
    ``family.indices(key)`` for the corresponding original keys.
    """
    canon = np.asarray(canon, dtype=np.uint64)
    if supports_vectorized(family):
        return _matrix_from_hashed(family, canon)
    out = np.empty((canon.size, family.k), dtype=np.int64)
    for i, value in enumerate(canon.tolist()):
        out[i] = family.indices_hashed(value)
    return out
