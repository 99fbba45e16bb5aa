"""Stable canonicalisation of arbitrary keys to 64-bit integers.

Python's built-in :func:`hash` is randomised per process for strings, which
would make experiments irreproducible.  Every filter in this package first
maps its key through :func:`canonical_key`, which is a pure function of the
key's value: integers map through a fixed bijective mixer and everything
else is digested with BLAKE2b.
"""

from __future__ import annotations

import hashlib

_MASK64 = (1 << 64) - 1

# SplitMix64 constants (Steele et al.); a fixed bijection on 64-bit words.
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def canonical_key(key: object) -> int:
    """Map an arbitrary hashable key to a stable unsigned 64-bit integer.

    Supported key types are ``int``, ``str``, ``bytes``, ``float``, ``bool``,
    ``None`` and (nested) tuples of those.  Distinct small integers map to
    distinct outputs (the integer path is a bijection on 64-bit words), so
    the synthetic integer-keyed workloads of the paper lose nothing to
    canonicalisation.

    Raises:
        TypeError: for unsupported key types (e.g. lists, dicts).
    """
    if type(key) is int:
        x = key & _MASK64
    elif isinstance(key, int):  # bool and IntEnum members
        x = int(key) & _MASK64
    else:
        if isinstance(key, str):
            data = b"s" + key.encode("utf-8")
        elif isinstance(key, bytes):
            data = b"b" + key
        elif isinstance(key, float):
            data = b"f" + key.hex().encode("ascii")
        elif key is None:
            data = b"n"
        elif isinstance(key, tuple):
            parts = [canonical_key(part).to_bytes(8, "little")
                     for part in key]
            data = b"t" + b"".join(parts)
        else:
            raise TypeError(f"unsupported key type: {type(key).__name__}")
        digest = hashlib.blake2b(data, digest_size=8).digest()
        return int.from_bytes(digest, "little")
    # One round of the SplitMix64 finalizer, inline: integer keys are the
    # point path's common case.
    x = (x + _SPLITMIX_GAMMA) & _MASK64
    x ^= x >> 30
    x = (x * _MIX1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX2) & _MASK64
    return x ^ (x >> 31)
