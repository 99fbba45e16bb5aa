"""Stable canonicalisation of arbitrary keys to 64-bit integers.

Python's built-in :func:`hash` is randomised per process for strings, which
would make experiments irreproducible.  Every filter in this package first
maps its key through :func:`canonical_key`, which is a pure function of the
key's value: integers map through a fixed bijective mixer and everything
else is digested with BLAKE2b.

Beside it sits the serving stack's key rule (:func:`check_key`): of those
keys, a serving handle takes the JSON scalars it can log and ship.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

import numpy as np

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


#: the types a serving key may have (WAL bodies and wire frames are JSON)
JSON_SCALARS = (str, int, float, bool, type(None))

#: what the key rule raises for a key it refuses
KEY_ERRORS = (TypeError, ValueError)


def check_key(key: object) -> object:
    """The key rule: a serving key is a JSON scalar the hashing digests.

    Returns the key (a numpy scalar as its ``.item()``: ``np.int64(5)``
    is ``5``).  Refuses any other type with ``TypeError``, and a ``str``
    that does not encode as UTF-8 (a lone surrogate) with ``ValueError``.
    """
    kind = type(key)
    if kind is int or kind is str and key.isascii():
        return key
    if isinstance(key, np.generic):
        return check_key(key.item())
    if not isinstance(key, JSON_SCALARS):
        raise TypeError(f"keys must be JSON scalars (str/int/float/bool/"
                        f"None), got {kind.__name__}")
    if isinstance(key, str):
        try:
            key.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(
                f"keys must encode as UTF-8, got {key!r}") from None
    return key


def key_batch(keys) -> list | tuple | np.ndarray:
    """The key rule's batch form: a list, tuple or array as it is, any
    other sequence (a ``range``, a ``deque``) as a list, converted once.
    A ``str`` or bytes batch (its items are characters, not keys) and a
    non-sequence are refused whole with ``TypeError``."""
    if isinstance(keys, (list, tuple, np.ndarray)):
        return keys
    if isinstance(keys, Sequence) \
            and not isinstance(keys, (str, bytes, bytearray)):
        return list(keys)
    raise TypeError(f"a key batch is a list, tuple, 1-D array or other "
                    f"sequence (not str or bytes), got {type(keys).__name__}")


def int_keys(keys) -> np.ndarray | None:
    """The key rule's integer batch: *keys* (a list, tuple or 1-D array)
    as one int64 array, converted once, when every key is an integer
    within int64; ``None`` for any other batch."""
    if isinstance(keys, np.ndarray):
        if keys.ndim == 1 and np.can_cast(keys.dtype, np.int64):
            return keys.astype(np.int64, copy=False)
        keys = keys.tolist()
    if (isinstance(keys, (list, tuple)) and keys
            and isinstance(keys[0], (int, np.integer))):
        try:
            array = np.asarray(keys)    # int64 when every key is integral
        except (ValueError, OverflowError):
            return None                 # ragged, or ints past 64 bits
        if array.dtype == np.int64:
            return array
    return None


def check_keys(keys) -> list | np.ndarray:
    """The key rule over a batch (:func:`key_batch`), refused whole with
    its first refused key's error.  An integer batch within int64 comes
    back as one int64 array (:func:`int_keys`); any other as a list of
    :func:`check_key`'s results."""
    keys = key_batch(keys)
    array = int_keys(keys)
    if array is not None:
        return array
    if isinstance(keys, np.ndarray):
        keys = keys.tolist()
    if set(map(type, keys)) == {str} and "".join(keys).isascii():
        return list(keys)
    return [check_key(key) for key in keys]
