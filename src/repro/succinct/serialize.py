"""Contiguous-memory serialisation of the String-Array Index (§4.7.1).

"One of the popular uses of Bloom Filters is in distributed systems, where
the filter is often sent from one node to another as a message. ... The
goal is to create the data structure as one continuous block and when it
is needed to be sent, simply transmit the contents of the memory block."

This module implements that wire format for :class:`StringArrayIndex`:
the base bit array is shipped verbatim together with the Elias-coded item
widths (the L(S'') information) and the layout parameters; the offset
vectors and the lookup table are *not* transmitted — exactly as §4.7.1
notes for the lookup table, they are "dependent only on the parameters"
and are regenerated at the receiving node.

The blob is a checksummed :func:`~repro.core.serialize.seal_frame`
frame with magic ``b"SAI1"``, so a corrupted or truncated message is
detected like every other frame, never decoded into wrong counters.  Its
header carries ``m`` (number of counters), ``g1`` (items per level-1
group) and ``width_bits`` (the width section's length in bits); its
payload is one contiguous block:

    widths     Elias-delta stream, one codeword per counter
    (padding to a byte boundary)
    values     the counter fields, packed at their exact widths

The decoded structure is rebuilt with fresh slack, which also makes the
format deterministic regardless of the sender's update history.
"""

from __future__ import annotations

from repro.succinct.bitvector import BitVector, BitReader, BitWriter
from repro.succinct.elias import elias_delta_decode, elias_delta_encode
from repro.succinct.string_array import StringArrayIndex

_MAGIC = b"SAI1"


def dump_string_array(index: StringArrayIndex) -> bytes:
    """Serialise *index* into one contiguous byte string."""
    values = index.to_list()
    widths = [max(1, v.bit_length()) for v in values]
    bits = BitVector()
    writer = BitWriter(bits)
    for w in widths:
        pattern, nbits = elias_delta_encode(w)
        writer.write_bits(pattern, nbits)
    # Byte-align the value section so the header stays simple.
    if writer.pos % 8:
        writer.write_bits(0, 8 - writer.pos % 8)
    width_section_bits = writer.pos
    for v, w in zip(values, widths):
        writer.write_bits(v, w)
    total_bits = writer.pos
    payload = bytearray((total_bits + 7) // 8)
    for byte_index in range(len(payload)):
        payload[byte_index] = bits.read(8 * byte_index, 8)
    # Imported here: repro.core imports this package, so a top-level
    # import would be circular.
    from repro.core.serialize import seal_frame
    return seal_frame(_MAGIC, {"m": len(values), "g1": index._g1,
                               "width_bits": width_section_bits},
                      bytes(payload))


def load_string_array(blob: bytes, **sai_options) -> StringArrayIndex:
    """Rebuild a :class:`StringArrayIndex` from :func:`dump_string_array`.

    Index structures (offset vectors, lookup table) are regenerated
    locally; *sai_options* are forwarded to the constructor (e.g. custom
    slack settings for the receiving node).

    Raises:
        ValueError: on a malformed, corrupted or truncated blob
            (:class:`~repro.core.serialize.WireFormatError`).
    """
    from repro.core.serialize import WireFormatError, open_frame
    meta, payload = open_frame(blob, _MAGIC)
    m, g1, width_bits = (meta.get(f) for f in ("m", "g1", "width_bits"))
    # Every codeword takes at least one bit, so m <= width_bits also
    # bounds the decode loop by the payload size.
    if not (all(type(v) is int for v in (m, g1, width_bits))
            and 0 <= m <= width_bits <= 8 * len(payload) and g1 >= 1):
        raise WireFormatError(f"String-Array Index header out of range "
                              f"for {len(payload)} payload bytes: {meta}")
    bits = BitVector(len(payload) * 8)
    for i, byte in enumerate(payload):
        bits.write(8 * i, 8, byte)
    reader = BitReader(bits)
    widths = []
    for _ in range(m):
        widths.append(elias_delta_decode(reader))
    if reader.pos > width_bits:
        raise WireFormatError("String-Array Index widths overrun their "
                              "section")
    reader.pos = width_bits
    values = []
    for w in widths:
        if reader.pos + w > len(payload) * 8:
            raise ValueError("truncated String-Array Index blob")
        values.append(reader.read_bits(w))
    sai_options.setdefault("group_items", g1)
    return StringArrayIndex(values, **sai_options)
