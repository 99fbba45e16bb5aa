"""Simulated distributed sites with traffic accounting (§5.3 substrate).

A Bloomjoin's whole point is trading a small synopsis transmission for a
large tuple transmission, so the substrate's job is to *measure traffic*:
every message sent between sites carries an explicit size in bits, and the
:class:`Network` totals bytes and round-trips per experiment.

Message sizes use the same model-bits convention as the rest of the
repository: a Bloom filter costs ``m`` bits, an SBF costs its
``storage_bits()``, a tuple costs ``64`` bits per attribute (a register
value) unless the caller overrides it.
"""

from __future__ import annotations

from typing import Callable

from repro.db.relation import Relation

#: default model cost of one attribute value on the wire
BITS_PER_VALUE = 64


class Network:
    """The channel between sites; totals traffic and rounds.

    Attributes:
        total_bits: all traffic so far, in bits.
        rounds: point-to-point transmissions so far (the paper's
            'rounds').

    Only running totals are kept (these two and bits per label), never
    the frames, so a long-lived network holds constant memory.
    """

    def __init__(self):
        self.reset()

    def send(self, sender: str, recipient: str, label: str,
             payload: object, bits: int) -> object:
        """Deliver *payload*, charging *bits* to the traffic total."""
        if bits < 0:
            raise ValueError(f"message size must be >= 0, got {bits}")
        bits = int(bits)
        self.total_bits += bits
        self.rounds += 1
        self._by_label[label] = self._by_label.get(label, 0) + bits
        return payload

    def transmit(self, sender: str, recipient: str, label: str,
                 frame: bytes) -> list[bytes]:
        """Physical-layer delivery attempt of one wire frame.

        The frame is charged to the traffic ledger at its actual size and
        the method returns the list of frames that arrive at *recipient*
        from this attempt.  The base network is perfectly reliable — the
        frame arrives exactly once, intact — while fault-injecting
        subclasses (:class:`repro.db.faults.FaultyNetwork`) may return an
        empty list (drop), duplicates, a bit-flipped copy, or earlier
        delayed frames appended out of order.  Reliable transports
        (:class:`repro.db.transport.ReliableChannel`) sit on top of this
        hook.
        """
        if not isinstance(frame, (bytes, bytearray)):
            raise TypeError(
                f"transmit carries wire frames (bytes), got "
                f"{type(frame).__name__}")
        frame = bytes(frame)
        self.send(sender, recipient, label, frame, len(frame) * 8)
        return [frame]

    def reset(self) -> None:
        """Zero the traffic totals (between experiment repetitions)."""
        self.total_bits = 0
        self.rounds = 0
        self._by_label: dict[str, int] = {}

    def breakdown(self) -> dict[str, int]:
        """Bits per message label (synopsis vs tuples vs results...)."""
        return dict(self._by_label)


class Site:
    """A named database site holding relations and talking to the network."""

    def __init__(self, name: str, network: Network):
        self.name = name
        self.network = network
        self.relations: dict[str, Relation] = {}

    def store(self, relation: Relation) -> Relation:
        """Register a relation at this site."""
        self.relations[relation.name] = relation
        return relation

    def relation(self, name: str) -> Relation:
        """Fetch a local relation by name."""
        try:
            return self.relations[name]
        except KeyError:
            raise KeyError(
                f"site {self.name!r} has no relation {name!r}") from None

    def send(self, recipient: "Site", label: str, payload: object,
             bits: int) -> object:
        """Transmit *payload* to another site, charging *bits*."""
        return self.network.send(self.name, recipient.name, label,
                                 payload, bits)

    def send_tuples(self, recipient: "Site", label: str,
                    rows: list[tuple],
                    bits_per_value: int = BITS_PER_VALUE) -> list[tuple]:
        """Transmit rows, charged at *bits_per_value* per attribute."""
        bits = sum(len(row) for row in rows) * bits_per_value
        return self.send(recipient, label, rows, bits)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Site({self.name!r}, relations={sorted(self.relations)})"


def two_sites(network: Network | None = None,
              names: tuple[str, str] = ("site1", "site2"),
              ) -> tuple[Site, Site, Network]:
    """Convenience: a fresh two-site topology (the Bloomjoin setting)."""
    network = network if network is not None else Network()
    return Site(names[0], network), Site(names[1], network), network


# Re-exported for callers that size custom messages.
def tuple_bits(rows: list[tuple],
               bits_per_value: int = BITS_PER_VALUE) -> int:
    """Model wire size of a list of tuples."""
    return sum(len(row) for row in rows) * bits_per_value


# Make the callable type available for documentation tools.
PayloadSizer = Callable[[object], int]
