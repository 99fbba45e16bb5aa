"""Sliding-window multiset tracking over the SBF (paper §2.2, §6.2).

"In sliding windows scenarios, in cases data within the current window is
available (as is the case in data warehouse applications), the sliding
window can be maintained simply by performing deletions of the out-of-date
data."

:class:`SlidingWindowSBF` keeps the window buffer itself (the assumption
that expiring data is available) and pushes every expiry through
``sbf.delete``.  Figure 9 runs exactly this wrapper with MS/RM/MI methods;
MI's false negatives under deletion make it "practically unusable" here.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable

from repro.core.sbf import SpectralBloomFilter
from repro.core.serialize import dump_sbf, load_sbf, open_frame, seal_frame
from repro.hashing.keys import check_key

#: magic of the sliding-window checkpoint frame
_MAGIC_WINDOW = b"RSW1"
#: checkpoint filename inside a durability directory
CHECKPOINT_NAME = "window.ckpt"


class SlidingWindowSBF:
    """An SBF over the most recent *window* stream items.

    Args:
        window: number of most-recent items tracked.
        m, k: SBF parameters.
        method: SBF method (use "ms" or "rm"; "mi" is allowed so the
            Figure 9 failure mode can be reproduced, but it will produce
            false negatives).
    """

    def __init__(self, window: int, m: int, k: int = 5, *,
                 method: str = "rm", seed: int = 0):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = int(window)
        self.sbf = SpectralBloomFilter(m, k, method=method, seed=seed)
        self._buffer: deque = deque()

    # ------------------------------------------------------------------
    def push(self, item: Hashable) -> Hashable | None:
        """Insert *item*; evict and return the expiring item, if any."""
        evicted = None
        if len(self._buffer) == self.window:
            evicted = self._buffer.popleft()
            self.sbf.delete(evicted)
        self._buffer.append(item)
        self.sbf.insert(item)
        return evicted

    def extend(self, stream) -> None:
        """Push a whole stream through the window."""
        for item in stream:
            self.push(item)

    # ------------------------------------------------------------------
    def query(self, item: Hashable) -> int:
        """Estimated frequency of *item* within the current window."""
        return self.sbf.query(item)

    def contains(self, item: Hashable, threshold: int = 1) -> bool:
        """Windowed spectral membership."""
        return self.sbf.contains(item, threshold)

    def true_count(self, item: Hashable) -> int:
        """Exact in-window frequency (from the buffer; for verification)."""
        return sum(1 for x in self._buffer if x == item)

    def __len__(self) -> int:
        """Current number of items in the window (<= window size)."""
        return len(self._buffer)

    @property
    def is_full(self) -> bool:
        """True once the window has reached capacity."""
        return len(self._buffer) == self.window

    def storage_bits(self) -> int:
        """Model size of the sketch (the buffer is the caller's data)."""
        return self.sbf.storage_bits()

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def checkpoint(self, directory: str, *, io=None) -> str:
        """Atomically persist the window (sketch + buffer) to *directory*.

        The sketch and the buffer must stay mutually consistent (every
        buffered item is represented in the sketch exactly once), so both
        travel in a single checksummed frame written via the persist
        layer's write-temp → fsync → rename dance: a crash mid-checkpoint
        leaves the previous checkpoint untouched.  Buffer items must pass
        the serving key rule (:func:`~repro.hashing.keys.check_key`),
        because a non-scalar item (e.g. a tuple) would serialize to a
        JSON list, restore without error, and only blow up later when
        the window evicts it.

        Returns the checkpoint path.

        Raises:
            TypeError / ValueError: a buffered item the key rule refuses.
        """
        from repro.persist.snapshot import atomic_write_bytes
        meta = {
            "window": self.window,
            "method": self.sbf.method.name,
            "buffer": [check_key(item) for item in self._buffer],
        }
        frame = seal_frame(_MAGIC_WINDOW, meta, dump_sbf(self.sbf))
        path = f"{directory}/{CHECKPOINT_NAME}"
        atomic_write_bytes(path, frame, io=io)
        return path

    @classmethod
    def restore(cls, directory: str, *, io=None) -> "SlidingWindowSBF":
        """Rebuild a window persisted by :meth:`checkpoint`.

        Raises:
            WireFormatError: if the checkpoint is torn or corrupt.
            ValueError: if the sketch and buffer are inconsistent (the
                restored state is audited before it is served from).
        """
        from repro.persist.snapshot import read_frame_file
        path = f"{directory}/{CHECKPOINT_NAME}"
        meta, payload = read_frame_file(path, _MAGIC_WINDOW, io=io)
        window = meta.get("window")
        buffer = meta.get("buffer")
        if not isinstance(window, int) or window < 1 \
                or not isinstance(buffer, list):
            raise ValueError(f"malformed window checkpoint header: {meta!r}")
        if len(buffer) > window:
            raise ValueError(
                f"checkpoint buffer holds {len(buffer)} items but the "
                f"window is {window}")
        sbf = load_sbf(payload)
        issues = sbf.check_integrity()
        if issues:
            raise ValueError(
                "restored window sketch failed its integrity audit: "
                + "; ".join(issues))
        if sbf.total_count != len(buffer):
            raise ValueError(
                f"checkpoint sketch represents {sbf.total_count} items but "
                f"the buffer holds {len(buffer)}")
        restored = cls.__new__(cls)
        restored.window = window
        restored.sbf = sbf
        restored._buffer = deque(buffer)
        return restored
