"""The spectral Bloofi tree: a fleet index over per-tenant filters.

A fleet holding thousands of per-tenant spectral filters needs the
multi-set query "**which sets contain key x, and how often?**" — and
scanning N filters is O(N).  Crainiceanu & Lemire's *Bloofi* answers it
in sublinear time with a B+-tree whose leaves are the filters and whose
inner nodes are bitwise ORs of their children; the spectral twist here is
that inner nodes hold **counter-wise unions** (sums), so the tree prunes
*and* carries frequency information at every level.

Structure and invariants:

- every leaf wraps one tenant's serving handle (a plain
  :class:`~repro.core.sbf.SpectralBloomFilter`, or any handle of the
  shard-handle protocol: a :class:`~repro.persist.ConcurrentSBF`, a
  :class:`~repro.persist.DurableSBF`, a replicated
  :class:`~repro.serve.ha.ReplicaSet`) — any method, any backend — and
  every filter in the tree shares one hash family ``(m, k, seed)``, so a
  key's ``k`` counter positions are computed **once** per query and are
  valid at every node;
- every inner node holds an ``m``-vector that is exactly the counter-wise
  union (sum) of its children's *signatures* — the Minimum-Selection
  encoding of the multiset inserted below it.  For additive leaf methods
  (MS, RM, TRM — every insert adds ``count`` to all ``k`` primary
  counters) a bare filter's own counter vector *is* its signature;
  Minimal Increase leaves keep an explicit signature vector alongside,
  because their counters advance sub-additively, and so do wrapped
  handles (a replica set's local filter can lag behind hinted writes);
- inserts and deletes apply to the leaf first, then propagate the same
  ``k``-position delta up the root path (O(k · height) scalar adds, or
  one aggregated scatter-add per ancestor for bulk batches) — so the
  union invariant holds after every operation, which
  :meth:`SpectralBloofiTree.verify` checks and the property tests
  exercise under interleaved mount/unmount/insert/delete sequences;
- queries descend only branches whose inner counters are all nonzero at
  the key's positions.  The pruning is **exact** (never drops an answer)
  by the same argument that makes the blocked-hash router transparent:
  counters are non-negative, so an inner node's minimum over the key's
  positions dominates every descendant signature's minimum, which in
  turn dominates the leaf estimate for every method (MS/RM estimates are
  bounded by the primary minimum; MI counters are pointwise below the
  signature).  Inner minimum zero therefore proves every leaf below
  answers zero — the tree's answers are bit-identical to scanning all
  leaves.

Lifecycle is live: :meth:`~SpectralBloofiTree.mount` and
:meth:`~SpectralBloofiTree.unmount` add and remove tenants without
pausing traffic, with rebalancing bounded per operation — an overflowing
node splits in two (O(fanout) child vectors summed), an underflowing
node merges into or borrows from an adjacent sibling, and a root left
with a single inner child collapses.  All leaves stay at one depth
(B+-tree style), so descent cost is uniform.

Snapshot/restore rides the existing multi-section wire manifest
(:func:`~repro.core.serialize.seal_sections`): one checksummed frame
whose sections are the leaves' v2 filter frames plus a structure header;
:func:`load_tree` rebuilds the inner unions bottom-up from the loaded
leaves, so a corrupted inner vector can never be smuggled in through a
snapshot.

Everything reports through ``tenancy.*`` metrics in the shared
:class:`~repro.serve.metrics.MetricsRegistry` — lifecycle counters,
per-query nodes-visited totals, and per-level node/occupancy gauges
(refreshed by :meth:`~SpectralBloofiTree.refresh_level_gauges`, an
O(nodes) walk kept off the hot path).

All writes to a mounted tenant must flow through the tree (or the
:class:`~repro.tenancy.directory.TenantDirectory` front) — a write
applied directly to a leaf handle would desynchronise the ancestor
unions, which :meth:`verify` detects but nothing repairs automatically.
"""

from __future__ import annotations

import threading
from typing import Iterator, Sequence

import numpy as np

from repro.core.sbf import SpectralBloomFilter, check_count, prepare_batch
from repro.core.serialize import (
    WireFormatError,
    dump_sbf,
    family_name,
    load_sbf,
    open_sections,
    seal_sections,
)
from repro.handle import BulkResult, as_handle
from repro.hashing.families import make_family
from repro.hashing.vectorized import canonicalize_many, matrix_for
from repro.serve.metrics import MetricsRegistry

#: tree-manifest frame magic ("Repro Bloofi Tree v1")
TREE_MAGIC = b"RBT1"

#: leaf methods whose primary counters advance additively (insert adds
#: ``count`` at all k positions), making the leaf's own counter vector its
#: signature; Minimal Increase is the exception and keeps an explicit one.
_ADDITIVE_METHODS = frozenset({"ms", "rm"})


class UnknownTenant(ValueError):
    """The tenant id is not mounted in the tree."""


class _Node:
    """One tree node — inner (children + union vector) or leaf (tenant).

    ``children is None`` marks a leaf.  ``array`` is the inner node's
    counter-wise union of its children's signatures; on leaves,
    ``handle`` is the mounted handle, ``view`` the same handle as a
    :class:`~repro.handle.ShardHandle` (every leaf op goes through it),
    and ``signature`` the explicitly-tracked signature vector (``None``
    when the leaf's own counters serve as the signature).
    """

    __slots__ = ("parent", "children", "array", "n_leaves",
                 "tenant", "handle", "view", "signature")

    def __init__(self):
        self.parent: _Node | None = None
        self.children: list[_Node] | None = None
        self.array: np.ndarray | None = None
        self.n_leaves = 0
        self.tenant: object = None
        self.handle: object = None
        self.view = None
        self.signature: np.ndarray | None = None

    @classmethod
    def inner(cls, m: int) -> "_Node":
        node = cls()
        node.children = []
        node.array = np.zeros(m, dtype=np.int64)
        return node

    @classmethod
    def leaf(cls, tenant: object, handle: object,
             signature: np.ndarray | None) -> "_Node":
        node = cls()
        node.tenant = tenant
        node.handle = handle
        node.view = as_handle(handle)
        node.signature = signature
        node.n_leaves = 1
        return node

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_leaf:
            return f"_Node(leaf {self.tenant!r})"
        return f"_Node(inner, {len(self.children)} children)"


def _counters_array(sbf: SpectralBloomFilter) -> np.ndarray:
    """The filter's primary counter vector as a fresh int64 array."""
    raw = getattr(sbf.counters, "raw", None)
    if isinstance(raw, np.ndarray):
        return raw.astype(np.int64)
    return np.fromiter(iter(sbf.counters), dtype=np.int64, count=sbf.m)


def _direct_counters(handle: object) -> np.ndarray | None:
    """Counter array for leaves the descent may read in place of
    ``handle.query``: a bare filter whose estimate is the plain counter
    minimum (ms/mi) over an array-raw backend.  The tree already holds
    the batch position matrix, so these leaves cost one gather instead
    of a full hash-and-dispatch round trip per visit.  RM consults its
    secondary filter and wrapped handles (concurrent / durable /
    replicated) own their read paths, so both stay on the handle.
    """
    if type(handle) is not SpectralBloomFilter:
        return None
    if handle.method.name not in ("ms", "mi"):
        return None
    raw = getattr(handle.counters, "raw", None)
    return raw if isinstance(raw, np.ndarray) else None


class SpectralBloofiTree:
    """A B+-tree of spectral filters answering multi-set frequency queries.

    Args:
        m: counters per filter (shared by every node and leaf).
        k: hash probes per key (shared).
        seed: determinism seed for the shared hash family.
        hash_family: family name or class (``"modmul"`` default — the
            same default as :class:`~repro.core.sbf.SpectralBloomFilter`,
            so default-constructed filters mount without ceremony).
        fanout: maximum children per inner node (>= 2); nodes split when
            they exceed it and merge/borrow below ``max(2, fanout // 2)``.
        metrics: registry for the ``tenancy.*`` surface (one is created
            if omitted).
    """

    def __init__(self, m: int, k: int, *, seed: int = 0,
                 hash_family: object = "modmul", fanout: int = 16,
                 metrics: MetricsRegistry | None = None):
        if fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {fanout}")
        self.m = int(m)
        self.k = int(k)
        self.seed = int(seed)
        self.fanout = int(fanout)
        self.family = make_family(hash_family, self.m, self.k,
                                  seed=self.seed)
        self.metrics = metrics or MetricsRegistry()
        self._root = _Node.inner(self.m)
        self._leaves: dict[object, _Node] = {}
        self._lock = threading.RLock()
        self._max_level_seen = 0
        self._update_shape_gauges()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def tenants(self) -> tuple:
        """Mounted tenant ids (unordered snapshot)."""
        with self._lock:
            return tuple(self._leaves)

    @property
    def n_tenants(self) -> int:
        return len(self._leaves)

    @property
    def height(self) -> int:
        """Inner levels above the leaves (1 for a freshly built tree)."""
        with self._lock:
            return self._height()

    def _height(self) -> int:
        depth, node = 1, self._root
        while node.children and not node.children[0].is_leaf:
            depth += 1
            node = node.children[0]
        return depth

    @property
    def n_nodes(self) -> int:
        """All nodes, inner and leaf."""
        with self._lock:
            return sum(1 for _ in self._walk())

    def _walk(self) -> Iterator[tuple[_Node, int]]:
        stack = [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            if not node.is_leaf:
                stack.extend((child, depth + 1) for child in node.children)

    def handle_of(self, tenant: object) -> object:
        """The serving handle mounted for *tenant*."""
        return self._leaf(tenant).handle

    def _leaf(self, tenant: object) -> _Node:
        leaf = self._leaves.get(tenant)
        if leaf is None:
            raise UnknownTenant(f"tenant {tenant!r} is not mounted")
        return leaf

    # ------------------------------------------------------------------
    # tenant lifecycle
    # ------------------------------------------------------------------
    def mount(self, tenant: object, handle: object = None, *,
              method: object = "ms", backend: object = "numpy",
              method_options: dict | None = None,
              backend_options: dict | None = None,
              signature: np.ndarray | None = None) -> object:
        """Attach *tenant*'s filter to the tree; returns the leaf handle.

        With no *handle* a fresh tree-compatible
        :class:`~repro.core.sbf.SpectralBloomFilter` is created
        (*method*/*backend* and their options apply to it).  An existing
        handle — possibly pre-populated — must share the tree's
        ``(m, k, seed, family)``; its current counters are folded into
        every ancestor, so queries see the mounted content immediately.

        *signature* supplies the mount-time signature vector explicitly
        for handles whose counters the tree cannot read (remote-only
        replica sets); it is otherwise derived from the handle.

        Raises:
            ValueError: tenant already mounted, non-scalar tenant id, or
                an incompatible filter.
            TypeError: a non-empty handle whose signature cannot be
                derived and was not supplied.
        """
        if not isinstance(tenant, (str, int)) or isinstance(tenant, bool):
            raise ValueError(
                f"tenant ids must be str or int (they travel in the wire "
                f"manifest header), got {type(tenant).__name__}")
        with self._lock:
            if tenant in self._leaves:
                raise ValueError(f"tenant {tenant!r} is already mounted")
            if handle is None:
                handle = SpectralBloomFilter(
                    self.m, self.k, seed=self.seed,
                    hash_family=self.family.spawn(),
                    method=method, backend=backend,
                    method_options=method_options,
                    backend_options=backend_options)
            leaf = _Node.leaf(tenant, handle, None)
            vector, explicit = self._mount_signature(leaf, signature)
            if explicit:
                leaf.signature = vector.copy()
            parent = self._mount_point()
            leaf.parent = parent
            parent.children.append(leaf)
            node = parent
            while node is not None:
                node.array += vector
                node.n_leaves += 1
                node = node.parent
            self._leaves[tenant] = leaf
            self._split_overflowing(parent)
            self.metrics.counter("tenancy.mounts").inc()
            self._update_shape_gauges()
        return handle

    def _mount_signature(self, leaf: _Node,
                         signature: np.ndarray | None,
                         ) -> tuple[np.ndarray, bool]:
        """``(vector, explicit)`` for a leaf entering the tree.

        *explicit* marks leaves whose signature the tree must track
        itself: Minimal-Increase filters (sub-additive counters) and
        every handle but a bare filter — one with no readable local
        filter, or whose local filter may lag acknowledged writes (a
        replica set's hints).
        """
        sbf = leaf.view.local_filter()
        if sbf is not None:
            if sbf.m != self.m or not self.family.is_compatible(sbf.family):
                raise ValueError(
                    f"tenant filter must share the tree's parameters and "
                    f"hash family {self.family!r}; got {sbf.family!r}")
        if signature is not None:
            vector = np.asarray(signature, dtype=np.int64)
            if vector.shape != (self.m,):
                raise ValueError(
                    f"signature must have shape ({self.m},), got "
                    f"{vector.shape}")
            if vector.size and int(vector.min()) < 0:
                raise ValueError("signature counters must be >= 0")
            return vector.copy(), True
        if sbf is not None:
            explicit = sbf is not leaf.handle \
                or sbf.method.name not in _ADDITIVE_METHODS
            return _counters_array(sbf), explicit
        if leaf.view.total_count == 0:
            return np.zeros(self.m, dtype=np.int64), True
        raise TypeError(
            f"cannot derive a mount signature from "
            f"{type(leaf.handle).__name__} (no readable local filter); "
            f"mount it empty or pass signature=")

    def _mount_point(self) -> _Node:
        """The least-loaded leaf-parent node (keeps the tree balanced)."""
        node = self._root
        while node.children and not node.children[0].is_leaf:
            node = min(node.children, key=lambda child: child.n_leaves)
        return node

    def unmount(self, tenant: object) -> object:
        """Detach *tenant*; returns its handle (still fully usable).

        The leaf's signature is subtracted from every ancestor and the
        tree rebalances locally (merge/borrow/collapse) — other tenants
        keep serving throughout.
        """
        with self._lock:
            leaf = self._leaf(tenant)
            vector = self._vector(leaf)
            parent = leaf.parent
            parent.children.remove(leaf)
            node = parent
            while node is not None:
                node.array -= vector
                node.n_leaves -= 1
                node = node.parent
            leaf.parent = None
            del self._leaves[tenant]
            self._rebalance_underflow(parent)
            self.metrics.counter("tenancy.unmounts").inc()
            self._update_shape_gauges()
        return leaf.handle

    def _vector(self, node: _Node) -> np.ndarray:
        """A node's signature: union vector (inner), tracked signature
        (explicit leaves), or the leaf filter's own counters (additive
        leaves, read on demand — no duplicate storage)."""
        if not node.is_leaf:
            return node.array
        if node.signature is not None:
            return node.signature
        return _counters_array(node.view.local_filter())

    # -- rebalancing -------------------------------------------------------
    @property
    def _min_children(self) -> int:
        # ceil(fanout / 2): the split of an overflowing node (fanout + 1
        # children into floor/ceil halves) always satisfies it, for every
        # fanout >= 2 — the classic B-tree occupancy bound.
        return (self.fanout + 1) // 2

    def _split_overflowing(self, node: _Node | None) -> None:
        """Split nodes holding more than *fanout* children, walking up."""
        while node is not None and len(node.children) > self.fanout:
            half = len(node.children) // 2
            moved = node.children[half:]
            node.children = node.children[:half]
            sibling = _Node.inner(self.m)
            sibling.children = moved
            for child in moved:
                child.parent = sibling
                sibling.array += self._vector(child)
                sibling.n_leaves += child.n_leaves
            node.array = node.array - sibling.array
            node.n_leaves -= sibling.n_leaves
            parent = node.parent
            if parent is None:
                root = _Node.inner(self.m)
                root.children = [node, sibling]
                root.array = node.array + sibling.array
                root.n_leaves = node.n_leaves + sibling.n_leaves
                node.parent = sibling.parent = root
                self._root = root
            else:
                sibling.parent = parent
                parent.children.insert(
                    parent.children.index(node) + 1, sibling)
            self.metrics.counter("tenancy.splits").inc()
            node = parent

    def _rebalance_underflow(self, node: _Node) -> None:
        """Merge or borrow for nodes below the minimum occupancy."""
        while node is not None:
            parent = node.parent
            if parent is None:
                # Root: collapse a single-inner-child chain so height
                # tracks the population back down.
                while (len(self._root.children) == 1
                       and not self._root.children[0].is_leaf):
                    self._root = self._root.children[0]
                    self._root.parent = None
                    self.metrics.counter("tenancy.collapses").inc()
                return
            if len(node.children) >= self._min_children:
                return
            siblings = parent.children
            at = siblings.index(node)
            neighbours = [siblings[i] for i in (at - 1, at + 1)
                          if 0 <= i < len(siblings)]
            if not neighbours:
                # An only child has nobody to merge with or borrow from.
                # Prune it if it is empty; otherwise defer to the parent
                # (a single-child root collapses, handing this node the
                # root's underflow exemption).
                if not node.children:
                    siblings.remove(node)
                    node.parent = None
                node = parent
                continue
            sibling = min(neighbours, key=lambda s: len(s.children))
            if len(sibling.children) + len(node.children) <= self.fanout:
                for child in node.children:
                    child.parent = sibling
                sibling.children.extend(node.children)
                sibling.array += node.array
                sibling.n_leaves += node.n_leaves
                node.children = []
                node.parent = None
                siblings.remove(node)
                self.metrics.counter("tenancy.merges").inc()
                node = parent
            else:
                # Borrow the sibling's child adjacent to this node.
                child = sibling.children.pop(
                    -1 if siblings.index(sibling) < at else 0)
                vector = self._vector(child)
                sibling.array -= vector
                sibling.n_leaves -= child.n_leaves
                node.array += vector
                node.n_leaves += child.n_leaves
                child.parent = node
                if siblings.index(sibling) < at:
                    node.children.insert(0, child)
                else:
                    node.children.append(child)
                self.metrics.counter("tenancy.borrows").inc()
                return

    # ------------------------------------------------------------------
    # the write path: leaf first, then deltas up the root path
    # ------------------------------------------------------------------
    def insert(self, tenant: object, key: object, count: int = 1) -> None:
        """Record *count* occurrences of *key* for *tenant*."""
        count = check_count(count)
        if count == 0:
            return
        with self._lock:
            leaf = self._leaf(tenant)
            leaf.view.insert(key, count)
            self._apply_point(leaf, key, count)
            self.metrics.counter("tenancy.inserts").inc()

    def delete(self, tenant: object, key: object, count: int = 1) -> None:
        """Remove *count* occurrences of *key* from *tenant*.

        Refused cleanly (no partial application, ancestors untouched)
        when the leaf's counters could not absorb the decrement — every
        handle's delete is all-or-nothing.
        """
        count = check_count(count)
        if count == 0:
            return
        with self._lock:
            leaf = self._leaf(tenant)
            leaf.view.delete(key, count)
            self._apply_point(leaf, key, -count)
            self.metrics.counter("tenancy.deletes").inc()

    def set_count(self, tenant: object, key: object, count: int) -> None:
        """Drive *tenant*'s estimate for *key* to exactly *count*."""
        count = check_count(count)
        with self._lock:
            current = self.query_tenant(tenant, key)
            if count > current:
                self.insert(tenant, key, count - current)
            elif count < current:
                self.delete(tenant, key, current - count)

    def _apply_point(self, leaf: _Node, key: object, count: int) -> None:
        positions = self.family.indices(key)
        if leaf.signature is not None:
            signature = leaf.signature
            for position in positions:
                signature[position] += count
        node = leaf.parent
        while node is not None:
            array = node.array
            for position in positions:
                array[position] += count
            node = node.parent

    def insert_many(self, tenant: object, keys, counts=None) -> BulkResult:
        """Bulk insert through the leaf's vectorised kernels.

        One hashing pass covers the ancestors: the ``(n, k)`` position
        matrix drives one aggregated scatter-add per ancestor, over the
        slots the leaf's :class:`~repro.handle.BulkResult` reports as
        landed (hinted writes on replicated leaves land, which stays
        one-sided while handoff drains).  Returns that result.
        """
        return self._bulk(tenant, keys, counts, +1)

    def delete_many(self, tenant: object, keys, counts=None) -> BulkResult:
        """Bulk delete; all-or-nothing per leaf handle, like
        :meth:`~repro.core.sbf.SpectralBloomFilter.delete_many`."""
        return self._bulk(tenant, keys, counts, -1)

    def _bulk(self, tenant: object, keys, counts, sign: int) -> BulkResult:
        with self._lock:
            leaf = self._leaf(tenant)
            keys, counts = prepare_batch(keys, counts)
            verb = leaf.view.insert_many if sign > 0 \
                else leaf.view.delete_many
            outcome = verb(keys, counts)
            if len(keys):
                self._apply_bulk(leaf, keys, counts, sign, outcome)
            self.metrics.counter(
                "tenancy.inserts" if sign > 0 else "tenancy.deletes",
            ).inc(outcome.applied)
            return outcome

    def _apply_bulk(self, leaf: _Node, keys, counts, sign: int,
                    outcome: BulkResult) -> None:
        canon = canonicalize_many(keys)
        matrix = matrix_for(self.family, canon)
        flat = matrix.ravel()
        deltas = sign * counts
        for failure in outcome.failures:
            deltas[failure.index] = 0  # a slot that never landed
        deltas = np.repeat(deltas, self.k)
        if leaf.signature is not None:
            np.add.at(leaf.signature, flat, deltas)
        node = leaf.parent
        while node is not None:
            np.add.at(node.array, flat, deltas)
            node = node.parent

    # ------------------------------------------------------------------
    # the read path: pruned descent
    # ------------------------------------------------------------------
    def query(self, key: object) -> dict:
        """``{tenant: estimate}`` over every tenant whose estimate is > 0.

        Descends only branches whose inner counters are nonzero at the
        key's positions; bit-identical to querying every mounted leaf and
        keeping the positive answers (the pruning-exactness argument in
        the module docstring).
        """
        with self._lock:
            positions = np.fromiter(self.family.indices(key),
                                    dtype=np.int64, count=self.k)
            answers: dict = {}
            visited = 0
            stack = [self._root]
            while stack:
                node = stack.pop()
                visited += 1
                if node.is_leaf:
                    direct = _direct_counters(node.handle)
                    estimate = (int(direct[positions].min())
                                if direct is not None
                                else node.view.query(key))
                    if estimate > 0:
                        answers[node.tenant] = estimate
                elif node.n_leaves and int(node.array[positions].min()) > 0:
                    stack.extend(node.children)
            self.metrics.counter("tenancy.queries").inc()
            self.metrics.counter("tenancy.nodes_visited").inc(visited)
            return answers

    def query_many(self, keys: Sequence[object]) -> list[dict]:
        """Per-key ``{tenant: estimate}`` dicts, one vectorised descent.

        The whole batch shares one hashing pass; each node is examined
        once against the keys still alive at it (a single gather + row
        minimum), so a batch costs one array pass per *distinct node
        visited* rather than per key.
        """
        if not isinstance(keys, (list, tuple)):
            keys = list(keys)
        results: list[dict] = [{} for _ in keys]
        if not keys:
            return results
        with self._lock:
            canon = canonicalize_many(keys)
            matrix = matrix_for(self.family, canon)
            visited = 0
            stack: list[tuple[_Node, np.ndarray]] = [
                (self._root, np.arange(len(keys)))]
            while stack:
                node, alive = stack.pop()
                visited += int(alive.size)
                if node.is_leaf:
                    self._leaf_answers(node, keys, alive, results, matrix)
                elif node.n_leaves:
                    minima = node.array[matrix[alive]].min(axis=1)
                    keep = alive[minima > 0]
                    if keep.size:
                        stack.extend((child, keep)
                                     for child in node.children)
            self.metrics.counter("tenancy.queries").inc(len(keys))
            self.metrics.counter("tenancy.nodes_visited").inc(visited)
        return results

    def _leaf_answers(self, node: _Node, keys, alive: np.ndarray,
                      results: list[dict], matrix: np.ndarray) -> None:
        direct = _direct_counters(node.handle)
        if direct is not None:
            estimates = direct[matrix[alive]].min(axis=1)
            for slot, estimate in zip(alive.tolist(), estimates.tolist()):
                if estimate > 0:
                    results[slot][node.tenant] = int(estimate)
            return
        slots = alive.tolist()
        estimates = node.view.query_many([keys[i] for i in slots])
        for slot, estimate in zip(slots,
                                  estimates.raise_first().values.tolist()):
            if estimate > 0:
                results[slot][node.tenant] = estimate

    def query_tenant(self, tenant: object, key: object) -> int:
        """Single-tenant estimate — straight to the owning leaf, no
        descent (what the directory front routes through)."""
        with self._lock:
            return self._leaf(tenant).view.query(key)

    def query_tenant_many(self, tenant: object, keys) -> BulkResult:
        """Single-tenant bulk estimates: the leaf handle's
        :class:`~repro.handle.BulkResult`."""
        with self._lock:
            return self._leaf(tenant).view.query_many(keys)

    def view_of(self, tenant: object):
        """*tenant*'s leaf handle as a :class:`~repro.handle.ShardHandle`."""
        return self._leaf(tenant).view

    @property
    def total_count(self) -> int:
        """Total multiplicity across the fleet."""
        with self._lock:
            return sum(leaf.view.total_count
                       for leaf in self._leaves.values())

    # ------------------------------------------------------------------
    # snapshot / restore (multi-section wire manifest)
    # ------------------------------------------------------------------
    def dump_tree(self) -> bytes:
        """Serialise the whole tree to one checksummed manifest frame.

        Sections are the leaves' v2 filter frames (depth-first order);
        the header carries the tree shape as nested child lists with
        leaf slots as section indices.  Inner unions are *not* shipped —
        :func:`load_tree` recomputes them from the leaves, so a snapshot
        can never carry a desynchronised union.
        """
        with self._lock:
            tenants: list = []
            sections: list[bytes] = []

            def encode(node: _Node):
                if node.is_leaf:
                    sbf = node.view.local_filter()
                    if sbf is None:
                        raise TypeError(
                            f"tenant {node.tenant!r} has no readable local "
                            f"filter; snapshot its remote state separately")
                    tenants.append(node.tenant)
                    sections.append(dump_sbf(sbf))
                    return len(tenants) - 1
                return [encode(child) for child in node.children]

            structure = encode(self._root)
            meta = {
                "version": 1, "fanout": self.fanout,
                "m": self.m, "k": self.k, "seed": self.seed,
                "family": family_name(self.family),
                "tenants": tenants, "structure": structure,
            }
            self.metrics.counter("tenancy.snapshots").inc()
            return seal_sections(TREE_MAGIC, meta, sections)

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def verify(self) -> list[str]:
        """Audit every tree invariant; returns the issues found.

        Checks, for every inner node: the union invariant (its vector
        equals the counter-wise sum of its children's signatures), leaf
        counts, child/parent linkage, occupancy bounds, and that all
        leaves sit at one depth.  Empty list means the tree is sound.
        """
        with self._lock:
            issues: list[str] = []
            leaf_depths = set()
            for node, depth in self._walk():
                if node.is_leaf:
                    leaf_depths.add(depth)
                    continue
                expected = np.zeros(self.m, dtype=np.int64)
                leaves = 0
                for child in node.children:
                    if child.parent is not node:
                        issues.append(f"child {child!r} at depth {depth} "
                                      f"has a stale parent pointer")
                    expected += self._vector(child)
                    leaves += child.n_leaves
                if not np.array_equal(node.array, expected):
                    bad = int(np.count_nonzero(node.array != expected))
                    issues.append(
                        f"inner node at depth {depth} diverges from the "
                        f"union of its children in {bad} counters")
                if node.n_leaves != leaves:
                    issues.append(
                        f"inner node at depth {depth} claims "
                        f"{node.n_leaves} leaves but holds {leaves}")
                if len(node.children) > self.fanout:
                    issues.append(
                        f"inner node at depth {depth} holds "
                        f"{len(node.children)} children > fanout "
                        f"{self.fanout}")
                if (node is not self._root
                        and len(node.children) < self._min_children):
                    issues.append(
                        f"non-root inner node at depth {depth} holds "
                        f"{len(node.children)} children < minimum "
                        f"{self._min_children}")
            if len(leaf_depths) > 1:
                issues.append(f"leaves sit at mixed depths "
                              f"{sorted(leaf_depths)}")
            if self._root.n_leaves != len(self._leaves):
                issues.append(
                    f"root counts {self._root.n_leaves} leaves but "
                    f"{len(self._leaves)} tenants are mounted")
            return issues

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def _update_shape_gauges(self) -> None:
        self.metrics.gauge("tenancy.tenants").set(len(self._leaves))
        self.metrics.gauge("tenancy.height").set(self._height())

    def refresh_level_gauges(self) -> dict:
        """Refresh the per-level ``tenancy.level.<d>.*`` gauges.

        An O(nodes) walk (kept off the mount/insert hot path): per level,
        the node count and the mean child occupancy of inner nodes.
        Levels the tree has shrunk away from are zeroed.  Returns the
        ``{level: {"nodes": ..., "occupancy": ...}}`` it published.
        """
        with self._lock:
            nodes: dict[int, int] = {}
            occupancy: dict[int, list[int]] = {}
            for node, depth in self._walk():
                nodes[depth] = nodes.get(depth, 0) + 1
                if not node.is_leaf:
                    occupancy.setdefault(depth, []).append(
                        len(node.children))
            report = {}
            for level in range(max(self._max_level_seen,
                                   max(nodes)) + 1):
                level_nodes = nodes.get(level, 0)
                fills = occupancy.get(level)
                mean_fill = (sum(fills) / len(fills)) if fills else 0.0
                self.metrics.gauge(
                    f"tenancy.level.{level}.nodes").set(level_nodes)
                self.metrics.gauge(
                    f"tenancy.level.{level}.occupancy").set(mean_fill)
                report[level] = {"nodes": level_nodes,
                                 "occupancy": mean_fill}
            self._max_level_seen = max(self._max_level_seen, max(nodes))
            return report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SpectralBloofiTree(m={self.m}, k={self.k}, "
                f"fanout={self.fanout}, tenants={len(self._leaves)}, "
                f"height={self._height()})")


# ----------------------------------------------------------------------
# restore
# ----------------------------------------------------------------------
def load_tree(data: bytes, *,
              metrics: MetricsRegistry | None = None,
              fanout: int | None = None) -> SpectralBloofiTree:
    """Rebuild a tree serialised by :meth:`SpectralBloofiTree.dump_tree`.

    Leaves are reconstructed from their embedded v2 filter frames and
    the tree shape from the structure header; inner unions are recomputed
    bottom-up from the loaded leaves (so they are correct by
    construction).  Restored leaves are plain in-memory filters — re-wrap
    them (durable/concurrent/replicated) and remount as needed.

    Raises:
        WireFormatError: on truncation, corruption, or a structurally
            invalid header (wrong arity, duplicate tenants, bad nesting).
    """
    meta, sections = open_sections(data, TREE_MAGIC)

    def need(condition: bool, message: str) -> None:
        if not condition:
            raise WireFormatError(message)

    need(meta.get("version") == 1,
         f"unsupported tree-manifest version {meta.get('version')!r}")
    for field in ("m", "k", "seed", "fanout"):
        value = meta.get(field)
        need(isinstance(value, int) and not isinstance(value, bool),
             f"header field {field!r} must be an integer, got {value!r}")
    need(meta["m"] >= 1 and meta["k"] >= 1 and meta["fanout"] >= 2,
         "m/k/fanout out of range")
    tenants = meta.get("tenants")
    need(isinstance(tenants, list) and len(tenants) == len(sections),
         f"'tenants' must list one id per section "
         f"({len(sections)}), got {tenants!r}")
    for tenant in tenants:
        need(isinstance(tenant, (str, int)) and not isinstance(tenant, bool),
             f"tenant ids must be str or int, got {tenant!r}")
    need(len(set(tenants)) == len(tenants), "duplicate tenant ids")
    family = meta.get("family")
    need(isinstance(family, str), f"'family' must be a string, got "
                                  f"{family!r}")
    try:
        tree = SpectralBloofiTree(
            meta["m"], meta["k"], seed=meta["seed"], hash_family=family,
            fanout=fanout if fanout is not None else meta["fanout"],
            metrics=metrics)
    except (ValueError, TypeError) as exc:
        raise WireFormatError(f"invalid tree parameters: {exc}") from None

    filters = []
    for section in sections:
        sbf = load_sbf(section)
        need(sbf.m == tree.m
             and tree.family.is_compatible(sbf.family),
             "embedded filter is incompatible with the tree header")
        filters.append(sbf)

    structure = meta.get("structure")
    need(isinstance(structure, list), f"'structure' must be a list, got "
                                      f"{structure!r}")
    used: set[int] = set()

    def build(spec, parent: _Node | None) -> _Node:
        if isinstance(spec, int) and not isinstance(spec, bool):
            need(0 <= spec < len(filters) and spec not in used,
                 f"structure references section {spec} invalidly")
            used.add(spec)
            sbf = filters[spec]
            explicit = sbf.method.name not in _ADDITIVE_METHODS
            leaf = _Node.leaf(
                tenants[spec], sbf,
                _counters_array(sbf) if explicit else None)
            leaf.parent = parent
            tree._leaves[tenants[spec]] = leaf
            return leaf
        need(isinstance(spec, list) and len(spec) <= tree.fanout,
             f"malformed structure entry {spec!r}")
        node = _Node.inner(tree.m)
        node.parent = parent
        for child_spec in spec:
            child = build(child_spec, node)
            node.children.append(child)
            node.array += tree._vector(child)
            node.n_leaves += child.n_leaves
        return node

    root = build(structure, None)
    need(not root.is_leaf, "the structure root must be an inner node")
    need(len(used) == len(filters), "structure does not cover every section")
    tree._root = root
    issues = tree.verify()
    need(not issues, f"restored tree failed verification: {issues[:3]}")
    tree._update_shape_gauges()
    return tree
