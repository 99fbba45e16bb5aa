"""TenantDirectory: the tenancy index behind the router contract.

The serving stack (:class:`~repro.serve.batch.ShardBatcher`,
:class:`~repro.serve.engine.ServingEngine`, the admission policies, the
deadline/retry-budget machinery) speaks one contract — a router with
``shards`` / ``shard_of_many`` / point verbs, whose shards speak the
shard-handle protocol (:mod:`repro.handle`).  :class:`TenantDirectory`
implements that
contract over a :class:`~repro.tenancy.tree.SpectralBloofiTree`, so a
multi-tenant fleet plugs into the existing engine **unchanged**:

- keys on this surface are composite ``(tenant, key)`` pairs — the
  directory routes each to a per-tenant slot and strips the tenant
  before the tenant's handle sees the key;
- every mounted tenant owns one stable slot backed by a thin
  :class:`_TenantLeaf` handle that delegates each operation to the index
  **by tenant id at call time** (so the index may reuse bit columns
  under live traffic without any adapter going stale — an unmounted
  tenant's slot simply starts failing with
  :class:`~repro.tenancy.tree.UnknownTenant`);
- routing refuses what it cannot route: ``shard_of`` raises
  :class:`~repro.tenancy.tree.UnknownTenant` for a non-pair or a
  never-mounted tenant (a ``ValueError``, so one of the key rule's
  :data:`~repro.hashing.keys.KEY_ERRORS`) and the key rule's error for a
  refused inner key — the fleet's owner pass fails that op **in its own
  result slot**, as on a :class:`~repro.serve.router.ShardedSBF`, never
  felling a whole batch;
- writes and single-tenant reads never touch the bitmap's AND — they go
  straight to the owning tenant, exactly like a router hop — while the
  multi-tenant query ("which tenants hold x?") stays available as
  :meth:`TenantDirectory.query_tenants` on the directory itself.

The slots forward the protocol's lifecycle verbs (``tick``,
``checkpoint``, ``close``) to the leaf handle, so
``ServingEngine.maintain()`` probes replicated leaves and
``ServingEngine.close()`` checkpoints durable leaves through the
directory just as it would through a :class:`~repro.serve.router.
ShardedSBF`.
"""

from __future__ import annotations

import threading
from typing import Sequence

from repro.core.sbf import check_threshold
from repro.handle import BulkResult, ShardHandle
from repro.hashing.keys import check_key
from repro.serve.metrics import MetricsRegistry
from repro.tenancy.tree import SpectralBloofiTree, UnknownTenant


def split_key(composite: object) -> tuple:
    """``(tenant, key)`` from a composite directory key.

    Raises:
        UnknownTenant: the composite is not a 2-tuple — the directory
            cannot even name a tenant to blame, so the op is unroutable.
    """
    if isinstance(composite, tuple) and len(composite) == 2:
        return composite
    raise UnknownTenant(
        f"directory keys are (tenant, key) pairs, got {composite!r}")


class TenantDirectory:
    """Route single-tenant operations to the owning tenant's handle.

    Args:
        tree: the fleet index to front.
        metrics: registry to report through (defaults to the tree's, so
            ``tenancy.*`` and ``directory.*`` land in one snapshot).
    """

    def __init__(self, tree: SpectralBloofiTree, *,
                 metrics: MetricsRegistry | None = None):
        self.tree = tree
        self.metrics = metrics or tree.metrics
        self._lock = threading.Lock()
        self._slots: dict[object, int] = {}
        # Replaced whole on mount: the owner pass reads it without a copy.
        self._shards: tuple = ()
        for tenant in tree.tenants:
            self._admit(tenant)
        self.metrics.gauge("directory.slots").set(len(self._shards))

    # -- lifecycle ---------------------------------------------------------
    def mount(self, tenant: object, handle: object = None,
              **mount_options) -> object:
        """Mount *tenant* in the tree and give it a routing slot.

        Passes through to :meth:`~repro.tenancy.tree.SpectralBloofiTree.
        mount`; an unmounted-then-remounted tenant gets its old slot
        back, so long-lived batchers keep routing correctly.
        """
        handle = self.tree.mount(tenant, handle, **mount_options)
        self._admit(tenant)
        return handle

    def unmount(self, tenant: object) -> object:
        """Unmount *tenant*; its slot stays allocated but starts failing
        every op with :class:`UnknownTenant` (in-slot, per the batch
        error discipline)."""
        return self.tree.unmount(tenant)

    def _admit(self, tenant: object) -> None:
        with self._lock:
            if tenant not in self._slots:
                self._slots[tenant] = len(self._shards)
                self._shards += (_TenantLeaf(self, tenant),)
        self.metrics.gauge("directory.slots").set(len(self._shards))

    # -- the router contract ----------------------------------------------
    @property
    def shards(self) -> tuple:
        """Slot handles, indexed by slot id (one per tenant ever
        mounted)."""
        return self._shards

    def shard_of(self, composite: object) -> int:
        """The slot owning a composite key.  A non-pair or a tenant never
        mounted raises :class:`UnknownTenant`, and an inner key the key
        rule refuses its error, so the batcher fails that key alone."""
        return self.shard_of_many([composite])[0]

    def shard_of_many(self, composites: Sequence[object]) -> list[int]:
        with self._lock:
            slots, owners = self._slots, []
            for composite in composites:
                tenant, key = split_key(composite)
                check_key(key)
                if tenant not in slots:
                    raise UnknownTenant(f"tenant {tenant!r} is not mounted")
                owners.append(slots[tenant])
            return owners

    def note_shard_ops(self, slot: int, n: int) -> None:
        self.metrics.counter("directory.ops").inc(n)

    # -- point verbs (the direct-call surface) ----------------------------
    def insert(self, composite: object, count: int = 1) -> None:
        tenant, key = split_key(composite)
        self.tree.insert(tenant, key, count)

    def delete(self, composite: object, count: int = 1) -> None:
        tenant, key = split_key(composite)
        self.tree.delete(tenant, key, count)

    def set(self, composite: object, count: int) -> None:
        tenant, key = split_key(composite)
        self.tree.set_count(tenant, key, count)

    def query(self, composite: object) -> int:
        tenant, key = split_key(composite)
        return self.tree.query_tenant(tenant, key)

    def contains(self, composite: object, threshold: int = 1) -> bool:
        check_threshold(threshold)
        return self.query(composite) >= threshold

    # -- the multi-tenant verbs (what the index exists for) ----------------
    def query_tenants(self, key: object) -> dict:
        """``{tenant: estimate}`` over the whole fleet — the sublinear
        multi-set query; plain keys here, no composite."""
        return self.tree.query(key)

    @property
    def total_count(self) -> int:
        return self.tree.total_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TenantDirectory({self.tree!r}, "
                f"slots={len(self._shards)})")


class _TenantLeaf(ShardHandle):
    """One tenant's routing slot: a shard handle over a mounted tenant.

    Stateless beyond the tenant id — every call resolves the tenant
    through the index at call time, so an unmount and remount never
    invalidates a slot.  Composite keys are stripped here; the index
    (and the tenant's handle below it) see plain keys.  The index holds
    its own lock per operation (a write and its bit update must be
    atomic index-wide, not per-tenant), so :meth:`exclusive` is the
    protocol's pass-through.
    """

    __slots__ = ("_directory", "tenant")

    def __init__(self, directory: TenantDirectory, tenant: object):
        self._directory = directory
        self.tenant = tenant

    @property
    def _tree(self) -> SpectralBloofiTree:
        return self._directory.tree

    def _key(self, composite: object) -> object:
        tenant, key = split_key(composite)
        if tenant != self.tenant:
            raise UnknownTenant(
                f"key routed to tenant {self.tenant!r} names {tenant!r}")
        return key

    # -- point ops (composite keys) ----------------------------------------
    def insert(self, composite: object, count: int = 1) -> None:
        self._tree.insert(self.tenant, self._key(composite), count)

    def delete(self, composite: object, count: int = 1) -> None:
        self._tree.delete(self.tenant, self._key(composite), count)

    def set(self, composite: object, count: int) -> None:
        self._tree.set_count(self.tenant, self._key(composite), count)

    def query(self, composite: object) -> int:
        return self._tree.query_tenant(self.tenant, self._key(composite))

    # -- bulk ops ----------------------------------------------------------
    def query_many(self, composites: Sequence[object], *,
                   timeout: float | None = None) -> BulkResult:
        keys = [self._key(c) for c in composites]
        return self._tree.query_tenant_many(self.tenant, keys)

    def insert_many(self, composites: Sequence[object], counts=None, *,
                    timeout: float | None = None) -> BulkResult:
        keys = [self._key(c) for c in composites]
        return self._tree.insert_many(self.tenant, keys, counts)

    def delete_many(self, composites: Sequence[object], counts=None, *,
                    timeout: float | None = None) -> BulkResult:
        keys = [self._key(c) for c in composites]
        return self._tree.delete_many(self.tenant, keys, counts)

    # -- accounting / lifecycle --------------------------------------------
    @property
    def total_count(self) -> int:
        return self._tree.view_of(self.tenant).total_count

    def _on_leaf(self, verb: str):
        """Run a lifecycle verb on the leaf handle — an unmounted
        tenant's slot has nothing to tick, checkpoint or close."""
        try:
            view = self._tree.view_of(self.tenant)
        except UnknownTenant:
            return None
        return getattr(view, verb)()

    def tick(self) -> None:
        self._on_leaf("tick")

    def checkpoint(self):
        return self._on_leaf("checkpoint")

    def close(self) -> None:
        self._on_leaf("close")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_TenantLeaf({self.tenant!r})"
