"""Multi-tenant fleet index: the flat spectral Bloofi index (DESIGN.md §11).

Run:  python examples/multi_tenant.py

Mounts a few hundred per-tenant spectral filters — mixed methods — into
one :class:`~repro.tenancy.SpectralBloofiTree`, then walks the subsystem
end to end: multi-set frequency queries ("which tenants hold this key,
how many times?") that probe only the tenants whose presence bits are
set at all of the key's positions, an exactness check against the
scan-every-tenant oracle, live tenant lifecycle (unmount / remount a
pre-populated filter without pausing traffic), a snapshot/restore round
trip through the multi-section wire format, and the
:class:`~repro.tenancy.TenantDirectory` front routing single-tenant
composite keys through the unchanged
:class:`~repro.serve.ServingEngine`.
"""

import random

from repro.core.sbf import SpectralBloomFilter
from repro.serve import ServingEngine
from repro.tenancy import SpectralBloofiTree, TenantDirectory, load_tree

M, K, SEED = 8192, 3, 17
N_TENANTS, CATALOG, PER_TENANT = 240, 600, 20
METHODS = ["ms", "mi", "rm"]


def main() -> None:
    rng = random.Random(SEED)

    # ------------------------------------------------------------------
    # 1. Mount a fleet: one filter per tenant, methods mixed freely.
    # ------------------------------------------------------------------
    tree = SpectralBloofiTree(M, K, seed=SEED)
    for tenant in range(N_TENANTS):
        tree.mount(f"tenant-{tenant}", method=METHODS[tenant % 3])
        keys = rng.sample(range(CATALOG), PER_TENANT)
        tree.insert_many(f"tenant-{tenant}",
                         keys, [rng.randint(1, 3) for _ in keys])
    print("== fleet ==")
    print(f"  {tree.n_tenants} tenants, "
          f"{tree.index_bytes / 2 ** 10:,.0f} KiB of presence bits")

    # ------------------------------------------------------------------
    # 2. Multi-set frequency queries: who holds key x, and how often?
    # ------------------------------------------------------------------
    probed = tree.metrics.counter("tenancy.leaves_probed")
    hot, rare, absent = 7, "sku:limited-run", "sku:never-made"
    tree.insert("tenant-3", rare, 2)
    tree.insert("tenant-11", rare, 1)

    print("== multi-set frequency queries ==")
    for key in (hot, rare, absent):
        before = probed.value
        answers = tree.query(key)
        cost = probed.value - before
        print(f"  {key!r}: {len(answers)} tenants hold it "
              f"(probed {cost}/{tree.n_tenants} tenants)")
    print(f"  rare key owners: {dict(sorted(tree.query(rare).items()))}")

    # ------------------------------------------------------------------
    # 3. Exactness: the pruned lookup is bit-identical to scanning
    #    every tenant and keeping the positive answers.
    # ------------------------------------------------------------------
    probes = [rng.randrange(CATALOG) for _ in range(50)] + [rare, absent]
    mismatches = 0
    for key in probes:
        oracle = {}
        for tenant in tree.tenants:
            estimate = tree.handle_of(tenant).query(key)
            if estimate > 0:
                oracle[tenant] = estimate
        if tree.query(key) != oracle:
            mismatches += 1
    print("== exactness vs scan oracle ==")
    print(f"  {len(probes)} probes, {mismatches} mismatches")

    # ------------------------------------------------------------------
    # 4. Live lifecycle: tenants come and go without pausing traffic.
    # ------------------------------------------------------------------
    handle = tree.unmount("tenant-3")
    assert "tenant-3" not in tree.query(rare)
    moved = SpectralBloomFilter(M, K, seed=SEED, method="ms")
    moved.insert(rare, 5)
    tree.mount("tenant-moved", moved)  # pre-populated filters fold in
    print("== lifecycle ==")
    print(f"  unmounted tenant-3 (its filter lives on: "
          f"estimate {handle.query(rare)}), mounted a pre-populated "
          f"tenant; owners now {dict(sorted(tree.query(rare).items()))}")

    # ------------------------------------------------------------------
    # 5. Snapshot / restore through the multi-section wire format.
    # ------------------------------------------------------------------
    blob = tree.dump_tree()
    restored = load_tree(blob)
    same = all(restored.query(key) == tree.query(key) for key in probes)
    print("== snapshot/restore ==")
    print(f"  {len(blob):,} bytes, {restored.n_tenants} tenants restored, "
          f"answers identical: {same}, invariants: "
          f"{restored.verify() or 'all hold'}")

    # ------------------------------------------------------------------
    # 6. The directory front: single-tenant traffic through the
    #    unchanged serving engine, keyed (tenant, key).
    # ------------------------------------------------------------------
    directory = TenantDirectory(tree)
    engine = ServingEngine(directory, max_queue=256)
    futures = [engine.submit("insert", ("tenant-7", "login")),
               engine.submit("insert", ("tenant-7", "login")),
               engine.submit("query", ("tenant-7", "login")),
               engine.submit("query", ("no-such-tenant", "login"))]
    engine.drain()
    print("== directory + serving engine ==")
    print(f"  tenant-7 'login' count: {futures[2].result()}")
    print(f"  unknown tenant fails typed: "
          f"{type(futures[3].exception()).__name__}")
    engine.close()


if __name__ == "__main__":
    main()
