"""Build the serving stack a scenario runs against.

One :func:`build_topology` call turns the spec's ``topology`` block into
a live, clock-injected serving fleet on the ladder the repo grew rung by
rung:

- ``single`` — one :class:`~repro.persist.ConcurrentSBF` shard behind a
  router (the degenerate fleet; the oracle's own shape);
- ``sharded`` — :class:`~repro.serve.router.ShardedSBF` over blocked
  hashing, optionally durable (WAL + snapshots per shard), which is
  what the ``crash_recover`` and ``reshard`` fault actions need;
- ``replicated`` — :func:`~repro.serve.ha.replicated_fleet` with every
  replica behind a :class:`~repro.serve.remote.RemoteShard` over a
  :class:`~repro.db.faults.FaultyNetwork`, so partitions, packet loss
  and gray slowness are injected on the wire the real read/write paths
  cross (coordinator ``coord``, replica endpoints ``s{shard}r{replica}``);
- ``procpool`` — a :class:`~repro.serve.procpool.ProcessShardPool`; the
  ``kill``/``restart`` actions are real ``SIGKILL``/respawn;
- ``tenants`` — a :class:`~repro.tenancy.directory.TenantDirectory`
  over a :class:`~repro.tenancy.tree.SpectralBloofiTree`, the
  ``mount``/``unmount`` storm target.

Every component shares the scenario's :class:`~repro.scenario.clock.
SimClock` — through the metrics registry, the transport ``sleep``
hooks, the network ``advance`` hook, and the shard handles' lock-wait
budgets — so the whole stack moves on simulated time only.

Bit-exactness guardrail: multi-shard topologies must use blocked
hashing, the property (paper §1.1.3) that makes a routed fleet answer
counter-for-counter like one unsharded filter — without it the oracle's
zero-wrong-answer claim is unfalsifiable, so the builder refuses.
"""

from __future__ import annotations

import os

from repro.core.sbf import SpectralBloomFilter
from repro.db.faults import FaultPolicy, FaultyNetwork
from repro.persist import ConcurrentSBF, DurableSBF
from repro.serve.ha import replicated_fleet
from repro.serve.metrics import MetricsRegistry
from repro.serve.remote import RemoteShard, ShardServer
from repro.serve.router import ShardedSBF
from repro.scenario.clock import SimClock
from repro.scenario.spec import SpecError

__all__ = ["Topology", "build_topology"]


class Topology:
    """A built serving stack plus the handles fault actions reach for.

    Attributes:
        kind: the topology rung (``single`` … ``tenants``).
        router: what the :class:`~repro.serve.engine.ServingEngine`
            serves — a :class:`ShardedSBF` or a ``TenantDirectory``.
        clock / metrics: the scenario's simulated time base.
        network: the :class:`FaultyNetwork` under ``replicated`` /
            ``procpool`` fleets (``None`` for purely local ones).
        pool: the :class:`ProcessShardPool` for ``procpool`` (else
            ``None``).
        directory / tree: the tenancy objects for ``tenants``.
        tenants: the *live* tenant list (mount/unmount events mutate it;
            the workload generator draws from it).
        servers: ``{(shard, replica): ShardServer}`` for ``replicated``.
        cfg: the normalised topology block the stack was built from.
    """

    def __init__(self, kind: str, cfg: dict, clock: SimClock,
                 metrics: MetricsRegistry):
        self.kind = kind
        self.cfg = cfg
        self.clock = clock
        self.metrics = metrics
        self.router = None
        self.network: FaultyNetwork | None = None
        self.pool = None
        self.directory = None
        self.tree = None
        self.tenants: list = []
        self.servers: dict = {}
        self.workdir: str | None = None

    # -- naming ------------------------------------------------------------
    @property
    def client_name(self) -> str:
        return "coord" if self.kind == "replicated" else "pool"

    def filter_factory(self):
        """A zero-arg factory for a filter with the fleet's parameters
        (the reference-oracle and durable-recovery shape)."""
        cfg = self.cfg
        backend = cfg["backend"]
        if self.kind == "procpool" and backend == "array":
            backend = "numpy"

        def factory() -> SpectralBloomFilter:
            return SpectralBloomFilter(
                cfg["m"], cfg["k"], seed=cfg["seed"],
                method=cfg["method"], backend=backend,
                hash_family=cfg["hash_family"])
        return factory

    def shard_dir(self, index: int) -> str:
        if self.workdir is None:
            raise SpecError("this topology has no durable state on disk")
        return os.path.join(self.workdir, f"shard-{index}")

    def crash_recover_shard(self, index: int) -> None:
        """Simulate a crash of durable shard *index* and recover it.

        The live :class:`DurableSBF` is abandoned exactly as a killed
        process leaves it — the WAL file is released with no checkpoint,
        so recovery must replay it over the last snapshot — and a fresh
        handle recovered from disk is swapped into the router in place.
        """
        if not (self.kind in ("single", "sharded") and self.cfg["durable"]):
            raise SpecError("crash_recover needs a durable single/sharded "
                            "topology")
        # The crash: close() releases the WAL without a checkpoint, so
        # recovery replays it.
        self.router._shards[index].close()
        recovered = DurableSBF.open(self.shard_dir(index),
                                    factory=self.filter_factory(),
                                    fsync=self.cfg["fsync"])
        self.router._shards[index] = ConcurrentSBF(
            recovered, clock=self.clock)
        self.metrics.counter("scenario.crash_recoveries").inc()

    def settle(self) -> None:
        """Quiesce after the fault schedule: probe/repair replica sets so
        every replica converges before the final oracle audit."""
        for shard in self.router.shards:
            shard.tick()
            if self.kind == "replicated" and any(
                    not h["up"] or h["needs_repair"] or h["hint_depth"]
                    for h in shard.health()):
                shard.repair()

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()


def _channel_options(cfg: dict, clock: SimClock) -> dict:
    return {"max_retries": cfg["max_retries"],
            "base_backoff": cfg["base_backoff"],
            "max_backoff": cfg["max_backoff"],
            "sleep": clock.advance}


def build_topology(spec: dict, clock: SimClock,
                   metrics: MetricsRegistry, *,
                   workdir: str | None = None) -> Topology:
    """Build the serving stack *spec* declares, wired to *clock*.

    *workdir* is required for durable topologies (each shard persists
    under ``<workdir>/shard-<i>``); a temp directory in practice.
    """
    cfg = dict(spec["topology"])
    cfg["seed"] = spec["seed"]
    kind = cfg["kind"]
    topology = Topology(kind, cfg, clock, metrics)

    if kind in ("single", "sharded"):
        n = cfg["shards"]
        if cfg["durable"]:
            if workdir is None:
                raise SpecError("a durable topology needs a workdir")
            topology.workdir = workdir
            shards = []
            for i in range(n):
                handle = DurableSBF.open(topology.shard_dir(i),
                                         factory=topology.filter_factory(),
                                         fsync=cfg["fsync"])
                shards.append(ConcurrentSBF(handle, clock=clock))
            topology.router = ShardedSBF(shards, metrics=metrics)
        else:
            factory = topology.filter_factory()
            shards = [ConcurrentSBF(factory(), clock=clock)
                      for _ in range(n)]
            topology.router = ShardedSBF(shards, metrics=metrics)
        return topology

    if kind == "replicated":
        network = FaultyNetwork(
            FaultPolicy(latency=cfg["wire_latency"]), advance=clock.advance)
        topology.network = network
        factory = topology.filter_factory()
        options = _channel_options(cfg, clock)

        def replica_factory(s: int, r: int) -> RemoteShard:
            server = ShardServer(ConcurrentSBF(factory(), clock=clock))
            topology.servers[(s, r)] = server
            return RemoteShard(server, network, "coord", f"s{s}r{r}",
                               channel_options=dict(options),
                               metrics=metrics)

        topology.router = replicated_fleet(
            cfg["shards"], cfg["m"], cfg["k"], rf=cfg["rf"],
            seed=cfg["seed"], method=cfg["method"],
            hash_family=cfg["hash_family"],
            read_consistency=cfg["read_consistency"],
            write_consistency=cfg["write_consistency"],
            eject_after=cfg["eject_after"],
            probe_every=cfg["probe_every"],
            replica_factory=replica_factory, metrics=metrics,
            breaker=cfg["breaker"], hedge=cfg["hedge"],
            retry_budget=cfg["retry_budget"])
        return topology

    if kind == "procpool":
        from repro.serve.procpool import ProcessShardPool
        network = FaultyNetwork(
            FaultPolicy(latency=cfg["wire_latency"]), advance=clock.advance)
        topology.network = network
        backend = "numpy" if cfg["backend"] == "array" else cfg["backend"]
        topology.pool = ProcessShardPool(
            cfg["shards"], cfg["m"], cfg["k"], seed=cfg["seed"],
            method=cfg["method"], backend=backend,
            hash_family=cfg["hash_family"], network=network,
            metrics=metrics,
            channel_options=_channel_options(cfg, clock))
        topology.router = topology.pool.router
        return topology

    # tenants
    from repro.tenancy.directory import TenantDirectory
    from repro.tenancy.tree import SpectralBloofiTree
    tree = SpectralBloofiTree(cfg["m"], cfg["k"], seed=cfg["seed"],
                              hash_family=cfg["hash_family"],
                              metrics=metrics)
    directory = TenantDirectory(tree, metrics=metrics)
    for tenant in cfg["tenants"]:
        directory.mount(tenant, method=cfg["method"])
        topology.tenants.append(tenant)
    topology.tree = tree
    topology.directory = directory
    topology.router = directory
    return topology
