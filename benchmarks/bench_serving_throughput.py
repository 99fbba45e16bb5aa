"""Serving throughput — batched sharded path vs naive one-op-at-a-time.

The serving engine's pitch (DESIGN.md §7) is that batching amortises the
per-operation fixed costs: the canonical-key hash, a shard-lock
acquire/release, ``k`` Python-level hash evaluations, and the metrics
update.  This benchmark measures exactly that claim on the array backend:

- **naive** — every operation goes through ``ShardedSBF.insert`` /
  ``ShardedSBF.query`` individually (one routing decision + one lock
  round-trip + ``k`` scalar hashes each);
- **batched** — the same key stream flows through
  ``ShardBatcher.insert_many`` / ``query_many`` in fixed-size batches
  (one lock acquisition per shard per batch, numpy index matrices,
  scatter/gather counter access);
- **replicated** — the batched stream again, but through a
  ``replicated_fleet`` (every shard an RF=3 replica set), pricing the
  write fan-out; the per-replica ``ha.*`` health gauges are scraped
  into the output alongside the throughput numbers;
- **engine** — the same stream through the ``ServingEngine`` front door
  (``submit`` → bounded queue → pump), pricing the queue/batching
  round-trip and scraping the request-lifecycle metrics
  (``engine.queue_wait_seconds``, ``engine.shed_total``,
  ``engine.rejected_total``) plus a deliberate overload burst so the
  admission-control counters are exercised, not merely present.

Shape claims asserted:
- all paths return *identical* query estimates (the routing,
  replication, and queueing layers are invisible to correctness);
- the batched path is at least 2x faster than the naive path for both
  inserts and queries (in practice the gap is far larger);
- every ``ha.*.up`` gauge reads 1.0 and every hint queue is empty after
  a faultless run;
- the queue-wait histogram saw every engine-path operation, and the
  overload burst tripped both ``engine.rejected_total`` (reject-new
  policy) and ``engine.shed_total`` (shed-oldest policy).

CLI:
    PYTHONPATH=src python benchmarks/bench_serving_throughput.py \
        [--quick] [--json-out PATH]
"""

from __future__ import annotations

import json
import random
import sys
import time

from repro.bench.tables import format_table, write_results
from repro.serve import (
    Overloaded,
    ServingEngine,
    ShardBatcher,
    ShardedSBF,
    replicated_fleet,
    run_requests,
    shed_oldest,
)

N_SHARDS = 4
M = 1 << 16
K = 4
SEED = 17
BATCH = 1024
RF = 3


def _build(seed: int = SEED) -> ShardedSBF:
    return ShardedSBF.create(N_SHARDS, M, K, seed=seed, method="ms",
                             backend="array", hash_family="blocked")


def _keys(n_ops: int, seed: int = SEED) -> list[int]:
    rng = random.Random(seed)
    # Skewed multiplicities (a small hot set) like a real query stream.
    hot = [rng.randrange(1 << 40) for _ in range(max(1, n_ops // 100))]
    return [rng.choice(hot) if rng.random() < 0.3
            else rng.randrange(1 << 40) for _ in range(n_ops)]


def run_serving_throughput(quick: bool = False) -> dict:
    n_ops = 5_000 if quick else 40_000
    keys = _keys(n_ops)

    naive = _build()
    t0 = time.perf_counter()
    for key in keys:
        naive.insert(key)
    naive_insert = time.perf_counter() - t0
    t0 = time.perf_counter()
    naive_estimates = [naive.query(key) for key in keys]
    naive_query = time.perf_counter() - t0

    batched = _build()
    batcher = ShardBatcher(batched)
    t0 = time.perf_counter()
    for lo in range(0, n_ops, BATCH):
        batcher.insert_many(keys[lo:lo + BATCH])
    batched_insert = time.perf_counter() - t0
    t0 = time.perf_counter()
    batched_estimates: list[int] = []
    for lo in range(0, n_ops, BATCH):
        batched_estimates.extend(batcher.query_many(keys[lo:lo + BATCH]))
    batched_query = time.perf_counter() - t0

    if batched_estimates != naive_estimates:
        raise AssertionError(
            "batched and naive paths disagree on query estimates")

    replicated = replicated_fleet(N_SHARDS, M, K, rf=RF, seed=SEED)
    rep_batcher = ShardBatcher(replicated)
    t0 = time.perf_counter()
    for lo in range(0, n_ops, BATCH):
        rep_batcher.insert_many(keys[lo:lo + BATCH])
    replicated_insert = time.perf_counter() - t0
    t0 = time.perf_counter()
    replicated_estimates: list[int] = []
    for lo in range(0, n_ops, BATCH):
        replicated_estimates.extend(
            rep_batcher.query_many(keys[lo:lo + BATCH]))
    replicated_query = time.perf_counter() - t0

    if replicated_estimates != naive_estimates:
        raise AssertionError(
            "replicated and naive paths disagree on query estimates")

    # The per-replica health gauges the HA layer keeps current, scraped
    # from the one registry snapshot (the dashboards' view of the fleet).
    ha_gauges = {name: value for name, value in
                 replicated.metrics.snapshot()["gauges"].items()
                 if name.startswith("ha.")}

    # Engine front door: the same stream through submit/pump, with the
    # queue bound comfortably above the burst so nothing is refused.
    fronted = _build()
    engine = ServingEngine(fronted, max_queue=2 * BATCH, batch_size=BATCH)
    t0 = time.perf_counter()
    for lo in range(0, n_ops, BATCH):
        run_requests(engine,
                     [("insert", key) for key in keys[lo:lo + BATCH]])
    engine_insert = time.perf_counter() - t0
    t0 = time.perf_counter()
    engine_estimates: list[int] = []
    for lo in range(0, n_ops, BATCH):
        engine_estimates.extend(run_requests(
            engine, [("query", key) for key in keys[lo:lo + BATCH]]))
    engine_query = time.perf_counter() - t0

    if engine_estimates != naive_estimates:
        raise AssertionError(
            "engine and naive paths disagree on query estimates")

    # Overload burst: hammer tiny queues so the admission counters move.
    # reject-new refuses arrivals at the bound (engine.rejected_total);
    # shed-oldest admits them by failing the oldest queued request
    # (engine.shed_total).  Separate engines, one shared registry.
    burst = [("query", key) for key in keys[:4 * BATCH]]
    rejecting = ServingEngine(fronted, max_queue=32, batch_size=16)
    for op in burst:
        try:
            rejecting.submit(*op)
        except Overloaded:
            pass
    rejecting.drain()
    shedding = ServingEngine(fronted, max_queue=32, batch_size=16,
                             policy=shed_oldest)
    for op in burst:
        shedding.submit(*op)
    shedding.drain()

    snap = fronted.metrics.snapshot()
    queue_wait = snap["histograms"]["engine.queue_wait_seconds"]
    engine_metrics = {
        "queue_wait_count": queue_wait["count"],
        "queue_wait_mean_ms": (1e3 * queue_wait["sum"] / queue_wait["count"]
                               if queue_wait["count"] else 0.0),
        "shed_total": snap["counters"].get("engine.shed_total", 0),
        "rejected_total": snap["counters"].get("engine.rejected_total", 0),
        "deadline_expired_total": snap["counters"].get(
            "engine.deadline_expired_total", 0),
    }

    result = {
        "n_ops": n_ops,
        "n_shards": N_SHARDS,
        "m": M,
        "k": K,
        "batch": BATCH,
        "quick": quick,
        "naive_insert_ops_s": n_ops / naive_insert,
        "batched_insert_ops_s": n_ops / batched_insert,
        "insert_speedup": naive_insert / batched_insert,
        "naive_query_ops_s": n_ops / naive_query,
        "batched_query_ops_s": n_ops / batched_query,
        "query_speedup": naive_query / batched_query,
        "rf": RF,
        "replicated_insert_ops_s": n_ops / replicated_insert,
        "replicated_query_ops_s": n_ops / replicated_query,
        "engine_insert_ops_s": n_ops / engine_insert,
        "engine_query_ops_s": n_ops / engine_query,
        "ha_gauges": ha_gauges,
        "engine_metrics": engine_metrics,
    }
    rows = [
        ("insert", f"{result['naive_insert_ops_s']:,.0f}",
         f"{result['batched_insert_ops_s']:,.0f}",
         f"{result['insert_speedup']:.1f}x",
         f"{result['replicated_insert_ops_s']:,.0f}",
         f"{result['engine_insert_ops_s']:,.0f}"),
        ("query", f"{result['naive_query_ops_s']:,.0f}",
         f"{result['batched_query_ops_s']:,.0f}",
         f"{result['query_speedup']:.1f}x",
         f"{result['replicated_query_ops_s']:,.0f}",
         f"{result['engine_query_ops_s']:,.0f}"),
    ]
    table = format_table(
        ["phase", "naive ops/s", "batched ops/s", "speedup",
         f"replicated rf={RF} ops/s", "engine ops/s"], rows,
        title=(f"Serving throughput ({N_SHARDS} shards, m={M}, k={K}, "
               f"{n_ops} ops, batch={BATCH})"))
    engine_rows = [
        ("queue_wait_seconds count", engine_metrics["queue_wait_count"]),
        ("queue_wait mean (ms)",
         f"{engine_metrics['queue_wait_mean_ms']:.4f}"),
        ("shed_total (burst)", engine_metrics["shed_total"]),
        ("rejected_total (burst)", engine_metrics["rejected_total"]),
        ("deadline_expired_total", engine_metrics["deadline_expired_total"]),
    ]
    table += "\n" + format_table(
        ["engine metric", "value"], engine_rows,
        title="Engine request-lifecycle metrics (engine.* scrape)")
    health_rows = [
        (f"shard{s}", f"r{r}",
         ha_gauges[f"ha.shard{s}.r{r}.up"],
         int(ha_gauges[f"ha.shard{s}.r{r}.hint_depth"]),
         ha_gauges[f"ha.shard{s}.r{r}.last_repair"])
        for s in range(N_SHARDS) for r in range(RF)]
    table += "\n" + format_table(
        ["set", "replica", "up", "hint_depth", "last_repair"], health_rows,
        title="Replica health (ha.* gauges) after the replicated run")
    write_results("serving_throughput", table)
    print(table)
    return result


def test_serving_throughput(run_once):
    result = run_once(run_serving_throughput)
    # The acceptance bar: batching buys at least 2x on the array backend.
    # (Measured gaps are ~10-40x; 2x leaves headroom for loaded CI boxes.)
    assert result["insert_speedup"] >= 2.0, result
    assert result["query_speedup"] >= 2.0, result
    # A faultless replicated run leaves every replica up with no hints.
    gauges = result["ha_gauges"]
    assert all(gauges[f"ha.shard{s}.r{r}.up"] == 1.0
               and gauges[f"ha.shard{s}.r{r}.hint_depth"] == 0
               for s in range(N_SHARDS) for r in range(RF)), gauges
    # The request-lifecycle scrape: every engine-path op went through the
    # queue-wait histogram, and the burst tripped both admission counters.
    em = result["engine_metrics"]
    assert em["queue_wait_count"] >= 2 * result["n_ops"], em
    assert em["shed_total"] > 0, em
    assert em["rejected_total"] > 0, em
    assert em["deadline_expired_total"] == 0, em


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    json_out = None
    if "--json-out" in argv:
        json_out = argv[argv.index("--json-out") + 1]
    result = run_serving_throughput(quick=quick)
    ok = result["insert_speedup"] >= 2.0 and result["query_speedup"] >= 2.0
    result["pass"] = ok
    if json_out:
        with open(json_out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {json_out}")
    if not ok:
        print("FAIL: batched speedup below the 2x acceptance bar",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
