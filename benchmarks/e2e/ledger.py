"""Rung ledger: one fixed zipf stream through each rung of the stack.

Each rung adds one layer to the rung below it (:data:`RUNGS` names that
base), so ``marginal_us_per_op`` is the price of the added layer.  Three
mixes: ``insert``, then ``query`` on the same (now loaded) stack, then
``mixed`` (80% query) on a fresh one.  Bulk rungs take the stream in
1024-op batches, each cut into maximal same-verb runs; engine rungs use
the workloads' load model (256 callers, ``submit`` x256 then ``drain``).

Each (rung, mix) cell runs the stream from its start until
:data:`LEDGER_OPS` ops or its time budget, whichever comes first, so a
slow rung measures a prefix of the same stream.  Every answer is checked
against a reference filter fed the same prefix.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np

import gen
from workloads import ACKED, FAILED, FILTER_SEED, K, WINDOW, ms_answers

from repro.core.sbf import SpectralBloomFilter
from repro.db.site import Network
from repro.hashing.families import make_family
from repro.persist import ConcurrentSBF, DurableSBF
from repro.serve import (
    ProcessShardPool,
    RemoteShard,
    ServingEngine,
    ShardBatcher,
    ShardedSBF,
    ShardServer,
    replicated_fleet,
)
from repro.tenancy.directory import TenantDirectory
from repro.tenancy.tree import SpectralBloofiTree

#: (rung, the rung its marginal cost is taken over)
RUNGS = (
    ("sbf_bulk", None),
    ("concurrent_bulk", "sbf_bulk"),
    ("durable_bulk", "concurrent_bulk"),
    ("batcher_bulk", "concurrent_bulk"),
    ("batcher_execute", "batcher_bulk"),
    ("engine", "batcher_execute"),
    ("remote", "engine"),
    ("procpool", "engine"),
    ("replicaset_rf3", "engine"),
    ("tenants", "engine"),
)
MIXES = ("insert", "query", "mixed")
LEDGER_OPS = 100_000
BATCH = 1024
SHARDS = 4
POOL_WORKERS = 2
TENANTS = 64
M = 1 << 18


def _filter() -> SpectralBloomFilter:
    return SpectralBloomFilter(M, K, seed=FILTER_SEED, method="ms",
                               backend="numpy", hash_family="blocked")


def _runs(inserts: np.ndarray):
    cuts = (np.flatnonzero(inserts[1:] != inserts[:-1]) + 1).tolist()
    return zip([0, *cuts], [*cuts, len(inserts)])


def _bulk(insert_many, query_many):
    """Batch applier over a bulk API: one call per same-verb run."""
    def apply(inserts: np.ndarray, keys: list) -> np.ndarray:
        out = np.full(len(keys), ACKED, dtype=np.int64)
        for lo, hi in _runs(inserts):
            if inserts[lo]:
                insert_many(keys[lo:hi])
            else:
                out[lo:hi] = _values(query_many(keys[lo:hi]))
        return out
    return apply


def _values(results) -> list:
    return [FAILED if isinstance(r, BaseException) else r
            for r in (results.tolist() if isinstance(results, np.ndarray)
                      else results)]


def _execute(batcher: ShardBatcher):
    def apply(inserts: np.ndarray, keys: list) -> np.ndarray:
        ops = [("insert" if flag else "query", key)
               for flag, key in zip(inserts.tolist(), keys)]
        return np.asarray([ACKED if r is None else r
                           for r in _values(batcher.execute(ops))],
                          dtype=np.int64)
    return apply


def _engine(engine: ServingEngine):
    def apply(inserts: np.ndarray, keys: list) -> np.ndarray:
        futures = [engine.submit("insert" if flag else "query", key)
                   for flag, key in zip(inserts.tolist(), keys)]
        engine.drain()
        return np.asarray(
            [FAILED if f.exception() is not None
             else (ACKED if f.result() is None else f.result())
             for f in futures], dtype=np.int64)
    return apply


class _Rung:
    """A built rung: its batch applier, batch size and teardown."""

    def __init__(self, apply, batch: int, close=lambda: None):
        self.apply = apply
        self.batch = batch
        self.close = close


def build(rung: str, workdir: str) -> _Rung:
    """Build *rung* afresh (untimed)."""
    if rung == "sbf_bulk":
        sbf = _filter()
        return _Rung(_bulk(sbf.insert_many, sbf.query_many), BATCH)
    if rung == "concurrent_bulk":
        handle = ConcurrentSBF(_filter())
        return _Rung(_bulk(handle.insert_many, handle.query_many), BATCH)
    if rung == "durable_bulk":
        root = os.path.join(workdir, f"durable-{time.perf_counter_ns()}")
        durable = DurableSBF.open(root, factory=_filter)
        handle = ConcurrentSBF(durable)

        def close() -> None:
            durable.close()
            shutil.rmtree(root, ignore_errors=True)
        return _Rung(_bulk(handle.insert_many, handle.query_many), BATCH,
                     close)
    if rung in ("batcher_bulk", "batcher_execute", "engine"):
        batcher = ShardBatcher(ShardedSBF.create(
            SHARDS, M, K, seed=FILTER_SEED, method="ms", backend="numpy"))
        if rung == "batcher_bulk":
            return _Rung(_bulk(batcher.insert_many, batcher.query_many),
                         BATCH)
        if rung == "batcher_execute":
            return _Rung(_execute(batcher), BATCH)
        return _Rung(_engine(ServingEngine(batcher.router)), WINDOW)
    if rung == "remote":
        network = Network()
        shards = [RemoteShard(ShardServer(ConcurrentSBF(_filter())),
                              network, "client", f"shard-{i}")
                  for i in range(SHARDS)]
        router = ShardedSBF(shards, family=make_family(
            "blocked", M, K, seed=FILTER_SEED))
        return _Rung(_engine(ServingEngine(router)), WINDOW)
    if rung == "procpool":
        pool = ProcessShardPool(POOL_WORKERS, M, K, seed=FILTER_SEED,
                                method="ms", backend="numpy",
                                hash_family="blocked")
        return _Rung(_engine(ServingEngine(pool.router)), WINDOW,
                     pool.close)
    if rung == "replicaset_rf3":
        router = replicated_fleet(SHARDS, M, K, rf=3, seed=FILTER_SEED,
                                  method="ms", backend="numpy")
        return _Rung(_engine(ServingEngine(router)), WINDOW)
    if rung == "tenants":
        tree = SpectralBloofiTree(M, K, seed=FILTER_SEED,
                                  hash_family="blocked")
        directory = TenantDirectory(tree)
        for tenant in range(TENANTS):
            directory.mount(tenant, method="ms", backend="numpy")
        return _Rung(_engine(ServingEngine(directory)), WINDOW)
    raise ValueError(f"unknown rung {rung!r}")


class _Reference:
    """The referee of one built rung: answers from the whole history of
    ops fed to it (one filter, or one per tenant)."""

    def __init__(self, per_tenant: bool):
        self.per_tenant = per_tenant
        self.inserts: list[np.ndarray] = []
        self.ids: list[np.ndarray] = []

    def expected(self, inserts: np.ndarray, ids: np.ndarray) -> np.ndarray:
        self.inserts.append(inserts)
        self.ids.append(ids)
        every_id = np.concatenate(self.ids)
        answers = ms_answers(
            _filter(), np.concatenate(self.inserts), every_id,
            space=every_id % TENANTS if self.per_tenant else None)
        return answers[len(answers) - len(ids):]


def _cell(rung: _Rung, inserts: np.ndarray, keys: list,
          budget_s: float) -> tuple[int, float, np.ndarray]:
    """Feed the stream until it ends or *budget_s* of timed work."""
    clock = time.perf_counter
    answers = np.empty(len(keys), dtype=np.int64)
    ops, timed = 0, 0.0
    while ops < len(keys) and (ops == 0 or timed < budget_s):
        hi = min(ops + rung.batch, len(keys))
        batch_inserts, batch_keys = inserts[ops:hi], keys[ops:hi]
        t0 = clock()
        answers[ops:hi] = rung.apply(batch_inserts, batch_keys)
        timed += clock() - t0
        ops = hi
    return ops, timed, answers[:ops]


def run_ledger(seed: int, workdir: str, *, budget_s: float,
               n_ops: int = LEDGER_OPS) -> dict:
    """Measure every (rung, mix) cell; returns the ledger document."""
    ids = gen.id_universe(seed, 1_000_000)
    _, ranks = gen.ZipfStream(seed, "ledger", z=1.1, n_items=len(ids),
                              insert_share=0.0).take(n_ops)
    mixed_inserts, _ = gen.ZipfStream(seed, "ledger-mix", z=1.1,
                                      n_items=len(ids),
                                      insert_share=0.2).take(n_ops)
    key_ids = ids[ranks]
    mixes = {"insert": np.ones(n_ops, dtype=bool),
             "query": np.zeros(n_ops, dtype=bool),
             "mixed": mixed_inserts}
    cells: dict = {}
    wrong = 0
    for rung_name, _ in RUNGS:
        tenants = rung_name == "tenants"
        keys = (list(zip((key_ids % TENANTS).tolist(), key_ids.tolist()))
                if tenants else key_ids.tolist())
        rung = ref = None
        for mix in MIXES:
            if mix != "query":
                if rung is not None:
                    rung.close()
                rung = build(rung_name, workdir)
                ref = _Reference(tenants)
            ops, timed, answers = _cell(rung, mixes[mix], keys, budget_s)
            wrong += int(np.count_nonzero(
                ref.expected(mixes[mix][:ops], key_ids[:ops]) != answers))
            cells[(rung_name, mix)] = {"ops": ops, "seconds": timed,
                                       "us_per_op": 1e6 * timed / ops}
        rung.close()
    metrics: dict[str, float] = {}
    for rung_name, base in RUNGS:
        for mix in MIXES:
            cost = cells[(rung_name, mix)]["us_per_op"]
            metrics[f"ledger.{rung_name}.{mix}.us_per_op"] = cost
            if base is not None:
                metrics[f"ledger.{rung_name}.{mix}.marginal_us_per_op"] = (
                    cost - cells[(base, mix)]["us_per_op"])
    for mix in MIXES:
        metrics[f"ledger.engine_over_batcher_bulk.{mix}"] = (
            cells[("engine", mix)]["us_per_op"]
            / cells[("batcher_bulk", mix)]["us_per_op"])
    return {"metrics": metrics, "wrong_answers": wrong,
            "cells": {f"{rung}.{mix}": cell
                      for (rung, mix), cell in cells.items()},
            "stream_ops": n_ops, "budget_s": budget_s}
