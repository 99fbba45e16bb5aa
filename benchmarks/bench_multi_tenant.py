"""Multi-tenant fleet index: the flat spectral Bloofi index vs scan-N.

The claim under test: a fleet of N per-tenant SBFs indexed by one
presence bit per (counter, tenant) answers the multi-set frequency
question "which tenants hold key x, and how many times?" while probing
a number of tenants that does not grow with N, beating the obvious
baseline of scanning all N filters — and with zero wrong answers,
because the pruning is exact (a clear bit at any of x's positions
proves that tenant estimates zero).

Workload: a bounded shared catalog (the regime where Bloofi-style
pruning pays off — think N cache nodes each holding a slice of one
product catalog).  Each tenant bulk-inserts a random catalog subset with
counts 1..3.  Three probe classes:

- ``sparse``: string keys placed in exactly R = 4 tenants, membership
  fixed as the fleet grows — the headline multi-set lookup.  Probes stay
  near R while the scan touches all N filters.
- ``absent``: keys in no tenant (half int, half str).  The AND leaves no
  survivor regardless of N.
- ``dense``: hot catalog keys held by many tenants — correctness ballast
  (output-sensitive, so excluded from the growth fit).

Per sweep point we measure mean tenants probed per query (the
``tenancy.leaves_probed`` counter: the (key, tenant) pairs that survive
the AND), wall-clock for the probe batch via ``query_many`` (the whole
batch once, as the scan runs once, and each class best of 3) vs
scanning every tenant's handle, and exact agreement with the scan
oracle.  The AND itself is linear in N: each key reads
k * ceil(N / 64) words, reported beside the index's MiB so that term
stays visible.  The growth exponent is the log-log slope of probes
against N; scan-N is exponent 1.0 by construction.

Full scale sweeps 1 000 / 4 000 / 10 000 tenants (about ten seconds);
``--quick`` runs 200 / 800 for CI.  REPRO_BENCH_SCALE multiplies the
sweep sizes.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench.tables import format_table, write_results  # noqa: E402
from repro.tenancy import SpectralBloofiTree  # noqa: E402

SPARSE_REPLICATION = 4


def _scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1"))


def _params(quick: bool) -> dict:
    scale = _scale()
    if quick:
        sweep, m, catalog, per_tenant = [200, 800], 4096, 500, 16
        n_sparse, n_absent, n_dense = 20, 40, 10
    else:
        sweep, m, catalog, per_tenant = [1_000, 4_000, 10_000], 16_384, 2_000, 24
        n_sparse, n_absent, n_dense = 40, 80, 20
    sweep = sorted({max(50, int(n * scale)) for n in sweep})
    return {
        "sweep": sweep, "m": m, "k": 3,
        "catalog": catalog, "objects_per_tenant": per_tenant,
        "n_sparse": n_sparse, "n_absent": n_absent, "n_dense": n_dense,
    }


def _probes(p: dict, rng: np.random.Generator) -> dict:
    """Probe keys by class.  Absent ints live far above the catalog
    range; half the absent set is strings to exercise the vectorised
    str-hashing path end to end."""
    half = p["n_absent"] // 2
    return {
        "sparse": [f"sku:{i}" for i in range(p["n_sparse"])],
        "absent": ([10_000_000 + i for i in range(half)]
                   + [f"ghost:{i}" for i in range(p["n_absent"] - half)]),
        "dense": [int(x) for x in rng.choice(p["catalog"], size=p["n_dense"],
                                             replace=False)],
    }


def _populate(tree: SpectralBloofiTree, start: int, stop: int, p: dict,
              sparse_owners: dict, rng: np.random.Generator) -> None:
    """Mount tenants ``start..stop`` and bulk-insert their catalog slice
    (plus any sparse keys this tenant owns)."""
    for tenant in range(start, stop):
        tree.mount(tenant)
        keys = [int(x) for x in rng.choice(
            p["catalog"], size=p["objects_per_tenant"], replace=False)]
        counts = rng.integers(1, 4, size=len(keys))
        tree.insert_many(tenant, keys, counts)
        for key in sparse_owners.get(tenant, ()):
            tree.insert(tenant, key, 1)


def _scan_baseline(tree: SpectralBloofiTree, probes: list) -> tuple:
    """Answer the probe batch the pedestrian way — every tenant handle's
    own ``query_many`` — returning (per-key answer dicts, seconds).
    Doubles as the correctness oracle: the index reads the very same
    handles, so any disagreement is a pruning bug, not filter noise."""
    answers: list[dict] = [{} for _ in probes]
    started = time.perf_counter()
    for tenant in tree.tenants:
        estimates = tree.handle_of(tenant).query_many(probes)
        for slot in np.flatnonzero(estimates):
            answers[slot][tenant] = int(estimates[slot])
    return answers, time.perf_counter() - started


def _probed_per_query(tree: SpectralBloofiTree, probes: list) -> tuple:
    """``(tenants probed per query, milliseconds)`` for ``query_many``
    over *probes*, the time the best of 3 calls (one class's batch is a
    few milliseconds, so one call is mostly noise)."""
    counter = tree.metrics.counter("tenancy.leaves_probed")
    before = counter.value
    times = []
    for _ in range(3):
        started = time.perf_counter()
        tree.query_many(probes)
        times.append(time.perf_counter() - started)
    return (counter.value - before) / (3 * len(probes)), min(times) * 1e3


def _fit_exponent(ns: list, probed: list) -> float:
    """Least-squares slope of log(probed) against log(N) — the empirical
    growth exponent (scan-N is 1.0; exact pruning of a fixed answer set
    is ~0).  A class with no survivor counts as one probe."""
    xs = np.log(np.asarray(ns, dtype=float))
    ys = np.log(np.maximum(np.asarray(probed, dtype=float), 1.0))
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope)


def run_multi_tenant(quick: bool = False) -> dict:
    p = _params(quick)
    rng = np.random.default_rng(1203)
    probes = _probes(p, rng)
    all_probes = probes["sparse"] + probes["absent"] + probes["dense"]

    # Sparse-key owners come from the smallest sweep point so membership
    # is identical at every fleet size (the lookup cost we are measuring
    # must not grow just because the answer set grew).
    sparse_owners: dict[int, list] = {}
    for key in probes["sparse"]:
        for tenant in rng.choice(p["sweep"][0], size=SPARSE_REPLICATION,
                                 replace=False):
            sparse_owners.setdefault(int(tenant), []).append(key)

    tree = SpectralBloofiTree(p["m"], p["k"], seed=11)
    entries: dict[str, dict] = {}
    mounted = 0
    for n in p["sweep"]:
        build_started = time.perf_counter()
        _populate(tree, mounted, n, p, sparse_owners, rng)
        mounted = n
        build_s = time.perf_counter() - build_started

        oracle, scan_s = _scan_baseline(tree, all_probes)
        tree_started = time.perf_counter()
        got = tree.query_many(all_probes)
        tree_s = time.perf_counter() - tree_started
        mismatches = sum(1 for a, b in zip(got, oracle) if a != b)

        entry = {
            "tenants": n,
            "build_s": round(build_s, 3),
            "words_per_query": p["k"] * math.ceil(n / 64),
            "index_mib": round(tree.index_bytes / 2 ** 20, 2),
            "scan_probes": n,
            "tree_ms": round(tree_s * 1e3, 3),
            "scan_ms": round(scan_s * 1e3, 3),
            "speedup": round(scan_s / tree_s, 1),
            "mismatches": mismatches,
            "invariant_issues": len(tree.verify()),
        }
        for probe_class, keys in probes.items():
            probed, ms = _probed_per_query(tree, keys)
            entry[f"probed_{probe_class}"] = round(probed, 2)
            entry[f"{probe_class}_ms"] = round(ms, 3)
        entries[f"n={n}"] = entry

    ns = [e["tenants"] for e in entries.values()]
    result = {
        "quick": quick,
        "params": p,
        "probe_counts": {name: len(keys) for name, keys in probes.items()},
        "entries": entries,
        "exponent_sparse": round(_fit_exponent(
            ns, [e["probed_sparse"] for e in entries.values()]), 3),
        "exponent_absent": round(_fit_exponent(
            ns, [e["probed_absent"] for e in entries.values()]), 3),
    }

    rows = [[e["tenants"], e["probed_sparse"], e["probed_absent"],
             e["probed_dense"], e["words_per_query"], e["index_mib"],
             e["sparse_ms"], e["absent_ms"], e["dense_ms"],
             e["tree_ms"], e["scan_ms"], f'{e["speedup"]}x',
             e["mismatches"]] for e in entries.values()]
    table = format_table(
        ["tenants", "probed/q sparse", "probed/q absent", "probed/q dense",
         "words/q", "index MiB", "sparse ms", "absent ms", "dense ms",
         "tree ms", "scan ms", "speedup", "wrong"],
        rows,
        title=(f"Multi-tenant flat Bloofi lookup vs scan-N "
               f"(m={p['m']}, k={p['k']}; probe growth exponents: sparse "
               f"{result['exponent_sparse']}, absent "
               f"{result['exponent_absent']}; scan-N is 1.0)"))
    print(table)
    if not quick:
        write_results("multi_tenant", table)
    return result


def _meets_bar(result: dict, min_speedup: float,
               max_exponent: float) -> list[str]:
    failures = []
    for name, entry in result["entries"].items():
        if entry["mismatches"]:
            failures.append(f"{name}: {entry['mismatches']} answers "
                            f"disagree with the scan oracle")
        if entry["invariant_issues"]:
            failures.append(f"{name}: verify() reported "
                            f"{entry['invariant_issues']} issues")
    largest = max(result["entries"].values(), key=lambda e: e["tenants"])
    if largest["speedup"] < min_speedup:
        failures.append(
            f"speedup {largest['speedup']}x at n={largest['tenants']} "
            f"below the {min_speedup}x bar")
    for probe_class in ("sparse", "absent"):
        exponent = result[f"exponent_{probe_class}"]
        if exponent > max_exponent:
            failures.append(
                f"{probe_class} probe growth exponent {exponent} above "
                f"the {max_exponent} bar (scan-N is 1.0)")
    return failures


def test_multi_tenant(run_once):
    result = run_once(run_multi_tenant, quick=True)
    # Full scale clears 10x+ with exponents near zero (see the committed
    # results/multi_tenant.json baseline); quick mode on a loaded CI box
    # only has to beat the scan by 1.5x with visibly sublinear probes.
    assert not _meets_bar(result, 1.5, 0.7), result


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    json_out = None
    if "--json-out" in argv:
        json_out = argv[argv.index("--json-out") + 1]
    result = run_multi_tenant(quick=quick)
    failures = _meets_bar(result, min_speedup=1.5 if quick else 5.0,
                          max_exponent=0.7 if quick else 0.5)
    result["pass"] = not failures
    if json_out:
        with open(json_out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if failures:
        print("FAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
