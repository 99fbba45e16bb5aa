"""Repeat the benchmark and summarise its spread.

    python3 benchmarks/e2e/calibrate.py --seeds 1-10 --json-out spread.json
    python3 benchmarks/e2e/calibrate.py --seeds 1,2 --repeat 5 \\
        --json-out benchmarks/e2e/results/e2e.json

Runs ``run.py`` once per (workload, seed, repeat), each in a fresh
process and one at a time, then reports per workload and metric the
median, quartiles and spread (interquartile distance over the median),
per seed and over all runs.  The checks are the harness's: each bounded
end-to-end metric's spread must stay within its bound in
``BENCHMARK.json`` (``setup_s`` excepted: a run sets up only a few
times), and with ``--repeat`` above 1 the per-seed medians of every
bounded metric, ``setup_s`` included, must agree within it, as two
sweeps of one commit must.  Exact metrics must repeat exactly for a
seed.  Exits 1 if any run answered wrong, a check fails, or an exact
metric moved.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

from compare import load_spec
from run import EXACT, HERE, ROOT, UNBOUNDED
from stats import summary


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: float, tmp: str) -> dict:
    out = os.path.join(tmp, f"{workload}-{seed}.json")
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--json-out", out]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if not os.path.exists(out):
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    os.remove(out)
    return doc


def summarise(runs: list[dict], bounds: dict) -> tuple[dict, list[str]]:
    """Per-workload summaries plus the list of problems found."""
    problems = []
    by_workload: dict[str, list[dict]] = {}
    for run in runs:
        by_workload.setdefault(run["workload"], []).append(run)
        if not run["correct"]:
            problems.append(f"{run['workload']} seed {run['seed']}: "
                            f"wrong answers")
    out = {}
    for workload, group in by_workload.items():
        seeds = sorted({run["seed"] for run in group})
        entry: dict = {"runs": len(group), "seeds": seeds, "metrics": {},
                       "exact": {}, "attempted": summary(
                           [run["attempted"] for run in group])}
        for name in [*bounds, *UNBOUNDED]:
            values = [run["metrics"][name]["value"] for run in group]
            stats = {"all": summary(values)}
            for seed in seeds:
                stats[f"seed {seed}"] = summary(
                    [run["metrics"][name]["value"] for run in group
                     if run["seed"] == seed])
            stats["bound"] = bounds.get(name, {}).get("bound")
            entry["metrics"][name] = stats
            if name not in bounds:
                continue
            if name != "setup_s" and stats["all"]["spread"] > stats["bound"]:
                problems.append(f"{workload} {name}: spread "
                                f"{stats['all']['spread']:.3f} > bound "
                                f"{stats['bound']}")
            medians = [stats[f"seed {seed}"]["median"] for seed in seeds]
            if len(group) > len(seeds) and \
                    (max(medians) - min(medians)) > stats["bound"] * min(
                        medians):
                problems.append(f"{workload} {name}: per-seed medians "
                                f"{min(medians):.4g}..{max(medians):.4g} "
                                f"differ by more than the bound")
        for name in EXACT:
            per_seed = {str(seed): sorted({
                json.dumps(run["metrics"][name]["value"]) for run in group
                if run["seed"] == seed}) for seed in seeds}
            repeats = all(len(values) == 1 for values in per_seed.values())
            entry["exact"][name] = {
                "values": {seed: json.loads(values[0])
                           for seed, values in per_seed.items()},
                "repeats_exactly": repeats}
            if not repeats:
                problems.append(f"{workload} {name}: differs between "
                                f"runs of one seed")
        out[workload] = entry
    return out, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10",
                        help="seed list, e.g. 1-10 or 1,2")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--json-out", default=None)
    args = parser.parse_args(argv)
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    runs = []
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as tmp:
        for workload in names:
            for seed in parse_seeds(args.seeds):
                for _ in range(args.repeat):
                    doc = run_once(workload, seed, args.seconds, tmp)
                    runs.append(doc)
                    shown = ", ".join(
                        f"{name}={doc['metrics'][name]['value']:.5g}"
                        for name in [*bounds, *UNBOUNDED])
                    print(f"{workload} seed {seed}: {shown}", flush=True)
    summaries, problems = summarise(runs, bounds)
    doc = {"schema": "e2e-calibration/1",
           "provenance": runs[0]["provenance"], "seeds": args.seeds,
           "repeat": args.repeat, "seconds": args.seconds,
           "workloads": summaries,
           "runs": [{"workload": r["workload"], "seed": r["seed"],
                     "correct": r["correct"], "attempted": r["attempted"],
                     "failed": r["failed"], "metrics": r["metrics"],
                     "detail": r["detail"]} for r in runs],
           "problems": problems}
    for workload, entry in summaries.items():
        for name, stats in entry["metrics"].items():
            s = stats["all"]
            print(f"{workload:<15} {name:<17} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.4f} (bound {stats['bound']})")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
