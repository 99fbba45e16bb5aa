"""Compare benchmark runs of a parent commit with runs of a change.

    python3 benchmarks/e2e/compare.py --parent p1.json p2.json ... \\
        --change c1.json c2.json ...

Each file is a run document (``run.py --json-out``), a suite document
(``run.py`` without ``--workload``) or a calibration document
(``calibrate.py``).  Per workload, runs are paired in seed order (the
order given breaks ties), so interleave the two sides' runs when making
them.  One row per (workload, metric): both medians and quartiles, the
change's pair wins, and a verdict.

End-to-end metrics, with their bounds from ``BENCHMARK.json``:

- ``improved``: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ, the better way, by more than the
  parent's interquartile distance;
- ``regressed``: the change's median is worse than the parent's by more
  than the bound (a share of the parent's median), and for ``setup_s``
  also by more than :data:`SETUP_FLOOR_S`;
- ``unresolved``: neither, while either side's spread exceeds the bound —
  unless every change run reads better than every parent run;
- ``unchanged``: otherwise.

Exact metrics: ``unchanged`` when each pair reads alike, else
``changed``; any wrong answer or a rise in ``failed_frac`` is
``regressed``.  Metrics with no bound (``latency_p99_ms``, and the
per-layer metrics of traced documents): ``lower`` or ``higher`` when the
pair-win rule holds that way, ``unchanged`` when every pair reads alike,
else ``unresolved``.  Exits 1 if a row regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import EXACT, ROOT
from stats import summary

#: share of pairs the change must win to claim a gain
WIN_SHARE = 0.9
#: seconds by which ``setup_s`` may worsen whatever its bound: a set-up of
#: tens of milliseconds moves by more than its bound's share between
#: processes, and a user waits for seconds, not shares
SETUP_FLOOR_S = 0.05


def load_runs(paths: list[str]) -> list[dict]:
    """Every run in the given documents, in order."""
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        runs.extend(doc["runs"] if "runs" in doc else [doc])
    return runs


def load_spec() -> dict:
    """The repo's ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _by_workload(runs: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for run in runs:
        out.setdefault(run["workload"], []).append(run)
    return {name: sorted(group, key=lambda run: run["seed"])
            for name, group in out.items()}


def _wins(parent: list, change: list, higher: bool) -> int:
    return sum((c > p) if higher else (c < p)
               for p, c in zip(parent, change) if c != p)


def bounded_verdict(parent: list[float], change: list[float], *,
                    higher: bool, bound: float,
                    floor: float = 0.0) -> tuple[str, int]:
    """Verdict and pair wins for one end-to-end metric; a worse median
    regresses only past both the bound and the absolute *floor*."""
    p, c = summary(parent), summary(change)
    pairs = min(len(parent), len(change))
    wins = _wins(parent, change, higher)
    gap = (c["median"] - p["median"]) * (1 if higher else -1)
    if pairs and wins >= WIN_SHARE * pairs and gap > p["q3"] - p["q1"]:
        return "improved", wins
    if -gap > max(bound * abs(p["median"]), floor):
        return "regressed", wins
    dominates = (min(change) > max(parent)) if higher \
        else (max(change) < min(parent))
    if max(p["spread"], c["spread"]) > bound and not dominates:
        return "unresolved", wins
    return "unchanged", wins


def free_verdict(parent: list[float], change: list[float]) -> tuple[str,
                                                                    int]:
    """Verdict for a metric with no bound or direction (per-layer)."""
    if all(p == c for p, c in zip(parent, change)):
        return "unchanged", 0
    p = summary(parent)
    pairs = min(len(parent), len(change))
    iqr = p["q3"] - p["q1"]
    median = summary(change)["median"]
    for name, higher in (("lower", False), ("higher", True)):
        wins = _wins(parent, change, higher)
        gap = (median - p["median"]) * (1 if higher else -1)
        if wins >= WIN_SHARE * pairs and gap > iqr:
            return name, wins
    return "unresolved", _wins(parent, change, False)


def exact_verdict(name: str, parent: list, change: list) -> str:
    if name == "wrong_answers" and any(change):
        return "regressed"
    if name == "failed_frac" and max(change) > max(parent):
        return "regressed"
    return "unchanged" if all(p == c for p, c in zip(parent, change)) \
        else "changed"


def compare(parent_runs: list[dict], change_runs: list[dict],
            spec: dict) -> list[dict]:
    """One row per (workload, metric) present on both sides."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    parents, changes = _by_workload(parent_runs), _by_workload(change_runs)
    rows = []
    for workload in parents:
        if workload not in changes:
            continue
        p_runs, c_runs = parents[workload], changes[workload]
        names = [name for name in p_runs[0]["metrics"]
                 if name in c_runs[0]["metrics"]]
        for name in names:
            p_vals = [run["metrics"][name]["value"] for run in p_runs]
            c_vals = [run["metrics"][name]["value"] for run in c_runs]
            row = {"workload": workload, "metric": name,
                   "unit": p_runs[0]["metrics"][name]["unit"],
                   "pairs": min(len(p_vals), len(c_vals))}
            if name in bounds:
                meta = bounds[name]
                row["verdict"], row["wins"] = bounded_verdict(
                    p_vals, c_vals, higher=meta["better"] == "higher",
                    bound=meta["bound"],
                    floor=SETUP_FLOOR_S if name == "setup_s" else 0.0)
            elif name in EXACT:
                row["verdict"], row["wins"] = exact_verdict(
                    name, p_vals, c_vals), None
            else:
                row["verdict"], row["wins"] = free_verdict(p_vals, c_vals)
            if all(v is not None for v in p_vals + c_vals):
                row["parent"] = summary(p_vals)
                row["change"] = summary(c_vals)
            rows.append(row)
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':<15} {'metric':<48} {'parent median [q1, q3]':>34}"
             f" {'change median [q1, q3]':>34} {'wins':>6}  verdict"]
    for row in rows:
        cells = []
        for side in ("parent", "change"):
            s = row.get(side)
            cells.append("n/a" if s is None else
                         f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]")
        wins = "" if row["wins"] is None else f"{row['wins']}/{row['pairs']}"
        lines.append(f"{row['workload']:<15} {row['metric']:<48} "
                     f"{cells[0]:>34} {cells[1]:>34} {wins:>6}  "
                     f"{row['verdict']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    rows = compare(load_runs(args.parent), load_runs(args.change),
                   load_spec())
    print(render(rows))
    regressed = [r for r in rows if r["verdict"] == "regressed"]
    for row in regressed:
        print(f"REGRESSED: {row['workload']} {row['metric']}",
              file=sys.stderr)
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
