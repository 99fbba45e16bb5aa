"""Tests of the end-to-end benchmark itself.

    pytest benchmarks/e2e

Covers the seeded generators, the percentile helper, the offline oracle
against a literal replay, negative controls (an off-by-one answer and a
dropped durable write must fail the run), a smoke run of all four
workloads, the traced run's reported metrics, the comparer's verdicts,
the calibrator's checks, and ``BENCHMARK.json`` agreeing with the runner.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import run

assert run.ensure_src(), "the program under test (src/repro) is missing"

import calibrate  # noqa: E402
import compare  # noqa: E402
import gen  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from stats import (  # noqa: E402
    MIN_TAIL,
    percentile,
    segmented_percentile,
    segmented_rate,
)

RUN_PY = os.path.join(run.HERE, "run.py")


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


# -- generators ----------------------------------------------------------------
def test_streams_repeat_for_a_seed_and_differ_across_seeds():
    def draw(seed, sizes):
        stream = gen.ZipfStream(seed, "ops", z=1.1, n_items=10_000,
                                insert_share=0.2)
        parts = [stream.take(n) for n in sizes]
        return (np.concatenate([p[0] for p in parts]),
                np.concatenate([p[1] for p in parts]))

    inserts, ranks = draw(7, [50_000])
    again = draw(7, [256] * 100 + [50_000 - 25_600])
    assert np.array_equal(inserts, again[0])
    assert np.array_equal(ranks, again[1])
    other = draw(8, [50_000])
    assert not np.array_equal(ranks, other[1])
    assert 0.18 < inserts.mean() < 0.22
    assert ranks.min() >= 0 and ranks.max() < 10_000


def test_key_sets_repeat_for_a_seed_and_differ_across_seeds():
    ids = gen.id_universe(3, 5000)
    assert np.array_equal(ids, gen.id_universe(3, 5000))
    assert not np.array_equal(ids, gen.id_universe(4, 5000))
    assert len(np.unique(ids)) == 5000 and ids.min() >= 1
    inserts, queries = gen.bulk_keys(3, 4096)
    again = gen.bulk_keys(3, 4096)
    assert np.array_equal(inserts, again[0])
    assert np.array_equal(queries, again[1])
    assert not np.array_equal(inserts, gen.bulk_keys(4, 4096)[0])
    assert len(np.unique(inserts)) == 4096
    present = queries < (1 << gen.KEY_BITS)
    assert present.sum() == 2048
    assert np.isin(queries[present], inserts).all()
    assert gen.object_names(ids, np.array([0]))[0] == f"obj:{ids[0]:010x}"


# -- percentile ----------------------------------------------------------------
def test_percentile_keeps_ten_samples_beyond():
    samples = list(range(1000))
    assert percentile(samples, 99) == 989
    assert sum(s > percentile(samples, 99) for s in samples) == MIN_TAIL
    assert percentile(samples, 50) == 499
    with pytest.raises(ValueError):
        percentile(list(range(999)), 99)
    with pytest.raises(ValueError):
        percentile(samples, 100)


def test_segmented_percentile_ignores_a_slow_minority_of_segments():
    fast, slow = [1.0] * 1000, [50.0] * 1000
    samples = fast * 4 + slow
    assert segmented_percentile(samples, 99, 1000) == 1.0
    assert percentile(samples, 99) == 50.0
    assert segmented_percentile(list(range(1500)), 99, 1000) \
        == percentile(list(range(1500)), 99)
    with pytest.raises(ValueError):
        segmented_percentile(list(range(2000)), 99, 500)


def test_segmented_rate_ignores_a_slow_minority_of_segments():
    work = [256] * 40
    seconds = [1.0] * 30 + [10.0] * 10
    assert segmented_rate(work, seconds, 10) == 256.0
    assert segmented_rate(work, seconds, 100) == sum(work) / sum(seconds)


# -- host speed --------------------------------------------------------------------
def test_reference_seconds_cancel_the_host_clock_and_steal():
    ref = hostspeed.REF_PROBE_S
    # Half speed: the probe takes twice as long, CPU time counts half;
    # disk waits count as measured, steal not at all.
    assert hostspeed.at_reference(1.0, 2 * ref) == pytest.approx(0.5)
    assert hostspeed.at_reference(1.0, 2 * ref, io_s=0.2) \
        == pytest.approx(0.6)
    assert hostspeed.at_reference(1.0, 2 * ref, io_s=0.2, stolen=0.4) \
        == pytest.approx(0.4)
    # The same units timed at full and at 1.6x speed, and with a quarter
    # of one unit stolen, read alike; a probe stretched by an interrupt
    # does not move its block's median.
    n = 2 * hostspeed.BLOCK
    seconds = [0.01] * n
    probes = [ref] * n
    probes[3] = 40 * ref
    for speed, stolen in ((1.0, 0.0), (1.6, 0.0), (1.0, 0.0025)):
        wall = [s / speed for s in seconds]
        wall[5] += stolen
        steal = [0.0] * n
        steal[5] = stolen
        factors = hostspeed.scale_units(wall, [p / speed for p in probes],
                                        [0.0] * n, steal)
        assert [w * f for w, f in zip(wall, factors)] \
            == pytest.approx(seconds)
    assert hostspeed.stolen_s() >= 0.0


def test_pin_keeps_a_run_and_its_children_on_one_vcpu():
    # In a child interpreter: pinning is for the life of the process.
    code = ("import os, subprocess, sys, hostspeed\n"
            "cpu = hostspeed.pin()\n"
            "child = subprocess.run([sys.executable, '-c', 'import os; "
            "print(sorted(os.sched_getaffinity(0)))'], capture_output=True,"
            " text=True).stdout.strip()\n"
            "print(cpu, sorted(os.sched_getaffinity(0)), child, "
            "hostspeed.stolen_s() >= 0)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=run.HERE,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    cpu = max(os.sched_getaffinity(0))
    assert proc.stdout.split() == [str(cpu), f"[{cpu}]", f"[{cpu}]", "True"]


# -- the oracle ------------------------------------------------------------------
def _replay(ref, inserts, keys):
    """Literal replay, one op at a time: the referee of the fast oracle."""
    out = []
    for flag, key in zip(inserts.tolist(), keys):
        if flag:
            ref.insert(key)
            out.append(workloads.ACKED)
        else:
            out.append(ref.query(key))
    return np.array(out, dtype=np.int64)


@pytest.mark.parametrize("string_keys", [False, True])
def test_offline_oracle_matches_a_literal_replay(string_keys):
    rng = np.random.default_rng(11)
    n, m = 6000, 1 << 10          # crowded, so collisions are common
    inserts = rng.random(n) < 0.5
    ids = rng.integers(1, 800, n)
    keys = [f"k{i}" for i in ids.tolist()] if string_keys else ids
    expected = _replay(workloads.reference(m), inserts,
                       keys if string_keys else ids.tolist())
    got = workloads.ms_answers(workloads.reference(m), inserts, keys)
    assert np.array_equal(got, expected)
    assert expected.max() > 1


def test_offline_oracle_separates_spaces_and_counts_prior_inserts():
    rng = np.random.default_rng(12)
    n, m = 3000, 1 << 10
    inserts = rng.random(n) < 0.5
    ids = rng.integers(1, 500, n)
    space = ids % 3
    got = workloads.ms_answers(workloads.reference(m), inserts, ids,
                               space=space)
    for tenant in range(3):
        mask = space == tenant
        assert np.array_equal(got[mask], _replay(
            workloads.reference(m), inserts[mask], ids[mask].tolist()))
    prior, keys = ids[:100].tolist(), ids.tolist()
    answers = _replay(workloads.reference(m),
                      np.concatenate([np.ones(100, bool), inserts]),
                      prior + keys)[100:]
    assert workloads.count_wrong(workloads.reference(m), inserts, keys,
                                 answers, prior) == 0
    query = np.flatnonzero(~inserts)[0]
    answers[query] += 1
    assert workloads.count_wrong(workloads.reference(m), inserts, keys,
                                 answers, prior) == 1
    answers[query] = workloads.FAILED       # refused, so not judged
    assert workloads.count_wrong(workloads.reference(m), inserts, keys,
                                 answers, prior) == 0


# -- negative controls -------------------------------------------------------------
@pytest.mark.parametrize("phase", ["warm-up", "timed"])
def test_off_by_one_engine_answer_fails_the_run(phase, monkeypatch, capsys):
    from repro.serve.batch import ShardBatcher
    original = ShardBatcher.execute
    calls = {"n": 0}

    def off_by_one(self, ops, **kwargs):
        results = original(self, ops, **kwargs)
        calls["n"] += 1
        # Set-up runs first and its warm-up only queries; the timed run
        # is the first to insert.
        if phase == "warm-up":
            hit = calls["n"] == 1
        else:
            hit = any(op[0] == "insert" for op in ops)
        for i, result in enumerate(results if hit else ()):
            if result is not None and not isinstance(result, BaseException):
                results[i] = result + 1
                break
        return results

    monkeypatch.setattr(ShardBatcher, "execute", off_by_one)
    code = run.main(["--workload", "mixed-zipf", "--smoke", "--seed", "2"])
    assert code == 1
    assert _last_json(capsys.readouterr().out)["correct"] is False


def test_off_by_one_bulk_answer_fails_the_run(monkeypatch, capsys):
    from repro.serve.batch import ShardBatcher
    original = ShardBatcher.query_many

    def off_by_one(self, keys, **kwargs):
        results = original(self, keys, **kwargs)
        results[-1] += 1
        return results

    monkeypatch.setattr(ShardBatcher, "query_many", off_by_one)
    code = run.main(["--workload", "bulk-uniform", "--smoke", "--seed", "2"])
    assert code == 1
    assert _last_json(capsys.readouterr().out)["correct"] is False


def test_dropped_durable_write_fails_the_run(monkeypatch, capsys):
    from repro.persist.wal import WriteAheadLog
    original = WriteAheadLog.log_insert
    calls = {"n": 0}
    # Past the prep inserts: one insert of the timed run is acknowledged
    # but never reaches the log.
    target = workloads.SMOKE.prep_inserts + 10

    def lossy(self, key, count=1):
        calls["n"] += 1
        if calls["n"] == target:
            return self.last_seq
        return original(self, key, count)

    monkeypatch.setattr(WriteAheadLog, "log_insert", lossy)
    code = run.main(["--workload", "ingest-durable", "--smoke", "--seed",
                     "2", "--json-out", os.devnull])
    assert calls["n"] > target
    assert code == 1
    assert _last_json(capsys.readouterr().out)["correct"] is False


# -- whole runs --------------------------------------------------------------------
def test_smoke_run_of_all_workloads_is_quick_and_correct():
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, RUN_PY, "--smoke", "--seed", "5"],
                          cwd=run.ROOT, capture_output=True, text=True,
                          timeout=120)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 60
    line = _last_json(proc.stdout)
    assert line["correct"] is True and line["failed"] == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {f"{w}.{m}" for w in run.WORKLOADS
                                    for m in run.END_TO_END}


def test_harness_line_of_a_traced_run_names_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, RUN_PY, "--workload", "mixed-zipf", "--seed", "3",
         "--seconds", "0.25", "--trace", "1", "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    line = _last_json(proc.stdout)
    spec = compare.load_spec()
    assert set(line["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for metric in spec["per_layer"]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "mixed-zipf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_runner():
    spec = compare.load_spec()
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] \
        == [*run.PER_LAYER, *run.ledger_names()]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# -- the comparer -------------------------------------------------------------------
def _doc(workload, seed, **metrics):
    return {"workload": workload, "seed": seed, "trace": 0,
            "metrics": {name: {"value": value, "unit": "u"}
                        for name, value in metrics.items()}}


def _verdicts(parent, change):
    rows = compare.compare(parent, change, compare.load_spec())
    return {(r["workload"], r["metric"]): r["verdict"] for r in rows}


def test_compare_verdicts_on_synthetic_documents():
    rng = np.random.default_rng(5)
    parent, change = [], []
    for seed in range(10):
        noise = 1 + 0.005 * rng.standard_normal(4)
        parent.append(_doc(
            "w", seed, throughput_ops_s=1000 * noise[0],
            latency_p50_ms=2.0 * noise[1], latency_p99_ms=9.0 * noise[2],
            setup_s=0.5 * noise[3], failed_frac=0.0, wrong_answers=0,
            bits_per_key=None))
        change.append(_doc(
            "w", seed, throughput_ops_s=1300 * noise[0],       # faster
            latency_p50_ms=3.0 * noise[1],                     # slower
            latency_p99_ms=9.0 * (1 + 0.4 * rng.standard_normal()),
            setup_s=0.5 * noise[3] * 1.01,                     # within bound
            failed_frac=0.001 if seed == 3 else 0.0, wrong_answers=0,
            bits_per_key=None))
    verdicts = _verdicts(parent, change)
    assert verdicts[("w", "throughput_ops_s")] == "improved"
    assert verdicts[("w", "latency_p50_ms")] == "regressed"
    assert verdicts[("w", "latency_p99_ms")] == "unresolved"   # no bound
    assert verdicts[("w", "setup_s")] == "unchanged"
    assert verdicts[("w", "failed_frac")] == "regressed"
    assert verdicts[("w", "wrong_answers")] == "unchanged"
    assert verdicts[("w", "bits_per_key")] == "unchanged"


def test_compare_needs_nine_in_ten_pair_wins_to_claim_a_gain():
    parent = [_doc("w", s, throughput_ops_s=1000.0 + s) for s in range(10)]
    change = [_doc("w", s, throughput_ops_s=(1030.0 if s < 8 else 990.0))
              for s in range(10)]
    assert _verdicts(parent, change)[("w", "throughput_ops_s")] \
        == "unchanged"
    change[8] = _doc("w", 8, throughput_ops_s=1030.0)
    assert _verdicts(parent, change)[("w", "throughput_ops_s")] \
        == "improved"


def test_compare_lets_setup_worsen_by_the_absolute_floor():
    parent = [_doc("w", s, setup_s=0.060 + 0.001 * s) for s in range(10)]
    # 50% slower, but by 30 ms: under the floor
    change = [_doc("w", s, setup_s=0.090 + 0.001 * s) for s in range(10)]
    assert _verdicts(parent, change)[("w", "setup_s")] == "unchanged"
    change = [_doc("w", s, setup_s=0.120 + 0.001 * s) for s in range(10)]
    assert _verdicts(parent, change)[("w", "setup_s")] == "regressed"


def test_compare_reports_per_layer_movement():
    def traced(seed, value):
        doc = _doc("w", seed, **{"serve.engine.self_us_per_op": value,
                                 "core.sbf.scalar_calls_per_op": 1.0})
        doc["trace"] = 1
        return doc
    parent = [traced(s, 10.0 + 0.1 * s) for s in range(10)]
    change = [traced(s, 6.0 + 0.1 * s) for s in range(10)]
    verdicts = _verdicts(parent, change)
    assert verdicts[("w", "serve.engine.self_us_per_op")] == "lower"
    assert verdicts[("w", "core.sbf.scalar_calls_per_op")] == "unchanged"


# -- the calibrator -------------------------------------------------------------------
def test_calibration_applies_the_harness_checks():
    def sweep(setup_by_seed, throughput=1000.0):
        runs = []
        for seed, setup in setup_by_seed.items():
            for rep in range(5):
                doc = _doc("w", seed, throughput_ops_s=throughput + rep,
                           latency_p50_ms=2.0, latency_p99_ms=9.0,
                           setup_s=setup * (1 + 0.3 * (rep % 2)),
                           **{name: 0 for name in run.EXACT})
                doc.update(correct=True, attempted=1000)
                runs.append(doc)
        bounds = {m["name"]: m for m in compare.load_spec()["end_to_end"]}
        return calibrate.summarise(runs, bounds)[1]

    # setup_s's own spread (0.3) is exempt, as the harness exempts it ...
    assert sweep({1: 0.1, 2: 0.1}) == []
    # ... but not a gap between the medians of two sets of runs
    problems = sweep({1: 0.1, 2: 0.14})
    assert len(problems) == 1 and "w setup_s: per-seed medians" in problems[0]
    # a bounded metric's spread beyond its bound is a problem
    problems = sweep({1: 0.1}, throughput=1.0)
    assert any("throughput_ops_s: spread" in problem for problem in problems)
