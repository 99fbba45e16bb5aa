"""List the ``src/repro`` functions that a command set never runs.

    python tools/reachability.py [--out reachability.json] [-- CMD ...]

Every command runs with a generated ``sitecustomize.py`` first on
``PYTHONPATH``, so every Python process it starts — subprocesses and
forked ``multiprocessing`` workers included — records the code objects
it calls through ``sys.setprofile`` / ``threading.setprofile``.  A
process dumps its records at exit: through ``atexit`` normally, and
through a ``multiprocessing.util.Finalize`` registered after fork in a
forked worker, which leaves by ``os._exit`` after running the finalizer
registry (``BaseProcess._bootstrap`` clears that registry before the
after-fork hooks run, so the ``Finalize`` is made there, not earlier).

The tool then parses every ``def`` under ``src/repro`` and reports,
sorted by file and line, each one no process called.  Abstract methods
and ``__repr__`` are skipped: an abstract method's body never runs by
design, and ``__repr__`` is a debugging aid.  Without ``-- CMD`` the
command set is tier-1 plus the end-to-end suite, the six scenario seeds,
six quick benchmarks and every example (about seven minutes on 2 vCPUs;
the hook slows Python calls several-fold, so a timing floor such as
``bench_multiprocess_scaling``'s can fail under it).

Findings are reported, never fatal: the tool exits 0 whatever it finds
and whatever the commands return (their exit codes are in the JSON);
only a crash of the tool itself fails it.
"""

from __future__ import annotations

import argparse
import ast
import glob
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

#: the benchmarks run in quick mode (their own gates stay theirs)
QUICK_BENCHES = ("bench_serving_throughput", "bench_ha_failover",
                 "bench_gray_failure", "bench_multi_tenant",
                 "bench_multiprocess_scaling", "bench_bulk_kernels")

HOOK = '''\
import atexit, itertools, json, os, sys, threading
from multiprocessing import util

_DIR, _PACKAGE = {records!r}, {package!r}
_seen = set()
_dumps = itertools.count()


def _profile(frame, event, arg, _add=_seen.add):
    if event == "call":
        _add(frame.f_code)


class _Recorder:
    def dump(self):
        hits = sorted({{(code.co_filename, code.co_firstlineno)
                        for code in list(_seen)
                        if code.co_filename.startswith(_PACKAGE)}})
        path = os.path.join(_DIR, f"{{os.getpid()}}-{{next(_dumps)}}.json")
        with open(path, "w") as fh:
            json.dump(hits, fh)


def _after_fork(recorder):
    util.Finalize(None, recorder.dump, exitpriority=0)


_RECORDER = _Recorder()
util.register_after_fork(_RECORDER, _after_fork)
atexit.register(_RECORDER.dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


def default_commands(scratch: str) -> list[list[str]]:
    """Tier-1 and the e2e suite, the six scenario seeds, the quick
    benchmarks and every example."""
    py = sys.executable
    commands = [[py, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                [py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "benchmarks/e2e"],
                [py, "benchmarks/bench_scenarios.py", "--quick",
                 "--json-out", os.path.join(scratch, "scenarios.json")]]
    commands += [[py, f"benchmarks/{name}.py", "--quick", "--json-out",
                  os.path.join(scratch, f"{name}.json")]
                 for name in QUICK_BENCHES]
    commands += [[py, path] for path in
                 sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))]
    return commands


def definitions() -> list[dict]:
    """Every ``def`` under ``src/repro`` except abstract methods and
    ``__repr__``, keyed the way a code object names its first line."""
    found = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"),
                                 recursive=True)):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        found.extend(_walk(tree, path, ""))
    return found


def _walk(node: ast.AST, path: str, prefix: str) -> list[dict]:
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            found.extend(_walk(child, path, f"{prefix}{child.name}."))
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}{child.name}"
            abstract = any(ast.unparse(d).endswith("abstractmethod")
                           for d in child.decorator_list)
            if not abstract and child.name != "__repr__":
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found.append({"file": path, "line": first, "name": name})
            found.extend(_walk(child, path, f"{name}.<locals>."))
        else:
            found.extend(_walk(child, path, prefix))
    return found


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = None
    if "--" in argv:
        command = argv[argv.index("--") + 1:]
        argv = argv[:argv.index("--")]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="reachability.json",
                        help="where to write the JSON report")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        records = os.path.join(scratch, "records")
        hook = os.path.join(scratch, "hook")
        os.makedirs(records)
        os.makedirs(hook)
        with open(os.path.join(hook, "sitecustomize.py"), "w") as fh:
            fh.write(HOOK.format(records=records, package=PACKAGE))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [hook, SRC] + [p for p in [env.get("PYTHONPATH")] if p])
        env["REPRO_RESULTS_DIR"] = os.path.join(scratch, "results")
        commands = [command] if command else default_commands(scratch)
        exits = []
        for cmd in commands:
            print("$", " ".join(cmd), flush=True)
            exits.append(subprocess.run(cmd, cwd=ROOT, env=env).returncode)
        reached = set()
        for path in glob.glob(os.path.join(records, "*.json")):
            with open(path, encoding="utf-8") as fh:
                reached.update((f, line) for f, line in json.load(fh))
    defined = definitions()
    unreached = [dict(d, file=os.path.relpath(d["file"], ROOT))
                 for d in defined if (d["file"], d["line"]) not in reached]
    report = {"commands": [" ".join(cmd) for cmd in commands],
              "exit_codes": exits, "defined": len(defined),
              "reached": len(defined) - len(unreached),
              "unreached": unreached}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for entry in unreached:
        print(f"{entry['file']}:{entry['line']}: {entry['name']}")
    print(f"{report['reached']} of {report['defined']} functions reached; "
          f"{len(unreached)} never ran; command exit codes {exits}; "
          f"report in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
