"""Fast self-check of the benchmark harness; it has no timing gate.

    python3 perfbench/selfcheck.py

Runs every workload at tiny sizes, untraced and traced, and checks that the
last line of output has exactly the keys `correct`, `attempted`, `failed` and
`metrics`, that the run is correct, and that every metric listed in
BENCHMARK.json is reported with its unit and a numeric value.  Then checks
that run.py exits non-zero without printing a result in a directory that
holds only BENCHMARK.json and this benchmark's files.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def result_problems(line, expected):
    try:
        obj = json.loads(line)
    except ValueError:
        return [f"last line is not JSON: {line[:120]!r}"]
    problems = []
    if not isinstance(obj, dict) or set(obj) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys are {sorted(obj) if isinstance(obj, dict) else type(obj)}"]
    if obj["correct"] is not True:
        problems.append("run is not correct")
    if not isinstance(obj["attempted"], int) or obj["attempted"] < 1:
        problems.append(f"attempted is {obj['attempted']!r}")
    if not isinstance(obj["failed"], int) or not 0 <= obj["failed"] <= obj["attempted"]:
        problems.append(f"failed is {obj['failed']!r}")
    metrics = obj["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"metrics missing {sorted(set(expected) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{name} has unit {m.get('unit')!r}, expected {unit!r}")
        if isinstance(m.get("value"), bool) or not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name} has value {m.get('value')!r}")
    return problems


def refuses_without_sources():
    """run.py must fail, printing no result, next to nothing but its own files."""
    bare = os.path.join(ROOT, ".perfbench", "selfcheck_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(RUN + ["--workload", "scalar_tau", "--seed", "1", "--seconds", "1",
                                     "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return proc.returncode != 0 and '"correct"' not in proc.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(RUN + ["--workload", workload, "--seed", "1", "--seconds", "1",
                                         "--trace", str(trace), "--tiny"],
                                  cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            problems = ([f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
                        if proc.returncode != 0 or not lines
                        else result_problems(lines[-1], expected[trace]))
            failures += bool(problems)
            print(f"{workload} trace={trace}: " + ("ok" if not problems else "; ".join(problems)))
    bare_ok = refuses_without_sources()
    failures += not bare_ok
    print("refuses to run without sources: " + ("ok" if bare_ok else "FAILED"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
