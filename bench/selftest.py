#!/usr/bin/env python3
"""Self-test of the benchmark harness; takes about 20 seconds.

    python3 bench/selftest.py

- Each workload runs at tiny n, untraced and traced, for one second each.
  Both runs must be correct and emit exactly the metrics, with the units,
  that BENCHMARK.json lists.
- Each workload runs once more with one output file corrupted after its
  first timed op; that op, and only that one, must count as failed.
- The benchmark copied without the program must exit non-zero and print
  no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run


def _edit(path, old, new):
    text = path.read_text(encoding="utf-8")
    if old not in text:
        raise AssertionError(f"{path.name} has no {old!r} to corrupt")
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def _shift_solution(out):
    # move u at the oracle node t = 0.5 by 1e-2, ten times the gate
    lines = (out / "solution.csv").read_text(encoding="utf-8").splitlines(True)
    for i, line in enumerate(lines):
        t, psi_t, u = line.rstrip("\n").split(",")
        if t == "0.5":
            lines[i] = f"{t},{psi_t},{float(u) + 1e-2!r}\n"
            break
    else:
        raise AssertionError("no node at t = 0.5")
    (out / "solution.csv").write_text("".join(lines), encoding="utf-8")


# one corruption per workload, each aimed at a different check
CORRUPTIONS = {
    "solve_large": _shift_solution,
    "verify_memoryless": lambda out: _edit(
        out / "hu_linear.json", '"certified": true', '"certified": false'
    ),
    # a comment line: content checks pass, byte identity does not
    "verify_kernel": lambda out: _edit(out / "hur_exp.csv", "\n", "\n# corrupted\n"),
    "sweep_parallel": lambda out: _edit(out / "sweep.csv", ",true,ok\n", ",false,ok\n"),
}


def _declared(kind):
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return doc, {m["name"]: m["unit"] for m in doc[kind]}


def main():
    problems = []
    doc, end_to_end = _declared("end_to_end")
    _, per_layer = _declared("per_layer")
    if sorted(w["name"] for w in doc["workloads"]) != sorted(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")

    for workload in run.WORKLOADS:
        before = len(problems)
        for trace, declared in ((False, end_to_end), (True, per_layer)):
            result, _ = run.run(workload, 7, 1.0, trace, tiny=True, setup_repeats=1)
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: {result['failed']} failed")
            if emitted != declared:
                problems.append(f"{workload} trace={trace}: metrics {emitted} != {declared}")

        def corrupt(index, out, workload=workload):
            if index == 1:
                CORRUPTIONS[workload](out)

        result, _ = run.run(workload, 7, 1.0, False, tiny=True, corrupt=corrupt, setup_repeats=1)
        if result["failed"] != 1 or result["correct"]:
            problems.append(f"{workload}: corrupted op gave failed={result['failed']}")
        print(workload, "ok" if len(problems) == before else "FAILED")

    bare = run.BUILD / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve_large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout:
        problems.append(f"without the program: exit {proc.returncode}, stdout {proc.stdout!r}")

    for problem in problems:
        print("FAIL:", problem)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
