#!/usr/bin/env python3
"""fracstab benchmark: closed-loop workloads through ``fracstab.cli.main``.

Run from anywhere inside a checkout (paths are taken from this file):

    python3 bench/run.py --workload verify_kernel --seed 1 --seconds 20 --trace 0

One client in this process sends a workload's commands to
``fracstab.cli.main`` one after another and sends the next only when the
last has returned (closed loop).  An *op* is one pass over the workload's
command list.  The output files of every op are checked; a miss counts as
a failed op.

``--trace 0`` wraps nothing in the program and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced ops and reports the
per-layer metrics of spans.py plus the tracing overhead.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  bench/README.md describes the workloads, the metrics
and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import PER_LAYER, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBLEMS = ROOT / "problems"
BUILD = ROOT / ".bench_build"
OUT = BUILD / "out"

# acceptance-gate tolerance on the Mittag-Leffler oracle nodes
ORACLE_GATE = 1e-3
SETUP_REPEATS = 9  # at least this many set-up samples per run
SWEEP_VALUES = ("0.3", "0.4", "0.5", "0.6")
SWEEP_THREADS = 2
TINY_VERIFY_N = 65
TINY_SOLVE_N = 257  # keeps every oracle node t = j/32 on the grid

# (name, unit) of every end-to-end metric, in BENCHMARK.json order
END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("success_rate", "ratio"),
    ("accuracy_loss", "ratio"),
]

# CPU time of the importing thread: the wall time of the same import varies
# up to 2x with whether OpenBLAS's spinning worker threads, started by the
# numpy import, find a CPU of their own or take the importer's
SETUP_CODE = (
    "import time; t0 = time.thread_time(); import fracstab.cli; "
    "print(time.thread_time() - t0)"
)


class CheckFailed(Exception):
    """An op's output is missing or wrong."""


@dataclass
class Workload:
    """Commands of one op, the files they write, and how to check them.

    ``check`` returns the op's accuracy loss and raises CheckFailed on a
    wrong output; ``prepare`` runs once, untimed, before the first op.
    """

    commands: list
    outputs: list
    check: object
    prepare: object = None
    threads: int | None = None


# ---------------------------------------------------------------------------
# Output checks


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return [r for r in csv.reader(handle) if r and not r[0].startswith("#")]


def _oracle():
    rows = _read_csv(PROBLEMS / "mittag_leffler_oracle.csv")
    return [(float(t), float(u)) for t, u in rows[1:]]


def check_solution(path, n, T, oracle):
    """Max |u - u_exact| on the oracle nodes, as a share of the gate."""
    rows = _read_csv(path)
    if rows[0] != ["t", "psi_t", "u0"] or len(rows) != n + 1:
        raise CheckFailed(f"{path.name}: bad header or {len(rows) - 1} rows, want {n}")
    err = 0.0
    for t_ref, u_ref in oracle:
        row = rows[1 + round(t_ref / T * (n - 1))]
        if abs(float(row[0]) - t_ref) > 1e-12:
            raise CheckFailed(f"{path.name}: no node at oracle t = {t_ref}")
        err = max(err, abs(float(row[2]) - u_ref))
    if not err <= ORACLE_GATE:
        raise CheckFailed(f"{path.name}: oracle error {err:.3e} > {ORACLE_GATE}")
    return err / ORACLE_GATE


def _companion(path):
    return path.with_suffix(".csv")


def check_certificate(path, n):
    """Certificate is certified on n nodes; returns slack / bound.max."""
    with open(path, encoding="utf-8") as handle:
        cert = json.load(handle)
    if cert["certified"] is not True or cert["n"] != n:
        raise CheckFailed(f"{path.name}: certified={cert['certified']} n={cert['n']}")
    rows = _read_csv(_companion(path))
    if rows[0] != ["t", "u0", "bound", "worst_deviation"] or len(rows) != n + 1:
        raise CheckFailed(f"{_companion(path).name}: bad header or row count")
    return cert["slack"] / cert["bound"]["max"]


def _fmt(x):
    return "" if x is None else f"{x:.17g}"


# ---------------------------------------------------------------------------
# Workloads


def _problem(name):
    return str(PROBLEMS / f"{name}.json")


def solve_large(seed, tiny):
    # solve has no randomness: the seed changes nothing here
    n = TINY_SOLVE_N if tiny else 4097
    out = OUT / "solution.csv"
    with open(PROBLEMS / "mittag_leffler.json", encoding="utf-8") as handle:
        T = float(json.load(handle)["domain"]["T"])
    oracle = _oracle()
    argv = ["solve", "--config", _problem("mittag_leffler"), "--n", str(n), "--out", str(out)]
    return Workload([argv], [out], lambda: check_solution(out, n, T, oracle))


def _verify_workload(names):
    def make(seed, tiny):
        commands, certs, ns = [], [], []
        for name in names:
            out = OUT / f"{name}.json"
            argv = ["verify", "--config", _problem(name), "--out", str(out)]
            argv += ["--seed", str(seed)]
            if tiny:
                argv += ["--n", str(TINY_VERIFY_N)]
                ns.append(TINY_VERIFY_N)
            else:
                with open(_problem(name), encoding="utf-8") as handle:
                    ns.append(json.load(handle)["domain"]["n"])
            commands.append(argv)
            certs.append(out)

        def check():
            return max(check_certificate(c, n) for c, n in zip(certs, ns))

        return Workload(commands, certs + [_companion(c) for c in certs], check)

    return make


def sweep_parallel(seed, tiny):
    out = OUT / "sweep.csv"
    n_args = ["--n", str(TINY_VERIFY_N)] if tiny else []
    argv = ["sweep", "--config", _problem("hur_exp"), "--param", "alpha"]
    argv += ["--values", ",".join(SWEEP_VALUES), "--out", str(out)]
    argv += ["--seed", str(seed)] + n_args
    expected = {}  # sweep value -> the row a plain verify implies
    ratios = []

    def prepare(call):
        # reference certificates: one plain verify per sweep value; the
        # sweep rows must repeat their numbers exactly
        with open(_problem("hur_exp"), encoding="utf-8") as handle:
            doc = json.load(handle)
        for value in SWEEP_VALUES:
            doc["order"]["alpha"] = float(value)
            config = OUT / f"ref_alpha_{value}.json"
            config.write_text(json.dumps(doc), encoding="utf-8")
            cert_path = OUT / f"ref_alpha_{value}.cert.json"
            rc = call(["verify", "--config", str(config), "--out", str(cert_path),
                       "--seed", str(seed)] + n_args)
            if rc != 0:
                raise CheckFailed(f"reference verify for alpha={value} exited {rc}")
            n = TINY_VERIFY_N if tiny else doc["domain"]["n"]
            ratios.append(check_certificate(cert_path, n))
            with open(cert_path, encoding="utf-8") as handle:
                cert = json.load(handle)
            expected[value] = [
                _fmt(float(value)), _fmt(cert["M"]), _fmt(cert["q"]),
                _fmt(cert["bound"]["max"]), _fmt(cert["empirical_max_deviation"]),
                "true", "ok",
            ]

    def check():
        rows = _read_csv(out)
        header = ["param_value", "M", "q", "bound_max", "empirical_max", "certified", "status"]
        if rows[0] != header or len(rows) != len(SWEEP_VALUES) + 1:
            raise CheckFailed("sweep.csv: bad header or row count")
        for value, row in zip(SWEEP_VALUES, rows[1:]):
            if row != expected[value]:
                raise CheckFailed(f"sweep.csv row {row} != reference {expected[value]}")
        return max(ratios)

    return Workload([argv], [out], check, prepare=prepare, threads=SWEEP_THREADS)


# Why each workload is there is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "solve_large": solve_large,
    "verify_memoryless": _verify_workload(["hu_linear", "hu_gamma_half"]),
    "verify_kernel": _verify_workload(["hu_kernel_weighted", "hur_exp"]),
    "sweep_parallel": sweep_parallel,
}


# ---------------------------------------------------------------------------
# Measurement


def import_seconds():
    """CPU time a fresh interpreter takes to import fracstab.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def tail(samples):
    """Highest-percentile sample with at least ten samples beyond it.

    Returns (value, percentile).  With ten samples or fewer no sample
    qualifies, and the smallest one is returned as percentile 0.
    """
    ordered = sorted(samples)
    rank = max(len(ordered) - 10, 1)
    return ordered[rank - 1], 0.0 if len(ordered) <= 10 else 100.0 * rank / len(ordered)


def _git_commit():
    # read .git directly: running git in a checkout without one could find
    # a repository above it
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        if (git / ref[5:]).is_file():
            return (git / ref[5:]).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def steal_seconds():
    """CPU time the host took from this machine since boot, or None.

    Runs during which the host steals time read slow for reasons outside
    the program; the result record carries the steal of each run.
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def environment(workload, seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        **{
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "FRAC_NUM_THREADS")
        },
        "commit": _git_commit(),
    }


class Client:
    """The one closed-loop client: runs ops and checks their outputs."""

    def __init__(self, cli, workload, corrupt=None):
        self.cli = cli
        self.workload = workload
        self.corrupt = corrupt
        self.attempted = 0
        self.failed = 0
        self.accuracy = 0.0
        self.reference = None

    def call(self, argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                rc = self.cli.main(argv)
            except Exception:  # an op that raises is a failed op, not a crash
                traceback.print_exc()
                rc = None
        if rc != 0:
            sys.stderr.write(f"{argv[0]} exited {rc}: {err.getvalue()}")
        return rc

    def op(self, tracer=None):
        """Run one op; returns its wall time and records its verdict."""
        index = self.attempted
        self.attempted += 1
        rcs = []
        start = time.perf_counter()
        for argv in self.workload.commands:
            if tracer is None:
                rcs.append(self.call(argv))
            else:
                with tracer.command(index, argv):
                    rcs.append(self.call(argv))
        elapsed = time.perf_counter() - start
        if self.corrupt is not None:
            self.corrupt(index, OUT)
        try:
            if any(rc != 0 for rc in rcs):
                raise CheckFailed(f"exit codes {rcs}")
            accuracy = self.workload.check()
            digest = [hashlib.sha256(p.read_bytes()).hexdigest() for p in self.workload.outputs]
            if self.reference is None:
                self.reference = digest
            elif digest != self.reference:
                raise CheckFailed("output bytes differ from the first op's")
            self.accuracy = max(self.accuracy, accuracy)
        except Exception as exc:  # any miss is a failed op; keep measuring
            self.failed += 1
            sys.stderr.write(f"op {index} failed: {type(exc).__name__}: {exc}\n")
        return elapsed


@contextlib.contextmanager
def _threads(value):
    old = os.environ.get("FRAC_NUM_THREADS")
    if value is not None:
        os.environ["FRAC_NUM_THREADS"] = str(value)
    try:
        yield
    finally:
        if old is None:
            os.environ.pop("FRAC_NUM_THREADS", None)
        else:
            os.environ["FRAC_NUM_THREADS"] = old


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(workload, seed, seconds, trace, tiny=False, corrupt=None, setup_repeats=SETUP_REPEATS):
    """One benchmark run; returns the result and a record of env and op times."""
    setup = [] if trace else [import_seconds()]  # before the first op
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fracstab.cli as cli

    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    wl = WORKLOADS[workload](seed, tiny)
    client = Client(cli, wl, corrupt)
    with _threads(wl.threads):
        env = environment(workload, seed)
        if wl.prepare is not None:
            try:
                wl.prepare(client.call)
            except Exception as exc:  # no reference: the ops below fail their check
                client.attempted += 1
                client.failed += 1
                sys.stderr.write(f"prepare failed: {type(exc).__name__}: {exc}\n")
        client.op()  # warm-up: lazy set-up and first-touch costs, checked, untimed
        steal_before = steal_seconds()
        if trace:
            metrics, record, spans = _traced_loop(client, seconds, wl.threads or 1)
            (BUILD / f"spans-{workload}-{seed}.json").write_text(
                json.dumps({"env": env, "spans": spans}), encoding="utf-8"
            )
        else:
            metrics, record = _untraced_loop(client, seconds, setup, setup_repeats)
    steal_after = steal_seconds()
    if steal_before is not None and steal_after is not None:
        record["steal_s"] = steal_after - steal_before
    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
    }
    return result, {"env": env, **record}


def _untraced_loop(client, seconds, setup, setup_repeats):
    times = []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        times.append(client.op())
        # one set-up sample after each op: the import's cost comes in
        # streaks a second or two long, so back-to-back samples share one
        setup.append(import_seconds())
    while len(setup) < setup_repeats:
        setup.append(import_seconds())
    tail_value, tail_pct = tail(times)
    values = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_value,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": 1.0 - client.failed / client.attempted,
        "accuracy_loss": client.accuracy,
    }
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
    record = {"op_seconds": times, "op_tail_percentile": tail_pct, "setup_seconds": setup}
    return metrics, record


def _traced_loop(client, seconds, workers):
    tracer = Tracer()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < 1 or time.perf_counter() < deadline:
        if len(untraced) > len(traced):
            tracer.install()
            try:
                traced.append(client.op(tracer))
            finally:
                tracer.uninstall()
        else:
            untraced.append(client.op())
    by_op = {}
    for span in tracer.spans:
        by_op.setdefault(span.op, []).append(span)
    per_op = [layer_metrics(spans, workers) for spans in by_op.values()]
    values = {name: statistics.median(m[name] for m in per_op) for name, _ in PER_LAYER
              if not name.startswith("trace.")}
    values["trace.op_p50_s"] = statistics.median(traced)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics = {name: _metric(values[name], unit) for name, unit in PER_LAYER}
    record = {"op_seconds": {"untraced": untraced, "traced": traced}}
    return metrics, record, [span.as_list() for span in tracer.spans]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fracstab" / "cli.py").is_file() or not PROBLEMS.is_dir():
        sys.stderr.write(f"error: no fracstab sources under {ROOT}\n")
        return 2
    seed = args.seed % 2**32  # the CLI's perturbation seed must be nonnegative
    result, record = run(args.workload, seed, args.seconds, bool(args.trace))
    (BUILD / f"result-{args.workload}-{seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, **result}, indent=2), encoding="utf-8"
    )
    print("env: " + json.dumps(record["env"]))
    if "steal_s" in record:
        print(f"host steal while measuring: {record['steal_s']:.2f} CPU-s")
    ops = record["op_seconds"]
    if args.trace:
        print(f"{len(ops['untraced'])} untraced and {len(ops['traced'])} traced ops")
    else:
        print(f"{len(ops)} timed ops; op_tail_s is p{record['op_tail_percentile']:.0f}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
