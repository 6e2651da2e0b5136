"""Benchmark of octopoly: seeded workloads, independent checks, one result line.

    python3 perfbench/run.py --workload library --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout.  It generates the workload's inputs from
the seed, sets the package up several times (import, algebras, parsing every
input literal), runs whole rounds of the operations for about ``--seconds``
(the run ends within half a round of it), checks every output against
``oracle.py`` and prints one JSON object as the last line of standard output:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of
``spans.py`` with ``--trace 1``.  Raw latencies, phase times and, when
traced, every span go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import inputs
import oracle
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60
TRACE_MARK = "PERFBENCH_TRACE "  # written by cli_child.py
clock = time.perf_counter


def child_env():
    """The pinned environment of every child interpreter (run with -S, so
    no site-packages and no .pth imports)."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(SRC),
        "PYTHONPYCACHEPREFIX": str(OUT / "pycache"),
        "PYTHONHASHSEED": "0",
        "LC_ALL": "C",
    }


# ---------------------------------------------------------------------------
# reports in the oracle's normalized form
# ---------------------------------------------------------------------------


def normalize_solve(report):
    classes = []
    for cand, res in report.classes:
        point = res.root if res.root is not None else res.witness
        classes.append((cand.trace, cand.norm, cand.field_degree, cand.multiplicity, res.status,
                        point.coords if point is not None else None))
    return {"companion": tuple(report.companion.coeffs), "classes": tuple(classes)}


def normalize_eigen(report):
    return {
        "member": report.member,
        "kernel": report.kernel_element.coords if report.member else None,
        "vector": tuple(v.coords for v in report.eigenvector) if report.member else None,
    }


def normalize_cli(case, stdout):
    try:
        return _normalize_cli(case, json.loads(stdout))
    except (ValueError, KeyError, TypeError, oracle.CheckFailed):
        return {"unparseable": stdout}


def _normalize_cli(case, doc):
    scalar = Fraction if case.exact else float
    if case.kind == "solve":
        classes = []
        for c in doc["classes"]:
            point = c.get("root") or c.get("witness")
            classes.append((scalar(c["trace"]), scalar(c["norm"]), c["field_degree"], c["multiplicity"],
                            c["resolution"], tuple(scalar(x) for x in point) if point else None))
        return {"companion": tuple(scalar(b) for b in doc["companion"]), "classes": tuple(classes)}
    member = doc["member"]
    return {
        "member": member,
        "kernel": oracle.parse_element(doc["kernel_element"], True) if member else None,
        "vector": tuple(oracle.parse_element(v, True) for v in doc["eigenvector"]) if member else None,
    }


def check(case, report):
    if "unparseable" in report:
        raise oracle.CheckFailed("output is not a well-formed report: %r" % report["unparseable"][:200])
    if case.kind == "solve":
        oracle.check_solve(case.coeffs, case.planted, report, case.params, case.exact)
    else:
        side = "left" if case.kind == "lev" else "right"
        oracle.check_eigen(case.coeffs, case.lam, side, report, case.params)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


class Run:
    """Latencies and distinct outputs of one run; checks come after timing."""

    def __init__(self, cases):
        self.cases = cases
        self.latencies = []
        self.failed = 0
        self.errors = []
        self.outputs = {}  # (case index, frozen report) -> occurrences
        self.rounds = 0
        self.repeats_differ = False

    def record(self, index, latency, report):
        self.latencies.append(latency)
        if report is None:
            self.failed += 1
            return
        key = (index, tuple(sorted(report.items())))
        self.outputs[key] = self.outputs.get(key, 0) + 1

    def end_round(self, elapsed, seconds):
        """Count a finished round; true when the run should stop, which is
        when another round would end farther from ``seconds`` than now."""
        self.rounds += 1
        return elapsed + elapsed / self.rounds / 2 >= seconds

    def check_outputs(self):
        """Operations whose output failed an independent check."""
        bad = 0
        for (index, frozen), count in self.outputs.items():
            case = self.cases[index]
            try:
                check(case, dict(frozen))
            except oracle.CheckFailed as exc:
                bad += count
                self.errors.append("check failed on %s: %s" % (case.label, exc))
        return bad


def run_inprocess(cases, seconds, traced):
    setup_times = []
    for rep in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "octopoly" or m.startswith("octopoly.")]:
            del sys.modules[name]
        t0 = clock()
        pkg = importlib.import_module("octopoly")
        tracer = None
        if traced and rep == SETUP_REPEATS - 1:
            tracer = spans.Tracer()
            tracer.install()
        algebras = {}
        work = []
        for case in cases:
            key = (case.params, case.exact)
            if key not in algebras:
                algebras[key] = pkg.OctonionAlgebra(*(str(p) for p in case.params),
                                                    mode="exact" if case.exact else "float")
            phi = pkg.parse_polynomial(case.literal, algebras[key])
            if case.kind == "solve":
                work.append((pkg.solve, (phi,), normalize_solve))
            else:
                lam = pkg.parse_octonion(case.lam_literal, algebras[key])
                work.append((pkg.lev_test if case.kind == "lev" else pkg.rev_test, (phi, lam), normalize_eigen))
        setup_times.append(clock() - t0)

    run = Run(cases)
    gc.collect()
    start = clock()
    while True:
        for index, (fn, args, normalize) in enumerate(work):
            if tracer is not None:
                tracer.op = len(run.latencies)
            t0 = clock()
            try:
                out = fn(*args)
            except Exception as exc:  # an operation that fails counts as failed, the run goes on
                run.record(index, clock() - t0, None)
                run.errors.append("%s raised %s: %s" % (cases[index].label, type(exc).__name__, exc))
                continue
            latency = clock() - t0
            run.record(index, latency, normalize(out))
        if run.end_round(clock() - start, seconds):
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return run, setup_times, peak_kb, tracer, {}


def cli_argv(case, traced):
    head = [sys.executable, "-S"] + ([str(HERE / "cli_child.py")] if traced else ["-m", "octopoly"])
    command = "solve" if case.kind == "solve" else "eigen"
    argv = head + [command, "--poly=" + case.literal, "--mode=" + ("exact" if case.exact else "float")]
    argv += ["--%s=%s" % (name, p) for name, p in zip(("alpha", "beta", "gamma"), case.params)]
    if case.kind != "solve":
        argv += ["--lambda=" + case.lam_literal, "--side=" + ("left" if case.kind == "lev" else "right")]
    return argv


def run_cli(cases, seconds, traced):
    env = child_env()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        subprocess.run([sys.executable, "-S", "-c", "import octopoly.cli"], env=env, cwd=ROOT,
                       check=True, timeout=CHILD_TIMEOUT_S)
        setup_times.append(clock() - t0)

    run = Run(cases)
    tracer = spans.Tracer() if traced else None
    child_ms = {"cli.interpreter_start_ms": [], "cli.import_ms": [], "cli.main_ms": []}
    stdouts = {}
    start = clock()
    while True:
        for index, case in enumerate(cases):
            spawn = time.monotonic()
            t0 = clock()
            try:
                proc = subprocess.run(cli_argv(case, traced), env=env, cwd=ROOT, capture_output=True,
                                      timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:  # the child has been killed and reaped
                run.record(index, clock() - t0, None)
                run.errors.append("%s timed out after %d s" % (case.label, CHILD_TIMEOUT_S))
                continue
            latency = clock() - t0
            if proc.returncode != 0:
                run.record(index, latency, None)
                run.errors.append("%s exited %d: %s" % (case.label, proc.returncode, proc.stderr.decode()[-300:]))
                continue
            if traced:
                data = json.loads(proc.stderr.decode().rsplit(TRACE_MARK, 1)[1])
                tracer.merge(data["spans"], len(run.latencies))
                child_ms["cli.interpreter_start_ms"].append(1000 * (data["started"] - spawn))
                child_ms["cli.import_ms"].append(1000 * data["import_s"])
                child_ms["cli.main_ms"].append(1000 * data["main_s"])
            if case.exact:
                stdouts.setdefault(index, set()).add(proc.stdout)
            run.record(index, latency, normalize_cli(case, proc.stdout))
        if run.end_round(clock() - start, seconds):
            break
    for index, outs in stdouts.items():
        if len(outs) > 1:
            run.repeats_differ = True
            run.errors.append("exact output of %s differs between repeats" % cases[index].label)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    cli_ms = {name: statistics.median(v) for name, v in child_ms.items() if v}
    return run, setup_times, peak_kb, tracer, cli_ms


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "octopoly" / "__init__.py").is_file():
        print("perfbench: %s holds no package source; run from the root of a checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    # The package's bytecode goes to .perfbench/pycache, never next to the
    # sources, and is reused from run to run as an installed package's is.
    sys.pycache_prefix = str(OUT / "pycache")
    sys.dont_write_bytecode = False

    cases = inputs.WORKLOADS[args.workload](random.Random(args.seed))
    runner = run_cli if args.workload == "cli" else run_inprocess
    t0 = clock()
    run, setup_times, peak_kb, tracer, cli_ms = runner(cases, args.seconds, bool(args.trace))
    t1 = clock()
    # the checking oracles load from their own installed bytecode and write none
    sys.pycache_prefix = None
    sys.dont_write_bytecode = True
    bad = run.check_outputs()
    phases = {"setup_and_measure_s": t1 - t0, "check_s": clock() - t1}
    passed = len(run.latencies) - run.failed - bad
    correct = bad == 0 and not run.repeats_differ

    lat = sorted(run.latencies)
    if args.trace:
        metrics = spans.layer_metrics(tracer, run.rounds, cli_ms)
        tracer.write(OUT / ("spans-%s-%d.tsv" % (args.workload, args.seed)))
    else:
        metrics = {
            "goodput_ops_s": {"value": passed / sum(lat), "unit": "ops/s"},
            "latency_p50_ms": {"value": 1000 * statistics.median(lat), "unit": "ms"},
            "latency_p90_ms": {"value": 1000 * statistics.quantiles(lat, n=10)[-1], "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }
    raw = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "rounds": run.rounds,
        "cases": [c.label for c in cases], "latencies_s": run.latencies, "setup_s": setup_times,
        "errors": run.errors, "phases": phases, "metrics": metrics,
    }
    with open(OUT / ("result-%s-%d-trace%d.json" % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(raw, fh)
    for err in run.errors:
        print(err, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(run.latencies), "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
