"""Benchmark of the hubbard-lax command line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ./src.
Each job is one `hubbard-lax` command run as a fresh child process, one after
another (a closed loop with one client), under a per-job address-space cap.
The workload's job list is run in rounds until --seconds are used; every job
is timed from spawn to exit and its output is checked. With --trace 1 each
job runs once untraced and once under benchmarks/trace_child.py, which times
the calls into each module, and the per-layer metrics are printed instead.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

from trace_child import EIGVALSH, SPANS

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
TRACE_CHILD = os.path.join(HERE, "trace_child.py")
ENTRY = "import sys; from hubbard_lax.cli import main; sys.exit(main())"

# Caps the child only, so that running out of memory is a counted failure
# (MemoryError, exit 2) instead of an OOM kill of the machine.
MEM_CAP_BYTES = 3 << 30
# One BLAS thread (at most nproc on any machine) keeps timings steady.
BLAS_THREADS = 1

# The three canonical drivings of tests/conftest.py, (gamma_L, gamma_R, mu_L,
# mu_R, u). Each gives a sign-definite current and a valid n=4..24 scaling fit.
DRIVINGS = (
    (1.5, 0.7, 0.3, -0.4, 2.0),
    (2.0, 1.0, 0.0, 0.0, 1.0),
    (1.0, 1.0, 0.5, 0.5, -0.5),
)
SCALING_WINDOW = (-2.8, -1.2)  # acceptance criterion 8
TELESCOPING_TOL = 1e-10
LINDBLAD_TOL = 1e-9


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output passes

def gate(key: str) -> Callable[[dict], list]:
    return lambda doc: [] if doc.get(key) is True else [f"{key} is not true"]


def ness_check(lindblad: bool) -> Callable[[dict], list]:
    def check(doc):
        problems = gate("passed")(doc)
        diag = doc.get("diagnostics", {})
        tele = diag.get("telescoping_residual", float("inf"))
        if not tele <= TELESCOPING_TOL:
            problems.append(f"telescoping_residual {tele} > {TELESCOPING_TOL}")
        if lindblad:
            res = diag.get("lindblad_residual", float("inf"))
            if not res <= LINDBLAD_TOL:
                problems.append(f"lindblad_residual {res} > {LINDBLAD_TOL}")
        return problems
    return check


def scaling_check(doc: dict) -> list:
    problems = gate("passed")(doc)
    expo = doc.get("scaling", {}).get("fit", {}).get("exponent", float("nan"))
    lo, hi = SCALING_WINDOW
    if not lo <= expo <= hi:
        problems.append(f"scaling exponent {expo} outside [{lo}, {hi}]")
    return problems


def exit_code_only(doc: dict) -> list:
    return []


# ---------------------------------------------------------------------------
# workloads

@dataclass(frozen=True)
class Job:
    args: tuple
    limit_s: float     # killed and counted failed past this; failures are charged it
    output: str        # JSON document the command writes into --out
    check: Callable[[dict], list]

    @property
    def label(self) -> str:
        return " ".join(self.args)


def _workload(name: str, seed: int) -> list:
    gL, gR, mL, mR, u = (str(x) for x in DRIVINGS[seed % len(DRIVINGS)])
    rates = ("--gammaL", gL, "--gammaR", gR, "--muL", mL, "--muR", mR)
    drive = rates + ("--u", u)
    # Known defects are left out, because every job of a workload must pass:
    # `ness --n 5` runs out of memory in check_telescoping and exits 2;
    # `sweep --n 7` exits 2 because the sweep always takes the dense route;
    # `verify --seed 5` exits 1 (a k=20 X-block residual of 1.15e-12 against
    # a tolerance of 1e-12), so verify keeps its default seed.
    if name == "dense_state":
        return [
            Job(("ness", "--n", "2", "--lindblad-residual", *drive), 30,
                "ness.json", ness_check(lindblad=True)),
            Job(("ness", "--n", "3", "--lindblad-residual", *drive), 20,
                "ness.json", ness_check(lindblad=True)),
            Job(("observe", "--n", "5", *drive), 20, "observe.json", gate("passed")),
            Job(("oracle", "--n", "2", *drive), 20, "oracle.json", gate("passed")),
        ]
    if name == "small_grid":
        return [
            Job(("verify", "--K", "3"), 20, "verify.json", gate("all_passed")),
            # conjecture tier: only the exit code counts
            Job(("commute", "--seed", str(seed)), 20, "commute.json", exit_code_only),
            Job(("oracle", "--n", "2", *drive), 20, "oracle.json", gate("passed")),
            Job(("ness", "--n", "3", *drive), 20, "ness.json", ness_check(lindblad=False)),
            Job(("sweep", "--n", "2,3,4", "--u", "1,2", "--gammaL", "1,1.5",
                 "--muL", "0,0.3", "--muR", "0,-0.4"), 30, "sweep.json", gate("passed")),
        ]
    if name == "long_chain":
        return [
            Job(("observe", "--n", "12", *drive), 30, "observe.json", gate("passed")),
            Job(("observe", "--n", "8", "--scaling", "4,6,8,10,12,14,16,18,20,22,24",
                 *drive), 40, "observe.json", scaling_check),
        ]
    raise ValueError(name)


WORKLOADS = ("dense_state", "small_grid", "long_chain")


# ---------------------------------------------------------------------------
# running jobs

@dataclass
class Result:
    job: Job
    traced: bool
    wall_s: float
    rss_mb: float
    failure: str | None     # None when the job passed
    incorrect: bool         # ran to completion but its output failed a check
    spans: dict | None = None

    @property
    def charged_s(self) -> float:
        return self.wall_s if self.failure is None else self.job.limit_s


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEM_CAP_BYTES, MEM_CAP_BYTES))


def _last_line(path: str) -> str:
    with open(path, errors="replace") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    return lines[-1][:160] if lines else ""


def run_job(job: Job, workdir: str, job_id: str, traced: bool) -> Result:
    out = os.path.join(workdir, job_id)
    os.makedirs(out)
    spans_path = os.path.join(out, "spans.json")
    if traced:
        cmd = [sys.executable, TRACE_CHILD, spans_path, job_id, *job.args, "--out", out]
    else:
        cmd = [sys.executable, "-c", ENTRY, *job.args, "--out", out]
    err_path = os.path.join(out, "stderr.txt")
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                preexec_fn=_cap_memory)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                timed_out = not select.select([pidfd], [], [], job.limit_s)[0]
            finally:
                os.close(pidfd)
            if timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)

    failure, incorrect = None, False
    if timed_out:
        failure = f"time limit {job.limit_s:g} s"
    elif code < 0:
        failure = f"killed by signal {-code}"
    elif code not in (0, 1):
        failure = f"exit {code}: {_last_line(err_path)}"
    else:
        try:
            with open(os.path.join(out, job.output)) as fh:
                problems = job.check(json.load(fh))
        except (OSError, ValueError) as e:
            problems = [f"unreadable {job.output}: {e}"]
        if problems:
            failure, incorrect = "check: " + "; ".join(problems), True
        elif code:
            failure = "exit 1"
    spans = None
    if traced and os.path.exists(spans_path):
        with open(spans_path) as fh:
            spans = json.load(fh)
    return Result(job, traced, wall, usage.ru_maxrss / 1024.0, failure, incorrect, spans)


def cold_start(workdir: str) -> float:
    """Seconds from spawn to exit of `hubbard-lax --version`: the interpreter
    and the imports, no work."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", ENTRY, "--version"], cwd=workdir,
                   stdout=subprocess.DEVNULL, check=True, preexec_fn=_cap_memory)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# per-layer metrics from the traced run

UNITS = {"calls": "count", "errors": "count", "distinct_ratio": "ratio"}


def per_layer_specs() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for span, stats in SPANS.items():
        for stat in stats + ("errors",):
            better = "higher" if stat == "distinct_ratio" else "lower"
            specs.append((f"{span}.{stat}", UNITS.get(stat, "s"), better))
    for name in ("cli.import_s", "trace.overhead_s", "trace.unaccounted_s"):
        specs.append((name, "s", "lower"))
    return specs


def layer_metrics(pairs: list) -> tuple[dict, list, bool]:
    """Per-layer values from (untraced, traced) result pairs; one accounting
    line per traced job, its wall time against its import and span self
    times; and whether those never exceed the wall time they lie within."""
    calls, self_s, errors, distinct = {}, {}, {}, {}
    eigvalsh_s = import_s = unaccounted = overhead = 0.0
    lines = []
    consistent = True
    for plain, traced in pairs:
        overhead += traced.wall_s - plain.wall_s
        if traced.spans is None:
            lines.append(f"  {traced.job.label}: no spans ({traced.failure})")
            continue
        spans = traced.spans["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent is not None:
                child[parent] += end - start
        keys = {}
        job_self = 0.0
        for i, (name, start, end, parent, raised, key) in enumerate(spans):
            own = (end - start) - child[i]
            job_self += own
            if name == EIGVALSH:
                if parent is not None and spans[parent][0] == "ness_engine.build_ness":
                    eigvalsh_s += end - start
                continue
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            errors[name] = errors.get(name, 0) + int(raised)
            if key is not None:
                keys.setdefault(name, set()).add(key)
        for name, seen in keys.items():
            distinct[name] = distinct.get(name, 0) + len(seen)
        job_import = traced.spans["import_s"]
        rest = traced.wall_s - job_import - job_self
        import_s += job_import
        unaccounted += rest
        consistent = consistent and rest >= 0
        lines.append(f"  {traced.job.label}: wall {traced.wall_s:.3f} s = import "
                     f"{job_import:.3f} + self {job_self:.3f} + unaccounted {rest:.3f}")
    values = {"cli.import_s": import_s, "trace.overhead_s": overhead,
              "trace.unaccounted_s": unaccounted}
    for name, _, _ in per_layer_specs():
        if name in values:
            continue
        span, stat = name.rsplit(".", 1)
        n = calls.get(span, 0)
        if stat == "calls":
            values[name] = n
        elif stat == "errors":
            values[name] = errors.get(span, 0)
        elif stat == "self_s":
            values[name] = self_s.get(span, 0.0)
        elif stat == "eigvalsh_s":
            values[name] = eigvalsh_s
        elif stat == "distinct_ratio":
            # a layer the workload never calls wastes nothing
            values[name] = distinct.get(span, 0) / n if n else 1.0
    return values, lines, consistent


# ---------------------------------------------------------------------------

def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, env=env)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "commit": commit,
    }


def _print_jobs(results: list) -> None:
    for r in results:
        tag = "traced " if r.traced else ""
        status = "ok" if r.failure is None else f"FAILED ({r.failure})"
        print(f"  {tag}{r.job.label}: {r.wall_s:.3f} s, {r.rss_mb:.1f} MB, {status}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hubbard_lax", "cli.py")):
        print(f"error: no hubbard_lax package under {SRC}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    # a terminated run still kills and reaps the job it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    # bytecode caching as in an installed copy, whatever the caller's setting
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

    jobs = _workload(args.workload, args.seed)
    workdir = os.path.join(HERE, "_run", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if args.trace:
            rounds = [[(run_job(j, workdir, f"{i}", False),
                        run_job(j, workdir, f"{i}t", True))
                       for i, j in enumerate(jobs)]]
        else:
            cold_start(workdir)  # warm-up: fills the bytecode cache
            setup, rounds = [], []
            start = time.perf_counter()
            while True:
                t = time.perf_counter()
                rnd = []
                for i, j in enumerate(jobs):
                    # cold starts spread over the run, one before each job
                    setup.append(cold_start(workdir))
                    rnd.append(run_job(j, workdir, f"r{len(rounds)}-{i}", False))
                rounds.append(rnd)
                # start another round only if one more fits in --seconds
                took = time.perf_counter() - t
                if time.perf_counter() - start + took > args.seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, driving "
          f"{DRIVINGS[args.seed % len(DRIVINGS)]}, {len(rounds)} round(s)")
    results = []
    for rnd in rounds:
        flat = [r for pair in rnd for r in pair] if args.trace else rnd
        _print_jobs(flat)
        results += flat
    attempted = len(results)
    failed = sum(r.failure is not None for r in results)
    correct = not any(r.incorrect for r in results)

    if args.trace:
        values, lines, consistent = layer_metrics(rounds[0])
        print("accounting of traced wall time:")
        for line in lines:
            print(line)
        correct = correct and consistent
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in per_layer_specs()}
    else:
        # each job's median over the rounds, summed over the job list
        wall = sum(statistics.median(rnd[i].charged_s for rnd in rounds)
                   for i in range(len(jobs)))
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": max(r.rss_mb for r in results), "unit": "MB"},
            "pass_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
        print(f"fail_frac {failed / attempted} failed/attempted")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
