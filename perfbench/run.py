"""Benchmark of the ``compactons`` command line, run in-process.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload catalog_verify --seed 1 --seconds 26 --trace 0

One closed-loop client calls ``compactons.cli.main`` with seeded argument
lists, one task after another, for about ``--seconds`` seconds.  Every
result is checked against an independent oracle (see ``workloads.py``).
The workloads:

- catalog_verify: ``verify`` over all 14 closed-form families (weak K, and
  weak KP where the existence table says it holds);
- numeric_verify: ``verify --numeric`` (shoot, PCHIP, weak residuals) at
  non-catalog (m, n) points, fig. 5 left and right included;
- numeric_solve: ``solve --format json -o FILE`` at non-catalog points;
- classify_cli: ``classify``, ``table1`` (compared byte for byte with
  tests/data/table1_golden.csv) and ``region`` sweeps.

A run draws one task list from its seed and makes whole passes over it:
at least one, and another only while it is expected to end within
``--seconds`` at the mean pass time so far.  So every task of the list is
measured, whatever the speed of the host or of the code under test.
Each pass runs in a process forked for it from the benchmark after its
warm-up, so nothing one pass leaves in the package's memory (a cache, a
memo) reaches the next: like a one-shot ``compactons`` process, every
pass meets each command line for the first time.  A task's time is the
fastest of its passes.  On a shared host the speed of the same
computation switches by up to 1.6x in phases of seconds, and the fastest
pass is the least disturbed; the verify workloads fill the run with one
pass, and their tasks, 0.3 to 1.5 s each, average over the phases.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; the lines above it repeat them with the
accuracy figures (fail_ratio, residual_worst, L_relerr_worst) and the
tail percentile used.  ``task_ms_p50`` and ``task_ms_tail`` are taken
over the tasks of the list.  The tail is the highest percentile with ten
tasks above it, or p75 where the list is too short for that (the verify
workloads).  ``tasks_per_s`` is the number of tasks over the sum of
their times.  ``setup_s`` is the median time of ``import compactons.cli``
in a fresh interpreter, timed before the first pass and between passes,
spread over the run, so that the imports meet the same drift in host
speed as the tasks do.

``attempted`` counts every task run of every pass, and ``failed`` every
one that missed its oracle: a raised exception,
an unexpected exit code, or a ``verify`` FAIL where the existence theory
says the profile is a weak solution (today's known numeric and
near-threshold misses included).  ``correct`` is false when an answer
is wrong or unreadable: the table1 bytes, a classify or region verdict,
the solve metadata, a verify exit code that contradicts its own printed
verdicts, or a must-pass residual beyond the limit that no known miss
reaches (``workloads.RESIDUAL_LIMIT``).

With ``--trace 1`` the benchmark makes exactly one pass, running each
task once plain and once with span wrappers installed around the
public functions of ``weakform``, ``catalog``, ``elliptic.jacobi``,
``shooting``, ``existence`` and ``cli`` (see ``spans.py``).  Per-layer
metrics are totals over the pass: ``.calls``, ``.points``, ``.nfev``
and ``.bytes`` are exact work counts, ``.s`` is the time inside a layer
and ``.self_s`` that time minus its traced children.  The accuracy
figures of the pass (``oracle.fail_ratio``, ``weakform.residual_worst``,
``weakform.quad_err_worst``, ``shooting.L_relerr_worst``) are reported
here too, without a bound.  The printed shares split the time of
``cli.main`` between the modules it calls, and ``trace.overhead`` is
traced over plain task time, minus one.  The spans are written to
``perfbench/.work/`` when the pass ends.

BLAS and OpenMP thread pools are pinned to one thread.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", ".work")
SETUP_REPEATS = 3
TAIL_BEYOND = 10

if not os.path.isfile(os.path.join(SRC, "compactons", "cli.py")):
    sys.exit("perfbench: src/compactons not found beside perfbench/")
sys.path.insert(0, SRC)
os.environ.pop("COMPACTONS_OUTPUT_DIR", None)

from compactons import cli, shooting  # noqa: E402
from compactons.params import EquationParams  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def time_import() -> float:
    """Seconds to import compactons.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import compactons.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          check=True, capture_output=True, text=True, timeout=120)
    return float(proc.stdout)


def run_task(task: workloads.Task):
    """(exit code or raised exception, captured stdout, seconds)."""
    if task.output is not None and os.path.exists(task.output):
        os.remove(task.output)   # a stale file must not pass the next check
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        t0 = perf_counter()
        try:
            code = cli.main(task.argv)
        except SystemExit as exc:   # argparse rejected the arguments
            code = exc.code
        except Exception as exc:    # a crash fails the task, not the run
            code = exc
        dt = perf_counter() - t0
    return code, out.getvalue(), dt


def attempt(task: workloads.Task):
    """(oracle outcome, seconds, bytes written) of one run of the task."""
    code, stdout, dt = run_task(task)
    return workloads.check(task, code, stdout), dt, workloads.output_bytes(task, stdout)


def run_forked(tasks) -> list:
    """``attempt`` every task in a child process forked for the purpose."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:   # child: run, send the results, and leave at once
        try:
            os.close(rfd)
            with os.fdopen(wfd, "wb") as pipe:
                pickle.dump([attempt(task) for task in tasks], pipe)
        finally:
            os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"benchmark pass process ended with status {status}")
    return pickle.loads(data)


class Tally:
    """Checked outcomes of the task runs so far."""

    def __init__(self, tasks):
        self.tasks = tasks
        self.best = [math.inf] * len(tasks)   # fastest run of each task
        self.times: list[float] = []
        self.failed = 0
        self.exact_ok = True
        self.residuals: list[float] = []
        self.L_relerr: list[float] = []
        self.bytes = 0
        self.notes: list[str] = []

    def add(self, i, outcome, dt, nbytes):
        task = self.tasks[i]
        self.best[i] = min(self.best[i], dt)
        self.times.append(dt)
        self.failed += not outcome.ok
        self.exact_ok = self.exact_ok and outcome.exact_ok
        self.residuals += outcome.residuals
        if outcome.L_relerr is not None:
            self.L_relerr.append(outcome.L_relerr)
        self.bytes += nbytes
        if not (outcome.ok and outcome.exact_ok) and len(self.notes) < 20:
            self.notes.append(f"{' '.join(task.argv)}: {outcome.note}")


def warm_up(tasks) -> None:
    """Run the first task of each kind once, untimed, so that lazy imports
    inside the package are done before timing starts."""
    seen = set()
    for task in tasks:
        if task.kind not in seen:
            seen.add(task.kind)
            run_task(task)
    # the benchmark's own heap (imports, task lists) would otherwise be
    # rescanned by every full collection, which a one-shot CLI process
    # does not pay
    gc.collect()
    gc.freeze()


def run_plain(tasks, seconds: float) -> tuple[Tally, list[float], int]:
    """Run whole passes over the tasks for about ``seconds`` of task time
    (at least one), timing the package import SETUP_REPEATS times spread
    over the run."""
    tally, setup = Tally(tasks), [time_import()]
    busy, k = 0.0, 0
    while k == 0 or busy * (k + 1) / k <= seconds:
        start = perf_counter()
        for i, result in enumerate(run_forked(tasks)):
            tally.add(i, *result)
        busy += perf_counter() - start
        k += 1
        while len(setup) < min(SETUP_REPEATS, 1 + (SETUP_REPEATS - 1) * busy / seconds):
            setup.append(time_import())
    while len(setup) < SETUP_REPEATS:
        setup.append(time_import())
    return tally, setup, k


def numeric_L_relerr(tasks) -> list[float]:
    """|L_shoot - L_quadrature| / L_quadrature at the points of the given
    verify tasks, shooting again outside the timed loop (``verify`` does
    not print L)."""
    out = []
    for task in tasks:
        m, n, a, b, g = task.expect["point"]
        try:
            nc = shooting.shoot(EquationParams(m=m, n=n, a=a, b=b), g)
        except Exception:   # the failure is already counted in the loop
            continue
        out.append(abs(nc.L_shoot - nc.L_quadrature) / nc.L_quadrature)
    return out


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    above it, and never below p75: a verify list is too short to leave ten
    tasks above a percentile higher than the median."""
    s = sorted(times)
    k = max(len(s) - TAIL_BEYOND, math.ceil(0.75 * len(s))) - 1
    return s[k], 100.0 * (k + 1) / len(s)


def end_to_end(workload, seed, seconds, draw) -> dict:
    # the warm-up draws tasks of its own, so that no timed command line
    # has run in the process the passes are forked from
    warm_up(draw(-1))
    tasks = draw(0)
    tally, setup, n_passes = run_plain(tasks, seconds)
    best, attempted = tally.best, len(tally.times)
    tail_s, tail_pct = tail(best)
    usage = max(resource.getrusage(who).ru_maxrss
                for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "tasks_per_s": (len(best) / sum(best), "1/s"),
        "task_ms_p50": (statistics.median(best) * 1e3, "ms"),
        "task_ms_tail": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (usage / 1024, "MB"),
    }
    print(f"workload {workload} seed {seed}: {len(tasks)} tasks, {n_passes} passes, "
          f"{attempted} runs, {tally.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(f"  task_ms_tail is p{tail_pct:.1f} of {len(best)} samples "
          f"(the fastest of {n_passes} runs of each task)")
    print(f"  fail_ratio {tally.failed / attempted:.6g} 1")
    if tally.residuals:
        print(f"  residual_worst {max(tally.residuals):.6g} 1")
    L_relerr = tally.L_relerr
    if workload == "numeric_verify":
        L_relerr = numeric_L_relerr(tasks)
    if L_relerr:
        print(f"  L_relerr_worst {max(L_relerr):.6g} 1")
    for note in tally.notes:
        print(f"  failed: {note}")
    return {"correct": tally.exact_ok, "attempted": attempted, "failed": tally.failed,
            "metrics": metrics}


def traced_pass(tasks) -> tuple[Tracer, Tally, float]:
    """Run each task once plain and once traced: (tracer, tally of the
    traced runs, plain seconds)."""
    tracer = Tracer()
    tally = Tally(tasks)
    plain = 0.0
    for i, task in enumerate(tasks):
        # alternate which run goes first so that neither gains warm caches
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.task_id = i
                with tracer.installed():
                    result = attempt(task)
                tally.add(i, *result)
            else:
                plain += run_task(task)[2]
    return tracer, tally, plain


def per_layer(workload, seed, seconds, draw) -> dict:
    warm_up(draw(-1))
    tasks = draw(0)
    tracer, tally, plain = traced_pass(tasks)
    os.makedirs(WORK, exist_ok=True)
    tracer.write(os.path.join(WORK, f"spans-{workload}-{seed}.csv"))

    totals = tracer.totals()
    names, under_main = totals["names"], totals["under_main"]

    def get(name, key):
        return names[name][key] if name in names else 0

    verify_calls = get("weakform.verify_weak", "calls")
    main_s = get("cli.main", "s")
    traced_s = sum(tally.times)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    for name, fields in [
        ("weakform.verify_weak", ("calls", "self_s")),
        ("weakform.evaluate_testfn", ("calls", "points", "s")),
        ("weakform.u_eval", ("calls", "points", "s")),
        ("weakform.boundary_quantities", ("s",)),
        ("weakform.endpoint_power_fit", ("s",)),
        ("catalog.construct", ("calls", "s")),
        ("catalog.first_zero", ("s",)),
        ("catalog.evaluate", ("self_s",)),
        ("elliptic.jacobi", ("calls", "points", "s")),
        ("shooting.shoot", ("calls", "self_s")),
        ("shooting.solve_ivp", ("calls", "nfev", "s")),
        ("shooting.tanhsinh", ("nfev", "s")),
        ("shooting.serialize", ("s", "bytes")),
        ("existence.classify_family", ("calls", "s")),
        ("existence.table1_intervals", ("calls", "s")),
        ("existence.region_grid", ("s",)),
        ("cli.main", ("calls", "self_s")),
    ]:
        for f in fields:
            key = "work" if f in ("nfev", "bytes") else f
            unit = "s" if f in ("s", "self_s") else "count"
            put(f"{name}.{f}", get(name, key), unit)
    put("weakform.points_per_verify",
        get("weakform.u_eval", "points") / verify_calls if verify_calls else 0.0, "count")
    put("weakform.quad_err_worst",
        max((r.quadrature_error_estimate for r in tracer.reports), default=0.0), "ratio")
    put("weakform.residual_worst",
        max((r.max_abs_scaled for r in tracer.reports), default=0.0), "ratio")
    put("shooting.L_relerr_worst",
        max((abs(nc.L_shoot - nc.L_quadrature) / nc.L_quadrature
             for nc in tracer.shoots), default=0.0), "ratio")
    put("cli.bytes_written", tally.bytes, "count")
    put("oracle.fail_ratio", tally.failed / len(tasks), "ratio")
    put("trace.tasks_per_s", len(tasks) / traced_s, "1/s")
    put("trace.overhead", traced_s / plain - 1.0, "ratio")
    print(f"workload {workload} seed {seed}: traced pass of {len(tasks)} "
          f"tasks, {len(tracer.spans)} spans, {tally.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    # where the task time goes: modules called from cli.main, and cli itself
    shares = {module: under_main[module] for module in
              ("weakform", "catalog", "shooting", "existence")}
    shares["cli"] = get("cli.main", "self_s")
    print("  share of cli.main time: " + ", ".join(
        f"{module} {s / main_s if main_s else 0.0:.3f}" for module, s in shares.items()))
    return {"correct": tally.exact_ok, "attempted": len(tasks), "failed": tally.failed,
            "metrics": metrics}


def measure(workload, seed, seconds, trace, make_tasks=workloads.make_tasks) -> dict:
    """Run one workload and return its result object (the JSON line)."""
    # a fixed-length name, so that the bytes a command prints about its
    # output file repeat exactly from run to run
    os.makedirs(WORK, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="out-", dir=WORK)
    try:
        def draw(k):
            return make_tasks(workload, seed, k, out_dir)
        result = (per_layer if trace else end_to_end)(workload, seed, seconds, draw)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    print(json.dumps(measure(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
