"""Run one workload in this fresh process and print JSON lines.

Started by run.py with the BLAS thread count already pinned in the
environment and ``PERFBENCH_SPAWNED`` set to the monotonic clock at spawn, so
the ``ready`` line measures interpreter start, imports and input generation.
The operations form a closed loop with one client: each starts only after the
previous one has finished.  Passes repeat until ``--seconds`` have elapsed
(at least one pass); with ``--trace 1`` half of that time runs untraced and
half traced, and only per-layer metrics are reported.
"""

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = ("tower", "multimatrix", "_linalg", "decompose", "reconstruct",
           "weak_hopf", "deform", "actions", "serialize", "cli", "report", "groups")
EPS = 2.0 ** -52  # residuals below machine epsilon count as epsilon


def emit(kind, **fields):
    sys.stdout.write(json.dumps({"kind": kind, **fields}) + "\n")
    sys.stdout.flush()


def load_program():
    """The weakhopf package of this checkout, as {module name: module}."""
    sys.path.insert(0, str(ROOT / "src"))
    modules = {name: importlib.import_module(f"weakhopf.{name}") for name in MODULES}
    origin = Path(modules["cli"].__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"weakhopf imported from {origin}, not from this checkout")
    return modules


def environment(args):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "weakhopf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "source_sha256": digest.hexdigest(),
    }


def run_op(index, label, kind, body, tracer, workloads):
    """One gated operation: a failure of any kind is recorded, never raised."""
    gate = workloads.Gate()
    tracer.op = index
    error = None
    start = time.perf_counter()
    try:
        body(gate)
    except Exception:  # the loop must go on and count the failure
        error = traceback.format_exc(limit=3).strip().splitlines()[-1]
    seconds = time.perf_counter() - start
    if error is None and gate.failures:
        error = "; ".join(gate.failures[:3])
    expected = workloads.EXPECTED_CHECKS[kind]
    if error is None and gate.checks < expected:
        error = f"evaluated {gate.checks} checks, expected at least {expected}"
    emit("op", op=index, label=label, ok=error is None, s=seconds,
         checks=gate.checks, worst=gate.worst, error=error)
    return error is None, seconds, gate


def run_passes(workload, tracer, workloads, seconds, first_op, traced):
    """Passes until ``seconds`` have elapsed; returns (pass walls, next op id,
    checks per pass, residual margins)."""
    walls, checks, margins, op = [], [], [], first_op
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        pass_start = time.perf_counter()
        latencies, worst, pass_checks, failed = [], 0.0, 0, 0
        for label, kind, body in workload.pass_ops():
            ok, op_seconds, gate = run_op(op, label, kind, body, tracer, workloads)
            op += 1
            pass_checks += gate.checks
            if ok:
                latencies.append(op_seconds)
                worst = max(worst, gate.worst)
            else:
                failed += 1
        wall = time.perf_counter() - pass_start
        walls.append(wall)
        checks.append(pass_checks)
        margins.append(math.log10(workloads.TOL / max(worst, EPS)))
        emit("pass", traced=traced, wall_s=wall, failed=failed,
             op_p50_s=statistics.median(latencies) if latencies else None,
             residual_margin_dec=margins[-1])
    return walls, op, checks, margins


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--fault", choices=("e2", "delta"))
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    spawned = float(os.environ["PERFBENCH_SPAWNED"])
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    modules = load_program()
    tracer = tracing.Tracer(modules)
    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        workload = workloads.WORKLOADS[args.workload](
            SimpleNamespace(**modules), args.seed, args.smoke, workdir, tracer, args.fault)
        emit("ready", setup_s=time.monotonic() - spawned)
        if args.setup_only:
            return 0
        env = environment(args)
        emit("environment", **env)
        budget = args.seconds / 2 if args.trace else args.seconds
        walls, next_op, _, margins = run_passes(workload, tracer, workloads, budget,
                                                0, False)
        if args.trace:
            tracer.start()
            try:
                traced, _, checks, traced_margins = run_passes(
                    workload, tracer, workloads, budget, next_op, True)
            finally:
                tracer.stop()
            layers = tracer.layer_metrics(len(traced), {
                "report.checks_evaluated": statistics.median(checks),
                "report.residual_margin_dec": statistics.median(margins + traced_margins),
                "trace.overhead_frac": statistics.median(traced) / statistics.median(walls) - 1.0,
            })
            emit("layers", metrics={k: {"value": v, "unit": u} for k, (v, u) in layers.items()})
            tracer.write(work / f"trace-{args.workload}.json", {"environment": env})
        emit("end", peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
