"""Benchmark of the weakhopf workbench.

    python3 perfbench/run.py --workload tower_small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

It benchmarks the ``src/weakhopf`` of the checkout that holds this file, and
fails without printing a result when there is none.  Each workload runs in a
fresh worker process (worker.py) with the BLAS thread count pinned, so peak
RSS belongs to that workload and a crash or OOM kill counts as a failed
operation.  ``setup_s`` is the median over ``SETUP_RUNS`` processes of the
time from spawn to the first operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
command exits non-zero when any operation broke the correctness gate.
``--smoke`` runs every workload at its smallest size, checks the metric names
and units against BENCHMARK.json, and checks that corrupted inputs are
counted as failed operations.  README.md explains the workloads and metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("tower_small", "tower_large", "hopf_twist")
BLAS_THREADS = 1   # pinned for steady timings; at most the CPU count
SETUP_RUNS = 5
DEADLINE_S = 170   # every run ends within 180 s


def spawn(worker_args, timeout):
    """Run one worker to completion; returns (exit code, JSON records, stderr)."""
    env = dict(os.environ, PYTHONHASHSEED="0")  # same seed, same set/dict orders
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PERFBENCH_SPAWNED"] = repr(time.monotonic())
    proc = subprocess.Popen([sys.executable, str(WORKER), *worker_args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT, env=env)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\nworker killed after {timeout:.0f} s"
    records = [json.loads(line) for line in out.splitlines()
               if line.startswith('{"kind": ')]
    return proc.returncode, records, err


def run_workload(name, seed, seconds, trace, smoke=False, fault=None):
    """One workload; returns the result object plus the worker's details."""
    start = time.monotonic()
    worker_args = ["--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
    worker_args += ["--smoke"] * smoke + (["--fault", fault] if fault else [])
    setup, errors = [], []
    for _ in range(0 if trace else SETUP_RUNS - 1):
        code, records, err = spawn(worker_args + ["--setup-only"], DEADLINE_S)
        ready = [r["setup_s"] for r in records if r["kind"] == "ready"]
        if code != 0 or not ready:
            errors.append(f"set-up run exited {code}: {err.strip()[-400:]}")
            break
        setup += ready
    if not errors:
        code, records, err = spawn(worker_args, DEADLINE_S - (time.monotonic() - start))
    else:
        code, records = 1, []
    by_kind = {}
    for record in records:
        by_kind.setdefault(record["kind"], []).append(record)
    ops = by_kind.get("op", [])
    attempted, failed = len(ops), sum(not op["ok"] for op in ops)
    errors += [f"op {op['op']} ({op['label']}): {op['error']}" for op in ops if not op["ok"]]
    if code != 0 or "end" not in by_kind:
        # the operation in flight when the worker died counts as failed
        attempted, failed = attempted + 1, failed + 1
        errors.append(f"worker exited {code}: {err.strip()[-400:]}")

    metrics = {}
    if trace:
        for layers in by_kind.get("layers", []):
            metrics = layers["metrics"]
    elif "end" in by_kind:
        passes = [p for p in by_kind["pass"] if not p["traced"]]
        setup += [r["setup_s"] for r in by_kind["ready"]]
        latencies = [p["op_p50_s"] for p in passes if p["op_p50_s"] is not None]
        values = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "op_p50_s": (statistics.median(latencies) if latencies else math.nan, "s"),
            "peak_rss_mib": (by_kind["end"][0]["peak_rss_mib"], "MiB"),
            "ops_ok_frac": ((attempted - failed) / attempted, "frac"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()
                   if math.isfinite(v)}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    environment = by_kind.get("environment", [{}])[0]
    environment.pop("kind", None)
    environment["source_commit"] = git_commit()
    passes = by_kind.get("pass", [])
    margins = [p["residual_margin_dec"] for p in passes]
    return result, {"environment": environment, "errors": errors, "passes": len(passes),
                    "residual_margin_dec": statistics.median(margins) if margins else None}


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "log", "-1", "--format=%H", "--",
                           "src/weakhopf"], capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def summarize(name, result, details):
    """Human-readable lines for one workload, printed before the result."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"{name}: {details['passes']} passes, {attempted} operations attempted, "
          f"{failed} failed (ops_failed_frac {failed / attempted:g})")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:45s} {entry['value']:.6g} {entry['unit']}")
    if details["residual_margin_dec"] is not None:
        # varies with the seed more than any bound allows, so it is reported
        # here and as a per-layer metric, not as an end-to-end one
        print(f"  {'residual_margin_dec (unbounded)':45s} "
              f"{details['residual_margin_dec']:.6g} dec")
    for error in details["errors"]:
        print(f"  FAILED {error}")
    print(json.dumps({"environment": details["environment"]}))


def smoke():
    """The benchmark's own test: every workload at its smallest size, traced
    and untraced, plus corrupted inputs that the gate must count as failed."""
    sys.path.insert(0, str(HERE))
    import tracing

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if tracing.metric_units() != expected[1]:
        problems.append("tracing.PER_LAYER does not match BENCHMARK.json per_layer")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("workloads do not match BENCHMARK.json")
    for name in WORKLOADS:
        for trace in (0, 1):
            result, details = run_workload(name, 0, 0, trace, smoke=True)
            line = json.loads(json.dumps(result, allow_nan=False))
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            where = f"{name} --trace {trace}"
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(line)}")
            if not line["correct"] or line["failed"] or line["attempted"] < 1:
                problems.append(f"{where}: gate failed: {details['errors']}")
            if got != expected[trace]:
                problems.append(f"{where}: metrics {sorted(got)} != {sorted(expected[trace])}")
            for metric, entry in line["metrics"].items():
                if set(entry) != {"value", "unit"} or not isinstance(entry["value"], (int, float)):
                    problems.append(f"{where}: malformed metric {metric}: {entry}")
            print(f"smoke {where}: {line['attempted']} operations, "
                  f"{len(line['metrics'])} metrics")
    for fault in ("e2", "delta"):
        result, details = run_workload("tower_small", 0, 0, 0, smoke=True, fault=fault)
        if result["correct"] or result["failed"] != result["attempted"] \
                or "op_p50_s" in result["metrics"]:
            problems.append(f"corrupted {fault} was not counted as a failed, untimed "
                            f"operation: {result}")
        print(f"smoke fault {fault}: {result['failed']}/{result['attempted']} failed: "
              f"{details['errors'][:1]}")
    for problem in problems:
        print(f"smoke FAILED: {problem}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test at the smallest sizes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "weakhopf" / "__init__.py").is_file():
        print(f"error: no src/weakhopf in {ROOT}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, details = run_workload(name, args.seed, args.seconds, args.trace)
        summarize(name, result, details)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
