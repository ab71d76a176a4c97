"""Stage table of the cyclic(n) tower chain: the wall time and the running
peak RSS of each of its eleven stages, for several group orders.

    python tools/stage_table.py 6 8 10

Each order runs in a fresh process, so the running peak (``ru_maxrss``,
which never falls) belongs to that order alone, with OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS set to 1 before numpy loads.  It imports
the ``src/weakhopf`` of the checkout that holds this file.  The table is
printed in Markdown, one column per order: a cell is the wall time, plus the
running peak in MiB when the stage raised it.  The command exits non-zero
when a report of the chain fails or an order's process does.
"""

import argparse
import importlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-9
STAGES = ("build_tower", "verify_premises", "reconstruct", "dual_bases",
          "identity_suite", "classify", "deform", "canonical_action",
          "crossed_product", "minimality", "theta_iso")


def chain(order: int):
    """Run the chain at ``order``, printing one JSON line per stage."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from weakhopf.groups import cyclic

    # the package exports functions that shadow these module names
    tower_mod, rec_mod, deform_mod, actions = (
        importlib.import_module(f"weakhopf.{name}")
        for name in ("tower", "reconstruct", "deform", "actions"))
    state = {}

    def keep(key, value, report=None):
        state[key] = value
        return report

    # each stage returns its report, if it has one, which must pass
    steps = {
        "build_tower": lambda: keep(
            "tower", tower_mod.build_tower_from_group(cyclic(order), tol=TOL)),
        "verify_premises": lambda: tower_mod.verify_tower_premises(state["tower"], TOL),
        "reconstruct": lambda: keep("rec", rec_mod.reconstruct(state["tower"], TOL)),
        "dual_bases": lambda: rec_mod.dual_bases(state["tower"], state["rec"], TOL)[1],
        "identity_suite": lambda: rec_mod.identity_suite(state["tower"], state["rec"], TOL),
        "classify": lambda: rec_mod.classify(state["tower"], state["rec"], TOL),
        "deform": lambda: keep("deformed", *deform_mod.deform(
            state["rec"].on_b, TOL, tower=state["tower"])),
        "canonical_action": lambda: keep("action", actions.canonical_action(
            state["tower"], state["deformed"], TOL)),
        "crossed_product": lambda: keep("crossed", actions.crossed_product(
            state["action"], rng=np.random.default_rng(0), tol=TOL)),
        "minimality": lambda: actions.minimality(state["crossed"], TOL),
        "theta_iso": lambda: actions.theta_iso(
            state["tower"], state["deformed"], state["crossed"], TOL).report,
    }
    for stage in STAGES:
        start = time.perf_counter()
        report = steps[stage]()
        wall = time.perf_counter() - start
        if report is not None:
            report.require_passed(stage)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps({"stage": stage, "s": wall, "peak_mib": peak}), flush=True)


def measure(order: int) -> list[dict]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, __file__, "--child", str(order)],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"order {order} failed:\n{proc.stderr.strip()}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def seconds(value: float) -> str:
    return f"{value:.2f} s" if value < 10 else f"{value:.1f} s"


def table(orders: list[int], runs: list[list[dict]]) -> str:
    rows = [["stage"] + [f"n={n} ({n ** 3})" for n in orders]]
    for i, stage in enumerate(STAGES):
        cells = [stage]
        for run in runs:
            before = run[i - 1]["peak_mib"] if i else 0.0
            cell = seconds(run[i]["s"])
            if round(run[i]["peak_mib"]) > round(before):
                cell += f" / {run[i]['peak_mib']:.0f}"
            cells.append(cell)
        rows.append(cells)
    rows.append(["**end to end**"] + [
        f"{seconds(sum(r['s'] for r in run))} / {run[-1]['peak_mib']:.0f}" for run in runs])
    widths = [max(len(row[j]) for row in rows) for j in range(len(rows[0]))]
    lines = ["| " + " | ".join(cell.ljust(w) for cell, w in zip(row, widths)) + " |"
             for row in rows]
    lines.insert(1, "|" + "|".join("-" * (w + 2) for w in widths) + "|")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("orders", nargs="*", type=int, default=[6, 8, 10])
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child is not None:
        chain(args.child)
        return
    runs = [measure(order) for order in args.orders]
    print(table(args.orders, runs))


if __name__ == "__main__":
    main()
