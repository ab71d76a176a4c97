"""Spans and kernel profiles for the traced run.

Nothing here edits the program.  ``Tracer.start`` replaces each stage
function listed in ``STAGES`` by a wrapper in every ``weakhopf`` module that
refers to it, so calls from the benchmark and from inside the CLI both open a
span: name, start, end, parent span, operation id and tracemalloc peak.
Kernels below the stages are timed and counted by ``cProfile``.  The traced
run reports no end-to-end metric; its wall time against the untraced passes
of the same run is reported as ``trace.overhead_frac``.
"""

import cProfile
import contextlib
import functools
import json
import pstats
import sys
import time
import tracemalloc
from collections import defaultdict

MIB = 2 ** 20

# Stage functions, by weakhopf module, that get a span on every call.
STAGES = {
    "tower": ("build_tower_from_group", "verify_tower_premises"),
    "reconstruct": ("reconstruct", "dual_bases", "identity_suite", "classify"),
    "deform": ("deform", "undeform"),
    "actions": ("canonical_action", "crossed_product", "minimality", "theta_iso"),
    "weak_hopf": ("verify_axioms", "cartan_subalgebras", "haar_projection",
                  "haar_functional", "dual_algebra", "double_dual_residual",
                  "connectedness"),
    "serialize": ("dumps", "loads", "parse_tower", "parse_weak_hopf"),
}

# Per-layer metrics as <layer>.<function> and the quantities reported for it.
# The layer is the weakhopf module, except that ``linalg`` stands for
# ``weakhopf._linalg`` (a metric name may not start with "_") and ``cli.<cmd>``
# is one CLI command called by the benchmark.  Values are per traced pass.
PER_LAYER = [
    ("tower.build_tower_from_group", ("s", "peak_mib")),
    ("tower.verify_tower_premises", ("s", "peak_mib")),
    ("multimatrix.basic_construction", ("s", "calls")),
    ("linalg.orthonormal_columns", ("s", "calls")),
    ("decompose.decompose_structure_algebra", ("s", "calls")),
    ("multimatrix.subalgebra_from_basis", ("s", "calls")),
    ("multimatrix.relative_commutant", ("s", "calls")),
    ("actions.crossed_product", ("s", "peak_mib")),
    ("actions.minimality", ("s", "peak_mib")),
    ("actions.canonical_action", ("s",)),
    ("actions.theta_iso", ("s",)),
    ("weak_hopf.verify_axioms", ("s", "calls", "peak_mib")),
    ("deform.deform", ("s", "peak_mib")),
    ("deform.undeform", ("s",)),
    ("deform.check_bundle", ("s", "calls")),
    ("reconstruct.identity_suite", ("s", "peak_mib")),
    ("weak_hopf.cartan_subalgebras", ("s",)),
    ("weak_hopf.haar_projection", ("s",)),
    ("weak_hopf.haar_functional", ("s",)),
    ("weak_hopf.dual_algebra", ("s",)),
    ("weak_hopf.double_dual_residual", ("s",)),
    ("weak_hopf.connectedness", ("s",)),
    ("reconstruct.reconstruct", ("s", "peak_mib")),
    ("reconstruct.dual_bases", ("s",)),
    ("reconstruct.classify", ("s",)),
    ("multimatrix.mul_vecs", ("s", "calls")),
    ("multimatrix.pairwise_mul", ("s", "calls")),
    ("linalg.null_space", ("s", "calls")),
    ("linalg.numeric_rank", ("s", "calls")),
    ("linalg.rel_residual", ("s", "calls")),
    ("serialize.dumps", ("s", "bytes")),
    ("serialize.loads", ("s",)),
    ("serialize.parse_tower", ("s",)),
    ("serialize.parse_weak_hopf", ("s",)),
    ("cli.tower", ("s",)),
    ("cli.reconstruct", ("s",)),
    ("cli.verify-wha", ("s",)),
    ("cli.deform", ("s",)),
    ("cli.crossed-product", ("s",)),
]
UNITS = {"s": "s", "calls": "count", "peak_mib": "MiB", "bytes": "bytes"}

# Per-pass figures the worker measures itself, with their units.
PASS_TOTALS = {
    "report.checks_evaluated": "count",
    "report.residual_margin_dec": "dec",
    "trace.overhead_frac": "frac",
}

# Retry ratios of the two block-splitting helpers: profiled calls of the split
# step over decompositions that got past the retry loop.
#   name: (module, split step, (module, function) called once per success,
#          caller of that function or None for any caller)
SPLIT_RATIOS = {
    "decompose.split_attempts_per_success":
        ("decompose", "_split", ("decompose", "_verify_units"), None),
    "multimatrix.split_attempts_per_success":
        ("multimatrix", "_split_into_matrix_units",
         ("multimatrix", "require_valid"), "subalgebra_from_basis"),
}


def metric_units():
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for layer, quantities in PER_LAYER:
        for quantity in quantities:
            units[f"{layer}.{quantity}"] = UNITS[quantity]
    for name in SPLIT_RATIOS:
        units[name] = "ratio"
    units.update(PASS_TOTALS)
    return units


class Tracer:
    """Stage spans and a kernel profile, recorded only while started."""

    def __init__(self, modules):
        self.modules = modules  # weakhopf module name -> module
        self.active = False
        self.op = None          # id of the operation the next spans belong to
        self.spans = []
        self._stack = []
        self._patched = []
        self.profiler = cProfile.Profile()

    @contextlib.contextmanager
    def span(self, name):
        if not self.active:
            yield None
            return
        if self._stack:
            parent = self._stack[-1]
            parent["max_traced"] = max(parent["max_traced"],
                                       tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        record = {"id": len(self.spans), "name": name, "op": self.op,
                  "parent": self._stack[-1]["id"] if self._stack else None,
                  "base": tracemalloc.get_traced_memory()[0], "max_traced": 0,
                  "children_s": 0.0}
        self.spans.append(record)
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            peak = max(record["max_traced"], tracemalloc.get_traced_memory()[1])
            record["peak_mib"] = (peak - record["base"]) / MIB
            if self._stack:
                parent = self._stack[-1]
                parent["max_traced"] = max(parent["max_traced"], peak)
                parent["children_s"] += record["end"] - record["start"]
            tracemalloc.reset_peak()

    def _wrap(self, name, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = func(*args, **kwargs)
                if record is not None and isinstance(result, str):
                    record["bytes"] = len(result.encode("utf-8"))
                return result
        return wrapper

    def start(self):
        loaded = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "weakhopf" or name.startswith("weakhopf."))]
        for module_name, functions in STAGES.items():
            module = self.modules.get(module_name)
            for function in functions:
                original = getattr(module, function, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{module_name}.{function}", original)
                for mod in loaded:
                    for attr in [a for a, v in vars(mod).items() if v is original]:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        tracemalloc.start()
        self.active = True
        self.profiler.enable()

    def stop(self):
        self.profiler.disable()
        self.active = False
        tracemalloc.stop()
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def _profile(self):
        """(module, function) -> [calls, cumulative s, {caller function: calls}]."""
        table = defaultdict(lambda: [0, 0.0, defaultdict(int)])
        for (filename, _, function), (_, calls, _, cumulative, callers) in \
                pstats.Stats(self.profiler).stats.items():
            path = filename.replace("\\", "/")
            if "/weakhopf/" not in path or not path.endswith(".py"):
                continue
            entry = table[(path.rsplit("/", 1)[1][:-3], function)]
            entry[0] += calls
            entry[1] += cumulative
            for (_, _, caller), counts in callers.items():
                entry[2][caller] += counts[0]
        return table

    def layer_metrics(self, passes, totals):
        """Per-layer metrics per traced pass: {name: (value, unit)}, with
        ``totals`` giving the values of ``PASS_TOTALS``."""
        profile = self._profile()
        spans = defaultdict(list)
        for record in self.spans:
            spans[record["name"]].append(record)
        units = metric_units()
        out = {}
        for layer, quantities in PER_LAYER:
            module, function = layer.split(".", 1)
            module = "_linalg" if module == "linalg" else module
            spanned = module == "cli" or function in STAGES.get(module, ())
            for quantity in quantities:
                name = f"{layer}.{quantity}"
                if spanned:
                    records = spans[f"{module}.{function}"]
                    value = {
                        "s": sum(r["end"] - r["start"] for r in records) / passes,
                        "calls": len(records) / passes,
                        "peak_mib": max((r["peak_mib"] for r in records), default=0.0),
                        "bytes": sum(r.get("bytes", 0) for r in records) / passes,
                    }[quantity]
                else:
                    calls, cumulative, _ = profile.get((module, function), (0, 0.0, {}))
                    value = {"s": cumulative / passes, "calls": calls / passes}[quantity]
                out[name] = (value, units[name])
        for name, (module, step, (succ_module, succ_function), caller) in SPLIT_RATIOS.items():
            attempts = profile.get((module, step), (0, 0.0, {}))[0]
            _, _, callers = profile.get((succ_module, succ_function), (0, 0.0, {}))
            successes = sum(n for c, n in callers.items() if caller is None or c == caller)
            out[name] = (attempts / successes if successes else 0.0, units[name])
        for name in PASS_TOTALS:
            out[name] = (totals[name], units[name])
        return out

    def write(self, path, header):
        """Spans with their self time, as one JSON document."""
        spans = [{"id": r["id"], "name": r["name"], "op": r["op"], "parent": r["parent"],
                  "start": r["start"], "end": r["end"],
                  "self_s": r["end"] - r["start"] - r["children_s"],
                  "peak_mib": r["peak_mib"]} for r in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "spans": spans}, handle)
