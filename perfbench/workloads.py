"""Workload definitions and the correctness gate.

A workload turns a seed into inputs and a pass of operations.  Every
operation reports each residual check it saw to a ``Gate``; an operation
passes only if every check passes at ``TOL``, every CLI exit code is 0, and
it evaluated at least the number of checks recorded for it below.

Why these workloads, and which layer metric should move which end-to-end
metric on which workload, is written down in README.md next to this file.

The weakhopf modules are looked up through ``weakhopf.<module>.<function>``
at call time, never bound at import, so that the traced run's span wrappers
(tracing.py) see every call the benchmark makes.
"""

import contextlib
import io
import json
import random

import numpy as np

TOL = 1e-9
ROUND_TRIP_TOL = 1e-12

# Checks each operation evaluates at the commit that defined the benchmark.
# A later change may add checks but must not drop any.
EXPECTED_CHECKS = {
    "cli_session": 157,
    "tower_chain": 94,
    "twist_structure": 63,
    "plain_structure": 21,
}


class GateError(Exception):
    """An operation broke the correctness gate."""


class Gate:
    """Collects the residual checks of one operation."""

    def __init__(self):
        self.checks = 0
        self.worst = 0.0
        self.failures = []

    def check(self, name, residual, passed=True, tol=TOL):
        residual = float(residual)
        self.checks += 1
        if residual <= tol and passed:
            self.worst = max(self.worst, residual)
        else:
            self.failures.append(f"{name}: residual {residual:.3e}")

    def report(self, report):
        """Every check of a weakhopf ``Report``."""
        for check in report.checks:
            self.check(check.name, check.residual, check.passed)

    def report_payload(self, payload):
        """Every check of a report as the CLI prints it with ``--json``."""
        for check in payload["checks"]:
            self.check(check["name"], float(check["residual"]), check["pass"])


def rel_residual(lhs, rhs):
    """Max-abs deviation relative to the larger operand, floored at 1: the
    program's own residual definition, kept here so the gate adds no calls to
    the traced kernels."""
    lhs = np.asarray(lhs, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    scale = max(float(np.abs(lhs).max(initial=0.0)),
                float(np.abs(rhs).max(initial=0.0)), 1.0)
    return float(np.abs(lhs - rhs).max(initial=0.0)) / scale


def _seed(rng):
    return rng.randrange(2 ** 31)


# -- tower_small ---------------------------------------------------------------


class TowerSmall:
    """CLI sessions on tiny towers: tower -> reconstruct -> verify-wha ->
    deform -> crossed-product, through ``weakhopf.cli.main`` in-process and
    JSON files in a scratch directory."""

    name = "tower_small"

    def __init__(self, wk, seed, smoke, workdir, tracer, fault=None):
        self.wk = wk
        self.rng = random.Random(seed)
        self.orders = (2,) if smoke else (2, 3, 4)
        self.repeats = 1 if smoke else 3
        self.workdir = workdir
        self.tracer = tracer
        self.fault = fault

    def pass_ops(self):
        ops = []
        for order in self.orders:
            for _ in range(self.repeats):
                seeds = (_seed(self.rng), _seed(self.rng))
                ops.append((f"cyclic {order}", "cli_session",
                            lambda gate, o=order, s=seeds: self._session(gate, o, *s)))
        return ops

    def _cli(self, gate, argv):
        out = io.StringIO()
        with self.tracer.span("cli." + argv[0]), contextlib.redirect_stdout(out):
            code = self.wk.cli.main(argv)
        if code != 0:
            raise GateError(f"weakhopf {' '.join(argv)} exited {code}")
        if "--json" in argv:
            gate.report_payload(json.loads(out.getvalue()).get("payload"))

    def _session(self, gate, order, tower_seed, crossed_seed):
        tower = str(self.workdir / "tower.json")
        hopf = str(self.workdir / "hopf.json")
        self._cli(gate, ["tower", "from-group", "cyclic", str(order),
                         "--seed", str(tower_seed), "-o", tower])
        if self.fault == "e2":
            _corrupt(tower, "e2")
        self._cli(gate, ["reconstruct", tower, "--json", "-o", hopf])
        if self.fault == "delta":
            _corrupt(hopf, "delta")
        self._cli(gate, ["verify-wha", hopf, "--json"])
        self._cli(gate, ["deform", hopf, "--json"])
        self._cli(gate, ["crossed-product", tower, "--json",
                         "--seed", str(crossed_seed)])


def _corrupt(path, key):
    """Negative-test fault: add 0.5 to the real part of the first stored entry
    of one payload field in a file the CLI wrote."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["payload"][key][0][-2] += 0.5
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


# -- tower_large ---------------------------------------------------------------


class TowerLarge:
    """The full library chain on the cyclic(6) tower (ambient dim 216)."""

    name = "tower_large"

    def __init__(self, wk, seed, smoke, workdir, tracer, fault=None):
        self.wk = wk
        self.rng = random.Random(seed)
        self.order = 2 if smoke else 6

    def pass_ops(self):
        seeds = (_seed(self.rng), _seed(self.rng))
        return [(f"cyclic {self.order}", "tower_chain",
                 lambda gate: self._chain(gate, *seeds))]

    def _chain(self, gate, tower_seed, crossed_seed):
        wk = self.wk
        group = wk.groups.cyclic(self.order)
        tower = wk.tower.build_tower_from_group(group, seed=tower_seed, tol=TOL)
        gate.report(wk.tower.verify_tower_premises(tower, TOL))
        rec = wk.reconstruct.reconstruct(tower, TOL)
        for name, residual in rec.cross_checks.items():
            gate.check(name, residual)
        _, dual_report = wk.reconstruct.dual_bases(tower, rec, TOL)
        gate.report(dual_report)
        gate.report(wk.reconstruct.identity_suite(tower, rec, TOL))
        gate.report(wk.reconstruct.classify(tower, rec, TOL))
        deformed, deform_report = wk.deform.deform(rec.on_b, TOL, tower=tower)
        gate.report(deform_report)
        action = wk.actions.canonical_action(tower, deformed, TOL)
        crossed = wk.actions.crossed_product(
            action, rng=np.random.default_rng(crossed_seed), tol=TOL)
        gate.check("crossed product dimension matches the ambient",
                   0.0, crossed.dim == tower.ambient.dim)
        gate.report(wk.actions.minimality(crossed, TOL))
        gate.report(wk.actions.theta_iso(tower, deformed, crossed, TOL).report)


# -- hopf_twist ----------------------------------------------------------------


class HopfTwist:
    """Structure-level checks without a tower, plus undeform/deform round
    trips on pair groupoids with seed-drawn positive central twists."""

    name = "hopf_twist"

    def __init__(self, wk, seed, smoke, workdir, tracer, fault=None):
        self.wk = wk
        self.rng = random.Random(seed)
        wh = wk.weak_hopf
        sizes = (2,) if smoke else range(2, 7)
        self.structures = [(f"pair_groupoid({n})", wh.pair_groupoid(n), True)
                           for n in sizes]
        if not smoke:
            for group_name, group in (("cyclic(12)", wk.groups.cyclic(12)),
                                      ("symmetric(4)", wk.groups.symmetric(4))):
                self.structures.append(
                    (f"group_algebra({group_name})",
                     wh.group_algebra(group, TOL, seed=_seed(self.rng)), False))
                self.structures.append(
                    (f"function_algebra({group_name})", wh.function_algebra(group), False))

    def pass_ops(self):
        ops = []
        for label, hopf, twisted in self.structures:
            seed = _seed(self.rng)
            if twisted:
                points = hopf.algebra.blocks[0]
                values = [self.rng.uniform(0.5, 2.0) for _ in range(points)]
                ops.append((label, "twist_structure",
                            lambda gate, h=hopf, s=seed, v=values: self._structure(gate, h, s, v)))
            else:
                ops.append((label, "plain_structure",
                            lambda gate, h=hopf, s=seed: self._structure(gate, h, s, None)))
        return ops

    def _structure(self, gate, hopf, seed, twist_values):
        wh = self.wk.weak_hopf
        axioms = wh.verify_axioms(hopf, TOL, seed)
        gate.report(axioms)
        wh.cartan_subalgebras(hopf, TOL, seed)
        wh.haar_projection(hopf, TOL)
        wh.haar_functional(hopf, TOL)
        wh.dual_algebra(hopf, TOL, seed)
        gate.check("double dual", wh.double_dual_residual(hopf, TOL, seed))
        wh.connectedness(hopf, TOL, seed)
        if twist_values is None:
            return
        alg = hopf.algebra
        h = sum(v * alg.basis_unit(0, i, i).vec for i, v in enumerate(twist_values))
        bundle, bundle_report = self.wk.deform.undeform(hopf, h, TOL)
        gate.report(bundle_report)
        deformed, deform_report = self.wk.deform.deform(bundle, TOL)
        gate.report(deform_report)
        back = deformed.hopf
        for name, got, want in (("delta", back.delta, hopf.delta),
                                ("epsilon", back.epsilon, hopf.epsilon),
                                ("antipode", back.antipode, hopf.antipode),
                                ("involution", back.star_matrix, hopf.star_matrix)):
            gate.check(f"deform(undeform) returns {name}",
                       rel_residual(got, want), tol=ROUND_TRIP_TOL)


WORKLOADS = {cls.name: cls for cls in (TowerSmall, TowerLarge, HopfTwist)}
