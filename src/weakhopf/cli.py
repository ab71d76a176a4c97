"""Command-line front end.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage or I/O error
(including a stored report whose pass flags contradict its residuals).
Files named ``-`` read stdin; generated objects go to stdout so commands
compose with pipes.
"""

import argparse
import math
import sys

import numpy as np

from . import serialize
from .actions import canonical_action, crossed_product, minimality, theta_iso
from .deform import deform, undeform
from .errors import InconsistentReport, SchemaError, WorkbenchError
from .groups import FiniteGroup, cyclic, symmetric
from .reconstruct import (
    StructureBundle,
    classify,
    dual_bases,
    identity_suite,
    reconstruct,
)
from .report import Report
from .tower import build_tower_from_group, verify_tower_premises
from .weak_hopf import (
    cartan_subalgebras,
    connectedness,
    dual_algebra,
    function_algebra,
    group_algebra,
    haar_functional,
    haar_projection,
    pair_groupoid,
    verify_axioms,
)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _write_out(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _load(path: str, kind: str) -> dict:
    obj = serialize.loads(_read(path))
    if obj.kind != kind:
        raise SchemaError(f"expected a {kind} object, found {obj.kind}")
    return obj.payload


def _emit_report(args, report: Report) -> int:
    report.tolerance = args.tolerance
    if args.json:
        print(serialize.report_object(report))
    else:
        print(report.render_table())
    return 0 if report.passed else 1


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise SchemaError(f"expected an integer, got {text!r}") from exc


def _group_from_spec(kind: str, value: str) -> FiniteGroup:
    if kind == "cyclic":
        return cyclic(_int(value))
    if kind == "sym":
        return symmetric(_int(value))
    if kind == "table":
        payload = _load(value, "group")
        return FiniteGroup(payload.get("table"))
    raise SchemaError(f"unknown group kind {kind!r}")


# -- commands ----------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.generator == "pair-groupoid":
        hopf = pair_groupoid(_int(args.spec[0]))
    elif args.generator == "group":
        if len(args.spec) != 2:
            raise SchemaError("usage: gen group {cyclic|sym|table} VALUE")
        hopf = group_algebra(_group_from_spec(*args.spec), seed=args.seed)
    elif args.generator == "function":
        if len(args.spec) != 2:
            raise SchemaError("usage: gen function {cyclic|sym|table} VALUE")
        hopf = function_algebra(_group_from_spec(*args.spec))
    else:
        raise SchemaError(f"unknown generator {args.generator!r}")
    payload = serialize.weak_hopf_payload(hopf)
    _write_out(args, serialize.dumps("weak-hopf", payload, args.tolerance, args.seed))
    return 0


def cmd_verify_wha(args) -> int:
    hopf, _ = serialize.parse_weak_hopf(_load(args.file, "weak-hopf"))
    report = verify_axioms(hopf, args.tolerance, args.seed)
    if report.classification != "invalid":
        cartan_subalgebras(hopf, args.tolerance, args.seed)
        haar_projection(hopf, args.tolerance)
        haar_functional(hopf, args.tolerance)
        report.add_flag("integrals solvable", True, ref="integrals")
        conn = connectedness(hopf, args.tolerance, args.seed)
        report.add_info("connected", 0.0 if conn[0] else 1.0, ref="connectedness",
                        note=f"connected={conn[0]} dual={conn[1]} bi={conn[2]}")
    return _emit_report(args, report)


def cmd_dual(args) -> int:
    hopf, _ = serialize.parse_weak_hopf(_load(args.file, "weak-hopf"))
    dual = dual_algebra(hopf, args.tolerance, args.seed)
    payload = serialize.weak_hopf_payload(dual.hopf)
    _write_out(args, serialize.dumps("weak-hopf", payload, args.tolerance, args.seed))
    return 0


def cmd_tower(args) -> int:
    if args.source != "from-group":
        raise SchemaError(f"unknown tower source {args.source!r}")
    group = _group_from_spec(*args.spec)
    tower = build_tower_from_group(group, seed=args.seed, tol=args.tolerance)
    payload = serialize.tower_payload(tower)
    _write_out(args, serialize.dumps("tower", payload, args.tolerance, args.seed))
    return 0


def cmd_reconstruct(args) -> int:
    tower = serialize.parse_tower(_load(args.file, "tower"), args.tolerance)
    report = verify_tower_premises(tower, args.tolerance)
    rec = reconstruct(tower, args.tolerance)
    _, dual_rep = dual_bases(tower, rec, args.tolerance)
    report.extend(dual_rep)
    report.extend(identity_suite(tower, rec, args.tolerance))
    cls = classify(tower, rec, args.tolerance)
    report.extend(cls)
    report.classification = cls.classification
    report.title = "tower reconstruction report"
    if args.out:
        payload = serialize.weak_hopf_payload(rec.on_b.hopf, rec.on_b.index_element)
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(serialize.dumps("weak-hopf", payload,
                                         args.tolerance, args.seed) + "\n")
    return _emit_report(args, report)


def _load_bundle(args) -> StructureBundle:
    hopf, index = serialize.parse_weak_hopf(_load(args.file, "weak-hopf"))
    if getattr(args, "h", None):
        index = serialize.parse_element(_load(args.h, "element"), hopf.dim)
    if index is None:
        raise SchemaError("no twist element: payload has no H and no --h file given")
    return StructureBundle(hopf, index)


def cmd_deform(args) -> int:
    bundle = _load_bundle(args)
    deformed, report = deform(bundle, args.tolerance)
    if args.out:
        payload = serialize.weak_hopf_payload(deformed.hopf, deformed.index_element)
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(serialize.dumps("weak-hopf", payload,
                                         args.tolerance, args.seed) + "\n")
    return _emit_report(args, report)


def cmd_undeform(args) -> int:
    hopf, _ = serialize.parse_weak_hopf(_load(args.file, "weak-hopf"))
    h = serialize.parse_element(_load(args.h, "element"), hopf.dim)
    bundle, _ = undeform(hopf, h, args.tolerance)
    payload = serialize.weak_hopf_payload(bundle.hopf, bundle.index_element)
    _write_out(args, serialize.dumps("weak-hopf", payload, args.tolerance, args.seed))
    return 0


def cmd_crossed_product(args) -> int:
    tower = serialize.parse_tower(_load(args.file, "tower"), args.tolerance)
    report = verify_tower_premises(tower, args.tolerance)
    rec = reconstruct(tower, args.tolerance)
    deformed, drep = deform(rec.on_b, args.tolerance, tower=tower)
    report.extend(drep)
    action = canonical_action(tower, deformed, args.tolerance)
    rng = np.random.default_rng(args.seed)
    crossed = crossed_product(action, rng=rng, tol=args.tolerance)
    report.add_flag("crossed product dimension matches the ambient",
                    crossed.dim == tower.ambient.dim, ref="Prop 6.3",
                    note=f"dim {crossed.dim} vs {tower.ambient.dim}")
    report.extend(minimality(crossed, args.tolerance))
    theta = theta_iso(tower, deformed, crossed, args.tolerance)
    report.extend(theta.report)
    report.title = "crossed product report"
    if args.out:
        payload = serialize.crossed_product_payload(crossed)
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(serialize.dumps("crossed-product", payload,
                                         args.tolerance, args.seed) + "\n")
    return _emit_report(args, report)


def cmd_report(args) -> int:
    from .report import Check

    payload = _load(args.file, "report")
    env = payload.get("environment", {})
    checks = payload.get("checks", [])
    if not isinstance(env, dict) or not isinstance(checks, list) \
            or not all(isinstance(item, dict) for item in checks):
        raise SchemaError("report environment and check rows must be objects")
    report = Report(tolerance=serialize.number(env.get("tolerance", args.tolerance),
                                               "tolerance"),
                    seed=serialize.number(env.get("seed", 0), "seed", int),
                    title=payload.get("title", ""))
    report.classification = payload.get("classification")
    for item in checks:
        name = item.get("name", "")
        residual = serialize.number(item.get("residual", "0"), f"residual of {name!r}")
        stored = item.get("pass", False)
        if not isinstance(stored, bool):
            raise SchemaError(f"pass flag of {name!r} is not a boolean: {stored!r}")
        passed = residual <= report.tolerance
        # residuals are stored to six significant digits: a stored flag that
        # this rounding cannot decide against the tolerance is kept
        if math.isclose(residual, report.tolerance, rel_tol=1e-5):
            passed = stored
        if stored != passed:
            raise InconsistentReport(
                f"check {name!r} is stored as {'pass' if stored else 'FAIL'} but has "
                f"residual {residual:.6e} at tolerance {report.tolerance:g}")
        report.checks.append(Check(name, item.get("ref", ""), residual, passed,
                                   item.get("note", "")))
    args.tolerance = report.tolerance
    return _emit_report(args, report)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tolerance", type=float, default=argparse.SUPPRESS,
                        help="residual tolerance (default 1e-9)")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for randomized block splits (default 0)")
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit reports as JSON")

    parser = argparse.ArgumentParser(
        prog="weakhopf",
        description="workbench for finite-dimensional weak Kac and weak "
                    "C*-Hopf algebras")
    parser.add_argument("--tolerance", type=float,
                        help="residual tolerance (default 1e-9)")
    parser.add_argument("--seed", type=int,
                        help="seed for randomized block splits (default 0)")
    parser.add_argument("--json", action="store_true",
                        help="emit reports as JSON")
    parser.set_defaults(tolerance=1e-9, seed=0, json=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("gen", help="generate a weak Hopf structure")
    p.add_argument("generator", choices=["pair-groupoid", "group", "function"])
    p.add_argument("spec", nargs="+")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_gen)

    p = add_parser("verify-wha", help="verify the structure axioms")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify_wha)

    p = add_parser("dual", help="dual structure")
    p.add_argument("file")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_dual)

    p = add_parser("tower", help="build a two-step tower")
    p.add_argument("source", choices=["from-group"])
    p.add_argument("spec", nargs=2, metavar=("KIND", "VALUE"))
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_tower)

    p = add_parser("reconstruct", help="reconstruct the duality structure")
    p.add_argument("file")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_reconstruct)

    p = add_parser("deform", help="twist into a weak C*-Hopf algebra")
    p.add_argument("file")
    p.add_argument("--h", dest="h", metavar="ELEMENTFILE")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_deform)

    p = add_parser("undeform", help="synthesize a twisted bundle")
    p.add_argument("file")
    p.add_argument("--h", dest="h", metavar="ELEMENTFILE", required=True)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_undeform)

    p = add_parser("crossed-product", help="canonical action and crossed product")
    p.add_argument("file")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_crossed_product)

    p = add_parser("report", help="re-check and re-emit a stored report")
    p.add_argument("file")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except np.linalg.LinAlgError as exc:
        print(f"error: linear algebra failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
