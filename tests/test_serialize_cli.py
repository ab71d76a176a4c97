import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weakhopf
from weakhopf import serialize
from weakhopf._linalg import rel_residual
from weakhopf.cli import main
from weakhopf.errors import InvariantViolation, SchemaError
from weakhopf.groups import cyclic
from weakhopf.weak_hopf import group_algebra, pair_groupoid


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- serialization round trips -------------------------------------------------


def test_weak_hopf_roundtrip_bit_exact():
    hopf = group_algebra(cyclic(3))
    payload = serialize.weak_hopf_payload(hopf)
    text = serialize.dumps("weak-hopf", payload)
    again = serialize.loads(text)
    parsed, index = serialize.parse_weak_hopf(again.payload)
    assert index is None
    assert serialize.dumps("weak-hopf", serialize.weak_hopf_payload(parsed)) == text
    # the sparse encoding truncates numerical noise below 1e-14
    assert rel_residual(parsed.delta, hopf.delta) < 1e-13
    assert rel_residual(parsed.antipode, hopf.antipode) < 1e-13


def test_tower_roundtrip(get_tower):
    tower = get_tower("z2")
    text = serialize.dumps("tower", serialize.tower_payload(tower))
    parsed = serialize.parse_tower(serialize.loads(text).payload)
    assert parsed.ambient.blocks == tower.ambient.blocks
    assert rel_residual(parsed.e2.vec, tower.e2.vec) == 0
    assert parsed.lam == tower.lam
    text2 = serialize.dumps("tower", serialize.tower_payload(parsed))
    assert text2 == text


def test_element_roundtrip():
    vec = np.array([1 + 2j, -0.5, 0.0, 3.25j])
    text = serialize.dumps("element", serialize.element_payload(vec))
    parsed = serialize.parse_element(serialize.loads(text).payload, 4)
    assert rel_residual(parsed, vec) == 0


def test_schema_violations():
    with pytest.raises(SchemaError):
        serialize.loads("not json at all")
    with pytest.raises(SchemaError):
        serialize.loads(json.dumps({"format": "other/9", "kind": "weak-hopf",
                                    "payload": {}}))
    with pytest.raises(SchemaError):
        serialize.parse_weak_hopf({"blocks": [0], "delta": [], "epsilon": [],
                                   "antipode": []})
    # non-square coefficient data: epsilon of the wrong length
    hopf = pair_groupoid(2)
    payload = serialize.weak_hopf_payload(hopf)
    payload["epsilon"] = payload["epsilon"][:-1]
    with pytest.raises(SchemaError):
        serialize.parse_weak_hopf(payload)


def test_tower_invariant_failure_names_e2(get_tower):
    tower = get_tower("z2")
    payload = serialize.tower_payload(tower)
    payload["e2"] = serialize.element_payload(
        tower.e2.vec * 1.5)["coefficients"]
    with pytest.raises(InvariantViolation, match="e2 not a projection"):
        serialize.parse_tower(payload)


def test_tower_invariant_failure_names_markov(get_tower):
    tower = get_tower("z2")
    payload = serialize.tower_payload(tower)
    weights = list(payload["tau"])
    weights[0] *= 2.0
    payload["tau"] = weights
    with pytest.raises(InvariantViolation, match="trace not Markov"):
        serialize.parse_tower(payload)


# -- CLI ------------------------------------------------------------------------


def test_cli_gen_verify_pipe(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gen", "pair-groupoid", "2")
    assert code == 0
    path = tmp_path / "pg2.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "verify-wha", str(path))
    assert code == 0
    assert "classification: weak Kac" in out


def test_cli_gen_group_and_function(tmp_path, capsys):
    for spec in (["group", "cyclic", "3"], ["group", "sym", "3"],
                 ["function", "cyclic", "4"]):
        code, out, _ = run_cli(capsys, "gen", *spec)
        assert code == 0
        obj = serialize.loads(out)
        assert obj.kind == "weak-hopf"


def test_cli_json_report_deterministic(tmp_path, capsys):
    path = tmp_path / "pg3.json"
    code, out, _ = run_cli(capsys, "gen", "pair-groupoid", "3")
    path.write_text(out)
    code1, out1, _ = run_cli(capsys, "--json", "verify-wha", str(path))
    code2, out2, _ = run_cli(capsys, "verify-wha", str(path), "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["payload"]["classification"] == "weak Kac"
    residuals = [c["residual"] for c in doc["payload"]["checks"]]
    assert all(len(r.split("e")) == 2 for r in residuals)


def test_cli_dual_of_group_algebra(tmp_path, capsys):
    path = tmp_path / "c3.json"
    code, out, _ = run_cli(capsys, "gen", "group", "cyclic", "3")
    path.write_text(out)
    code, out, _ = run_cli(capsys, "dual", str(path))
    assert code == 0
    hopf, _ = serialize.parse_weak_hopf(serialize.loads(out).payload)
    assert hopf.algebra.blocks == (1, 1, 1)


def test_cli_tower_reconstruct(tmp_path, capsys):
    tower_path = tmp_path / "t2.json"
    code, out, _ = run_cli(capsys, "tower", "from-group", "cyclic", "2")
    assert code == 0
    tower_path.write_text(out)
    rec_path = tmp_path / "rec.json"
    code, out, _ = run_cli(capsys, "reconstruct", str(tower_path),
                           "-o", str(rec_path))
    assert code == 0
    assert "classification: weak Kac" in out
    assert "index 2.000000" in out
    bundle = serialize.loads(rec_path.read_text())
    hopf, index = serialize.parse_weak_hopf(bundle.payload)
    assert index is not None
    assert rel_residual(index, hopf.unit_vec) < 1e-9


def test_cli_tower_outputs_do_not_depend_on_seed(tmp_path, capsys):
    # the tower commutants come from matrix units, not random splits, so the
    # seed only labels the files it is written into
    def without_seed(text):
        return re.sub(r'\n *"seed": \d+,?', "", text)

    outputs = []
    for seed in ("0", "7"):
        tower_path = tmp_path / f"t{seed}.json"
        rec_path = tmp_path / f"rec{seed}.json"
        code, _, _ = run_cli(capsys, "tower", "from-group", "cyclic", "4",
                             "--seed", seed, "-o", str(tower_path))
        assert code == 0
        code, out, _ = run_cli(capsys, "reconstruct", str(tower_path), "--json",
                               "--seed", seed, "-o", str(rec_path))
        assert code == 0
        assert f'"seed": {seed}' in out
        outputs.append((without_seed(out), without_seed(rec_path.read_text())))
    assert outputs[0] == outputs[1]


def test_cli_deform_undeform_roundtrip(tmp_path, capsys):
    hopf = pair_groupoid(2)
    base = tmp_path / "pg2.json"
    base.write_text(serialize.dumps(
        "weak-hopf", serialize.weak_hopf_payload(hopf)))
    twist = tmp_path / "h.json"
    vec = 2.0 * hopf.algebra.basis_unit(0, 0, 0).vec \
        + 0.5 * hopf.algebra.basis_unit(0, 1, 1).vec
    twist.write_text(serialize.dumps("element", serialize.element_payload(vec)))

    undeformed = tmp_path / "und.json"
    code, out, _ = run_cli(capsys, "undeform", str(base), "--h", str(twist))
    assert code == 0
    undeformed.write_text(out)
    code, out, _ = run_cli(capsys, "deform", str(undeformed),
                           "-o", str(tmp_path / "back.json"))
    assert code == 0
    assert "classification: weak Kac" in out
    back, index = serialize.parse_weak_hopf(
        serialize.loads((tmp_path / "back.json").read_text()).payload)
    assert rel_residual(back.delta, hopf.delta) < 1e-9


def test_cli_deform_requires_twist(tmp_path, capsys):
    base = tmp_path / "pg2.json"
    base.write_text(serialize.dumps(
        "weak-hopf", serialize.weak_hopf_payload(pair_groupoid(2))))
    code, _, err = run_cli(capsys, "deform", str(base))
    assert code == 2
    assert "no twist element" in err


def test_cli_crossed_product(tmp_path, capsys):
    tower_path = tmp_path / "t2.json"
    code, out, _ = run_cli(capsys, "tower", "from-group", "cyclic", "2")
    tower_path.write_text(out)
    out_path = tmp_path / "cp.json"
    code, out, _ = run_cli(capsys, "crossed-product", str(tower_path),
                           "-o", str(out_path))
    assert code == 0
    payload = serialize.loads(out_path.read_text()).payload
    assert set(payload) == {"blocks", "dim", "representatives"}
    assert payload["dim"] == 8
    assert sorted(payload["blocks"]) == [2, 2]
    # [k, x, b, re, im]: every block matrix unit has a representative tensor
    entries = payload["representatives"]
    assert {row[0] for row in entries} == set(range(8))
    assert all(len(row) == 5 and 0 <= row[1] < 4 and 0 <= row[2] < 4 for row in entries)


# name, ref and pass flag of every row of `crossed-product --json` on a
# cyclic tower, in report order
CROSSED_PRODUCT_CHECKS = [
    ('e1 idempotent', 'Jones projection', True),
    ('e1 self-adjoint', 'Jones projection', True),
    ('e2 idempotent', 'Jones projection', True),
    ('e2 self-adjoint', 'Jones projection', True),
    ("e1 in N' of M1", 'Jones projection', True),
    ("e2 in M'", 'Jones projection', True),
    ('e2 implements expectation onto M', 'Markov', True),
    ('e2 Markov trace identity', 'Markov', True),
    ('e1 implements expectation onto N', 'Markov', True),
    ('e1 Markov trace identity', 'Markov', True),
    ('e2 e1 e2 = lam e2', 'Temperley-Lieb', True),
    ('e1 e2 e1 = lam e1', 'Temperley-Lieb', True),
    ('commuting square', 'commuting square', True),
    ("products of the commutants span N'", 'non-degenerate square', True),
    ('x e2 collapse', 'Lemma 3.1', True),
    ('x e1 collapse', 'Lemma 3.1', True),
    ('M e1 M spans M1', 'Remark 4.4', True),
    ('M1 e2 M1 spans the ambient', 'Remark 4.4', True),
    ('shared Cartan inside A', 'chain', True),
    ('shared Cartan inside B', 'chain', True),
    ('Cartan subalgebras commute', 'chain', True),
    ('deformed: coassociativity', 'coalgebra', True),
    ('deformed: counit left', 'coalgebra', True),
    ('deformed: counit right', 'coalgebra', True),
    ('deformed: comultiplication multiplicative', 'axiom (1)', True),
    ('deformed: comultiplication star-preserving', 'axiom (1)', True),
    ('deformed: target counital relation', 'axiom (2)', True),
    ('deformed: target counital coproduct', 'axiom (2)', True),
    ('deformed: source counital relation', "axiom (2')", True),
    ('deformed: source counital coproduct', "axiom (2')", True),
    ('deformed: antipode target identity', 'axiom (3)', True),
    ('deformed: antipode source identity', "axiom (3')", True),
    ('deformed: antipode anti-multiplicative', 'axiom (3)', True),
    ('deformed: antipode anti-comultiplicative', 'axiom (3)', True),
    ('deformed: counit antipode-invariant', 'axiom (3)', True),
    ('deformed: star-antipode squared identity', 'axiom (3)', True),
    ('deformed: involution squared identity', 'C* structure', True),
    ('deformed: involution anti-multiplicative', 'C* structure', True),
    ('deformed: involution fixes unit', 'C* structure', True),
    ('deformed: antipode involutive', 'weak Kac', True),
    ('deformed: antipode commutes with star', 'weak Kac', True),
    ('deformed target counital map unchanged', 'Prop 5.5', True),
    ('antipode fixes the image of the index element', 'Prop 5.6', True),
    ('squared antipode is conjugation by the modular element', 'Prop 5.6', True),
    ('modular element positive', 'Remark 5.8', True),
    ('Haar projection is e2 twisted by the index element', 'Thm 5.7', True),
    ('Haar functional closed form', 'Thm 5.7', True),
    ('crossed product dimension matches the ambient', 'Prop 6.3', True),
    ('commutant dimension matches the source Cartan', 'Remark 6.4', True),
    ('commutant equals the source Cartan image', 'Remark 6.4', True),
    ('action minimal', 'minimality', True),
    ('well defined on balanced classes', 'Prop 6.3', True),
    ('bijective', 'Prop 6.3', True),
    ('multiplicative', 'Prop 6.3', True),
    ('involution-preserving', 'Prop 6.3', True),
    ('unital', 'Prop 6.3', True),
]


@pytest.mark.parametrize("order", ["2", "3"])
def test_cli_crossed_product_checks_pinned(tmp_path, capsys, order):
    tower_path = tmp_path / "t.json"
    code, out, _ = run_cli(capsys, "tower", "from-group", "cyclic", order)
    tower_path.write_text(out)
    code, out, _ = run_cli(capsys, "--json", "crossed-product", str(tower_path))
    assert code == 0
    checks = json.loads(out)["payload"]["checks"]
    assert [(c["name"], c["ref"], c["pass"]) for c in checks] == CROSSED_PRODUCT_CHECKS


def test_cli_report_reemission(tmp_path, capsys):
    path = tmp_path / "pg2.json"
    code, out, _ = run_cli(capsys, "gen", "pair-groupoid", "2")
    path.write_text(out)
    code, out, _ = run_cli(capsys, "--json", "verify-wha", str(path))
    report_path = tmp_path / "report.json"
    report_path.write_text(out)
    code, out, _ = run_cli(capsys, "report", str(report_path))
    assert code == 0
    assert "result: pass" in out


@pytest.mark.parametrize("residual, stored, expected_code, message", [
    ("1.00000e+00", True, 2, "stored as pass"),
    ("0.00000e+00", False, 2, "stored as FAIL"),
    ("1.00000e+00", False, 1, "result: FAIL"),
    # at the tolerance to six digits the stored flag decides
    ("1.00000e-09", False, 1, "result: FAIL"),
])
def test_cli_report_recomputes_pass_flags(tmp_path, capsys, residual, stored,
                                          expected_code, message):
    path = tmp_path / "pg2.json"
    code, out, _ = run_cli(capsys, "gen", "pair-groupoid", "2")
    path.write_text(out)
    code, out, _ = run_cli(capsys, "--json", "verify-wha", str(path))
    report = json.loads(out)
    assert report["payload"]["environment"]["tolerance"] == 1e-9
    report["payload"]["checks"][0].update(residual=residual, **{"pass": stored})
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report))
    code, out, err = run_cli(capsys, "report", str(report_path))
    assert code == expected_code
    assert message in out + err


@pytest.mark.parametrize("keys, value, message", [
    (("checks", 0, "residual"), "small", "not a number"),
    (("environment", "tolerance"), "tight", "not a number"),
    (("checks", 0), "coassociativity", "must be objects"),
    (("checks", 0, "pass"), "false", "not a boolean"),
], ids=["residual", "tolerance", "check-row", "pass-flag"])
def test_cli_report_malformed_is_schema_error(tmp_path, capsys, keys, value, message):
    path = tmp_path / "pg2.json"
    code, out, _ = run_cli(capsys, "gen", "pair-groupoid", "2")
    path.write_text(out)
    code, out, _ = run_cli(capsys, "--json", "verify-wha", str(path))
    report = json.loads(out)
    target = report["payload"]
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report))
    code, _, err = run_cli(capsys, "report", str(report_path))
    assert code == 2
    assert message in err


def _set_seed(payload, value):
    payload["seed"] = value


def _set_e2_entry(payload, value):
    payload["e2"][0] = value


def _set_delta(position, value):
    def edit(payload):
        entry = payload["delta"][0]
        entry[position] = value(entry[position])
    return edit


@pytest.mark.parametrize("kind, edit", [
    ("tower", lambda p: _set_seed(p, "abc")),
    ("tower", lambda p: _set_seed(p, [1])),
    ("tower", lambda p: _set_e2_entry(p, ["x", 0])),
    ("tower", lambda p: _set_e2_entry(p, [None, 0])),
    ("tower", lambda p: p.update(tau=["heavy"] * len(p["tau"]))),
    ("weak-hopf", _set_delta(0, lambda i: "a")),
    ("weak-hopf", _set_delta(0, lambda i: i + 0.7)),
    ("weak-hopf", _set_delta(3, lambda z: "x")),
    ("weak-hopf", lambda p: p["epsilon"].__setitem__(0, [[1], 0])),
], ids=["seed-string", "seed-list", "e2-string", "e2-null", "tau-string",
        "delta-index-string", "delta-index-fraction", "delta-value-string",
        "epsilon-nested"])
def test_cli_malformed_numbers_are_schema_errors(tmp_path, capsys, kind, edit):
    argv = (["tower", "from-group", "cyclic", "2"] if kind == "tower"
            else ["gen", "pair-groupoid", "2"])
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    edit(doc["payload"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    command = "reconstruct" if kind == "tower" else "verify-wha"
    code, _, err = run_cli(capsys, command, str(path))
    assert code == 2, err
    assert "Traceback" not in err
    assert err.startswith("error: ")


def test_cli_exit_codes(tmp_path, capsys):
    # schema error -> 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run_cli(capsys, "verify-wha", str(bad))
    assert code == 2
    # verification failure -> 1, with the failing axiom named
    hopf = pair_groupoid(2)
    payload = serialize.weak_hopf_payload(hopf)
    payload["epsilon"] = serialize.element_payload(
        np.array([1.0, 0, 0, 1.0]))["coefficients"]
    broken = tmp_path / "broken.json"
    broken.write_text(serialize.dumps("weak-hopf", payload))
    code, out, _ = run_cli(capsys, "verify-wha", str(broken))
    assert code == 1
    assert "FAIL counit" in out or "FAIL" in out
    assert "classification: invalid" in out
    # missing file -> 2
    code, _, _ = run_cli(capsys, "verify-wha", str(tmp_path / "missing.json"))
    assert code == 2
    # unknown command -> 2
    assert main(["frobnicate"]) == 2


def test_console_entry_point_subprocess(tmp_path):
    # the child imports the same weakhopf as this process, installed or not
    src = str(Path(weakhopf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    gen = subprocess.run([sys.executable, "-m", "weakhopf.cli",
                          "gen", "pair-groupoid", "2"],
                         capture_output=True, text=True, env=env)
    assert gen.returncode == 0
    verify = subprocess.run([sys.executable, "-m", "weakhopf.cli",
                             "verify-wha", "-"],
                            input=gen.stdout, capture_output=True, text=True,
                            env=env)
    assert verify.returncode == 0
    assert "weak Kac" in verify.stdout


def test_cli_reconstruct_report_has_each_suite_tag_once(tmp_path, capsys):
    from test_reconstruct import SUITE_REFS

    tower_path = tmp_path / "t2.json"
    code, out, _ = run_cli(capsys, "tower", "from-group", "cyclic", "2")
    tower_path.write_text(out)
    code, out, _ = run_cli(capsys, "--json", "reconstruct", str(tower_path))
    assert code == 0
    refs = [c["ref"] for c in json.loads(out)["payload"]["checks"]]
    for tag in SUITE_REFS:
        if tag == "duality":
            continue
        assert refs.count(tag) >= 1
    # the seventeen suite rows appear exactly once each
    suite_names = [
        "pairing against products", "counital pairing formula",
        "expectation comultiplicativity", "twisted multiplicativity of the coproduct",
    ]
    names = [c["name"] for c in json.loads(out)["payload"]["checks"]]
    for name in suite_names:
        assert names.count(name) == 1
