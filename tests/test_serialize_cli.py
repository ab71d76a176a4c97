import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weakhopf
import weakhopf.cli
from weakhopf import serialize
from weakhopf._linalg import rel_residual
from weakhopf.cli import build_parser, main
from weakhopf.errors import InvariantViolation, SchemaError
from weakhopf.groups import cyclic
from weakhopf.tower import verify_tower_premises
from weakhopf.weak_hopf import group_algebra, pair_groupoid

from conftest import INCLUSIONS


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
    # the ambient trace is stored, so a disconnected tower (a3_in_s3) comes
    # back as well as a connected one
    for tower in map(get_tower, ["z2", *INCLUSIONS]):
        text = serialize.dumps("tower", serialize.tower_payload(tower))
        parsed = serialize.parse_tower(serialize.loads(text).payload)
        assert parsed.ambient.blocks == tower.ambient.blocks
        assert rel_residual(parsed.e2.vec, tower.e2.vec) == 0
        assert parsed.lam == tower.lam
        assert serialize.dumps("tower", serialize.tower_payload(parsed)) == text
        assert [row.residual for row in verify_tower_premises(parsed).checks] \
            == [row.residual for row in verify_tower_premises(tower).checks]


def test_element_roundtrip():
    vec = np.array([1 + 2j, -0.5, 0.0, 3.25j])
    text = serialize.dumps("element", serialize.element_payload(vec))
    parsed = serialize.parse_element(serialize.loads(text).payload, 4)
    assert rel_residual(parsed, vec) == 0


def _reference_enc_vec(vec):
    return [[float(np.real(z)), float(np.imag(z))] for z in np.asarray(vec, dtype=complex)]


def _reference_enc_mat(mat):
    return [_reference_enc_vec(row) for row in np.asarray(mat, dtype=complex)]


def _reference_sparse_tensor(tensor, tol=1e-14):
    entries = []
    for idx in np.argwhere(np.abs(tensor) > tol):
        z = tensor[tuple(idx)]
        entries.append([int(i) for i in idx] + [float(z.real), float(z.imag)])
    return entries


def test_array_encoders_write_the_bytes_of_the_per_element_encoders(get_pipeline,
                                                                   monkeypatch):
    pipeline = get_pipeline("z2")
    deformed = pipeline["deformed"]
    vec = np.array([1 + 2j, -0.0, complex(0.0, -0.0), -3.25j, 1e-300])
    documents = [
        ("weak-hopf", lambda: serialize.weak_hopf_payload(group_algebra(cyclic(3)))),
        ("weak-hopf", lambda: serialize.weak_hopf_payload(deformed.hopf,
                                                          deformed.index_element)),
        ("tower", lambda: serialize.tower_payload(pipeline["tower"])),
        ("crossed-product", lambda: serialize.crossed_product_payload(pipeline["crossed"])),
        ("element", lambda: serialize.element_payload(vec)),
    ]
    fast = [serialize.dumps(kind, build()) for kind, build in documents]
    monkeypatch.setattr(serialize, "_enc_vec", _reference_enc_vec)
    monkeypatch.setattr(serialize, "_enc_mat", _reference_enc_mat)
    monkeypatch.setattr(serialize, "_sparse_tensor", _reference_sparse_tensor)
    assert fast == [serialize.dumps(kind, build()) for kind, build in documents]
    assert '-0.0' in fast[-1]


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


@pytest.mark.parametrize("key", ["start", "mid", "top"])
def test_a_corrupted_tower_embedding_is_rejected(get_tower, tmp_path, capsys, key):
    # parse_tower checks every embedding of the chain with verify(); a
    # shifted entry of one image fails it, and the CLI exits 1 on the file
    payload = serialize.tower_payload(get_tower("z2"))
    payload["embeddings"][key]["images"][0][0][0] += 0.5
    message = f"embedding '{key}' is not a subalgebra"
    with pytest.raises(InvariantViolation, match=message):
        serialize.parse_tower(payload)
    path = tmp_path / "tower.json"
    path.write_text(serialize.dumps("tower", payload))
    code, _, err = run_cli(capsys, "reconstruct", str(path))
    assert code == 1
    assert message in err


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


def test_cli_gen_group_reaches_the_tolerance(capsys):
    # at tolerance 10 the regular trace of S3 is refused as not positive,
    # as group_algebra(symmetric(3), 10.0) refuses it
    assert run_cli(capsys, "gen", "group", "sym", "3", "--tolerance", "10") \
        == (1, "", "error: involution is not positive (no C* structure)\n")


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
    # the tower commutants, B_t and the fixed points come from matrix units,
    # not random splits, so the seed only labels the files it is written into
    def without_seed(text):
        return re.sub(r'\n *"seed": \d+,?', "", text)

    outputs = []
    for seed in ("0", "7"):
        tower_path = tmp_path / f"t{seed}.json"
        rec_path = tmp_path / f"rec{seed}.json"
        cp_path = tmp_path / f"cp{seed}.json"
        code, _, _ = run_cli(capsys, "tower", "from-group", "cyclic", "4",
                             "--seed", seed, "-o", str(tower_path))
        assert code == 0
        code, out, _ = run_cli(capsys, "reconstruct", str(tower_path), "--json",
                               "--seed", seed, "-o", str(rec_path))
        assert code == 0
        assert f'"seed": {seed}' in out
        code, cp_out, _ = run_cli(capsys, "crossed-product", str(tower_path), "--json",
                                  "--seed", seed, "-o", str(cp_path))
        assert code == 0
        assert f'"seed": {seed}' in cp_out
        outputs.append((without_seed(out), without_seed(rec_path.read_text()),
                        without_seed(cp_out), without_seed(cp_path.read_text())))
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


def test_cli_deform_with_a_singular_twist_names_it(tmp_path, capsys):
    # one zero diagonal entry: H has no inverse, which deform needs first
    hopf = pair_groupoid(2)
    base = tmp_path / "pg2.json"
    base.write_text(serialize.dumps("weak-hopf", serialize.weak_hopf_payload(hopf)))
    twist = tmp_path / "h.json"
    vec = 2.0 * hopf.algebra.basis_unit(0, 0, 0).vec
    twist.write_text(serialize.dumps("element", serialize.element_payload(vec)))
    code, out, err = run_cli(capsys, "deform", str(base), "--h", str(twist), "--json")
    assert code == 1
    assert out == ""
    assert err == "error: element is not invertible\n"


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


def _set_tau_weight(value):
    def edit(payload):
        payload["tau"][0] = value
    return edit


@pytest.mark.parametrize("kind, edit", [
    ("tower", _set_tau_weight("NaN")),
    ("tower", _set_tau_weight(float("inf"))),
    ("tower", lambda p: _set_e2_entry(p, [float("nan"), 0])),
    ("tower", lambda p: p.update({"lambda": True})),
    ("tower", lambda p: p["embeddings"]["start"].update(blocks=[True])),
    ("weak-hopf", lambda p: p["epsilon"].__setitem__(0, [float("nan"), 0])),
], ids=["tau-nan-string", "tau-infinity", "e2-nan", "lambda-true", "blocks-true",
        "epsilon-nan"])
def test_cli_non_finite_and_boolean_numbers_are_schema_errors(tmp_path, capsys,
                                                              kind, edit):
    argv = (["tower", "from-group", "cyclic", "2"] if kind == "tower"
            else ["gen", "pair-groupoid", "2"])
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    edit(doc["payload"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity as bare JSON literals
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


def test_cli_out_of_memory_is_exit_2(monkeypatch, capsys):
    # an input too large to allocate (cyclic 100000 asks numpy for a
    # 74.5 GiB group table) ends with one error line, not a traceback; the
    # failed allocation is simulated, nothing is allocated
    def too_large(n):
        raise MemoryError(f"Unable to allocate the table of cyclic({n})")

    monkeypatch.setattr(weakhopf.cli, "cyclic", too_large)
    code, out, err = run_cli(capsys, "tower", "from-group", "cyclic", "100000")
    assert (code, out) == (2, "")
    assert err.startswith("error: out of memory: Unable to allocate")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,block,refusal", [
    (["gen", "pair-groupoid", "3000"], None, "array is too big"),
    (["verify-wha"], 3000, "array is too big"),
    (["verify-wha"], 10 ** 10, "Maximum allowed dimension exceeded"),
], ids=["pair-groupoid", "weak-hopf blocks", "weak-hopf dimension"])
def test_cli_element_count_past_numpy_maximum_is_out_of_memory(argv, block, refusal,
                                                              tmp_path, capsys):
    # 9e6 units: numpy refuses the (d, d, d) coproduct tensor, whose byte
    # count overflows its index type, before allocating anything; at 1e20
    # units one axis alone does
    if block is not None:
        path = tmp_path / "big.json"
        path.write_text(serialize.dumps("weak-hopf", {
            "blocks": [block], "delta": [], "epsilon": [], "antipode": [],
            "involution": "adjoint"}))
        argv = [*argv, str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: out of memory: {refusal}")
    assert err.count("\n") == 1


GROUP_TABLES = [
    # schema faults: exit 2
    (5, 2, "group table must be a list of rows"),
    (None, 2, "group table must be a list of rows"),
    ("abc", 2, "group table must be a list of rows"),
    ([[0, 1], [1]], 2, "ragged group table rows"),
    ([[0, 1], 1], 2, "group table must be a list of rows"),
    ([[0.5, 1], [1, 0]], 2, "group table entry is not an integer: 0.5"),
    ([[True, False], [False, True]], 2, "group table entry is not a number: True"),
    ([["a", "b"], ["b", "a"]], 2, "group table entry is not a number: 'a'"),
    # well-formed tables that are no group: exit 1
    ([[0, 0], [0, 0]], 1, "invalid multiplication table"),
    ([[0, 1, 2], [1, 2, 0]], 1, "invalid multiplication table"),
    ([[0, 10 ** 30], [1, 0]], 1, "invalid multiplication table"),
    ([], 1, "invalid multiplication table"),
]


@pytest.mark.parametrize("table,code,message", GROUP_TABLES,
                         ids=[str(i) for i in range(len(GROUP_TABLES))])
@pytest.mark.parametrize("command", [["tower", "from-group"], ["gen", "group"]],
                         ids=["tower", "gen"])
def test_cli_group_table_faults_end_without_a_traceback(table, code, message, command,
                                                        tmp_path, capsys):
    path = tmp_path / "group.json"
    path.write_text(serialize.dumps("group", {"table": table}))
    got, out, err = run_cli(capsys, *command, "table", str(path))
    assert (got, out, err) == (code, "", f"error: {message}\n")


def test_cli_group_table_of_a_group_builds_its_tower(tmp_path, capsys):
    path = tmp_path / "group.json"
    path.write_text(serialize.dumps("group", {"table": cyclic(3).table.tolist()}))
    code, out, _ = run_cli(capsys, "tower", "from-group", "table", str(path))
    assert code == 0
    assert out == run_cli(capsys, "tower", "from-group", "cyclic", "3")[1]


@pytest.mark.parametrize("command", ["tower", "reconstruct"])
def test_cli_unwritable_output_is_an_io_error(command, tmp_path, capsys):
    # the console script exits 2 with one line on stderr, no traceback
    target = str(tmp_path / "missing" / "out.json")
    argv = ["tower", "from-group", "cyclic", "2", "-o", target]
    if command == "reconstruct":
        tower_path = tmp_path / "t2.json"
        tower_path.write_text(run_cli(capsys, *argv[:-2])[1])
        argv = ["reconstruct", str(tower_path), "-o", target]
    src = str(Path(weakhopf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "weakhopf.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 2
    assert done.stderr.startswith("error: cannot write")
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("option", [
    ("--tolerance", "nan"), ("--tolerance", "-1"), ("--tolerance", "inf"),
    ("--tolerance", "0"), ("--tolerance", "tiny"), ("--seed", "-1"), ("--seed", "1.5"),
], ids=lambda option: f"{option[0][2:]}={option[1]}")
@pytest.mark.parametrize("place", ["before", "after"])
def test_cli_global_options_are_checked_at_parse_time(option, place, capsys):
    # the tolerance is a finite real > 0 and the seed an integer >= 0
    command = ["gen", "group", "cyclic", "4"]
    argv = [*option, *command] if place == "before" else [*command, *option]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"argument {option[0]}: invalid" in err
    valid = ("--tolerance", "1e-6") if option[0] == "--tolerance" else ("--seed", "3")
    argv = [*valid, *command] if place == "before" else [*command, *valid]
    assert run_cli(capsys, *argv)[0] == 0


def test_cli_gen_pair_groupoid_takes_one_spec(capsys):
    code, out, err = run_cli(capsys, "gen", "pair-groupoid", "3", "junk")
    assert (code, out) == (2, "")
    assert err == "error: usage: gen pair-groupoid N\n"


def test_cli_parser_built_once_keeps_no_options_between_calls(tmp_path, capsys):
    path = tmp_path / "pg2.json"
    path.write_text(run_cli(capsys, "gen", "pair-groupoid", "2")[1])
    calls = [("--json", "verify-wha", str(path)),
             ("verify-wha", str(path)),
             ("verify-wha", str(path), "--tolerance", "1e-30"),
             ("verify-wha", str(path)),
             ("--tolerance", "1e-30", "--json", "verify-wha", str(path)),
             ("verify-wha", str(path))]
    in_one_process = [run_cli(capsys, *argv) for argv in calls]
    assert build_parser() is build_parser()
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert in_one_process == fresh
    # the calls differ: --json and --tolerance reached only their own call
    assert [code for code, _, _ in fresh] == [0, 0, 1, 0, 1, 0]
    assert fresh[0][1].startswith("{") and not fresh[1][1].startswith("{")
    assert fresh[1][1] == fresh[3][1] == fresh[5][1]


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
