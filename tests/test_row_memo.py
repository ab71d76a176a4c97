"""The row memo of ``WeakHopfData``: each axiom row is evaluated once per
structure and twist, the reports read exactly the values a direct call of the
row gives, a changed structure never sees the memo of the one it came from,
and ``deform`` at a trivial index element returns its input."""

import dataclasses
import importlib
import sys
from collections import Counter

import numpy as np
import pytest

from weakhopf import axioms
from weakhopf._linalg import rel_residual
from weakhopf.actions import canonical_action
from weakhopf.deform import check_bundle, deform, undeform
from weakhopf.errors import InvariantViolation
from weakhopf.groups import cyclic, symmetric
from weakhopf.reconstruct import StructureBundle, classify, identity_suite, reconstruct
from weakhopf.tower import build_tower_from_group
from weakhopf.weak_hopf import (
    _AXIOM_ROWS,
    cartan_subalgebras,
    connectedness,
    double_dual_residual,
    dual_algebra,
    function_algebra,
    group_algebra,
    haar_functional,
    haar_projection,
    pair_groupoid,
    verify_axioms,
)

from test_product_rows import perturbed

TOL = 1e-9
COUNTED = ("coassociativity", "multiplicativity", "star_preserving",
           "target_counital_absorption", "anti_comultiplicative")


def count_row_calls(run):
    """Run ``run()`` and count the evaluations of the ``COUNTED`` rows of
    :mod:`weakhopf.axioms`, whoever holds a reference to them: every call
    of a row's code object is one evaluation."""
    codes = {getattr(axioms, name).__code__: name for name in COUNTED}
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


def central_twist(hopf, values):
    alg = hopf.algebra
    return sum(v * alg.basis_unit(0, i, i).vec for i, v in enumerate(values))


def test_the_cyclic3_chain_evaluates_each_row_once(get_tower):
    tower = get_tower("z3")

    def chain():
        rec = reconstruct(tower, TOL)
        assert identity_suite(tower, rec, TOL).passed
        assert classify(tower, rec, TOL).passed
        deformed, rep = deform(rec.on_b, TOL, tower=tower)
        assert rep.passed
        canonical_action(tower, deformed, TOL)

    counts = count_row_calls(chain)
    # multiplicativity twice: twisted by H^-1 (suite, bundle) and untwisted
    # (axioms); H = 1 only to rounding, so the two keys differ
    assert counts == {"coassociativity": 1, "multiplicativity": 2, "star_preserving": 1,
                      "target_counital_absorption": 1, "anti_comultiplicative": 1}


def test_a_twist_operation_evaluates_each_row_three_times():
    """The hopf_twist operation on a fresh pair groupoid: the input, the
    undeformed bundle and the deformed structure, one evaluation each."""
    def operation():
        hopf = pair_groupoid(3)
        assert verify_axioms(hopf, TOL).passed
        cartan_subalgebras(hopf, TOL)
        haar_projection(hopf, TOL)
        haar_functional(hopf, TOL)
        dual_algebra(hopf, TOL)
        assert double_dual_residual(hopf, TOL) <= TOL
        connectedness(hopf, TOL)
        bundle, rep = undeform(hopf, central_twist(hopf, (1.5, 0.75, 1.2)), TOL)
        assert rep.passed
        _, rep = deform(bundle, TOL)
        assert rep.passed

    assert count_row_calls(operation) == {name: 3 for name in COUNTED}


# -- the memo cannot hide a fault ---------------------------------------------------


@pytest.mark.parametrize("tensor", ["delta", "epsilon", "antipode", "involution"])
def test_structure_tensors_are_read_only(tensor):
    hopf = pair_groupoid(2)
    bundle, _ = undeform(hopf, central_twist(hopf, (2.0, 0.5)))
    value = getattr(bundle.hopf, tensor)
    with pytest.raises(ValueError, match="read-only"):
        value[(0,) * value.ndim] += 1.0


def _warm_reconstruction(tower):
    """A fresh reconstruction whose structure memo every report has filled."""
    rec = reconstruct(tower, TOL)
    assert identity_suite(tower, rec, TOL).passed
    assert classify(tower, rec, TOL).passed
    assert deform(rec.on_b, TOL, tower=tower)[1].passed
    return rec


def _fails(report_of):
    """A report trips when it fails or its caller refuses the input."""
    try:
        return not report_of().passed
    except InvariantViolation:
        return True


@pytest.mark.parametrize("tensor", ["delta", "epsilon", "antipode", "involution"])
def test_a_perturbed_copy_trips_every_report_on_the_tower(get_tower, tensor):
    tower = get_tower("z3")
    rec = _warm_reconstruction(tower)
    bad = perturbed(rec.on_b.hopf, tensor)
    bad_bundle = StructureBundle(bad, rec.on_b.index_element)
    bad_rec = dataclasses.replace(rec, on_b=bad_bundle)
    reports = {
        "verify_axioms": lambda: verify_axioms(bad, TOL),
        "check_bundle": lambda: check_bundle(bad_bundle, TOL),
        "identity_suite": lambda: identity_suite(tower, bad_rec, TOL),
        "classify": lambda: classify(tower, bad_rec, TOL),
        "deform": lambda: deform(bad_bundle, TOL, tower=tower)[1],
    }
    assert all(_fails(report) for report in reports.values())
    # the warm structure still passes: the copy did not write into its memo
    assert verify_axioms(rec.on_b.hopf, TOL).passed


@pytest.mark.parametrize("tensor", ["delta", "epsilon", "antipode", "involution"])
def test_a_perturbed_copy_trips_every_report_on_a_twisted_bundle(tensor):
    hopf = pair_groupoid(3)
    h = central_twist(hopf, (2.0, 0.5, 1.5))
    bundle, _ = undeform(hopf, h, TOL)
    deform(bundle, TOL)
    bad = perturbed(bundle.hopf, tensor)
    bad_bundle = StructureBundle(bad, h)
    assert _fails(lambda: check_bundle(bad_bundle, TOL))
    assert _fails(lambda: deform(bad_bundle, TOL)[1])
    assert _fails(lambda: verify_axioms(perturbed(hopf, tensor), TOL))


# -- reports read the values of direct calls, bit for bit -----------------------------


def _check_axiom_report(hopf, rep):
    for name, _, row in _AXIOM_ROWS:
        assert rep[name].residual == row(hopf), name
    # the info rows carry their value in the note; the memo holds it whole
    for name, row in (("antipode involutive", axioms.antipode_involutive),
                      ("antipode commutes with star", axioms.antipode_star_compatible)):
        value = row(hopf)
        assert hopf.row(row) == value, name
        assert rep[name].note == f"classification only; value {value:.6e}", name


def _check_bundle_report(bundle, rep):
    hopf, h = bundle.hopf, bundle.index_element
    hinv = hopf.algebra.inverse_vec(h)
    direct = {
        "coassociativity": axioms.coassociativity(hopf),
        "counit left": axioms.counit_left(hopf),
        "counit right": axioms.counit_right(hopf),
        "twisted multiplicativity": axioms.multiplicativity(hopf, hinv),
        "coproduct star-preserving": axioms.star_preserving(hopf),
        "counital relation": axioms.target_counital_relation(hopf),
        "counital coproduct absorption": axioms.target_counital_absorption(hopf),
        "antipode anti-homomorphism": max(axioms.anti_multiplicative(hopf),
                                          axioms.anti_comultiplicative(hopf)),
        "antipode involutive": axioms.antipode_involutive(hopf),
        "antipode star-compatible": axioms.antipode_star_compatible(hopf),
        "twisted antipode counital identity": axioms.antipode_counital(hopf, hinv),
        "index element as S(1_(1)) 1_(2)": axioms.index_from_unit_legs(hopf, h),
    }
    for name, value in direct.items():
        assert rep[name].residual == value, name


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_tower_reports_equal_direct_row_calls(order):
    tower = build_tower_from_group(cyclic(order), tol=TOL)
    rec = reconstruct(tower, TOL)
    suite = identity_suite(tower, rec, TOL)
    kind = classify(tower, rec, TOL)
    bundle_rep = check_bundle(rec.on_b, TOL)
    axiom_rep = verify_axioms(rec.on_b.hopf, TOL)

    hopf, h = rec.on_b.hopf, rec.on_b.index_element
    hinv = hopf.algebra.inverse_vec(h)
    direct = {
        "counital coproduct absorption": axioms.target_counital_absorption(hopf),
        "antipode involutive and star-compatible": max(
            axioms.antipode_involutive(hopf), axioms.antipode_star_compatible(hopf)),
        "antipode anti-homomorphism": max(axioms.anti_multiplicative(hopf),
                                          axioms.anti_comultiplicative(hopf)),
        "index element from counital legs": axioms.index_from_counital_legs(hopf, h),
        "coproduct star-preserving": axioms.star_preserving(hopf),
        "twisted multiplicativity of the coproduct": axioms.multiplicativity(hopf, hinv),
        "twisted antipode counital identity": axioms.antipode_counital(hopf, hinv),
    }
    for name, value in direct.items():
        assert suite[name].residual == value, name
    _check_bundle_report(rec.on_b, bundle_rep)
    _check_axiom_report(hopf, axiom_rep)
    assert kind["weak Kac axioms"].note == f"classified {axiom_rep.classification}"


def _hopf_twist_structures():
    structures = [pair_groupoid(n) for n in range(2, 7)]
    for group in (cyclic(12), symmetric(4)):
        structures += [group_algebra(group, TOL), function_algebra(group)]
    return structures


def test_hopf_twist_reports_equal_direct_row_calls():
    rng = np.random.default_rng(5)
    for hopf in _hopf_twist_structures():
        _check_axiom_report(hopf, verify_axioms(hopf, TOL))
        if len(hopf.algebra.blocks) != 1 or hopf.algebra.blocks[0] == 1:
            continue
        h = central_twist(hopf, rng.uniform(0.5, 2.0, hopf.algebra.blocks[0]))
        bundle, rep = undeform(hopf, h, TOL)
        _check_bundle_report(bundle, rep)
        deformed, rep = deform(bundle, TOL)
        _check_axiom_report(deformed.hopf, verify_axioms(deformed.hopf, TOL))


def test_the_non_multiplicativity_flag_reads_the_untwisted_row():
    hopf = pair_groupoid(2)
    bundle, _ = undeform(hopf, central_twist(hopf, (2.0, 0.5)))
    assert bundle.hopf.row(axioms.multiplicativity) \
        == axioms.multiplicativity(bundle.hopf) >= 1e-3


# -- deform at a trivial index element ---------------------------------------------------


DEFORM_ROWS = [
    ('deformed: coassociativity', 'coalgebra'),
    ('deformed: counit left', 'coalgebra'),
    ('deformed: counit right', 'coalgebra'),
    ('deformed: comultiplication multiplicative', 'axiom (1)'),
    ('deformed: comultiplication star-preserving', 'axiom (1)'),
    ('deformed: target counital relation', 'axiom (2)'),
    ('deformed: target counital coproduct', 'axiom (2)'),
    ('deformed: source counital relation', "axiom (2')"),
    ('deformed: source counital coproduct', "axiom (2')"),
    ('deformed: antipode target identity', 'axiom (3)'),
    ('deformed: antipode source identity', "axiom (3')"),
    ('deformed: antipode anti-multiplicative', 'axiom (3)'),
    ('deformed: antipode anti-comultiplicative', 'axiom (3)'),
    ('deformed: counit antipode-invariant', 'axiom (3)'),
    ('deformed: star-antipode squared identity', 'axiom (3)'),
    ('deformed: involution squared identity', 'C* structure'),
    ('deformed: involution anti-multiplicative', 'C* structure'),
    ('deformed: involution fixes unit', 'C* structure'),
    ('deformed: antipode involutive', 'weak Kac'),
    ('deformed: antipode commutes with star', 'weak Kac'),
    ('deformed target counital map unchanged', 'Prop 5.5'),
    ('antipode fixes the image of the index element', 'Prop 5.6'),
    ('squared antipode is conjugation by the modular element', 'Prop 5.6'),
    ('modular element positive', 'Remark 5.8'),
    ('Haar projection is e2 twisted by the index element', 'Thm 5.7'),
    ('Haar functional closed form', 'Thm 5.7'),
]


@pytest.mark.parametrize("name", ["z2", "z3", "s3"])
def test_deform_at_a_trivial_index_returns_its_input(get_tower, name):
    tower = get_tower(name)
    rec = reconstruct(tower, TOL)
    deformed, rep = deform(rec.on_b, TOL, tower=tower)
    assert deformed.hopf is rec.on_b.hopf
    assert [(c.name, c.ref) for c in rep.checks] == DEFORM_ROWS
    assert rep.passed and rep.classification == "weak Kac"


def test_deform_of_a_twisted_bundle_still_twists(monkeypatch):
    deform_module = importlib.import_module("weakhopf.deform")
    calls = []
    twist = deform_module._twist
    monkeypatch.setattr(deform_module, "_twist",
                        lambda hopf, t: calls.append(t) or twist(hopf, t))
    hopf = pair_groupoid(3)
    h = central_twist(hopf, (2.0, 0.5, 1.5))
    bundle, _ = undeform(hopf, h, TOL)
    deformed, rep = deform(bundle, TOL)
    assert len(calls) == 2  # undeform by H, deform by H^-1
    assert rep.passed
    assert deformed.hopf is not bundle.hopf
    for tensor in ("delta", "epsilon", "antipode", "star_matrix"):
        back, want = getattr(deformed.hopf, tensor), getattr(hopf, tensor)
        assert rel_residual(back, want) <= 1e-12
