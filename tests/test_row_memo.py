"""The row memo of ``WeakHopfData``: each axiom row is evaluated once per
structure, twist and operand, the reports read exactly the values a direct
call of the row gives, a changed structure never sees the memo of the one it
came from, and ``deform`` at a trivial index element returns its input.  At
a trivial index element the identity suite and ``check_bundle`` read their
twisted rows untwisted, so they share the entries of ``verify_axioms`` and
``canonical_action``."""

import dataclasses
import importlib
import sys
from collections import Counter

import numpy as np
import pytest

from weakhopf import axioms, decompose
from weakhopf._linalg import rel_residual
from weakhopf.actions import ActionData, canonical_action, verify_action
from weakhopf.deform import check_bundle, deform, undeform
from weakhopf.errors import InvariantViolation
from weakhopf.groups import cyclic, symmetric
from weakhopf.multimatrix import MultiMatrixAlgebra, SubalgebraEmbedding
from weakhopf.reconstruct import (
    StructureBundle,
    classify,
    identity_suite,
    reconstruct,
    trivial_index,
)
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

from test_actions import counit_action
from test_product_rows import perturbed

TOL = 1e-9
STRUCTURE_ROWS = ("coassociativity", "multiplicativity", "star_preserving",
                  "target_counital_absorption", "anti_comultiplicative")
MODULE_ROWS = ("module_multiplicativity", "product_decomposition")
COUNTED = STRUCTURE_ROWS + MODULE_ROWS


def count_calls(run, *functions):
    """Run ``run()`` and count the calls of each of ``functions`` by name,
    whoever holds a reference to them."""
    codes = {fn.__code__: fn.__name__ for fn in functions}
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


def count_row_calls(run):
    """Run ``run()`` and count the evaluations of the ``COUNTED`` rows of
    :mod:`weakhopf.axioms`: every call of a row's code object is one
    evaluation."""
    return count_calls(run, *(getattr(axioms, name) for name in COUNTED))


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

    # H is trivial, so the suite and the bundle check read multiplicativity
    # untwisted, as verify_axioms does, and the suite's rows 11 and 12 are
    # the product check and axiom (1) of the canonical action
    assert count_row_calls(chain) == {name: 1 for name in COUNTED}


def test_the_suite_and_the_action_check_share_axiom_2(get_tower):
    """Suite row 3, E_M1(b x e2) = E_M1(e2 x S(b)), is axiom (2) of the
    module map; at a trivial index element the canonical action is the
    reconstructed structure on the same tensor and carrier, so its "action
    star-compatible" is the same memo entry."""
    tower = get_tower("z3")
    reports = {}

    def chain():
        rec = reconstruct(tower, TOL)
        reports["suite"] = identity_suite(tower, rec, TOL)
        deformed, _ = deform(rec.on_b, TOL, tower=tower)
        reports["action"] = verify_action(canonical_action(tower, deformed, TOL), TOL)

    row = axioms.action_star_compatible
    assert count_calls(chain, row) == {row.__name__: 1}
    assert reports["suite"]["antipode under the expectation"].residual \
        == reports["action"]["action star-compatible"].residual


def test_each_cartan_is_restricted_into_b_once_per_tower():
    """B_t and B_s in B are cached on the tower: the identity suite (rows 4
    and 15), ``classify`` and ``canonical_action`` share one restriction
    of each, on a fresh tower.  So is M in M1, which B_t and the fixed
    points of the canonical action share; the count starts before the
    tower is built, which restricts nothing."""
    code = SubalgebraEmbedding.restrict_to.__code__
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls[id(frame.f_locals["self"]), id(frame.f_locals["other"])] += 1

    sys.setprofile(profile)
    try:
        tower = build_tower_from_group(cyclic(3))
        rec = reconstruct(tower, TOL)
        assert identity_suite(tower, rec, TOL).passed
        assert classify(tower, rec, TOL).passed
        deformed, _ = deform(rec.on_b, TOL, tower=tower)
        canonical_action(tower, deformed, TOL)
    finally:
        sys.setprofile(None)
    assert calls[id(tower.cartan_source), id(tower.rel_b)] == 1
    assert calls[id(tower.cartan_target), id(tower.rel_b)] == 1
    assert calls[id(tower.sub_mid), id(tower.sub_top)] == 1
    assert set(calls.values()) == {1}


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

    assert count_row_calls(operation) == {name: 3 for name in STRUCTURE_ROWS}


def test_a_twist_operation_splits_five_algebras():
    """The hopf_twist operation on a fresh pair groupoid splits the two
    Cartans of ``cartan_subalgebras``, the dual, and the dual and double
    dual of ``double_dual_residual``.  ``connectedness`` splits nothing: it
    reads the dual off its raw coproduct and the Cartans as the ranges of
    the counital maps."""
    hopf = pair_groupoid(3)

    def operation():
        verify_axioms(hopf, TOL)
        cartan_subalgebras(hopf, TOL)
        haar_projection(hopf, TOL)
        haar_functional(hopf, TOL)
        dual_algebra(hopf, TOL)
        double_dual_residual(hopf, TOL)
        connectedness(hopf, TOL)
        bundle, _ = undeform(hopf, central_twist(hopf, (1.5, 0.75, 1.2)), TOL)
        deform(bundle, TOL)

    split = decompose.decompose_structure_algebra
    assert count_calls(operation, split)[split.__name__] == 5
    assert count_calls(lambda: connectedness(hopf, TOL), split, dual_algebra) == {}


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


def _coproduct_off_by(hopf, scale, seed=3):
    rng = np.random.default_rng(seed)
    return hopf.copy_with(delta=hopf.delta + scale * rng.standard_normal(hopf.delta.shape))


def test_a_perturbed_coproduct_fails_the_shared_module_rows(get_tower):
    tower = get_tower("z3")
    rec = _warm_reconstruction(tower)
    deformed, _ = deform(rec.on_b, TOL, tower=tower)
    canonical_action(tower, deformed, TOL)  # the module rows are memo entries now
    bad = _coproduct_off_by(rec.on_b.hopf, 1e-3)
    bad_rec = dataclasses.replace(rec, on_b=StructureBundle(bad, rec.on_b.index_element))
    suite = identity_suite(tower, bad_rec, TOL)
    assert not suite["product against module elements"].passed
    assert not suite["expectation comultiplicativity"].passed
    action = ActionData(bad, tower.sub_top.sub, tower.module_tensor)
    assert not verify_action(action, TOL)["action multiplicative on products"].passed
    with pytest.raises(InvariantViolation, match="canonical action"):
        canonical_action(tower, dataclasses.replace(deformed, hopf=bad), TOL)
    # the warm structure still passes both
    assert identity_suite(tower, rec, TOL).passed
    assert verify_action(canonical_action(tower, deformed, TOL), TOL).passed


def test_a_perturbed_module_tensor_fails_the_action_check(get_tower):
    tower = get_tower("z3")
    rec = _warm_reconstruction(tower)
    hopf, m1 = rec.on_b.hopf, tower.sub_top.sub
    assert verify_action(ActionData(hopf, m1, tower.module_tensor), TOL).passed
    rng = np.random.default_rng(4)
    bent = tower.module_tensor + 1e-3 * rng.standard_normal(tower.module_tensor.shape)
    rep = verify_action(ActionData(hopf, m1, bent), TOL)
    assert not rep["action multiplicative on products"].passed


def test_an_action_without_a_tower_evaluates_axiom_1_once():
    hopf = group_algebra(cyclic(3))
    action = counit_action(hopf, MultiMatrixAlgebra([2, 1]))
    reports = []
    counts = count_row_calls(
        lambda: reports.extend(verify_action(action, TOL) for _ in range(2)))
    assert counts == {"module_multiplicativity": 1}
    assert all(rep.passed for rep in reports)
    assert reports[0]["action multiplicative on products"].residual \
        == axioms.module_multiplicativity(hopf, action.tensor, action.carrier)


def test_the_memo_keys_a_module_tensor_by_identity_and_keeps_it(get_tower):
    """No copy of the operand in the key: a read-only tensor is keyed by its
    identity, and the memo holds the tensor itself, so the id is not reused."""
    tower = get_tower("z2")
    hopf = reconstruct(tower, TOL).on_b.hopf
    tensor = np.array(tower.module_tensor)
    tensor.setflags(write=False)
    m1 = tower.sub_top.sub
    value = hopf.row(axioms.module_multiplicativity, tensor, m1)
    ((key, (memo_value, held)),) = hopf._rows.items()
    assert key == (axioms.module_multiplicativity, id(tensor), id(m1))
    assert memo_value == value and held[0] is tensor and held[1] is m1
    assert hopf.row(axioms.module_multiplicativity, tensor, m1, None) == value
    assert len(hopf._rows) == 1


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


def _check_bundle_report(bundle, rep, hinv):
    """``hinv`` is the twist of the two twisted rows: H^-1, or None at a
    trivial index element, where they are read untwisted."""
    hopf, h = bundle.hopf, bundle.index_element
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
    # H = 1 to rounding: rows 11-14 are the untwisted rows
    assert trivial_index(h, hopf.unit_vec, TOL)[1]
    direct = {
        "counital coproduct absorption": axioms.target_counital_absorption(hopf),
        "antipode involutive and star-compatible": max(
            axioms.antipode_involutive(hopf), axioms.antipode_star_compatible(hopf)),
        "antipode anti-homomorphism": max(axioms.anti_multiplicative(hopf),
                                          axioms.anti_comultiplicative(hopf)),
        "index element from counital legs": axioms.index_from_counital_legs(hopf, h),
        "coproduct star-preserving": axioms.star_preserving(hopf),
        "product against module elements": axioms.product_decomposition(hopf, tower),
        "expectation comultiplicativity": axioms.module_multiplicativity(
            hopf, tower.module_tensor, tower.sub_top.sub),
        "antipode under the expectation": axioms.action_star_compatible(
            hopf, tower.module_tensor, tower.sub_top.sub),
        "twisted multiplicativity of the coproduct": axioms.multiplicativity(hopf),
        "twisted antipode counital identity": axioms.antipode_counital(hopf),
    }
    for name, value in direct.items():
        assert suite[name].residual == value, name
    _check_bundle_report(rec.on_b, bundle_rep, None)
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
        assert not trivial_index(h, hopf.unit_vec, TOL)[1]
        _check_bundle_report(bundle, rep, hopf.algebra.inverse_vec(h))
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
