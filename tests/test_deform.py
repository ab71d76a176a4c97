import re

import numpy as np
import pytest

from weakhopf._linalg import rel_residual
from weakhopf.axioms import multiplicativity
from weakhopf.deform import check_bundle, deform, undeform
from weakhopf.errors import InvariantViolation
from weakhopf.reconstruct import StructureBundle
from weakhopf.report import Report
from weakhopf.groups import symmetric
from weakhopf.weak_hopf import (
    group_algebra,
    haar_functional,
    haar_traciality_residual,
    pair_groupoid,
    verify_axioms,
)

TOL = 1e-9

TWISTS = [(2.0, 0.5), (1.5, 0.75), (1.0, 3.0)]


def central_twist(hopf, values):
    alg = hopf.algebra
    vec = np.zeros(alg.dim, dtype=complex)
    for i, v in enumerate(values):
        vec += v * alg.basis_unit(0, i, i).vec
    return vec


@pytest.mark.parametrize("values", TWISTS, ids=["2-half", "32-34", "1-3"])
def test_undeform_passes_bundle_axioms(values):
    hopf = pair_groupoid(2)
    bundle, rep = undeform(hopf, central_twist(hopf, values))
    assert rep.passed, rep.render_table()
    assert rep.max_residual <= TOL


@pytest.mark.parametrize("values", TWISTS[:2], ids=["2-half", "32-34"])
def test_undeformed_coproduct_measurably_non_multiplicative(values):
    hopf = pair_groupoid(2)
    bundle, _ = undeform(hopf, central_twist(hopf, values))
    assert multiplicativity(bundle.hopf) >= 1e-3


def test_trivial_twist_is_identity():
    hopf = pair_groupoid(2)
    bundle, _ = undeform(hopf, hopf.unit_vec.copy())
    assert rel_residual(bundle.hopf.delta, hopf.delta) < 1e-14
    assert rel_residual(bundle.hopf.star_matrix, hopf.star_matrix) < 1e-14
    deformed, _ = deform(bundle)
    assert rel_residual(deformed.hopf.delta, hopf.delta) < 1e-14
    assert rel_residual(deformed.modular_element, hopf.unit_vec) < 1e-14


@pytest.mark.parametrize("values", TWISTS, ids=["2-half", "32-34", "1-3"])
def test_deform_undeform_roundtrip(values):
    hopf = pair_groupoid(2)
    bundle, _ = undeform(hopf, central_twist(hopf, values))
    deformed, rep = deform(bundle)
    assert rep.passed, rep.render_table()
    assert rel_residual(deformed.hopf.delta, hopf.delta) <= 1e-12
    assert rel_residual(deformed.hopf.epsilon, hopf.epsilon) <= 1e-12
    assert rel_residual(deformed.hopf.antipode, hopf.antipode) <= 1e-12
    assert rel_residual(deformed.hopf.star_matrix, hopf.star_matrix) <= 1e-12


@pytest.mark.parametrize("values", TWISTS, ids=["2-half", "32-34", "1-3"])
def test_deformed_structure_is_weak_hopf(values):
    hopf = pair_groupoid(2)
    bundle, _ = undeform(hopf, central_twist(hopf, values))
    deformed, rep = deform(bundle)
    axioms = verify_axioms(deformed.hopf)
    assert axioms.passed
    assert axioms.classification in ("weak Kac", "weak C*-Hopf")
    squared = rep["squared antipode is conjugation by the modular element"]
    assert squared.residual <= TOL


def test_bundle_haar_functional_not_tracial():
    # integrals of the twisted (non weak Kac) tensors lose traciality
    hopf = pair_groupoid(2)
    bundle, _ = undeform(hopf, central_twist(hopf, (2.0, 0.5)))
    phi = haar_functional(bundle.hopf)
    assert haar_traciality_residual(bundle.hopf, phi) > 1e-2
    # closed form: reciprocal twist values on the diagonal units
    expected = np.zeros(4, dtype=complex)
    expected[0], expected[3] = 0.5, 2.0
    assert rel_residual(phi, expected) < TOL


def test_twist_dichotomy():
    # unit twist <-> multiplicative coproduct, in both directions
    hopf = pair_groupoid(2)
    for values, expect_kac in [((1.0, 1.0), True), ((2.0, 0.5), False)]:
        bundle, _ = undeform(hopf, central_twist(hopf, values))
        res = multiplicativity(bundle.hopf)
        trivial = rel_residual(bundle.index_element, hopf.unit_vec) <= TOL
        assert trivial == expect_kac
        assert (res <= TOL) == expect_kac


def test_non_positive_twist_rejected():
    hopf = pair_groupoid(2)
    with pytest.raises(InvariantViolation, match="positive"):
        undeform(hopf, central_twist(hopf, (1.0, -2.0)))
    # the spectrum is read block by block: C[S3] has blocks (2, 1, 1), and a
    # negative last block is found too (positivity is checked before centrality)
    hopf = group_algebra(symmetric(3))
    vec = hopf.algebra.unit().vec
    vec[-1] = -1
    with pytest.raises(InvariantViolation, match="not positive"):
        undeform(hopf, vec)


def test_non_central_twist_rejected():
    hopf = pair_groupoid(2)
    vec = hopf.algebra.unit().vec + 0.5 * hopf.algebra.basis_unit(0, 0, 1).vec
    with pytest.raises(InvariantViolation):
        undeform(hopf, vec)


def test_check_bundle_flags_wrong_index_element():
    hopf = pair_groupoid(2)
    bundle, _ = undeform(hopf, central_twist(hopf, (2.0, 0.5)))
    wrong = StructureBundle(bundle.hopf, hopf.unit_vec.copy())
    rep = check_bundle(wrong)
    assert not rep.passed


def test_require_passed_names_the_worst_row():
    rep = Report(tolerance=TOL)
    rep.add("small", 1e-12)
    rep.require_passed("unused")
    rep.add("first", 1e-3)
    rep.add("worst", 0.5)
    with pytest.raises(InvariantViolation, match=r"^prefix: worst residual 5\.000e-01$"):
        rep.require_passed("prefix")


def test_deform_names_the_worst_violated_bundle_row():
    hopf = pair_groupoid(2)
    bundle, _ = undeform(hopf, central_twist(hopf, (2.0, 0.5)))
    wrong = StructureBundle(bundle.hopf, hopf.unit_vec.copy())
    worst = max(check_bundle(wrong).failures(), key=lambda c: c.residual)
    prefix = f"^structure bundle violated: {re.escape(worst.name)} residual"
    with pytest.raises(InvariantViolation, match=prefix):
        deform(wrong)


@pytest.mark.parametrize("name", ["z2", "z3", "z4", "s3"])
def test_tower_deformation_is_trivial(name, get_tower, get_pipeline):
    pipe = get_pipeline(name)
    tower, rec = pipe["tower"], pipe["rec"]
    deformed, rep = pipe["deformed"], pipe["deform_report"]
    assert rep.passed, rep.render_table()
    assert rep.classification == "weak Kac"
    assert rel_residual(deformed.hopf.delta, rec.on_b.hopf.delta) <= TOL
    # Haar projection of the deformed structure degenerates to e2
    e2_b = tower.rel_b.coords_vec(tower.e2.vec[None, :])[0]
    haar_row = rep["Haar projection is e2 twisted by the index element"]
    assert haar_row.passed
    from weakhopf.weak_hopf import haar_projection

    assert rel_residual(haar_projection(deformed.hopf).vec, e2_b) <= TOL


def test_modular_power_probe_for_declared_fractional_index():
    # with a declared non-integer index the deformation probes whether some
    # power of the modular element is central; here it is central immediately
    hopf = pair_groupoid(2)
    bundle, _ = undeform(hopf, central_twist(hopf, (2.0, 0.5)))
    _, rep = deform(bundle, declared_index=2.5)
    row = rep["modular element central power"]
    assert row.passed and "central" in row.note
