import dataclasses

import numpy as np
import pytest

from weakhopf._linalg import rel_residual
from weakhopf.matching import match_pair_groupoid
from weakhopf.multimatrix import TraceState, watatani_index
from weakhopf.reconstruct import (
    classify,
    dual_bases,
    identity_suite,
    pairing,
    pairing_values,
)
from weakhopf.weak_hopf import verify_axioms

from conftest import TOWER_NAMES

TOL = 1e-9

SUITE_REFS = [
    "Lemma 4.1", "Prop 4.2", "Prop 4.3", "Remark 4.4", "Prop 4.5(ii)",
    "Prop 4.5(iii)", "Prop 4.5(iv)", "Prop 4.6", "Prop 4.8", "Cor 4.10",
    "Prop 4.11", "Cor 4.12", "Prop 4.13", "Prop 4.14", "Prop 4.15",
    "Lemma 5.2", "duality",
]


@pytest.mark.parametrize("name", TOWER_NAMES)
def test_pairing_nondegenerate(name, get_tower):
    form = pairing(get_tower(name))
    assert form.condition < 1e8


@pytest.mark.parametrize("name", ["z2", "z3"])
def test_pairing_closed_forms(name, get_tower):
    tower = get_tower(name)
    alg = tower.ambient
    unit = alg.unit().vec[:, None]
    # <1, 1> equals the Cartan dimension
    val = pairing_values(tower, unit, unit)[0, 0]
    assert abs(val - tower.d) < TOL
    # <1, b> is the counit formula
    b_img = tower.rel_b.images
    row = pairing_values(tower, unit, b_img)[0]
    direct = (tower.d / tower.lam) * tower.tau.values(
        alg.mul_vecs(b_img.T, tower.e2.vec))
    assert rel_residual(row, direct) < TOL
    # <e1, b> recovers the trace
    row = pairing_values(tower, tower.e1.vec[:, None], b_img)[0]
    assert rel_residual(row, tower.d * tower.tau.values(b_img.T)) < TOL


@pytest.mark.parametrize("name", TOWER_NAMES)
def test_reconstruction_identity_suite(name, get_tower, get_reconstruction):
    tower = get_tower(name)
    rec = get_reconstruction(name)
    rep = identity_suite(tower, rec)
    assert len(rep.checks) == 17
    assert [c.ref for c in rep.checks] == SUITE_REFS
    assert rep.passed, rep.render_table()
    assert rep.max_residual <= TOL


@pytest.mark.parametrize("name", TOWER_NAMES)
def test_index_element_is_unit(name, get_tower, get_reconstruction):
    tower = get_tower(name)
    rec = get_reconstruction(name)
    assert rel_residual(rec.index_element.vec, tower.ambient.unit().vec) <= TOL
    assert abs(tower.tau.value(rec.index_element.vec) - 1.0) <= TOL


@pytest.mark.parametrize("name", TOWER_NAMES)
def test_dual_bases_identities(name, get_tower, get_reconstruction):
    bases, rep = dual_bases(get_tower(name), get_reconstruction(name))
    assert rep.passed, rep.render_table()
    assert rep["duality normalization"].residual <= 1e-12


@pytest.mark.parametrize("name", TOWER_NAMES)
def test_classification(name, get_tower, get_reconstruction):
    rep = classify(get_tower(name), get_reconstruction(name))
    assert rep.passed, rep.render_table()
    assert rep.classification == "weak Kac"
    order = {"z2": 2, "z3": 3, "z4": 4, "s3": 6}[name]
    assert f"index {order:.6f}" in rep["index integral"].note


def test_classification_flags_s3(get_tower, get_reconstruction):
    rep = classify(get_tower("s3"), get_reconstruction("s3"))
    assert "6 squarefree: True" in rep["index square-free"].note
    assert "6 prime: False" in rep["index prime"].note


def test_classification_flags_z4(get_tower, get_reconstruction):
    rep = classify(get_tower("z4"), get_reconstruction("z4"))
    assert "4 squarefree: False" in rep["index square-free"].note


def test_classification_with_nontrivial_index_element(get_tower, get_reconstruction):
    tower, rec = get_tower("z2"), get_reconstruction("z2")
    doubled = dataclasses.replace(
        rec, index_element=tower.ambient.element(2 * rec.index_element.vec))
    rep = classify(tower, doubled)
    assert rep.classification == "weak C*-Hopf (deformation required)"
    assert "non-multiplicativity" in rep["coproduct is not multiplicative"].note


@pytest.mark.parametrize("name", ["z2", "z3"])
def test_reconstructed_sides_pass_axioms(name, get_reconstruction):
    rec = get_reconstruction(name)
    for bundle in (rec.on_b, rec.on_a):
        rep = verify_axioms(bundle.hopf)
        assert rep.passed, rep.render_table()
        assert rep.classification == "weak Kac"


@pytest.mark.parametrize("name", ["z2", "z3"])
def test_antipode_duality_exchange(name, get_tower, get_reconstruction):
    # <a, S_B(b)> = <S_A(a), b>
    tower = get_tower(name)
    rec = get_reconstruction(name)
    a_img, b_img = tower.rel_a.images, tower.rel_b.images
    lhs = pairing_values(tower, a_img, b_img @ rec.on_b.hopf.antipode)
    rhs = pairing_values(tower, a_img @ rec.on_a.hopf.antipode, b_img)
    assert rel_residual(lhs, rhs) < TOL


@pytest.mark.parametrize("name", ["z2", "s3"])
def test_antipode_fixes_second_jones_projection(name, get_tower, get_reconstruction):
    tower = get_tower(name)
    rec = get_reconstruction(name)
    e2_b = tower.rel_b.coords_vec(tower.e2.vec[None, :])[0]
    assert rel_residual(rec.on_b.hopf.antipode @ e2_b, e2_b) < TOL


def test_watatani_formula_halves():
    # Cartan weights (1/3, 2/3) over two points: blockwise (3/2, 3/4),
    # trace-normalized exactly
    from weakhopf.multimatrix import MultiMatrixAlgebra

    cartan = MultiMatrixAlgebra([1, 1])
    trace = TraceState(cartan, [1 / 3, 2 / 3])
    scaled = watatani_index(trace).vec / 2
    assert rel_residual(scaled, [1.5, 0.75]) < 1e-14
    total = np.dot(trace.weights, np.real(scaled))
    assert abs(total - 1.0) < 1e-14


@pytest.mark.parametrize("name", TOWER_NAMES)
def test_index_element_matches_watatani(name, get_tower, get_reconstruction):
    tower = get_tower(name)
    rec = get_reconstruction(name)
    cartan = tower.cartan_target
    restricted = TraceState(cartan.sub, rec.cartan_weights)
    pushed = cartan.embed_vec(watatani_index(restricted).vec) / tower.d
    assert rel_residual(pushed, rec.index_element.vec) <= TOL


def test_pair_groupoid_recognition_z2(get_reconstruction):
    on_a, on_b, points = match_pair_groupoid(get_reconstruction("z2"))
    assert points == 2
    assert on_a.residual <= TOL
    assert on_b.residual <= TOL


def test_pair_groupoid_recognition_z3(get_reconstruction):
    on_a, on_b, points = match_pair_groupoid(get_reconstruction("z3"))
    assert points == 3
    assert max(on_a.residual, on_b.residual) <= TOL


@pytest.mark.parametrize("name,points", [("z4", 4), ("s3", 6)])
def test_pair_groupoid_recognition_larger(name, points, get_reconstruction):
    on_a, on_b, found = match_pair_groupoid(get_reconstruction(name))
    assert found == points
    assert max(on_a.residual, on_b.residual) <= TOL


def test_commutant_sides_are_dual_shapes(get_reconstruction):
    # the noncommutative side is a full matrix algebra, the other its dual
    rec = get_reconstruction("z2")
    assert rec.on_a.hopf.algebra.blocks == (2,)
    assert rec.on_b.hopf.algebra.blocks == (1, 1, 1, 1)


def test_cartan_intersection_reported_not_asserted(get_tower, get_reconstruction):
    # the two Cartan images overlap at least in the scalars; whether the
    # reconstructed structure is biconnected is recorded, never required
    from weakhopf._linalg import intersection_dim
    from weakhopf.weak_hopf import connectedness

    tower = get_tower("z2")
    overlap = intersection_dim(tower.cartan_target.images,
                               tower.cartan_source.images)
    assert overlap >= 1
    rec = get_reconstruction("z2")
    triple = connectedness(rec.on_b.hopf)
    assert isinstance(triple, tuple) and len(triple) == 3


@pytest.mark.parametrize("name", TOWER_NAMES)
def test_cross_check_residuals_recorded(name, get_reconstruction):
    rec = get_reconstruction(name)
    assert set(rec.cross_checks) == {
        "index element vs trace index", "index element trace normalization",
        "target counital vs expectation formula", "antipode vs expectation formula"}
    assert max(rec.cross_checks.values()) <= TOL


def test_index_element_commutes_with_its_antipode_image(get_tower, get_reconstruction):
    tower = get_tower("z3")
    rec = get_reconstruction("z3")
    hopf = rec.on_b.hopf
    h = rec.on_b.index_element
    s_h = hopf.antipode @ h
    comm = hopf.algebra.mul_vecs(h, s_h) - hopf.algebra.mul_vecs(s_h, h)
    assert np.abs(comm).max() <= TOL


def test_reconstruction_stable_under_reseeding():
    # a different seed changes the random block splits but not the structure
    from weakhopf.tower import build_tower_from_group, verify_tower_premises
    from weakhopf.groups import cyclic
    from weakhopf.reconstruct import reconstruct as run_reconstruct

    tower = build_tower_from_group(cyclic(3), seed=12345)
    assert verify_tower_premises(tower).passed
    rec = run_reconstruct(tower)
    suite = identity_suite(tower, rec)
    assert suite.passed and suite.max_residual <= TOL
