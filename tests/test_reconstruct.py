import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from weakhopf._linalg import rel_residual
from weakhopf.deform import deform
from weakhopf.errors import InvariantViolation
from weakhopf.matching import match_pair_groupoid
from weakhopf.multimatrix import (
    MultiMatrixAlgebra,
    SubalgebraEmbedding,
    TraceState,
    take_units,
    watatani_index,
)
from weakhopf.reconstruct import (
    PairingForm,
    StructureBundle,
    _comatrix_recursion_residual,
    _delta_unit_residual,
    _tensor_positive_residual,
    classify,
    dual_bases,
    identity_suite,
    pairing,
    pairing_values,
    reconstruct,
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


def test_c2_in_m3_m3_chain_through_deform(get_tower):
    # ambient 1458, dim B = 82, dim M1 = 162, and an index element that is
    # not the unit; the module tensor is built over slabs of B units, where
    # the whole (82, 162, 1458) stack of products b x e2 took 296 MiB, and
    # the suite reads b |> x only in M1 coordinates
    tower = get_tower("c2_in_m3_m3")
    rec = reconstruct(tower)
    assert rec.on_b.twist(TOL) is not None
    assert dual_bases(tower, rec)[1].passed
    assert identity_suite(tower, rec).passed
    assert deform(rec.on_b, tower=tower)[1].passed


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
    from weakhopf.weak_hopf import connectedness

    tower = get_tower("z2")
    unit = tower.ambient.unit().vec
    assert tower.cartan_target.outside(unit) <= TOL
    assert tower.cartan_source.outside(unit) <= TOL
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
    # the tower build is not random (the seed is only recorded on the
    # tower), so reseeding leaves every reconstructed tensor and every suite
    # residual exactly as it was
    from weakhopf.tower import build_tower_from_group, verify_tower_premises
    from weakhopf.groups import cyclic
    from weakhopf.reconstruct import reconstruct as run_reconstruct

    runs = []
    for seed in (0, 12345):
        tower = build_tower_from_group(cyclic(3), seed=seed)
        assert verify_tower_premises(tower).passed
        rec = run_reconstruct(tower)
        suite = identity_suite(tower, rec)
        assert suite.passed and suite.max_residual <= TOL
        runs.append((rec, [(c.name, c.residual) for c in suite.checks]))
    (first, first_rows), (second, second_rows) = runs
    assert second_rows == first_rows
    assert np.array_equal(second.pairing.gram, first.pairing.gram)
    for side in ("on_b", "on_a"):
        one, two = getattr(first, side), getattr(second, side)
        assert np.array_equal(two.index_element, one.index_element)
        for name in ("delta", "epsilon", "antipode", "star_matrix"):
            assert np.array_equal(getattr(two.hopf, name), getattr(one.hopf, name)), (side, name)


def _suite_with(tower, rec, hopf=None, index_element=None):
    """The identity suite with the reconstructed structure on B or its index
    element replaced."""
    bundle = StructureBundle(
        rec.on_b.hopf if hopf is None else hopf,
        rec.on_b.index_element if index_element is None else index_element)
    return identity_suite(tower, dataclasses.replace(rec, on_b=bundle))


def test_suite_catches_a_perturbed_antipode(get_tower, get_reconstruction):
    tower, rec = get_tower("z3"), get_reconstruction("z3")
    hopf = rec.on_b.hopf
    rng = np.random.default_rng(7)
    bent = hopf.antipode + 0.1 * rng.standard_normal(hopf.antipode.shape)
    rep = _suite_with(tower, rec, hopf=hopf.copy_with(antipode=bent))
    assert rep["antipode under the expectation"].residual > 1e-3


def test_suite_catches_an_antipode_that_fixes_the_cartans(get_tower, get_reconstruction):
    # S = id leaves B_s in place, and on z2 B_s sticks out of B_t
    tower, rec = get_tower("z2"), get_reconstruction("z2")
    hopf = rec.on_b.hopf
    assert identity_suite(tower, rec)["antipode exchanges the Cartan subalgebras"] \
        .residual <= TOL
    rep = _suite_with(tower, rec, hopf=hopf.copy_with(antipode=np.eye(hopf.dim)))
    assert rep["antipode exchanges the Cartan subalgebras"].residual == pytest.approx(0.5)


def test_suite_catches_swapped_coproduct_legs(get_tower, get_reconstruction):
    tower, rec = get_tower("z3"), get_reconstruction("z3")
    hopf = rec.on_b.hopf
    swapped = hopf.copy_with(delta=hopf.delta.transpose(0, 2, 1))
    rep = _suite_with(tower, rec, hopf=swapped)
    assert rep["product against module elements"].residual > 1e-3


@pytest.mark.parametrize("kind", ["doubled", "cartan"])
def test_suite_catches_a_wrong_index_element(kind, get_tower, get_reconstruction):
    # 2H, or a positive element of the target Cartan B_t that is not a scalar
    tower, rec = get_tower("z3"), get_reconstruction("z3")
    if kind == "doubled":
        h = 2 * rec.on_b.index_element
    else:
        bt_in_b = tower.rel_b.coords_vec(tower.cartan_target.images.T).T
        h = bt_in_b @ np.arange(1.0, bt_in_b.shape[1] + 1)
        assert rel_residual(h, h[0] * rec.on_b.index_element) > 0.1
    rep = _suite_with(tower, rec, index_element=h)
    assert rep["product against module elements"].residual > 1e-3
    assert rep["expectation comultiplicativity"].residual > 1e-3


# -- index tables against the label loops they replace ---------------------------


def loop_transpose_index(sub):
    return np.array([sub.basis_index(alpha, k, j) for (alpha, j, k) in sub.basis_labels()])


def loop_exchange_rhs(sub, v_amb):
    """[alpha = beta][i = p] v_qj for the label pair ((beta, p, q), (alpha, i, j))."""
    labels = sub.basis_labels()
    rhs = np.zeros((sub.dim, sub.dim, v_amb.shape[0]), dtype=complex)
    for mlab, (beta, p, q) in enumerate(labels):
        for nlab, (alpha, i, j) in enumerate(labels):
            if alpha == beta and i == p:
                rhs[mlab, nlab] = v_amb[:, sub.basis_index(alpha, q, j)]
    return rhs


def loop_comatrix_coproduct(sub):
    expected = np.zeros((sub.dim,) * 3)
    for m, (alpha, j, k) in enumerate(sub.basis_labels()):
        for l in range(sub.blocks[alpha]):
            expected[m, sub.basis_index(alpha, j, l), sub.basis_index(alpha, l, k)] = 1.0
    return expected


def loop_comatrix_counit(sub):
    return np.array([1.0 if j == k else 0.0 for (_, j, k) in sub.basis_labels()])


def loop_tensor_positive_residual(left, right, coeffs):
    worst = 0.0
    scale = max(np.abs(coeffs).max(), 1.0)
    for a, m in enumerate(left.blocks):
        for b, n in enumerate(right.blocks):
            block = np.zeros((m * n, m * n), dtype=complex)
            for k in range(m):
                for l in range(m):
                    i = left.basis_index(a, k, l)
                    mat = np.zeros((n, n), dtype=complex)
                    for p in range(n):
                        for q in range(n):
                            mat[p, q] = coeffs[i, right.basis_index(b, p, q)]
                    block[k * n:(k + 1) * n, l * n:(l + 1) * n] = mat
            herm = np.abs(block - block.conj().T).max() / scale
            low = float(-np.min(np.linalg.eigvalsh(0.5 * (block + block.conj().T))))
            worst = max(worst, herm, low / scale)
    return worst


def loop_delta_unit_residual(tower, rec):
    hopf = rec.on_b.hopf
    cartan = tower.cartan_target
    bt_in_b = tower.rel_b.coords_vec(cartan.images.T).T
    sub = cartan.sub
    formula = np.zeros((hopf.dim, hopf.dim), dtype=complex)
    s_bt = hopf.antipode @ bt_in_b
    for alpha, m in enumerate(sub.blocks):
        coeff = 1.0 / (tower.d * rec.cartan_weights[alpha])
        for k in range(m):
            for l in range(m):
                formula += coeff * np.outer(s_bt[:, sub.basis_index(alpha, k, l)],
                                            bt_in_b[:, sub.basis_index(alpha, l, k)])
    res = rel_residual(hopf.delta_unit, formula)
    src_in_b = tower.rel_b.coords_vec(tower.cartan_source.images.T).T
    coeffs = np.linalg.lstsq(src_in_b, hopf.delta_unit, rcond=None)[0]
    res = max(res, rel_residual(src_in_b @ coeffs, hopf.delta_unit))
    second = np.linalg.lstsq(bt_in_b, coeffs.T, rcond=None)[0].T
    res = max(res, rel_residual(second @ bt_in_b.T, coeffs))
    return max(res, loop_tensor_positive_residual(tower.cartan_source.sub, sub, second))


def loop_comatrix_recursion_residual(tower, rec, hinv_amb):
    alg, a_sub = tower.ambient, tower.rel_a.sub
    gram_inv = rec.pairing.inverse
    v_amb = tower.rel_b.images @ gram_inv
    v_on_e1 = gram_inv.T @ tower.act(tower.e1.vec)
    worst = 0.0
    for alpha, m in enumerate(a_sub.blocks):
        idx = np.array([[a_sub.basis_index(alpha, i, j) for j in range(m)]
                        for i in range(m)]).reshape(-1)
        v = v_amb[:, idx].T.reshape(m, m, -1)
        lhs = alg.mul_vecs(v, tower.e1.vec)
        inner_h = alg.mul_vecs(v_on_e1[idx].reshape(m, m, -1), hinv_amb)
        acc = np.zeros_like(lhs)
        for k in range(m):
            acc += alg.mul_vecs(inner_h[:, k, :][:, None, :], v[k, :, :][None, :, :])
        worst = max(worst, rel_residual(lhs, acc))
    return worst


@pytest.mark.parametrize("name", ["z2", "z3", "z4", "blocks 2, 1, 3"])
def test_dual_basis_tables_match_their_label_loops(name, get_tower, get_reconstruction):
    if name in TOWER_NAMES:
        tower = get_tower(name)
        sub = tower.rel_a.sub
        v_amb = tower.rel_b.images @ get_reconstruction(name).pairing.inverse
    else:
        sub = MultiMatrixAlgebra([2, 1, 3])
        v_amb = np.random.default_rng(5).standard_normal((7, sub.dim)) + 0j
    assert np.array_equal(sub.adjoint_index, loop_transpose_index(sub))
    assert np.array_equal(take_units(v_amb.T, sub.product_index[sub.adjoint_index]),
                          loop_exchange_rhs(sub, v_amb))
    assert np.array_equal(sub.product_index == np.arange(sub.dim)[:, None, None],
                          loop_comatrix_coproduct(sub))
    assert np.array_equal(sub.unit().vec, loop_comatrix_counit(sub))


@pytest.mark.parametrize("name", ["z2", "z3", "z4"])
def test_residual_rows_match_their_label_loops(name, get_tower, get_reconstruction):
    # on the reconstructed structure and on one with a bent antipode or a
    # wrong H^-1, where the rows read well above rounding
    tower, rec = get_tower(name), get_reconstruction(name)
    hopf = rec.on_b.hopf
    rng = np.random.default_rng(7)
    bent = hopf.antipode + 0.1 * rng.standard_normal(hopf.antipode.shape)
    bent_rec = dataclasses.replace(
        rec, on_b=StructureBundle(hopf.copy_with(antipode=bent), rec.on_b.index_element))
    for r in (rec, bent_rec):
        new, old = _delta_unit_residual(tower, r), loop_delta_unit_residual(tower, r)
        assert abs(new - old) <= 1e-15 + 1e-12 * old
    assert loop_delta_unit_residual(tower, bent_rec) > 1e-3

    hinv_amb = tower.rel_b.images @ hopf.algebra.inverse_vec(rec.on_b.index_element)
    for h in (hinv_amb, 2 * hinv_amb):
        new = _comatrix_recursion_residual(tower, rec, h)
        old = loop_comatrix_recursion_residual(tower, rec, h)
        assert abs(new - old) <= 1e-15 + 1e-12 * old
    assert loop_comatrix_recursion_residual(tower, rec, 2 * hinv_amb) > 1e-3


@pytest.mark.parametrize("left, right", [((2, 1), (1, 3)), ((1, 1, 1), (2,))])
@pytest.mark.parametrize("kind", ["positive", "hermitian", "general"])
def test_tensor_positivity_blocks_match_their_label_loop(left, right, kind):
    left, right = MultiMatrixAlgebra(left), MultiMatrixAlgebra(right)
    rng = np.random.default_rng(11)
    shape = (left.dim, right.dim)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if kind != "general":
        # sum over x of x (x) x*, with x a random element of each factor:
        # positive; minus a large multiple of 1 (x) 1 it is only Hermitian
        coeffs = np.zeros(shape, dtype=complex)
        for _ in range(3):
            x = rng.standard_normal(left.dim) + 1j * rng.standard_normal(left.dim)
            y = rng.standard_normal(right.dim) + 1j * rng.standard_normal(right.dim)
            coeffs += np.outer(left.mul_vecs(left.adjoint_vecs(x), x),
                               right.mul_vecs(right.adjoint_vecs(y), y))
        if kind == "hermitian":
            coeffs -= 50 * np.outer(left.unit().vec, right.unit().vec)
    new = _tensor_positive_residual(left, right, coeffs)
    assert new == loop_tensor_positive_residual(left, right, coeffs)
    assert (new <= 1e-12) == (kind == "positive")


@pytest.mark.parametrize("bend, row", [
    (lambda hopf: hopf.copy_with(delta=hopf.delta.transpose(0, 2, 1)),
     "comatrix coproduct"),
    (lambda hopf: hopf.copy_with(epsilon=hopf.epsilon + 1e-3), "comatrix counit"),
], ids=["swapped legs", "bent counit"])
def test_dual_bases_report_a_duality_defect(bend, row, get_tower, get_reconstruction):
    tower, rec = get_tower("z3"), get_reconstruction("z3")
    bent = dataclasses.replace(
        rec, on_b=StructureBundle(bend(rec.on_b.hopf), rec.on_b.index_element))
    with pytest.raises(InvariantViolation, match=f"duality defect: {row} residual"):
        dual_bases(tower, bent)


def test_delta_unit_formula_reads_the_adjoint_gather():
    # every tower build_tower_from_group makes has a commutative Cartan,
    # where the adjoint gather is the identity; on the stand-in
    # B = B_s = B_t = M_2 + C with S(x) = x^T, Delta(1) =
    # sum f_lk (x) f_lk / (d tau(f_kk)) is diagonal and positive, and
    # pairing S(f_kl) with f_kl instead fails
    cartan = MultiMatrixAlgebra([2, 1])
    ident = SubalgebraEmbedding.identity(cartan)
    weights = np.array([0.25, 0.5])
    hopf = SimpleNamespace(dim=cartan.dim,
                           antipode=np.eye(cartan.dim)[:, cartan.adjoint_index],
                           delta_unit=np.diag(1 / (2 * weights[cartan.block_index])))
    tower = SimpleNamespace(d=2, cartan_target=ident, cartan_source=ident, rel_b=ident,
                            cartan_in_b=ident, cartan_source_in_b=ident)
    rec = SimpleNamespace(on_b=SimpleNamespace(hopf=hopf), cartan_weights=weights)
    assert _delta_unit_residual(tower, rec) <= 1e-15
    assert loop_delta_unit_residual(tower, rec) <= 1e-15
    flipped = SimpleNamespace(on_b=SimpleNamespace(hopf=SimpleNamespace(
        dim=hopf.dim, antipode=np.eye(cartan.dim), delta_unit=hopf.delta_unit)),
        cartan_weights=weights)
    assert _delta_unit_residual(tower, flipped) > 0.1


# -- the pairing read through unit tables against ambient pairings --------------


def ambient_structure(tower):
    """Coproduct, counit and antipode on B and on A from pairings evaluated in
    the ambient: the products and adjoints of the commutant bases and the
    ambient unit paired through ``pairing_values``."""
    alg = tower.ambient
    a_img, b_img = tower.rel_a.images, tower.rel_b.images
    da, db = a_img.shape[1], b_img.shape[1]
    gram = pairing_values(tower, a_img, b_img)
    gram_inv = np.linalg.inv(gram)
    aa = alg.pairwise_mul(a_img.T, a_img.T).reshape(da * da, -1)
    paired = pairing_values(tower, aa.T, b_img).reshape(da, da, db)
    bb = alg.pairwise_mul(b_img.T, b_img.T).reshape(db * db, -1)
    paired_a = pairing_values(tower, a_img, bb.T).reshape(da, db, db)
    conj_gram = np.conj(pairing_values(tower, alg.adjoint_vecs(a_img.T).T,
                                       alg.adjoint_vecs(b_img.T).T))
    on_b = (np.einsum("pi,qj,ijb->bpq", gram_inv, gram_inv, paired),
            (tower.d / tower.lam) * tower.tau.values(alg.mul_vecs(b_img.T, tower.e2.vec)),
            gram_inv @ conj_gram)
    on_a = (np.einsum("ip,jq,aij->apq", gram_inv, gram_inv, paired_a),
            pairing_values(tower, a_img, alg.unit().vec[:, None])[:, 0],
            np.linalg.solve(gram.T, conj_gram.T))
    return on_b, on_a


@pytest.mark.parametrize("name", TOWER_NAMES)
def test_structure_gathered_from_the_gram_matches_ambient_pairings(
        name, get_tower, get_reconstruction):
    tower, rec = get_tower(name), get_reconstruction(name)
    for bundle, expected in zip((rec.on_b, rec.on_a), ambient_structure(tower)):
        hopf = bundle.hopf
        for got, want in zip((hopf.delta, hopf.epsilon, hopf.antipode), expected):
            assert rel_residual(got, want) <= 1e-13


def _bent_pairing(rec, scale=1e-3):
    gram = rec.pairing.gram
    noise = np.random.default_rng(5).standard_normal(gram.shape)
    return dataclasses.replace(
        rec, pairing=PairingForm(gram + scale * noise, rec.pairing.condition))


def test_pairing_rows_see_a_gram_that_is_not_the_towers(get_tower, get_reconstruction):
    # rows 1 and 17b read their left sides from the Gram matrix and pair
    # their right sides through the tower's trace
    tower, rec = get_tower("z3"), get_reconstruction("z3")
    rows = ["pairing against products", "counital pairing formula"]
    good = identity_suite(tower, rec)
    assert all(good[row].residual <= TOL for row in rows)
    bent = identity_suite(tower, _bent_pairing(rec))
    assert all(bent[row].residual > 1e-4 for row in rows)


def test_dual_bases_see_a_gram_that_is_not_the_towers(get_tower, get_reconstruction):
    # the normalization row reads G against its own inverse; the expectation
    # rows pair the comatrix units in the ambient and catch the bent form
    tower, rec = get_tower("z3"), get_reconstruction("z3")
    with pytest.raises(InvariantViolation, match="duality defect: (?!duality normalization)"):
        dual_bases(tower, _bent_pairing(rec))
