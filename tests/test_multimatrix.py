import numpy as np
import pytest

from weakhopf import _linalg
from weakhopf._linalg import null_space, rel_residual
from weakhopf.errors import InvariantViolation
from weakhopf.multimatrix import (
    ConditionalExpectation,
    InclusionMatrix,
    MultiMatrixAlgebra,
    SubalgebraEmbedding,
    TraceState,
    _commutant_from_units,
    basic_construction,
    center,
    inclusion_matrix,
    markov_trace,
    product_span_dim,
    relative_commutant,
    subalgebra_from_basis,
    take_units,
    watatani_index,
)
from weakhopf.tower import build_tower_from_inclusion

from conftest import dense_span_dim

RNG = np.random.default_rng(7)
TOL = 1e-9


def diag_in_m2():
    m2 = MultiMatrixAlgebra([2])
    c2 = MultiMatrixAlgebra([1, 1])
    images = np.zeros((4, 2), dtype=complex)
    images[0, 0] = 1.0
    images[3, 1] = 1.0
    return SubalgebraEmbedding(c2, m2, images)


def scalars_in(algebra):
    return SubalgebraEmbedding(MultiMatrixAlgebra([1]), algebra,
                               algebra.unit().vec[:, None])


def m2_in_m4_m2():
    # x -> (diag(x, x), x): the one sub block spreads over both ambient blocks
    amb = MultiMatrixAlgebra([4, 2])
    m2 = MultiMatrixAlgebra([2])
    images = np.zeros((amb.dim, m2.dim), dtype=complex)
    for i in range(2):
        for j in range(2):
            f = m2.basis_unit(0, i, j).blocks()[0]
            images[:, m2.basis_index(0, i, j)] = amb.from_blocks(
                [np.kron(np.eye(2), f), f]).vec
    return SubalgebraEmbedding(m2, amb, images)


def rotated(emb, seed=4):
    """``emb`` followed by conjugation with a random complex unitary per
    ambient block."""
    rng = np.random.default_rng(seed)
    amb = emb.ambient
    units = [np.linalg.qr(rng.standard_normal((m, m))
                          + 1j * rng.standard_normal((m, m)))[0] for m in amb.blocks]
    images = np.stack([amb.from_blocks([u @ x @ u.conj().T for u, x in
                                        zip(units, amb.block_views(col))]).vec
                       for col in emb.images.T], axis=1)
    return SubalgebraEmbedding(emb.sub, amb, images)


def random_element(algebra, rng=RNG):
    return algebra.element(rng.standard_normal(algebra.dim)
                           + 1j * rng.standard_normal(algebra.dim))


# -- elements ----------------------------------------------------------------


def test_element_arithmetic_and_adjoint():
    alg = MultiMatrixAlgebra([2, 3])
    assert alg.dim == 13
    x, y, z = (random_element(alg) for _ in range(3))
    assert rel_residual(((x * y) * z).vec, (x * (y * z)).vec) < 1e-14
    assert rel_residual((x * y).adjoint().vec, (y.adjoint() * x.adjoint()).vec) < 1e-14
    assert rel_residual(x.adjoint().adjoint().vec, x.vec) == 0
    assert rel_residual((x * alg.unit()).vec, x.vec) < 1e-15


def test_matrix_unit_relations():
    alg = MultiMatrixAlgebra([2, 2])
    f = alg.basis_unit
    assert rel_residual((f(0, 0, 1) * f(0, 1, 0)).vec, f(0, 0, 0).vec) == 0
    assert (f(0, 0, 1) * f(1, 1, 0)).norm() == 0
    assert rel_residual(f(0, 0, 1).adjoint().vec, f(0, 1, 0).vec) == 0


def test_pairwise_and_contract_helpers():
    alg = MultiMatrixAlgebra([2, 3])
    u = RNG.standard_normal((4, alg.dim)) + 1j * RNG.standard_normal((4, alg.dim))
    v = RNG.standard_normal((5, alg.dim)) + 1j * RNG.standard_normal((5, alg.dim))
    pair = alg.pairwise_mul(u, v)
    direct = alg.mul_vecs(u[:, None, :], v[None, :, :])
    assert rel_residual(pair, direct) < 1e-14


# -- embeddings ------------------------------------------------------------------


def dense_residuals(emb):
    """Reference for ``SubalgebraEmbedding.residuals``: the same residuals,
    with every gram and outer pair multiplied and the expected products
    built as dense (k, k, ambient.dim) arrays."""
    sub, amb = emb.sub, emb.ambient
    img = emb.images.T
    unital = rel_residual(emb.embed_vec(sub.unit().vec), amb.unit().vec)
    adjoint = rel_residual(sub.adjoint_vecs(np.eye(sub.dim)) @ img, amb.adjoint_vecs(img))
    labels = [(alpha, j) for alpha, m in enumerate(sub.blocks) for j in range(m)]
    w = img[[sub.basis_index(alpha, j, 0) for alpha, j in labels]]
    w_star = amb.adjoint_vecs(w)
    grams = amb.pairwise_mul(w_star, w)
    outer = amb.pairwise_mul(w, w_star)
    expected_grams = np.zeros_like(grams)
    expected_outer = np.zeros_like(outer)
    for a, (alpha, j) in enumerate(labels):
        expected_grams[a, a] = img[sub.basis_index(alpha, 0, 0)]
        for b, (beta, l) in enumerate(labels):
            if alpha == beta:
                expected_outer[a, b] = img[sub.basis_index(alpha, j, l)]
    corners = np.stack([img[sub.basis_index(alpha, 0, 0)] for alpha, _ in labels])
    multiplicative = max(rel_residual(grams, expected_grams),
                         rel_residual(outer, expected_outer),
                         rel_residual(amb.mul_vecs(corners, w_star), w_star))
    return {"unital": unital, "adjoint": adjoint, "multiplicative": multiplicative}


def dense_verify(emb):
    return max(dense_residuals(emb).values())


def non_orthogonal_m2():
    # f_10 -> (f_10 + f_00)/sqrt(2) and f_01 -> its adjoint: the unit and the
    # adjoints still hold, but the first-column images are not orthogonal
    m2 = MultiMatrixAlgebra([2])
    f = m2.basis_unit
    images = np.eye(4, dtype=complex)
    images[:, m2.basis_index(0, 1, 0)] = (f(0, 1, 0).vec + f(0, 0, 0).vec) / np.sqrt(2)
    images[:, m2.basis_index(0, 0, 1)] = (f(0, 0, 1).vec + f(0, 0, 0).vec) / np.sqrt(2)
    return SubalgebraEmbedding(m2, m2, images)


def perturbed_m2_in_m4_m2():
    emb = m2_in_m4_m2()
    noise = np.random.default_rng(3).standard_normal(emb.images.shape)
    return SubalgebraEmbedding(emb.sub, emb.ambient, emb.images + 1e-6 * noise)


def test_verify_flags_non_orthogonal_first_column():
    assert SubalgebraEmbedding.identity(MultiMatrixAlgebra([2])).verify() < 1e-15
    assert non_orthogonal_m2().verify() > 1e-3


@pytest.mark.parametrize("make", [diag_in_m2, m2_in_m4_m2, non_orthogonal_m2,
                                  perturbed_m2_in_m4_m2])
def test_verify_matches_dense_reference(make):
    emb = make()
    assert emb.verify() == dense_verify(emb)


@pytest.mark.parametrize("make", [diag_in_m2, m2_in_m4_m2,
                                  lambda: rotated(m2_in_m4_m2())],
                         ids=["diag_in_m2", "m2_in_m4_m2", "rotated"])
def test_coords_match_pseudo_inverse(make, monkeypatch):
    emb = make()
    vecs = RNG.standard_normal((3, emb.sub.dim)) @ emb.images.T
    reference = vecs @ np.linalg.pinv(emb.images, rcond=1e-12).T
    assert rel_residual(emb.coords_vec(vecs), reference) < 1e-13

    # one membership test over the whole stack, also swept row by row: the
    # deviation of the last row is large against its own entries and small
    # against the stack's largest
    outside = null_space(emb.images.conj().T)[:, 0]
    stack = np.concatenate([1e4 * vecs[:2], vecs[2:] + 1e-3 * outside])
    with pytest.raises(InvariantViolation, match="vector does not lie"):
        emb.coords_vec(stack[2:])
    whole = emb.coords_vec(stack)
    monkeypatch.setattr(_linalg, "_SLAB", 1)
    assert np.array_equal(emb.coords_vec(stack), whole)
    with pytest.raises(InvariantViolation, match="vector does not lie"):
        emb.coords_vec(vecs + outside)


def m2_c_in_m3_m2():
    # (x, c) -> (x + c, x): a non-commutative sub of two blocks spread over
    # two ambient blocks
    amb = MultiMatrixAlgebra([3, 2])
    sub = MultiMatrixAlgebra([2, 1])
    images = np.zeros((amb.dim, sub.dim), dtype=complex)
    for i, (alpha, r, c) in enumerate(sub.basis_labels()):
        big, small = np.zeros((3, 3)), np.zeros((2, 2))
        big[2 * alpha + r, 2 * alpha + c] = 1.0
        if alpha == 0:
            small[r, c] = 1.0
        images[:, i] = amb.from_blocks([big, small]).vec
    return SubalgebraEmbedding(sub, amb, images)


@pytest.mark.parametrize("make", [m2_in_m4_m2, m2_c_in_m3_m2,
                                  lambda: rotated(m2_c_in_m3_m2())],
                         ids=["m2_in_m4_m2", "m2_c_in_m3_m2", "rotated"])
def test_bilinear_forms_on_unit_products_and_adjoints_are_gathers(make):
    # a *-homomorphism maps a product of units to a unit or zero and the
    # adjoint of a unit to a unit, so a bilinear form F on the images is
    # read on their products and adjoints from its values g on the images
    emb = make()
    assert emb.verify() < 1e-13
    rng = np.random.default_rng(11)
    form = rng.standard_normal((emb.ambient.dim,) * 2) \
        + 1j * rng.standard_normal((emb.ambient.dim,) * 2)
    img, sub = emb.images, emb.sub
    g = img.T @ form @ img
    products = emb.ambient.pairwise_mul(img.T, img.T)  # (i, j, ambient)
    assert rel_residual(products @ form @ img, take_units(g, sub.product_index)) < 1e-13
    stars = emb.ambient.adjoint_vecs(img.T)
    assert rel_residual(stars @ form @ stars.T,
                        g[sub.adjoint_index][:, sub.adjoint_index]) < 1e-13


def test_unit_gathers_fail_off_a_homomorphism():
    # the gathers read a form correctly only on the images of a
    # *-homomorphism: non-orthogonal images break the product table, and
    # f_01 -> i f_01 breaks the adjoint table
    form = np.random.default_rng(11).standard_normal((4, 4))
    for emb in (non_orthogonal_m2(), star_broken_m2()):
        img, sub = emb.images, emb.sub
        g = img.T @ form @ img
        products = emb.ambient.pairwise_mul(img.T, img.T)
        stars = emb.ambient.adjoint_vecs(img.T)
        worst = max(rel_residual(products @ form @ img, take_units(g, sub.product_index)),
                    rel_residual(stars @ form @ stars.T,
                                 g[sub.adjoint_index][:, sub.adjoint_index]))
        assert worst > 1e-3


def test_restricted_trace_weighs_the_corner_images():
    # block alpha of the sub weighs tau(image of f^alpha_00): on
    # x -> (diag(x, x), x) with ambient weights (w4, w2) that is 2 w4 + w2;
    # on (x, c) -> (x + c, x) it is w3 + w2 for x and w3 for c
    trace = TraceState(MultiMatrixAlgebra([4, 2]), [0.2, 0.1])
    restricted = m2_in_m4_m2().restrict(trace)
    assert restricted.algebra == MultiMatrixAlgebra([2])
    np.testing.assert_allclose(restricted.weights, [0.5], rtol=1e-15)
    emb = rotated(m2_c_in_m3_m2())
    restricted = emb.restrict(TraceState(emb.ambient, [0.25, 0.125]))
    np.testing.assert_allclose(restricted.weights, [0.375, 0.25], rtol=1e-14)


def star_broken_m2():
    # f_01 -> i f_01: unital and multiplicative on the first column, but
    # image(f_01) is not the adjoint of image(f_10)
    m2 = MultiMatrixAlgebra([2])
    images = np.eye(4, dtype=complex)
    images[1, 1] = 1j
    return SubalgebraEmbedding(m2, m2, images)


@pytest.mark.parametrize("slab", [None, 1])
@pytest.mark.parametrize("make", [diag_in_m2, m2_in_m4_m2, non_orthogonal_m2,
                                  perturbed_m2_in_m4_m2, star_broken_m2])
def test_adjoint_residual_is_the_dense_permutation_product(make, slab, monkeypatch):
    # the gather through adjoint_index gives the value of the dense
    # (sub.dim, sub.dim) permutation product, also swept row by row
    emb = make()
    img = emb.images.T
    dense = rel_residual(emb.sub.adjoint_vecs(np.eye(emb.sub.dim)) @ img,
                         emb.ambient.adjoint_vecs(img))
    if slab is not None:
        monkeypatch.setattr(_linalg, "_SLAB", slab)
    assert emb.residuals()["adjoint"] == dense
    if make is star_broken_m2:
        assert dense > 0.5


def test_coords_reject_non_homomorphic_images():
    # f_10 lies in the span of the images, but the images are not orthogonal,
    # so the scaled conjugate transpose misses it and back-substitution fails
    emb = non_orthogonal_m2()
    target = emb.ambient.basis_unit(0, 1, 0).vec
    assert rel_residual(emb.images @ np.linalg.solve(emb.images, target), target) < 1e-14
    with pytest.raises(InvariantViolation,
                       match="vector does not lie in the subalgebra image"):
        emb.coords_vec(target[None, :])


@pytest.mark.parametrize("check", ["markov", "require_valid", "coords_vec"])
def test_nan_residuals_are_refused(check):
    # every refusal holds its residual to ``<= bound``, which a NaN fails
    # like a residual above the bound; ``> bound`` let a NaN through
    emb = scalars_in(MultiMatrixAlgebra([2]))
    if check == "markov":
        with pytest.raises(InvariantViolation, match="trace not Markov"):
            build_tower_from_inclusion([1], [[1, 1]], [0.5, 0.5], float("nan"))
    elif check == "require_valid":
        images = emb.images.copy()
        images[0, 0] = np.nan
        bent = SubalgebraEmbedding(emb.sub, emb.ambient, images)
        assert np.isnan(bent.verify())
        with pytest.raises(InvariantViolation, match="not a subalgebra"):
            bent.require_valid()
    else:
        vec = np.full((1, emb.ambient.dim), np.nan, dtype=complex)
        with pytest.raises(InvariantViolation,
                           match="vector does not lie in the subalgebra image"):
            emb.coords_vec(vec)


# -- conditional expectations --------------------------------------------------


def test_expectation_onto_diagonal():
    sub = diag_in_m2()
    tr = TraceState(sub.ambient, [0.5])
    expect = ConditionalExpectation(sub, tr)
    offdiag = sub.ambient.element([0, 1, 1, 0])
    assert expect(offdiag).norm() < 1e-15
    x = sub.ambient.element([1, 2, 3, 4])
    assert rel_residual(expect(x).vec, [1, 0, 0, 4]) < 1e-14


def test_expectation_onto_scalars_is_trace():
    alg = MultiMatrixAlgebra([2, 1])
    tr = TraceState(alg, [0.3, 0.4])  # normalized: 2*0.3 + 0.4 = 1
    expect = ConditionalExpectation(scalars_in(alg), tr)
    x = random_element(alg)
    assert rel_residual(expect(x).vec, complex(tr.value(x)) * alg.unit().vec) < 1e-13


def test_expectation_properties_random():
    alg = MultiMatrixAlgebra([3])
    sub = subalgebra_from_basis(alg, np.stack([
        alg.unit().vec,
        alg.basis_unit(0, 0, 0).vec,
        alg.basis_unit(0, 1, 1).vec + alg.basis_unit(0, 2, 2).vec,
    ]).T, rng=np.random.default_rng(3))
    tr = TraceState(alg, [1 / 3])
    expect = ConditionalExpectation(sub, tr)
    x, y = random_element(alg), random_element(alg)
    a = sub.embed(random_element(sub.sub))
    b = sub.embed(random_element(sub.sub))
    # trace compatibility, idempotence, bimodule property
    assert abs(tr.value(expect(x) * b) - tr.value(x * b)) < 1e-12
    assert rel_residual(expect(expect(x)).vec, expect(x).vec) < 1e-13
    assert rel_residual(expect(a * x * b).vec, (a * expect(x) * b).vec) < 1e-13


def gram_solve_expectation(sub, trace):
    """The (ambient, ambient) matrix the closed form replaces: the
    tau-orthogonal projection V (V* W V)^-1 V* W through a Gram solve."""
    v = sub.images
    weighted = v * trace.metric_weights[:, None]
    return v @ np.linalg.solve(v.conj().T @ weighted, weighted.conj().T)


@pytest.mark.parametrize("make, weights", [(diag_in_m2, [0.5]),
                                           (m2_in_m4_m2, [0.2, 0.1])],
                         ids=["diag_in_m2", "m2_in_m4_m2"])
def test_expectation_matches_the_gram_solve(make, weights):
    sub = make()
    tr = TraceState(sub.ambient, weights)
    expect = ConditionalExpectation(sub, tr)
    eye = np.eye(sub.ambient.dim)
    rows = expect.apply_vec(eye)  # E(u_i), row by row
    assert rel_residual(rows, gram_solve_expectation(sub, tr).T) < 1e-12
    # coords are the sub coordinates of E(x)
    assert rel_residual(expect.coords(eye), sub.coords_vec(rows)) < 1e-13


@pytest.mark.parametrize("which", ["expect_top", "expect_mid", "expect_start",
                                   "expect_mid_commutant"])
def test_tower_expectations_match_the_gram_solve(which, get_tower):
    tower = get_tower("z3")
    expect = getattr(tower, which)
    rows = expect.apply_vec(np.eye(tower.ambient.dim))
    assert rel_residual(rows, gram_solve_expectation(expect.sub, tower.tau).T) < 1e-12


def test_expectation_rejects_a_zero_image_column():
    # tau(v_j* v_j) = 0 for the zero column: the ratio of the largest to the
    # smallest squared image norm is infinite
    sub = diag_in_m2()
    images = sub.images.copy()
    images[:, 1] = 0
    bad = SubalgebraEmbedding(sub.sub, sub.ambient, images)
    with pytest.raises(InvariantViolation, match="degenerate trace"):
        ConditionalExpectation(bad, TraceState(sub.ambient, [0.5]))


def test_outside_reads_the_back_substitution_residual(get_tower):
    tower = get_tower("z3")
    for emb in (tower.rel_a, tower.rel_b, tower.sub_top, tower.cartan_target):
        inside = RNG.standard_normal((3, emb.sub.dim)) @ emb.images.T
        assert emb.outside(emb.images.T) <= 1e-12
        assert emb.outside(inside) <= 1e-12
        assert emb.outside(inside[0]) <= 1e-12
    # e2 is not in M1, so not in A = N' cap M1
    assert tower.rel_a.outside(tower.e2.vec) > 1e-4
    assert tower.sub_top.outside(tower.e2.vec) > 1e-4
    off = diag_in_m2().ambient.basis_unit(0, 0, 1).vec
    assert diag_in_m2().outside(off) > 1e-4
    # coords_vec refuses exactly what outside reads above MEMBERSHIP_TOL
    with pytest.raises(InvariantViolation, match="vector does not lie"):
        tower.rel_a.coords_vec(tower.e2.vec)


def test_degenerate_trace_rejected():
    with pytest.raises(InvariantViolation, match="degenerate trace"):
        TraceState(MultiMatrixAlgebra([2]), [0.0])


@pytest.mark.parametrize("units, message", [
    ([None, (0, 1)], "not a subalgebra"),
    ([(0, 0)], "subspace does not contain the unit"),
], ids=["not_product_closed", "no_unit"])
def test_non_subalgebra_rejected(units, message):
    alg = MultiMatrixAlgebra([2])
    span = np.stack([alg.unit().vec if u is None else alg.basis_unit(0, *u).vec
                     for u in units]).T
    with pytest.raises(InvariantViolation, match=message):
        subalgebra_from_basis(alg, span)


# -- commutants, centers -------------------------------------------------------


def test_commutant_of_full_block_is_scalars():
    alg = MultiMatrixAlgebra([3])
    comm = relative_commutant(SubalgebraEmbedding.identity(alg))
    assert comm.sub.blocks == (1,)


def test_commutant_of_scalars_is_everything():
    alg = MultiMatrixAlgebra([3])
    comm = relative_commutant(scalars_in(alg))
    assert comm.sub.dim == alg.dim
    assert sorted(comm.sub.blocks) == [3]


def test_commutant_of_diagonal_is_diagonal():
    comm = relative_commutant(diag_in_m2())
    assert comm.sub.blocks == (1, 1)
    # the span is exactly the diagonal
    assert np.abs(comm.images[[1, 2], :]).max() < 1e-12


def test_centers():
    assert center(SubalgebraEmbedding.identity(MultiMatrixAlgebra([4]))).sub.blocks == (1,)
    c = center(SubalgebraEmbedding.identity(MultiMatrixAlgebra([1] * 3)))
    assert c.sub.dim == 3
    z = center(SubalgebraEmbedding.identity(MultiMatrixAlgebra([2, 3])))
    assert z.sub.blocks == (1, 1)


def nullspace_commutant(sub, within=None):
    """Reference commutant: the null space of the commutators with every
    image of ``sub``, inside the span of ``within`` (default: the ambient)."""
    amb = sub.ambient
    carrier = np.eye(amb.dim, dtype=complex) if within is None else within.images
    eye = np.eye(amb.dim)
    rows = [(amb.mul_vecs(g, eye) - amb.mul_vecs(eye, g)).T @ carrier for g in sub.images.T]
    return carrier @ null_space(np.vstack(rows), TOL)


def assert_matches_null_space(comm, sub, within=None):
    span = nullspace_commutant(sub, within)
    assert comm.sub.dim == span.shape[1]
    assert comm.outside(span.T) <= 1e-10
    ref = subalgebra_from_basis(sub.ambient, span, rng=np.random.default_rng(0))
    assert sorted(comm.sub.blocks) == sorted(ref.sub.blocks)


@pytest.mark.parametrize("make", [
    lambda: (diag_in_m2(), None),
    lambda: (m2_in_m4_m2(), None),
    lambda: (rotated(m2_in_m4_m2()), None),
    lambda: (diag_in_m2().compose(m2_in_m4_m2()), m2_in_m4_m2()),
], ids=["diag_in_m2", "m2_in_m4_m2", "m2_in_m4_m2_rotated", "diag_within_m2"])
def test_commutant_matches_null_space_reference(make):
    sub, within = make()
    assert_matches_null_space(relative_commutant(sub, within), sub, within)


@pytest.mark.parametrize("attr, sub, within", [
    ("rel_a", "sub_start", "sub_top"),
    ("rel_b", "sub_mid", None),
    ("cartan_target", "sub_mid", "sub_top"),
    ("cartan_source", "sub_top", None),
    ("start_commutant_full", "sub_start", None),
])
def test_tower_commutants_match_null_space_reference(attr, sub, within, get_tower):
    tower = get_tower("z3")
    assert_matches_null_space(getattr(tower, attr), getattr(tower, sub),
                              None if within is None else getattr(tower, within))


def test_commutant_rejects_non_homomorphism():
    # f_ab -> f_ab (x) 1 in M_2 (x) M_2, except f_11 -> f_11 (x) f_00: the
    # first column is intact, so the commutant units would be valid matrix
    # units that fail to commute with the broken image; the input is
    # checked, so it is refused before they are built
    m2, m4 = MultiMatrixAlgebra([2]), MultiMatrixAlgebra([4])
    images = np.stack([m4.from_blocks([np.kron(u.reshape(2, 2), np.eye(2))]).vec
                       for u in np.eye(4)], axis=1)
    f00, f11 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    images[:, m2.basis_index(0, 1, 1)] = m4.from_blocks([np.kron(f11, f00)]).vec
    with pytest.raises(InvariantViolation, match="not a subalgebra"):
        relative_commutant(SubalgebraEmbedding(m2, m4, images))


# -- spans of products over two subalgebras ------------------------------------


@pytest.mark.parametrize("rotate", [False, True], ids=["units", "rotated"])
@pytest.mark.parametrize("make", [diag_in_m2, lambda: c2_in_m3(), m2_in_m4_m2],
                         ids=["diag_in_m2", "c2_in_m3", "m2_in_m4_m2"])
def test_product_span_matches_the_all_pairs_rank(make, rotate):
    # X the subalgebra, Y itself or its commutant: blocks of size 1 and 2
    # give corners of weights 1, 2 and 4, and the rotated units are dense.
    # w is the unit, a minimal projection of the ambient (partial ranks) or
    # a random element
    sub = rotated(make()) if rotate else make()
    amb = sub.ambient
    w_values = [amb.unit().vec, amb.basis_unit(0, 0, 0).vec,
                random_element(amb, np.random.default_rng(2)).vec]
    for right in (sub, relative_commutant(sub)):
        for w in w_values:
            assert product_span_dim(sub, w, right) == dense_span_dim(sub, w, right)


# -- inclusion matrices and Markov data ----------------------------------------


def test_inclusion_matrix_examples():
    c2 = MultiMatrixAlgebra([1, 1])
    lam = inclusion_matrix(scalars_in(c2))
    assert lam.entries.tolist() == [[1, 1]]
    lam = inclusion_matrix(diag_in_m2())
    assert lam.entries.tolist() == [[1], [1]]
    lam = inclusion_matrix(SubalgebraEmbedding.identity(MultiMatrixAlgebra([3])))
    assert lam.entries.tolist() == [[1]]


def test_markov_trace_examples():
    idx, vec = markov_trace(InclusionMatrix([[1]], (1,), (1,)))
    assert abs(idx - 1) < 1e-12 and np.allclose(vec, [1.0])
    idx, vec = markov_trace(InclusionMatrix([[1, 1]], (1,), (1, 1)))
    assert abs(idx - 2) < 1e-12 and np.allclose(vec, [1.0])
    idx, vec = markov_trace(InclusionMatrix([[1, 1], [1, 1]], (1, 1), (1, 1)))
    assert abs(idx - 4) < 1e-12
    assert np.allclose(vec, [0.5, 0.5])


def test_markov_trace_eigen_residual_and_positivity():
    lam = InclusionMatrix([[1, 1, 0], [0, 1, 1]], (1, 1), (1, 1, 1))
    idx, vec = markov_trace(lam)
    assert rel_residual(lam.product_with_transpose @ vec, idx * vec) < TOL
    assert np.all(vec > 0)


def test_markov_trace_disconnected_rejected():
    lam = InclusionMatrix([[1, 0], [0, 1]], (1, 1), (1, 1))
    with pytest.raises(InvariantViolation, match="not connected"):
        markov_trace(lam)


def test_watatani_index_examples():
    c2 = MultiMatrixAlgebra([1, 1])
    w = watatani_index(TraceState(c2, [1 / 3, 2 / 3]))
    assert rel_residual(w.vec, [3.0, 1.5]) < 1e-14
    scalars = MultiMatrixAlgebra([1])
    assert rel_residual(watatani_index(TraceState(scalars, [1.0])).vec, [1.0]) == 0
    c4 = MultiMatrixAlgebra([1] * 4)
    w = watatani_index(TraceState(c4, [0.25] * 4))
    assert rel_residual(w.vec, 4.0 * np.ones(4)) < 1e-14


def test_watatani_uniform_weights_give_unit():
    alg = MultiMatrixAlgebra([2, 1, 3])
    d = alg.dim
    weights = np.array([m / d for m in alg.blocks])
    w = watatani_index(TraceState(alg, weights))
    assert rel_residual(w.vec / d, alg.unit().vec) < 1e-14


# -- basic construction --------------------------------------------------------


def gns_basic_construction(sub, trace):
    """Reference basic construction on the trace-GNS space L2(M): the
    commutant of the right action of N, as ``(realization, inclusion, e)``.
    ``realization`` embeds the extension in the operators on L2(M);
    ``inclusion`` holds the coordinates of every L_x (rows, x over the
    units of M) and ``e`` those of the projection onto L2(N), each
    back-substituted into the realization, which checks that they lie in
    it."""
    amb = sub.ambient
    root = np.sqrt(trace.metric_weights)

    def as_operator(mat):
        # conjugate into the orthonormal GNS coordinates
        return (root[:, None] * mat / root[None, :]).reshape(-1)

    # R(f_0c) maps L2(M) f_00 isometrically onto L2(M) f_cc, in the part of
    # the image of f_c0 (right multiplication reverses products)
    rights = [np.stack([as_operator(amb.mul_vecs(
        np.eye(amb.dim), sub.images[:, sub.sub.basis_index(alpha, 0, c)]).T) for c in range(k)])
        for alpha, k in enumerate(sub.sub.blocks)]
    realization = _commutant_from_units(MultiMatrixAlgebra([amb.dim]), rights)
    lefts = np.stack([as_operator(amb.mul_vecs(x, np.eye(amb.dim)).T) for x in np.eye(amb.dim)])
    q = np.linalg.qr(sub.images * root[:, None])[0]
    proj = (q @ q.conj().T).reshape(-1)
    assert realization.outside(np.vstack([lefts, proj])) < 1e-12
    return realization, realization.coords_vec(lefts), realization.coords_vec(proj)


def test_basic_construction_scalars_in_c2():
    c2 = MultiMatrixAlgebra([1, 1])
    sub = scalars_in(c2)
    tr = TraceState(c2, [0.5, 0.5])
    ext = basic_construction(sub, tr, 0.5)
    assert ext.algebra.blocks == (2,)
    # L2(C^2) = C^2 in the basis (j, r, t) = (0, 0, 0), (1, 0, 0), and e
    # projects onto the constants
    assert rel_residual(ext.e.vec, 0.5 * np.ones(4)) < 1e-12
    realization, _, e = gns_basic_construction(sub, tr)
    assert rel_residual(realization.embed_vec(e), 0.5 * np.ones(4)) < 1e-12
    assert abs(ext.extended_trace.value(ext.e) - 0.5) < 1e-12


def test_basic_construction_diag_in_m2():
    sub = diag_in_m2()
    tr = TraceState(sub.ambient, [0.5])
    ext = basic_construction(sub, tr, 0.5)
    assert ext.algebra.dim == 8
    assert sorted(ext.algebra.blocks) == [2, 2]


def test_basic_construction_identity_inclusion():
    m2 = MultiMatrixAlgebra([2])
    ext = basic_construction(SubalgebraEmbedding.identity(m2),
                             TraceState(m2, [0.5]), 1.0)
    assert (ext.e - ext.algebra.unit()).norm() < 1e-12
    assert ext.algebra.blocks == (2,)


def c2_in_m3():
    # (a, b) -> diag(a, b, b): Lambda = [[1], [2]]
    m3 = MultiMatrixAlgebra([3])
    images = np.zeros((9, 2), dtype=complex)
    images[0, 0] = 1.0
    images[[4, 8], 1] = 1.0
    return SubalgebraEmbedding(MultiMatrixAlgebra([1, 1]), m3, images)


def test_extended_trace_is_lam_lambda_tau():
    # tau = 1/3 on M_3 is Markov for Lambda = [[1], [2]] at lam = 1/5
    # (Lambda^T Lambda tau = 5 tau), and the extension's weights are
    # lam Lambda tau = (1/15, 2/15) on its blocks (3, 6)
    sub = c2_in_m3()
    tr = TraceState(sub.ambient, [1 / 3])
    ext = basic_construction(sub, tr, 0.2)
    assert ext.algebra.blocks == (3, 6)
    np.testing.assert_allclose(ext.extended_trace.weights, [1 / 15, 2 / 15], rtol=1e-15)
    assert abs(ext.extended_trace.value(ext.algebra.unit()) - 1.0) < 1e-15
    assert rel_residual(ext.extended_trace.values(ext.inclusion.images.T),
                        tr.coefficient_weights) < 1e-15


def test_basic_construction_rejects_wrong_modulus():
    c2 = MultiMatrixAlgebra([1, 1])
    with pytest.raises(InvariantViolation, match="trace not Markov"):
        basic_construction(scalars_in(c2), TraceState(c2, [0.5, 0.5]), 0.25)


def test_basic_construction_rejects_a_sub_that_is_not_a_homomorphism():
    # the image of f_10 doubled: the ranges of f_00 and the copy map are
    # unchanged, so only the check of ``sub`` itself sees it
    sub = m2_in_m4_m2()
    images = sub.images.copy()
    images[:, sub.sub.basis_index(0, 1, 0)] *= 2.0
    bent = SubalgebraEmbedding(sub.sub, sub.ambient, images)
    with pytest.raises(InvariantViolation, match="not a subalgebra"):
        basic_construction(bent, TraceState(sub.ambient, [0.2, 0.1]), 0.2)


# inclusions with a Markov trace and its modulus, and the extension's blocks
JONES_FIXTURES = [(diag_in_m2, [0.5], 0.5, [2, 2]),
                  (c2_in_m3, [1 / 3], 0.2, [3, 6]),
                  (m2_in_m4_m2, [0.2, 0.1], 0.2, [10])]


@pytest.mark.parametrize("rotate", [False, True], ids=["units", "rotated"])
@pytest.mark.parametrize("fixture, weights, lam, blocks", JONES_FIXTURES,
                         ids=["diag_in_m2", "c2_in_m3", "m2_in_m4_m2"])
def test_jones_extension_invariants(fixture, weights, lam, blocks, rotate):
    sub = rotated(fixture()) if rotate else fixture()
    tr = TraceState(sub.ambient, weights)
    ext = basic_construction(sub, tr, lam)
    assert sorted(ext.algebra.blocks) == blocks
    alg = ext.algebra
    e = ext.e.vec
    imgs = ext.inclusion.images.T
    expect = ConditionalExpectation(ext.sub_projection, ext.extended_trace)
    exe = alg.mul_vecs(e, alg.mul_vecs(imgs, e))
    assert rel_residual(exe, alg.mul_vecs(expect.apply_vec(imgs), e)) < TOL
    assert rel_residual(ext.extended_trace.values(alg.mul_vecs(imgs, e)),
                        lam * tr.values(np.eye(sub.ambient.dim))) < TOL
    assert abs(ext.extended_trace.value(ext.e) - lam) < 1e-12

    # the same extension as the GNS reference builds it, compared by what no
    # choice of basis changes: the blocks with their weights lam tau(f_00),
    # and tau_ext(x e y) over every pair of units x, y of M
    realization, ref_imgs, ref_e = gns_basic_construction(sub, tr)
    ref_alg = realization.sub
    ref_trace = TraceState(ref_alg, lam * sub.restrict(tr).weights)
    ref = sorted(zip(ref_alg.blocks, ref_trace.weights))
    got = sorted(zip(alg.blocks, ext.extended_trace.weights))
    assert [m for m, _ in got] == [m for m, _ in ref]
    np.testing.assert_allclose([w for _, w in got], [w for _, w in ref], rtol=1e-14)
    xey = ext.extended_trace.product_values(alg.mul_vecs(imgs, e), imgs)
    ref_xey = ref_trace.product_values(ref_alg.mul_vecs(ref_imgs, ref_e), ref_imgs)
    assert rel_residual(xey, ref_xey) < 1e-12


@pytest.mark.parametrize("rotate", [False, True], ids=["units", "rotated"])
@pytest.mark.parametrize("fixture, weights, lam, blocks", JONES_FIXTURES,
                         ids=["diag_in_m2", "c2_in_m3", "m2_in_m4_m2"])
def test_jones_inclusion_is_an_exact_homomorphism(fixture, weights, lam, blocks, rotate):
    # the copy map x_j -> x_j (x) 1 reads no number of sub (rotated or not)
    # or of the trace, so its residuals are exact zeros; this is why
    # basic_construction checks only its input
    sub = rotated(fixture()) if rotate else fixture()
    ext = basic_construction(sub, TraceState(sub.ambient, weights), lam)
    assert sorted(ext.algebra.blocks) == blocks
    assert ext.inclusion.verify() == 0.0


@pytest.mark.parametrize("rotate", [False, True], ids=["units", "rotated"])
def test_jones_inclusion_check_rejects_a_moved_copy(rotate):
    # c2 in m3 has Lambda = [[1], [2]], so block 1 of the extension holds two
    # copies of M_3, in the slots t = 0, 1 of the basis (r, t).  A turned e
    # is left to the tower premises ("e2 implements expectation onto M")
    sub = rotated(c2_in_m3()) if rotate else c2_in_m3()
    ext = basic_construction(sub, TraceState(sub.ambient, [1 / 3]), 0.2)
    alg = ext.algebra
    ext.inclusion.require_valid(TOL)

    # the copy t = 0 of E_00 moves from ((0, 0), (0, 0)) to ((0, 0), (0, 1))
    images = ext.inclusion.images.copy()
    unit = sub.ambient.basis_index(0, 0, 0)
    images[alg.basis_index(1, 0, 0), unit] = 0.0
    images[alg.basis_index(1, 0, 1), unit] = 1.0
    moved = SubalgebraEmbedding(sub.ambient, alg, images)
    with pytest.raises(InvariantViolation, match="not a subalgebra"):
        moved.require_valid(TOL)


@pytest.mark.parametrize("blocks, weights, lam, first_blocks, second_blocks", [
    ((1, 1), [0.5, 0.5], 0.5, (2,), (2, 2)),
    ((1, 2), [0.2, 0.4], 0.2, (5,), (5, 10)),
], ids=["c_in_c2", "c_in_c_m2"])
def test_bratteli_reflection(blocks, weights, lam, first_blocks, second_blocks):
    # iterating the construction reflects the inclusion matrix
    amb = MultiMatrixAlgebra(blocks)
    sub = scalars_in(amb)
    tr = TraceState(amb, weights)
    first = basic_construction(sub, tr, lam)
    assert first.algebra.blocks == first_blocks
    lam0 = inclusion_matrix(sub)
    lam1 = inclusion_matrix(first.inclusion)
    assert lam1.entries.tolist() == lam0.entries.T.tolist()
    second = basic_construction(first.inclusion, first.extended_trace, lam)
    assert second.algebra.blocks == second_blocks
    lam2 = inclusion_matrix(second.inclusion)
    assert lam2.entries.tolist() == lam0.entries.tolist()
    pattern = lam0.entries.T @ (lam0.entries @ np.asarray(amb.blocks))
    assert sorted(second.algebra.blocks) == sorted(pattern.tolist())


@pytest.mark.parametrize("sizes", [(1, 1, 1), (1, 2)], ids=["diagonal", "m1_m2"])
def test_recognized_subalgebra_roundtrip(sizes):
    # a randomly conjugated block-diagonal subalgebra of M3 is recognized with
    # clean units
    alg = MultiMatrixAlgebra([3])
    rng = np.random.default_rng(5)
    herm = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q = np.linalg.qr(herm)[0]
    block_diag = MultiMatrixAlgebra(sizes)
    vecs = []
    for mat in np.eye(block_diag.dim):
        inner = np.zeros((3, 3), dtype=complex)
        start = 0
        for part in block_diag.block_views(mat):
            m = part.shape[0]
            inner[start:start + m, start:start + m] = part
            start += m
        vecs.append(alg.from_blocks([q @ inner @ q.conj().T]).vec)
    emb = subalgebra_from_basis(alg, np.stack(vecs).T, rng=rng)
    assert sorted(emb.sub.blocks) == sorted(sizes)
    assert emb.verify() < 1e-12


def test_null_space_of_zero_matrix_is_full():
    assert null_space(np.zeros((4, 3))).shape[1] == 3


def test_an_embedding_is_checked_once(get_tower, monkeypatch):
    rel_b = get_tower("z3").rel_b
    emb = SubalgebraEmbedding(rel_b.sub, rel_b.ambient, rel_b.images)
    first = emb.residuals()
    with pytest.raises(ValueError, match="read-only"):
        emb.images[0, 0] += 1.0

    def no_product(*args, **kwargs):
        raise AssertionError("a product in a second check")

    for kernel in ("mul_vecs", "matmul_vecs", "pairwise_mul"):
        monkeypatch.setattr(MultiMatrixAlgebra, kernel, no_product)
    assert emb.residuals() == first and emb.verify() == max(first.values())
    monkeypatch.undo()
    images = emb.images.copy()
    images[:, 1] *= 2.0
    bent = SubalgebraEmbedding(emb.sub, emb.ambient, images)
    with pytest.raises(InvariantViolation, match="not a subalgebra"):
        bent.require_valid()
    assert emb.verify() < 1e-12


def loop_spectral(alg, vec, fun):
    """``apply_spectral`` with one ``eigh`` per block."""
    parts = []
    for mat in alg.block_views(vec):
        vals, vecs = np.linalg.eigh(mat)
        parts.append((vecs * fun(vals)) @ vecs.conj().T)
    return alg.from_blocks(parts).vec


@pytest.mark.parametrize("blocks", [(1, 1, 2, 2, 3, 1), (2,), (1, 1, 1)])
def test_run_factorizations_match_their_block_loop(blocks):
    # inverse, spectral calculus and positivity take one batched call per
    # run of equal blocks and read 1 x 1 runs elementwise; the reference is
    # one LAPACK call per block
    alg = MultiMatrixAlgebra(blocks)
    x = random_element(alg, np.random.default_rng(5)).vec
    inverse = alg.from_blocks([np.linalg.inv(mat) for mat in alg.block_views(x)]).vec
    assert rel_residual(alg.inverse_vec(x), inverse) <= 1e-14
    pos = alg.mul_vecs(alg.adjoint_vecs(x), x) + 0.1 * alg.unit().vec
    assert np.array_equal(alg.apply_spectral(pos, np.sqrt), loop_spectral(alg, pos, np.sqrt))
    assert rel_residual(alg.sqrt_posdef_vec(pos), loop_spectral(alg, pos, np.sqrt)) == 0
    assert alg.positive_residual(pos) <= 1e-15
    shifted = pos - 2 * max(np.linalg.eigvalsh(mat).max()
                            for mat in alg.block_views(pos)) * alg.unit().vec
    lowest = min(np.linalg.eigvalsh(mat).min() for mat in alg.block_views(shifted))
    assert alg.positive_residual(shifted) == -lowest / max(np.abs(shifted).max(), 1.0)
    with pytest.raises(InvariantViolation, match="not positive definite"):
        alg.sqrt_posdef_vec(shifted)
    singular = x.copy()
    singular[alg.block_slice(len(blocks) - 1)] = 0
    with pytest.raises(InvariantViolation, match="not invertible"):
        alg.inverse_vec(singular)
