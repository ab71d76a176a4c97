import numpy as np
import pytest

from weakhopf._linalg import (
    containment_residual,
    null_space,
    rel_residual,
    subspace_residual,
)
from weakhopf.errors import InvariantViolation
from weakhopf.multimatrix import (
    ConditionalExpectation,
    InclusionMatrix,
    MultiMatrixAlgebra,
    SubalgebraEmbedding,
    TraceState,
    basic_construction,
    center,
    inclusion_matrix,
    markov_trace,
    relative_commutant,
    subalgebra_from_basis,
    watatani_index,
)

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


def dense_verify(emb):
    """Reference for ``SubalgebraEmbedding.verify``: the same residuals, with
    the expected products built as dense (k, k, ambient.dim) arrays."""
    sub, amb = emb.sub, emb.ambient
    img = emb.images.T
    res = rel_residual(emb.embed_vec(sub.unit().vec), amb.unit().vec)
    res = max(res, rel_residual(sub.adjoint_vecs(np.eye(sub.dim)) @ img,
                                amb.adjoint_vecs(img)))
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
    return max(res, rel_residual(grams, expected_grams),
               rel_residual(outer, expected_outer),
               rel_residual(amb.mul_vecs(corners, w_star), w_star))


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
def test_coords_match_pseudo_inverse(make):
    emb = make()
    vecs = RNG.standard_normal((3, emb.sub.dim)) @ emb.images.T
    reference = vecs @ np.linalg.pinv(emb.images, rcond=1e-12).T
    assert rel_residual(emb.coords_vec(vecs), reference) < 1e-13


def test_coords_reject_non_homomorphic_images():
    # f_10 lies in the span of the images, but the images are not orthogonal,
    # so the scaled conjugate transpose misses it and back-substitution fails
    emb = non_orthogonal_m2()
    target = emb.ambient.basis_unit(0, 1, 0).vec
    assert rel_residual(emb.images @ np.linalg.solve(emb.images, target), target) < 1e-14
    with pytest.raises(InvariantViolation,
                       match="vector does not lie in the subalgebra image"):
        emb.coords_vec(target[None, :])


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
    rows = [(amb.left_mult_matrix(g) - amb.right_mult_matrix(g)) @ carrier
            for g in sub.images.T]
    return carrier @ null_space(np.vstack(rows), TOL)


def assert_matches_null_space(comm, sub, within=None):
    span = nullspace_commutant(sub, within)
    assert subspace_residual(comm.images, span) <= 1e-10
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
    # first column is intact, so the commutant units are valid matrix units,
    # but they fail to commute with the broken image
    m2, m4 = MultiMatrixAlgebra([2]), MultiMatrixAlgebra([4])
    images = np.stack([m4.from_blocks([np.kron(u.reshape(2, 2), np.eye(2))]).vec
                       for u in np.eye(4)], axis=1)
    f00, f11 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    images[:, m2.basis_index(0, 1, 1)] = m4.from_blocks([np.kron(f11, f00)]).vec
    with pytest.raises(InvariantViolation, match="does not commute"):
        relative_commutant(SubalgebraEmbedding(m2, m4, images))


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


def test_basic_construction_scalars_in_c2():
    c2 = MultiMatrixAlgebra([1, 1])
    sub = scalars_in(c2)
    tr = TraceState(c2, [0.5, 0.5])
    ext = basic_construction(sub, tr, 0.5)
    assert ext.algebra.blocks == (2,)
    realized = ext.realization.embed(ext.e)
    assert rel_residual(realized.vec, 0.5 * np.ones(4)) < 1e-12
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


def test_basic_construction_rejects_wrong_modulus():
    c2 = MultiMatrixAlgebra([1, 1])
    with pytest.raises(InvariantViolation, match="trace not Markov"):
        basic_construction(scalars_in(c2), TraceState(c2, [0.5, 0.5]), 0.25)


def test_jones_extension_invariants():
    for sub, weights, lam, blocks in (
            (diag_in_m2(), [0.5], 0.5, [2, 2]),
            (m2_in_m4_m2(), [0.2, 0.1], 0.2, [10])):
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
        # e and every L_x, built here on the GNS space, lie in the realization
        root = np.sqrt(tr.metric_weights)
        amb = sub.ambient
        lefts = np.stack([(root[:, None] * amb.left_mult_matrix(x) / root[None, :])
                          .reshape(-1) for x in np.eye(amb.dim)])
        q = np.linalg.qr(sub.images * root[:, None])[0]
        proj = (q @ q.conj().T).reshape(-1)
        assert containment_residual(np.vstack([lefts, proj]).T,
                                    ext.realization.images) < 1e-12
        assert rel_residual(ext.realization.embed_vec(imgs), lefts) < 1e-12
        assert rel_residual(ext.realization.embed_vec(e), proj) < 1e-12


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
