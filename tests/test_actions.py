import dataclasses
import itertools

import numpy as np
import pytest

from weakhopf import _linalg, actions, axioms, decompose
from weakhopf._linalg import SupportSVD, null_space, orthonormal_columns, rel_residual
from weakhopf.actions import (
    ActionData,
    _left_products,
    _relator_products,
    canonical_action,
    crossed_product,
    fixed_points,
    minimality,
    theta_iso,
    verify_action,
)
from weakhopf.deform import deform
from weakhopf.errors import InvariantViolation
from weakhopf.groups import cyclic, symmetric
from weakhopf.multimatrix import (
    MultiMatrixAlgebra,
    SubalgebraEmbedding,
    corner_frame,
    module_endomorphisms,
)
from weakhopf.reconstruct import reconstruct
from weakhopf.weak_hopf import (
    WeakHopfData,
    cartan_subalgebras,
    group_algebra,
    pair_groupoid,
    verify_axioms,
)

from conftest import INCLUSIONS, inclusion_tower

TOL = 1e-9


def trivial_scalar_action(carrier):
    """The one-dimensional structure acting by scalars."""
    hopf = pair_groupoid(1)
    tensor = np.eye(carrier.dim, dtype=complex)[None, :, :]
    return ActionData(hopf, carrier, tensor)


def counit_action(hopf, carrier):
    """b |> x = eps(b) x; a genuine action when the counit is an algebra map."""
    tensor = np.einsum("b,xy->bxy", hopf.epsilon, np.eye(carrier.dim, dtype=complex))
    return ActionData(hopf, carrier, tensor)


def qr_projector(span):
    """Orthogonal projector onto the span of the independent columns ``span``."""
    q, _ = np.linalg.qr(span)
    return q @ q.conj().T


def test_trivial_action_passes():
    rep = verify_action(trivial_scalar_action(MultiMatrixAlgebra([2, 1])))
    assert rep.passed, rep.render_table()


def test_trivial_action_fixed_points_everything():
    action = trivial_scalar_action(MultiMatrixAlgebra([2]))
    fixed = fixed_points(action)
    assert fixed.sub.dim == 4


@pytest.mark.parametrize("name", ["z2", "z3", "z4", "s3"])
def test_canonical_action_verifies(name, get_pipeline):
    rep = verify_action(get_pipeline(name)["action"])
    assert rep.passed, rep.render_table()
    assert rep.max_residual <= TOL


def acting(action, b, x):
    """b |> x for coefficient vectors b and x, read off the action tensor."""
    return np.einsum("b,x,bxy->y", b, x, action.tensor)


@pytest.mark.parametrize("name", ["z2", "z3"])
def test_canonical_action_oracles(name, get_tower, get_pipeline):
    tower = get_tower(name)
    action = get_pipeline(name)["action"]
    rng = np.random.default_rng(3)
    x = rng.standard_normal(action.carrier.dim) + 1j * rng.standard_normal(
        action.carrier.dim)
    # the unit acts trivially
    assert rel_residual(acting(action, action.hopf.unit_vec, x), x) < TOL
    # the second Jones projection acts as the expectation onto M
    e2_b = tower.rel_b.coords_vec(tower.e2.vec[None, :])[0]
    lhs = acting(action, e2_b, x)
    ambient_x = tower.sub_top.embed_vec(x)
    rhs = tower.sub_top.coords_vec(tower.expect_mid.apply_vec(ambient_x)[None, :])[0]
    assert rel_residual(lhs, rhs) < TOL
    # Cartan elements act by left multiplication
    bt_in_b = tower.rel_b.coords_vec(tower.cartan_target.images.T).T
    bt_in_top = tower.sub_top.coords_vec(tower.cartan_target.images.T).T
    for j in range(bt_in_b.shape[1]):
        lhs = acting(action, bt_in_b[:, j], x)
        rhs = action.carrier.mul_vecs(bt_in_top[:, j], x)
        assert rel_residual(lhs, rhs) < TOL


@pytest.mark.parametrize("name", ["z2", "z3", "z4", "s3"])
def test_fixed_points_recover_middle_algebra(name, get_tower, get_pipeline):
    # without the tower's units the fixed points are split from their span
    tower = get_tower(name)
    action = get_pipeline(name)["action"]
    fixed = fixed_points(ActionData(action.hopf, action.carrier, action.tensor))
    mid_in_top = tower.sub_mid.restrict_to(tower.sub_top)
    assert fixed.sub.dim == tower.sub_mid.sub.dim
    assert mid_in_top.outside(fixed.images.T) <= 100 * TOL


@pytest.mark.parametrize("name", ["z2", "z3", "z4", "s3"])
def test_crossed_product_dimension(name, get_tower, get_pipeline):
    tower = get_tower(name)
    crossed = get_pipeline(name)["crossed"]
    assert crossed.dim == tower.ambient.dim
    assert sorted(crossed.algebra.blocks) == sorted(tower.ambient.blocks)


@pytest.mark.parametrize("name", ["z2", "z3", "z4", "s3"])
def test_minimality(name, get_pipeline):
    rep = get_pipeline(name)["minimality"]
    assert rep.passed, rep.render_table()


@pytest.mark.parametrize("name", ["z2", "z3", "z4", "s3"])
def test_theta(name, get_pipeline):
    theta = get_pipeline(name)["theta"]
    assert theta.report.passed, theta.report.render_table()


def test_theta_reduces_to_plain_product_when_untwisted(get_tower, get_pipeline):
    # for unit twist theta sends a class of x (x) b to the plain product x b
    name = "z2"
    tower = get_tower(name)
    pipe = get_pipeline(name)
    crossed, theta = pipe["crossed"], pipe["theta"]
    alg = tower.ambient
    top = tower.sub_top.images
    b_img = tower.rel_b.images
    raw = np.eye(top.shape[1] * b_img.shape[1])
    direct = alg.pairwise_mul(top.T, b_img.T).reshape(len(raw), alg.dim)
    assert rel_residual(crossed.coords(raw) @ theta.matrix.T, direct) < TOL


def test_theta_unit_class(get_pipeline):
    pipe = get_pipeline("z2")
    theta, crossed = pipe["theta"], pipe["crossed"]
    action = crossed.action
    unit_class = crossed.coords(np.kron(action.carrier.unit().vec, action.hopf.unit_vec))
    assert rel_residual(unit_class, crossed.algebra.unit().vec) < TOL
    tower_unit = pipe["tower"].ambient.unit().vec
    assert rel_residual(theta.matrix @ unit_class, tower_unit) < TOL


def raw_product(action, u, v):
    """Reference product of two raw carrier (x) structure tensors,
    (x (x) b)(y (x) c) = x (b_(1) |> y) (x) b_(2) c, one pair at a time."""
    hopf, car, act = action.hopf, action.carrier, action.tensor
    db, dm = hopf.dim, car.dim
    du = np.einsum("xb,bpq->xpq", u.reshape(dm, db), hopf.delta)
    acted = np.einsum("xpq,pyz->xqyz", du, act)
    left = np.einsum("xqyz,xzm->qym", acted, car.mult_tensor)
    legs = np.einsum("qym,yc,qcn->mn", left, v.reshape(dm, db),
                     hopf.algebra.mult_tensor, optimize=True)
    return legs.reshape(dm * db)


def test_relator_products_match_the_pairwise_reference(get_pipeline):
    action = get_pipeline("z2")["action"]
    db, dm = action.hopf.dim, action.carrier.dim
    labels = np.array([(x, b) for x in range(dm) for b in range(db)])
    rng = np.random.default_rng(11)
    probes = rng.standard_normal((len(labels), dm * db)) \
        + 1j * rng.standard_normal((len(labels), dm * db))
    left = _relator_products(action, probes, labels)
    eye = np.eye(dm * db)
    ref = np.stack([raw_product(action, p, eye[x * db + b])
                    for p, (x, b) in zip(probes, labels)])
    assert np.abs(ref).max() > 0.1
    assert rel_residual(left, ref) < 1e-13


def test_source_cartan_commutes_inside_crossed_product(get_pipeline):
    crossed = get_pipeline("z3")["crossed"]
    alg = crossed.algebra
    sources = crossed.source_embedding.T
    carrier = crossed.carrier_embedding.images.T
    assert len(sources) > 0
    assert rel_residual(alg.pairwise_mul(sources, carrier),
                        alg.pairwise_mul(carrier, sources).transpose(1, 0, 2)) < TOL


def test_elementary_source_relation(get_pipeline):
    # [1 (x) z][x (x) 1] = [x (x) z] = [x (x) 1][1 (x) z] on the source Cartan
    crossed = get_pipeline("z2")["crossed"]
    alg = crossed.algebra
    hopf, carrier = crossed.action.hopf, crossed.action.carrier
    eye = np.eye(carrier.dim)
    for z in hopf.source_counital.T:  # the range of eps_s spans B_s
        zc = crossed.coords(np.kron(carrier.unit().vec, z))
        for x in eye:
            xe = crossed.coords(np.kron(x, hopf.unit_vec))
            xz = crossed.coords(np.kron(x, z))
            assert rel_residual(alg.mul_vecs(zc, xe), xz) < TOL
            assert rel_residual(alg.mul_vecs(xe, zc), xz) < TOL


def test_hopf_case_has_full_tensor_dimension():
    # scalar Cartan: no balancing, the crossed product is the full tensor space
    hopf = group_algebra(cyclic(2))
    carrier = MultiMatrixAlgebra([1])
    action = counit_action(hopf, carrier)
    assert verify_action(action).passed
    crossed = crossed_product(action)
    assert crossed.dim == carrier.dim * hopf.dim


def test_trivial_group_action_is_not_minimal():
    hopf = group_algebra(cyclic(3))
    carrier = MultiMatrixAlgebra([1])
    action = counit_action(hopf, carrier)
    crossed = crossed_product(action)
    rep = minimality(crossed)
    assert not rep.passed  # everything commutes with the scalars
    # the scalar Cartan lies in the commutant, which is larger: only the
    # dimension count tells them apart
    assert rep["commutant equals the source Cartan image"].residual <= TOL
    assert rep["commutant dimension matches the source Cartan"].residual == 1.0


def skewed_permutation_action(skew):
    """C[S3] permuting three points, with the structure carried through
    x -> s x s^-1, s = [[1, skew], [0, 1]] on its 2 x 2 block: still a
    C*-structure (its involution is supplied), but its matrix units are not
    orthonormal for that involution when skew is nonzero."""
    hopf = group_algebra(symmetric(3))
    alg = hopf.algebra
    assert alg.blocks == (2, 1, 1)
    s = alg.from_blocks([np.array([[1.0, skew], [0.0, 1.0]]), np.eye(1), np.eye(1)]).vec
    phi = alg.left_mult_matrix(s) @ alg.right_mult_matrix(alg.inverse_vec(s))
    phi_inv = np.linalg.inv(phi)
    skewed = WeakHopfData(
        alg, np.einsum("bpq,Pp,Qq,bB->BPQ", hopf.delta, phi, phi, phi_inv, optimize=True),
        hopf.epsilon @ phi_inv, phi @ hopf.antipode @ phi_inv,
        phi @ hopf.star_matrix @ np.conj(phi_inv))
    points = np.zeros((6, 3, 3), dtype=complex)  # [g, x, y]: delta_x -> delta_g(x)
    for g, perm in enumerate(itertools.permutations(range(3))):
        points[g, np.arange(3), perm] = 1.0
    tensor = np.einsum("gb,gxy->bxy", np.linalg.inv(hopf.group_basis) @ phi_inv, points)
    return ActionData(skewed, MultiMatrixAlgebra([1, 1, 1]), tensor)


@pytest.mark.parametrize("skew", [0.0, 0.5])
def test_non_galois_crossed_product_in_skewed_units(skew):
    # C^3 # C[S3] (dim 18) acts on L2(C^3) through M_3, so pi has a 9-dim
    # kernel ideal.  At skew 0.5 the least-norm preimages of the M_3 units
    # lie 0.5 (max abs) outside the complementary ideal; without the (1 - e)
    # correction the carrier embedding is not a *-homomorphism
    action = skewed_permutation_action(skew)
    assert verify_axioms(action.hopf).passed
    assert verify_action(action).passed
    crossed = crossed_product(action)
    assert crossed.algebra.blocks == (3, 3)
    assert crossed.carrier_embedding.verify() < 1e-12


def dense_class_factors(coords):
    """The least-norm preimages of the commutant units and the kernel of
    the class coordinates from one dense SVD of the whole (commutant,
    classes) matrix, the reference for the per-component factorization."""
    u, sv, vh = np.linalg.svd(coords.T)
    rank = int(np.sum(sv > 1e-8 * sv[0]))
    return (vh[:rank].conj().T / sv[:rank]) @ u[:, :rank].conj().T, vh[rank:].conj().T


@pytest.mark.parametrize("skew", [0.0, 0.5])
def test_skewed_class_coordinates_factor_like_their_dense_svd(skew):
    # the coordinates of the non-Galois C[S3] action fall into three wide
    # 3 x 6 support components, each with a kernel; the crossed product
    # keeps its blocks, and its commutant projection (the preimages) and
    # ideal projection (the kernel) are the dense ones
    action = skewed_permutation_action(skew)
    rng = np.random.default_rng(0)
    cartan = actions._spanned(action.hopf.algebra, action.hopf.target_counital,
                              action.cartan, "target Cartan", rng, TOL)
    classes = actions._class_basis(action, cartan)
    _, coords = actions._commutant_coords(action, classes, rng, TOL)
    svd = SupportSVD(coords.T)
    assert [rows.shape for rows, *_ in svd.parts] == [(3, 3)]
    cutoff = 1e-8 * svd.top
    preimages, kernel = dense_class_factors(coords)
    assert np.abs(svd.pinv(cutoff) - preimages).max() <= 1e-12
    ideal = svd.kernel(cutoff)
    assert np.abs(ideal @ ideal.conj().T - kernel @ kernel.conj().T).max() <= 1e-12
    crossed = crossed_product(action)
    assert sorted(crossed.algebra.blocks) == [3, 3]
    # the units of the kernel ideal span the dense kernel
    units = orthonormal_columns(crossed.unit_classes[:, preimages.shape[1]:])
    assert np.abs(units @ units.conj().T - kernel @ kernel.conj().T).max() <= 1e-12


def star_reference(action, u):
    """The involution of a raw tensor x (x) b, one elementary tensor at a
    time, as the product (1 (x) b*)(x* (x) 1)."""
    hopf, car = action.hopf, action.carrier
    db, dm = hopf.dim, car.dim
    out = np.zeros(dm * db, dtype=complex)
    for x, b in zip(*np.nonzero(u.reshape(dm, db))):
        one_b = np.kron(car.unit().vec, hopf.star(np.eye(db)[b]))
        x_one = np.kron(car.adjoint_vecs(np.eye(dm)[x]), hopf.unit_vec)
        out += np.conj(u.reshape(dm, db)[x, b]) * raw_product(action, one_b, x_one)
    return out


@pytest.mark.parametrize("make", [
    lambda: skewed_permutation_action(0.0),
    lambda: skewed_permutation_action(0.5),
    lambda: skewed_permutation_action(2.0),
    lambda: counit_action(group_algebra(cyclic(3)), MultiMatrixAlgebra([2]))],
    ids=["skew0.0", "skew0.5", "skew2.0", "counit"])
def test_block_product_and_adjoint_are_the_algebraic_ones(make):
    # the crossed product is checked on its generators only; on these
    # non-Galois actions the block product and adjoint are compared with the
    # algebraic product and involution on every pair of elementary tensors
    action = make()
    crossed = crossed_product(action)
    n = action.hopf.dim * action.carrier.dim
    eye = np.eye(n)
    units = crossed.coords(eye)
    products = np.stack([[raw_product(action, u, v) for v in eye] for u in eye])
    stars = np.stack([star_reference(action, u) for u in eye])
    assert rel_residual(crossed.coords(products),
                        crossed.algebra.pairwise_mul(units, units)) < 1e-12
    assert rel_residual(crossed.coords(stars), crossed.algebra.adjoint_vecs(units)) < 1e-12


def test_kernel_ideal_involution_check_refuses_a_unit_that_is_not_self_adjoint(
        monkeypatch):
    # e c* = (e c)* holds for the unit e of the kernel ideal and fails for
    # i e, whose adjoint is -i e
    action = skewed_permutation_action(0.5)
    build, built = actions._kernel_ideal, []
    monkeypatch.setattr(actions, "_kernel_ideal",
                        lambda *args: built.append(build(*args)) or built[-1])
    crossed = crossed_product(action)
    unit = built[0][2]

    def residual(e):
        return actions._ideal_star_residual(action, crossed.classes, _left_products(action, e))
    assert residual(unit) < 1e-12
    assert residual(1j * unit) > 0.5


def doubled_unit(emb):
    """``emb`` with the image of its first unit doubled: the same span at the
    same rank, but no longer a *-homomorphism."""
    images = emb.images.copy()
    images[:, 0] *= 2.0
    return SubalgebraEmbedding(emb.sub, emb.ambient, images)


@pytest.mark.parametrize("field", ["fixed", "cartan"])
def test_crossed_product_refuses_given_units_that_are_not_a_homomorphism(field,
                                                                         get_pipeline):
    # the commutant of the fixed points and the classes are read off these
    # units unchecked, so the units themselves are checked where they enter
    action = get_pipeline("z3")["action"]
    given = getattr(action, field)
    bent = dataclasses.replace(action, **{field: doubled_unit(given)})
    assert given.outside(getattr(bent, field).images.T) < TOL
    with pytest.raises(InvariantViolation, match="not a subalgebra"):
        crossed_product(bent)


def test_unit_image_kernel_of_a_skewed_action_is_whole():
    # b -> b |> 1 is a (3, 6) matrix of rank 1 at skew 2.0: the kernel row of
    # verify_action must see all five kernel directions
    on_unit = skewed_permutation_action(2.0).on_unit
    assert on_unit.shape == (3, 6) and np.linalg.matrix_rank(on_unit) == 1
    assert null_space(on_unit).shape == (6, 5)


def test_minimality_catches_a_source_image_outside_the_commutant(get_pipeline):
    # the carrier image in place of the source Cartan image: M1 is not
    # commutative, so it sticks out of the commutant of itself
    crossed = get_pipeline("z2")["crossed"]
    assert minimality(crossed).passed
    bent = dataclasses.replace(crossed)
    bent.source_embedding = crossed.carrier_embedding.images
    rep = minimality(bent)
    assert rep["commutant equals the source Cartan image"].residual > 1e-3
    assert rep["action minimal"].residual == 1.0


def test_scalar_structure_minimal_trivially():
    carrier = MultiMatrixAlgebra([2])
    action = trivial_scalar_action(carrier)
    crossed = crossed_product(action)
    rep = minimality(crossed)
    assert rep.passed


def test_kernel_row_catches_a_zero_action(get_pipeline):
    # b |> x = 0: the unit image b -> b |> 1 is zero, so it still factors
    # through eps_t, but its kernel is all of B and eps_t does not kill it
    action = get_pipeline("z2")["action"]
    hopf, car = action.hopf, action.carrier
    rep = verify_action(ActionData(hopf, car, np.zeros((hopf.dim, car.dim, car.dim))))
    assert rep["unit image factors through the counital map"].residual <= TOL
    assert rep["kernel of the unit image matches the counital kernel"].residual > 0.5


def test_twisted_action_fails_star_axiom(get_pipeline):
    action = get_pipeline("z2")["action"]
    twisted = ActionData(action.hopf, action.carrier, 1j * action.tensor)
    rep = verify_action(twisted)
    assert not rep.passed
    assert rep["action star-compatible"].residual > 1e-3


@pytest.mark.parametrize("name", ["z2", "z3", "z4", "s3"])
def test_tower_crossed_product_splits_nothing_at_random(name, get_pipeline, monkeypatch):
    # a tower action carries B_t and the fixed points M as matrix units, so
    # subalgebra_from_basis never splits them, and the representation on
    # L2(M1) is injective on its classes, so no kernel ideal is split either
    def forbidden(*args, **kwargs):
        raise AssertionError("decompose_structure_algebra called")

    monkeypatch.setattr(actions, "decompose_structure_algebra", forbidden)
    monkeypatch.setattr(decompose, "decompose_structure_algebra", forbidden)
    crossed = crossed_product(get_pipeline(name)["action"])
    assert crossed.dim == get_pipeline(name)["crossed"].dim


def fourier_conjugate(embedding):
    """The embedding into one n x n block conjugated by the Fourier matrix."""
    car = embedding.ambient
    n, = car.blocks
    fourier = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
    u = fourier.reshape(-1)  # the units of one block are e_ij, row-major
    images = car.mul_vecs(car.mul_vecs(u, embedding.images.T), car.adjoint_vecs(u))
    return SubalgebraEmbedding(embedding.sub, car, images.T)


@pytest.mark.parametrize("field, wrong, name", [
    ("fixed", lambda action: SubalgebraEmbedding.identity(action.carrier),
     "fixed-point set"),
    ("fixed", lambda action: fourier_conjugate(action.fixed), "fixed-point set"),
    ("cartan", lambda action: SubalgebraEmbedding.identity(action.hopf.algebra),
     "target Cartan"),
])
def test_crossed_product_rejects_wrong_given_units(field, wrong, name, get_pipeline):
    # all of M1 as M and all of B as B_t hold the span with the wrong
    # dimension; M conjugated by the Fourier matrix has the right dimension
    # and misses the span
    action = get_pipeline("z3")["action"]
    broken = dataclasses.replace(action, **{field: wrong(action)})
    assert getattr(broken, field).verify() < 1e-12  # a subalgebra, just not this one
    with pytest.raises(InvariantViolation,
                       match=f"^{name} differs from its given matrix units$"):
        crossed_product(broken)


def test_crossed_product_rejects_an_action_breaking_the_relators(get_pipeline):
    # A_z = L_(z |> 1) fails for one matrix unit z of B_t; z |> 1 itself is
    # unchanged, since the perturbed carrier unit has no unit component
    action = get_pipeline("z2")["action"]
    hopf, car = action.hopf, action.carrier
    z = cartan_subalgebras(hopf).target.images[:, 0]
    off = car.basis_index(0, 0, 1)
    tensor = action.tensor.copy()
    tensor[:, off, off] += 0.1 * np.conj(z) / np.vdot(z, z)
    with pytest.raises(InvariantViolation,
                       match=r"representation on L2\(M1\) does not kill the relators"):
        crossed_product(ActionData(hopf, car, tensor))


def dense_class_maps(classes):
    """The dense quot and lift of a class map: sum_i kron(P_i, Q_i) and
    kron(V, W), block by block."""
    quot = np.vstack([sum(np.kron(p, q) for p, q in zip(ps, qs))
                      for _, _, ps, qs in classes.blocks])
    lift = np.hstack([np.kron(vs, ws) for vs, ws, _, _ in classes.blocks])
    return quot, lift


@pytest.mark.parametrize("name", ["z3", "s3"])
def test_class_map_applies_its_dense_matrices(name, get_pipeline):
    classes = get_pipeline(name)["crossed"].classes
    quot, lift = dense_class_maps(classes)
    n_raw = quot.shape[1]
    assert quot.shape == (classes.dim, n_raw) and lift.shape == (n_raw, classes.dim)
    assert rel_residual(quot @ lift, np.eye(classes.dim)) < 1e-12
    rng = np.random.default_rng(17)
    raw = rng.standard_normal((4, n_raw)) + 1j * rng.standard_normal((4, n_raw))
    cls = rng.standard_normal((4, classes.dim)) + 1j * rng.standard_normal((4, classes.dim))
    assert rel_residual(classes.quot(raw), raw @ quot.T) < 1e-13
    assert rel_residual(classes.quot(raw[0]), quot @ raw[0]) < 1e-13
    assert rel_residual(classes.lift(cls), cls @ lift.T) < 1e-13


@pytest.mark.parametrize("slab", [None, 1])
def test_crossed_product_rejects_a_class_map_keeping_the_relators(
        get_pipeline, monkeypatch, slab):
    # one operator P of the first class block is bent, so the class map no
    # longer kills x (z |> 1) (x) b - x (x) z b; swept in one-row slabs too
    action = get_pipeline("z2")["action"]
    assert crossed_product(action).dim == get_pipeline("z2")["crossed"].dim
    build = actions._class_basis

    def bent(*args):
        classes = build(*args)
        vs, ws, ps, qs = classes.blocks[0]
        rng = np.random.default_rng(19)
        classes.blocks[0] = (vs, ws, ps + 0.1 * rng.standard_normal(ps.shape), qs)
        return classes

    monkeypatch.setattr(actions, "_class_basis", bent)
    if slab is not None:
        monkeypatch.setattr(_linalg, "_SLAB", slab)
    with pytest.raises(InvariantViolation,
                       match="^quotient map does not kill the relators$"):
        crossed_product(action)


def test_crossed_product_rejects_classes_outside_the_commutant(get_pipeline, monkeypatch):
    # with all of M1 passed off as the fixed points their commutant on L2(M1)
    # is the left multiplications, and L_v A_w leaves it once A_w is not one
    action = get_pipeline("z2")["action"]
    assert crossed_product(action).dim == get_pipeline("z2")["crossed"].dim
    monkeypatch.setattr(actions, "fixed_points", lambda action, **kwargs:
                        SubalgebraEmbedding.identity(action.carrier))
    with pytest.raises(InvariantViolation,
                       match="^classes do not act in the commutant of the fixed points$"):
        crossed_product(action)


def per_class_commutant_coords(action, classes, rng, tol):
    """Reference for ``actions._commutant_coords``: every class operator
    pi(v (x) w) = L_v A_w is formed on L2(M1) and back-substituted into the
    dense commutant image one class block at a time.  The image has the units
    E^a_ij = sum_c F_c0 v_i v_j* F_0c, with the dense F_c0 = R(f^a_c0)^dagger
    and the bases V_a of the basic construction of the fixed points."""
    car = action.carrier
    dm = car.dim
    fixed = actions.fixed_points(action, rng=rng, tol=tol)
    _, comm, _, all_ranges = module_endomorphisms(fixed, tol)
    units = []
    for firsts, ranges in zip(fixed.first_columns(), all_ranges):
        basis = corner_frame(car, firsts, ranges)[0]
        copies = np.stack([car.right_mult_matrix(f).conj().T @ basis for f in firsts])
        units.append(np.einsum("cai,cbj->ijab", copies, copies.conj()).reshape(-1, dm * dm))
    image = SubalgebraEmbedding(comm, MultiMatrixAlgebra([dm]), np.concatenate(units).T)
    image.require_valid(tol)
    ops = []
    for vs, ws, _, _ in classes.blocks:
        lefts = np.stack([car.left_mult_matrix(v) for v in vs.T])
        acts = (action.tensor.reshape(len(ws), -1).T @ ws).reshape(dm, dm, -1) \
            .transpose(2, 1, 0)
        ops.append((lefts[:, None] @ acts[None]).reshape(-1, dm * dm))
    return image.sub, image.coords_vec(np.concatenate(ops))


def per_class_crossed_product(action, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(actions, "_commutant_coords", per_class_commutant_coords)
        return crossed_product(action, rng=np.random.default_rng(0))


@pytest.mark.parametrize("name", ["z2", "z3", "s3"])
def test_generator_coordinates_match_the_per_class_reference(name, get_pipeline,
                                                             monkeypatch):
    # classes as block products of the coordinates of L_x and A_b give the
    # same coordinates as back-substituting every class operator
    pipe = get_pipeline(name)
    reference = per_class_crossed_product(pipe["action"], monkeypatch)
    assert np.array_equal(pipe["crossed"].block_coords, reference.block_coords)


@pytest.mark.parametrize("make", [
    lambda: counit_action(group_algebra(cyclic(3)), MultiMatrixAlgebra([2])),
    lambda: skewed_permutation_action(0.5)], ids=["counit", "skewed"])
def test_non_galois_generator_coordinates_match_the_per_class_reference(make, monkeypatch):
    # pi has a kernel.  The rows of the commutant's units are fixed by the
    # class coordinates; the units of the kernel ideal only up to a unitary
    # of each of its blocks (a rounding change of the coordinates turns the
    # null-space basis its split starts from), so that part is compared by
    # the projection onto the ideal along the lifted preimages
    action = make()
    built = crossed_product(action, rng=np.random.default_rng(0))
    reference = per_class_crossed_product(action, monkeypatch)
    k = actions._commutant_coords(action, built.classes, np.random.default_rng(0), TOL)[0].dim
    assert k < built.dim and built.algebra.blocks == reference.algebra.blocks
    assert rel_residual(built.block_coords[:k], reference.block_coords[:k]) < 1e-12

    def onto_ideal(crossed):
        return crossed.unit_classes[:, k:] @ crossed.block_coords[k:]
    assert rel_residual(onto_ideal(built), onto_ideal(reference)) < 1e-12


@pytest.mark.parametrize("slab", [None, 7])
def test_left_products_match_the_tiled_probe(slab, monkeypatch):
    # the kernel path multiplies one raw tensor by every elementary tensor;
    # slabs of labels with the probe broadcast give the rows of the tiled stack
    hopf = group_algebra(cyclic(3))
    action = counit_action(hopf, MultiMatrixAlgebra([2]))
    db, dm = hopf.dim, action.carrier.dim
    labels = np.array([(x, b) for x in range(dm) for b in range(db)])
    rng = np.random.default_rng(23)
    raw = rng.standard_normal(dm * db) + 1j * rng.standard_normal(dm * db)
    tiled = _relator_products(action, np.tile(raw, (len(labels), 1)), labels)
    if slab is not None:
        monkeypatch.setattr(_linalg, "_SLAB", slab)
    assert rel_residual(_left_products(action, raw), tiled) < 1e-14


def test_crossed_product_probes_catch_broken_covariance(get_pipeline):
    # A'_b = A_b T off the target Cartan, with T = 1 + L_y (1 - P_M) fixing the
    # fixed points M and commuting with their right action: the relators, the
    # fixed points and the blocks survive, axiom (1) does not
    action = get_pipeline("z2")["action"]
    hopf, car = action.hopf, action.carrier
    eye_m, eye_b = np.eye(car.dim), np.eye(hopf.dim)
    fixed = fixed_points(action)
    bend = eye_m + 0.5 * car.left_mult_matrix(eye_m[car.basis_index(0, 0, 1)]) \
        @ (eye_m - qr_projector(fixed.images))
    cartan = qr_projector(cartan_subalgebras(hopf).target.images)
    mats = action.tensor.transpose(0, 2, 1)
    bent = np.einsum("cb,cyx->byx", cartan, mats) \
        + np.einsum("cb,cyx->byx", eye_b - cartan, mats) @ bend
    broken = ActionData(hopf, car, bent.transpose(0, 2, 1))
    assert verify_action(broken)["action multiplicative on products"].residual > 1e-3
    with pytest.raises(InvariantViolation,
                       match="algebraic product differs from the block product"):
        crossed_product(broken)


def test_crossed_product_probes_catch_a_wrong_involution(get_pipeline):
    # the structure involution is negated, so axiom (2) fails while the
    # product, the relators and the blocks are untouched
    action = get_pipeline("z2")["action"]
    hopf = action.hopf.copy_with(involution=-action.hopf.star_matrix)
    broken = ActionData(hopf, action.carrier, action.tensor)
    assert verify_action(broken)["action star-compatible"].residual > 1e-3
    with pytest.raises(InvariantViolation,
                       match="algebraic involution differs from the block adjoint"):
        crossed_product(broken)


def test_theta_rejects_a_wrong_twist_root(get_pipeline, monkeypatch):
    # B is commutative on every tower here, so a wrong root inside B would not
    # change theta; a positive root outside B breaks the balancing
    pipe = get_pipeline("z2")
    tower = pipe["tower"]
    amb = tower.ambient
    rng = np.random.default_rng(5)
    a = 0.5 * (rng.standard_normal(amb.dim) + 1j * rng.standard_normal(amb.dim))
    wrong = amb.mul_vecs(amb.adjoint_vecs(a), a) + amb.unit().vec
    monkeypatch.setattr(amb, "sqrt_posdef_vec", lambda vec, tol: wrong)
    with pytest.raises(InvariantViolation, match="comparison map failed: well defined "
                                                 "on balanced classes residual"):
        theta_iso(tower, pipe["deformed"], pipe["crossed"])


def test_theta_refuses_a_map_killing_a_block(get_pipeline):
    # theta(f^0_ij) = 0 on the units of block 0: a square map whose only
    # trace of the kernel is Tr theta(f^0_00) = 0
    pipe = get_pipeline("z2")
    crossed = pipe["crossed"]
    units = crossed.unit_classes.copy()
    units[:, crossed.algebra.block_slice(0)] = 0.0
    killed = dataclasses.replace(crossed, unit_classes=units)
    with pytest.raises(InvariantViolation, match="^theta not bijective$"):
        theta_iso(pipe["tower"], pipe["deformed"], killed)


@pytest.mark.parametrize("name", ["z2", "z3"])
def test_module_tensor_is_the_compressed_product(name, get_tower, get_pipeline):
    # b |> x = lam^-1 E_M1(b x e2), one pair at a time, in M1 coordinates
    tower = get_tower(name)
    action = get_pipeline(name)["action"]
    amb, top = tower.ambient, tower.sub_top
    local = np.array([[top.coords_vec(tower.expect_top(
        amb.element(b) * amb.element(x) * tower.e2).vec[None, :])[0]
        for x in top.images.T] for b in tower.rel_b.images.T]) / tower.lam
    assert np.abs(local).max() > 0.1
    assert rel_residual(tower.module_tensor, local) < 1e-12
    assert action.tensor is tower.module_tensor


@pytest.mark.parametrize("name", ["z2", "z3"])
def test_decomposition_residual_catches_bent_legs(name, get_tower, get_pipeline):
    # b x = (b_(1) |> x) b_(2) holds for the coproduct and fails once its
    # legs are swapped or perturbed
    tower = get_tower(name)
    hopf = get_pipeline(name)["deformed"].hopf
    delta = hopf.delta
    assert axioms.product_decomposition(hopf, tower) <= TOL
    swapped = hopf.copy_with(delta=delta.transpose(0, 2, 1))
    assert axioms.product_decomposition(swapped, tower) > 1e-3
    rng = np.random.default_rng(13)
    bent = hopf.copy_with(delta=delta + 0.01 * rng.standard_normal(delta.shape))
    assert axioms.product_decomposition(bent, tower) > 1e-3


class NoDraws:
    """A random generator that refuses every draw."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} used")


@pytest.mark.parametrize("name", ["z2", "z3", "z4", "s3"])
def test_tower_crossed_product_and_theta_draw_nothing(name, get_pipeline):
    # a tower action carries B_t and M as matrix units and is checked on its
    # generators, so neither map reads a random number
    pipe = get_pipeline(name)
    crossed = crossed_product(pipe["action"], rng=NoDraws())
    theta = theta_iso(pipe["tower"], pipe["deformed"], crossed)
    assert np.array_equal(crossed.block_coords, pipe["crossed"].block_coords)
    assert np.array_equal(theta.matrix, pipe["theta"].matrix)


def test_crossed_product_at_a_twisted_index_element_refuses_its_involution():
    # C^2 < M_3 + M_3 with Lambda = [[1, 2], [2, 1]] has |H - 1| = 0.4.  The
    # chain passes through the canonical action, and the block product is
    # the algebraic one, but A_(b*) = A_b^dagger fails by 0.5 for the
    # deformed involution.  This is the open crossed product at H != 1 of
    # ROADMAP.md: it stays a refusal until the *-structure is mended
    tower = inclusion_tower([1, 1], [[1, 2], [2, 1]], [1 / 6, 1 / 6], 1 / 9)
    deformed, report = deform(reconstruct(tower).on_b, tower=tower)
    assert report.passed
    action = canonical_action(tower, deformed)
    assert actions._involution_residual(action) >= 0.4
    with pytest.raises(InvariantViolation,
                       match="algebraic involution differs from the block adjoint"):
        actions._verify_products(action, TOL)
    # every earlier check of the crossed product passes, so it refuses there
    with pytest.raises(InvariantViolation,
                       match="^algebraic involution differs from the block adjoint$"):
        crossed_product(action)


# C^k < M_k: k one-by-one blocks down the diagonal of M_k with its Markov
# trace, so M1 is k copies of M_k; with a3_in_s3 these are the towers in
# which M1 has several blocks
CHAIN_TOWERS = {f"c{k}_in_m{k}": ([1] * k, [[1]] * k, [1 / k], 1 / k) for k in (3, 4, 5)}
CHAIN_TOWERS.update((name, INCLUSIONS[name]) for name in ("c2_in_m2", "a3_in_s3"))


@pytest.mark.parametrize("name", CHAIN_TOWERS)
def test_crossed_product_chain_on_an_inclusion_tower(name):
    # the deform report is not asserted: a3_in_s3 fails its Thm 5.7 rows
    tower = inclusion_tower(*CHAIN_TOWERS[name])
    deformed, _ = deform(reconstruct(tower).on_b, tower=tower)
    crossed = crossed_product(canonical_action(tower, deformed), rng=np.random.default_rng(0))
    assert crossed.dim == tower.ambient.dim
    assert minimality(crossed).passed
    assert theta_iso(tower, deformed, crossed).report.passed
