import numpy as np
import pytest

from weakhopf import actions
from weakhopf._linalg import null_space, projector, rel_residual, subspace_residual
from weakhopf.actions import (
    ActionData,
    _relator_products,
    crossed_product,
    fixed_points,
    minimality,
    theta_iso,
    verify_action,
)
from weakhopf.errors import InvariantViolation
from weakhopf.groups import cyclic
from weakhopf.multimatrix import MultiMatrixAlgebra
from weakhopf.weak_hopf import cartan_subalgebras, group_algebra, pair_groupoid

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


@pytest.mark.parametrize("name", ["z2", "z3"])
def test_canonical_action_oracles(name, get_tower, get_pipeline):
    tower = get_tower(name)
    action = get_pipeline(name)["action"]
    rng = np.random.default_rng(3)
    x = rng.standard_normal(action.carrier.dim) + 1j * rng.standard_normal(
        action.carrier.dim)
    # the unit acts trivially
    assert rel_residual(action.act(action.hopf.unit_vec, x), x) < TOL
    # the second Jones projection acts as the expectation onto M
    e2_b = tower.rel_b.coords_vec(tower.e2.vec[None, :])[0]
    lhs = action.act(e2_b, x)
    ambient_x = tower.sub_top.embed_vec(x)
    rhs = tower.sub_top.coords_vec(tower.expect_mid.apply_vec(ambient_x)[None, :])[0]
    assert rel_residual(lhs, rhs) < TOL
    # Cartan elements act by left multiplication
    bt_in_b = tower.rel_b.coords_vec(tower.cartan_target.images.T).T
    bt_in_top = tower.sub_top.coords_vec(tower.cartan_target.images.T).T
    for j in range(bt_in_b.shape[1]):
        lhs = action.act(bt_in_b[:, j], x)
        rhs = action.carrier.mul_vecs(bt_in_top[:, j], x)
        assert rel_residual(lhs, rhs) < TOL


@pytest.mark.parametrize("name", ["z2", "z3", "z4", "s3"])
def test_fixed_points_recover_middle_algebra(name, get_tower, get_pipeline):
    tower = get_tower(name)
    fixed = fixed_points(get_pipeline(name)["action"])
    mid_in_top = tower.sub_mid.restrict_to(tower.sub_top)
    assert fixed.sub.dim == tower.sub_mid.sub.dim
    assert subspace_residual(fixed.images, mid_in_top.images) <= 100 * TOL


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
    legs = np.einsum("qym,yc,qcn->mn", left, v.reshape(dm, db), hopf.mult,
                     optimize=True)
    return legs.reshape(dm * db)


def test_relator_products_match_the_pairwise_reference(get_pipeline):
    action = get_pipeline("z2")["action"]
    db, dm = action.hopf.dim, action.carrier.dim
    labels = np.array([(x, b) for x in range(dm) for b in range(db)])
    rng = np.random.default_rng(11)
    probes = rng.standard_normal((len(labels), dm * db)) \
        + 1j * rng.standard_normal((len(labels), dm * db))
    left, right = _relator_products(action, probes, labels)
    eye = np.eye(dm * db)
    pairs = list(zip(probes, labels))
    ref_left = np.stack([raw_product(action, p, eye[x * db + b]) for p, (x, b) in pairs])
    ref_right = np.stack([raw_product(action, eye[x * db + b], p) for p, (x, b) in pairs])
    assert min(np.abs(ref_left).max(), np.abs(ref_right).max()) > 0.1
    assert rel_residual(left, ref_left) < 1e-13
    assert rel_residual(right, ref_right) < 1e-13


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
    src = null_space(hopf.source_counital - np.eye(hopf.dim))
    eye = np.eye(carrier.dim)
    for z in src.T:
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


def test_scalar_structure_minimal_trivially():
    carrier = MultiMatrixAlgebra([2])
    action = trivial_scalar_action(carrier)
    crossed = crossed_product(action)
    rep = minimality(crossed)
    assert rep.passed


def test_twisted_action_fails_star_axiom(get_pipeline):
    action = get_pipeline("z2")["action"]
    twisted = ActionData(action.hopf, action.carrier, 1j * action.tensor)
    rep = verify_action(twisted)
    assert not rep.passed
    assert rep["action star-compatible"].residual > 1e-3


@pytest.mark.parametrize("name", ["z2", "z3", "z4", "s3"])
def test_tower_crossed_product_splits_nothing_at_random(name, get_pipeline, monkeypatch):
    # the representation on L2(M1) is injective on the classes of a tower
    # action, so the block split of a kernel ideal never runs
    def forbidden(*args, **kwargs):
        raise AssertionError("decompose_structure_algebra called")

    monkeypatch.setattr(actions, "decompose_structure_algebra", forbidden)
    crossed = crossed_product(get_pipeline(name)["action"])
    assert crossed.dim == get_pipeline(name)["crossed"].dim


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


def test_crossed_product_probes_catch_broken_covariance(get_pipeline):
    # A'_b = A_b T off the target Cartan, with T = 1 + L_y (1 - P_M) fixing the
    # fixed points M and commuting with their right action: the relators, the
    # fixed points and the blocks survive, axiom (1) does not
    action = get_pipeline("z2")["action"]
    hopf, car = action.hopf, action.carrier
    eye_m, eye_b = np.eye(car.dim), np.eye(hopf.dim)
    fixed = fixed_points(action)
    bend = eye_m + 0.5 * car.left_mult_matrix(eye_m[car.basis_index(0, 0, 1)]) \
        @ (eye_m - projector(fixed.images))
    cartan = projector(null_space(hopf.target_counital - eye_b))
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
    delta = get_pipeline(name)["deformed"].hopf.delta
    units = tower.rel_b.images.T
    assert tower.decomposition_residual(delta, units) <= TOL
    assert tower.decomposition_residual(delta.transpose(0, 2, 1), units) > 1e-3
    rng = np.random.default_rng(13)
    bent = delta + 0.01 * rng.standard_normal(delta.shape)
    assert tower.decomposition_residual(bent, units) > 1e-3
