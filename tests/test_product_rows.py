"""Rows that multiply elements, each against the dense structure-tensor
formula it was once written as.  The dense formulas live only here, as
references: on valid input and on a perturbed coproduct, antipode, counit
or involution every row equals its reference to 1e-12, and on the perturbed
input it reads above 1e-4.  The rows that reduce their residual slab by slab
are also checked with a slab size small enough that each crosses at least
three slab boundaries."""

import dataclasses

import numpy as np
import pytest

from weakhopf import _linalg, actions, axioms, multimatrix
from weakhopf._linalg import rel_residual
from weakhopf.actions import ActionData, verify_action
from weakhopf.deform import undeform
from weakhopf.groups import cyclic, symmetric
from weakhopf.multimatrix import SubalgebraEmbedding
from weakhopf.reconstruct import StructureBundle, identity_suite, pairing_values
from weakhopf.weak_hopf import (
    function_algebra,
    group_algebra,
    haar_functional,
    haar_traciality_residual,
    pair_groupoid,
)

SAME = 1e-12
BROKEN = 1e-4


# -- dense references ------------------------------------------------------------


def _mult(hopf):
    return hopf.algebra.mult_tensor


def _left(hopf, vec):
    """Matrix of y -> vec y from the structure tensor."""
    return np.einsum("a,abk->kb", vec, _mult(hopf))


def _right(hopf, vec):
    """Matrix of y -> y vec from the structure tensor."""
    return np.einsum("b,abk->ka", vec, _mult(hopf))


def _eps_of_products(hopf):
    return np.einsum("pbk,k->pb", _mult(hopf), hopf.epsilon)


def ref_target_counital(hopf):
    return np.einsum("pq,pb->qb", hopf.delta_unit, _eps_of_products(hopf))


def ref_source_counital(hopf):
    return np.einsum("pq,bq->pb", hopf.delta_unit, _eps_of_products(hopf))


def ref_coassociativity(hopf):
    delta = hopf.delta
    return rel_residual(np.einsum("ipc,pab->iabc", delta, delta),
                        np.einsum("iaq,qbc->iabc", delta, delta))


def ref_multiplicativity(hopf, hinv=None):
    delta, mult = hopf.delta, _mult(hopf)
    twist = _left(hopf, hopf.unit_vec if hinv is None else hinv)
    twisted = np.einsum("cpq,rq->cpr", delta, twist)
    prod = np.einsum("ijm,mpq->ijpq", mult, delta)
    pairs = np.einsum("ipq,pPr,jPQ,qQs->ijrs", delta, mult, twisted, mult,
                      optimize=True)
    return rel_residual(prod, pairs)


def ref_target_counital_relation(hopf):
    lhs = np.einsum("kc,bkr->bcr", ref_target_counital(hopf), _mult(hopf))
    rhs = np.einsum("bpq,pc->bcq", hopf.delta, _eps_of_products(hopf))
    return rel_residual(lhs, rhs)


def ref_target_counital_absorption(hopf):
    lhs = np.einsum("bpq,sq->bps", hopf.delta, ref_target_counital(hopf))
    rhs = np.einsum("pq,pbr->brq", hopf.delta_unit, _mult(hopf))
    return rel_residual(lhs, rhs)


def ref_source_counital_relation(hopf):
    lhs = np.einsum("kc,kbr->cbr", ref_source_counital(hopf), _mult(hopf))
    rhs = np.einsum("bpq,cq->cbp", hopf.delta, _eps_of_products(hopf))
    return rel_residual(lhs, rhs)


def ref_source_counital_absorption(hopf):
    lhs = np.einsum("bpq,sp->bsq", hopf.delta, ref_source_counital(hopf))
    rhs = np.einsum("pq,bqr->bpr", hopf.delta_unit, _mult(hopf))
    return rel_residual(lhs, rhs)


def ref_antipode_counital(hopf, hinv=None):
    sr = hopf.antipode @ _right(hopf, hopf.unit_vec if hinv is None else hinv)
    inner = np.einsum("psr,sq->pqr", _mult(hopf), sr)
    lhs = np.einsum("bpq,pqr->br", hopf.delta, inner)
    return rel_residual(lhs, ref_target_counital(hopf).T)


def ref_antipode_source(hopf):
    sp = np.einsum("kp,kqr->pqr", hopf.antipode, _mult(hopf))
    lhs = np.einsum("bpq,pqr->br", hopf.delta, sp)
    return rel_residual(lhs, ref_source_counital(hopf).T)


def _ref_reverses(hopf, mat, mult_image):
    lhs = np.einsum("ijm,km->ijk", mult_image, mat)
    rhs = np.einsum("aj,bi,abr->ijr", mat, mat, _mult(hopf))
    return rel_residual(lhs, rhs)


def ref_anti_multiplicative(hopf):
    return _ref_reverses(hopf, hopf.antipode, _mult(hopf))


def ref_involution_anti_multiplicative(hopf):
    return _ref_reverses(hopf, hopf.star_matrix, np.conj(_mult(hopf)))


def ref_index_element(hopf):
    return np.einsum("pq,ap,aqr->r", hopf.delta_unit, hopf.antipode, _mult(hopf))


def ref_index_from_counital_legs(hopf, h):
    lhs = np.einsum("bpq,kp,kqr->br", hopf.delta, ref_target_counital(hopf),
                    _mult(hopf))
    rhs = np.einsum("k,kbr->br", h, _mult(hopf))
    return rel_residual(lhs, rhs)


def ref_module_multiplicativity(hopf, act, carrier, right):
    mult_m = carrier.mult_tensor
    lhs = np.einsum("xym,bmr->bxyr", mult_m, act)
    rhs = np.einsum("bpq,pxz,qyw,zwr->bxyr", hopf.delta, act, right, mult_m,
                    optimize=True)
    return rel_residual(lhs, rhs)


def ref_pairing_values(tower, left, right):
    alg = tower.ambient
    mids = alg.mul_vecs(tower.e2.vec, alg.mul_vecs(tower.e1.vec, right.T))
    prods = alg.pairwise_mul(left.T, mids)
    return tower.d / tower.lam ** 2 * tower.tau.values(prods)


# -- inputs ----------------------------------------------------------------------


def _noise(shape, seed=1):
    rng = np.random.default_rng(seed)
    return 1e-2 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def perturbed(hopf, tensor):
    if tensor is None:
        return hopf
    value = hopf.star_matrix if tensor == "involution" else getattr(hopf, tensor)
    return hopf.copy_with(**{tensor: value + _noise(value.shape)})


def _twisted_pair_groupoid():
    hopf = pair_groupoid(3)
    alg = hopf.algebra
    h = sum(v * alg.basis_unit(0, i, i).vec for i, v in enumerate((2.0, 0.5, 1.5)))
    bundle, _ = undeform(hopf, h)
    return bundle.hopf, bundle.index_element


def _reconstructed_cyclic3(get_reconstruction):
    bundle = get_reconstruction("z3").on_b
    return bundle.hopf, bundle.index_element


CASES = {
    "pair_groupoid3": lambda _: (pair_groupoid(3), None),
    "group_algebra_s3": lambda _: (group_algebra(symmetric(3)), None),
    "function_algebra_z4": lambda _: (function_algebra(cyclic(4)), None),
    "undeformed_pair_groupoid3": lambda _: _twisted_pair_groupoid(),
    "reconstructed_z3": _reconstructed_cyclic3,
}


@pytest.fixture(scope="module")
def get_case(get_reconstruction):
    cache = {}

    def build(name):
        if name not in cache:
            cache[name] = CASES[name](get_reconstruction)
        return cache[name]

    return build


def _hinv(hopf, h):
    return None if h is None else hopf.algebra.inverse_vec(h)


def _h(hopf, h):
    return hopf.unit_vec if h is None else h


# (row, evaluated row, dense reference, tensor whose perturbation breaks it)
ROWS = [
    ("coassociativity",
     lambda hopf, h: axioms.coassociativity(hopf),
     lambda hopf, h: ref_coassociativity(hopf), "delta"),
    ("multiplicativity",
     lambda hopf, h: axioms.multiplicativity(hopf, _hinv(hopf, h)),
     lambda hopf, h: ref_multiplicativity(hopf, _hinv(hopf, h)), "delta"),
    ("target counital relation",
     lambda hopf, h: axioms.target_counital_relation(hopf),
     lambda hopf, h: ref_target_counital_relation(hopf), "epsilon"),
    ("target counital absorption",
     lambda hopf, h: axioms.target_counital_absorption(hopf),
     lambda hopf, h: ref_target_counital_absorption(hopf), "epsilon"),
    ("source counital relation",
     lambda hopf, h: axioms.source_counital_relation(hopf),
     lambda hopf, h: ref_source_counital_relation(hopf), "epsilon"),
    ("source counital absorption",
     lambda hopf, h: axioms.source_counital_absorption(hopf),
     lambda hopf, h: ref_source_counital_absorption(hopf), "epsilon"),
    ("antipode counital",
     lambda hopf, h: axioms.antipode_counital(hopf, _hinv(hopf, h)),
     lambda hopf, h: ref_antipode_counital(hopf, _hinv(hopf, h)), "antipode"),
    ("antipode source",
     lambda hopf, h: axioms.antipode_source(hopf),
     lambda hopf, h: ref_antipode_source(hopf), "antipode"),
    ("anti-multiplicative",
     lambda hopf, h: axioms.anti_multiplicative(hopf),
     lambda hopf, h: ref_anti_multiplicative(hopf), "antipode"),
    ("involution anti-multiplicative",
     lambda hopf, h: axioms.involution_anti_multiplicative(hopf),
     lambda hopf, h: ref_involution_anti_multiplicative(hopf), "involution"),
    ("index from unit legs",
     lambda hopf, h: axioms.index_from_unit_legs(hopf, _h(hopf, h)),
     lambda hopf, h: rel_residual(ref_index_element(hopf), _h(hopf, h)), "antipode"),
    ("index from counital legs",
     lambda hopf, h: axioms.index_from_counital_legs(hopf, _h(hopf, h)),
     lambda hopf, h: ref_index_from_counital_legs(hopf, _h(hopf, h)), "delta"),
]


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("row, value, reference, tensor", ROWS,
                         ids=[r[0] for r in ROWS])
def test_row_matches_its_dense_reference(get_case, case, row, value, reference,
                                         tensor):
    hopf, h = get_case(case)
    assert abs(value(hopf, h) - reference(hopf, h)) <= SAME
    bad = perturbed(hopf, tensor)
    residual = value(bad, h)
    assert abs(residual - reference(bad, h)) <= SAME
    assert residual > BROKEN


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("tensor", [None, "delta", "epsilon"])
def test_counital_maps_match_their_dense_reference(get_case, case, tensor):
    hopf = perturbed(get_case(case)[0], tensor)
    assert rel_residual(hopf.target_counital, ref_target_counital(hopf)) <= SAME
    assert rel_residual(hopf.source_counital, ref_source_counital(hopf)) <= SAME


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("tensor", [None, "delta", "antipode"])
def test_index_element_matches_its_dense_reference(get_case, case, tensor):
    hopf = perturbed(get_case(case)[0], tensor)
    assert rel_residual(axioms.index_element(hopf), ref_index_element(hopf)) <= SAME


@pytest.mark.parametrize("case", ["pair_groupoid3", "group_algebra_s3",
                                  "function_algebra_z4"])
def test_haar_traciality_matches_its_dense_reference(get_case, case):
    hopf = get_case(case)[0]
    phi = haar_functional(hopf)
    values = np.einsum("ijk,k->ij", _mult(hopf), phi)
    assert abs(haar_traciality_residual(hopf, phi) - rel_residual(values, values.T)) \
        <= SAME
    bad = phi + _noise(phi.shape)
    values = np.einsum("ijk,k->ij", _mult(hopf), bad)
    residual = haar_traciality_residual(hopf, bad)
    assert abs(residual - rel_residual(values, values.T)) <= SAME
    if case != "function_algebra_z4":  # every functional is tracial there
        assert residual > BROKEN


# -- rows on the cyclic(3) tower ---------------------------------------------------


def _module_twists(tower, rec):
    """H^-1 in M1 coordinates for each right factor: none for the action's
    own (axiom (1)), the tower's for the twisted one (Prop 4.13)."""
    hinv_amb = tower.rel_b.images @ rec.on_b.hopf.algebra.inverse_vec(
        rec.on_b.index_element)
    return {"action": None, "twisted": tower.sub_top.coords_vec(hinv_amb[None, :])[0]}


@pytest.mark.parametrize("right", ["action", "twisted"])
@pytest.mark.parametrize("broken", [None, "delta", "right doubled"])
def test_module_multiplicativity_matches_its_dense_reference(
        get_tower, get_reconstruction, right, broken):
    tower, rec = get_tower("z3"), get_reconstruction("z3")
    check_module_multiplicativity(tower, rec, _module_twists(tower, rec)[right], broken)


def check_module_multiplicativity(tower, rec, hinv, broken):
    hopf, act, m1 = rec.on_b.hopf, tower.module_tensor, tower.sub_top.sub
    if broken == "delta":
        hopf = perturbed(hopf, "delta")
    elif broken == "right doubled":
        hinv = 2 * (m1.unit().vec if hinv is None else hinv)
    factor = act if hinv is None else m1.mul_vecs(hinv, act)  # H^-1 (u_q |> y)
    residual = axioms.module_multiplicativity(hopf, act, m1, hinv)
    assert abs(residual - ref_module_multiplicativity(hopf, act, m1, factor)) <= SAME
    if broken is not None:
        assert residual > BROKEN


def test_pairing_values_match_their_dense_reference(get_tower):
    tower = get_tower("z3")
    alg = tower.ambient
    a_img, b_img = tower.rel_a.images, tower.rel_b.images
    for left, right in ((a_img, b_img),
                        (alg.adjoint_vecs(a_img.T).T, alg.adjoint_vecs(b_img.T).T),
                        (alg.unit().vec[:, None], b_img)):
        assert rel_residual(pairing_values(tower, left, right),
                            ref_pairing_values(tower, left, right)) <= SAME


def ref_counital_pairing_formula(tower, hopf):
    """Identity-suite row 17b: <a, eps_t(b)> = d lam^-2 tau(a e1 b e2)."""
    alg = tower.ambient
    a_img, b_img = tower.rel_a.images, tower.rel_b.images
    lhs = ref_pairing_values(tower, a_img, b_img @ ref_target_counital(hopf))
    mids = alg.mul_vecs(tower.e1.vec, alg.mul_vecs(b_img.T, tower.e2.vec))
    rhs = tower.d / tower.lam ** 2 * tower.tau.values(alg.pairwise_mul(a_img.T, mids))
    return rel_residual(lhs, rhs)


def ref_cartan_linear(tower, hopf):
    """Identity-suite row 15: eps_t(z b) = z eps_t(b) for z in the Cartan."""
    mult_b, et = _mult(hopf), ref_target_counital(hopf)
    bt_in_b = tower.rel_b.coords_vec(tower.cartan_target.images.T).T
    mz = np.einsum("kz,kbr->zbr", bt_in_b, mult_b)
    lhs = np.einsum("zbr,sr->zbs", mz, et)
    rhs = np.einsum("kz,rb,krs->zbs", bt_in_b, et, mult_b)
    return rel_residual(lhs, rhs)


@pytest.mark.parametrize("tensor", [None, "epsilon"])
def test_suite_rows_match_their_dense_reference(get_tower, get_reconstruction, tensor):
    tower, rec = get_tower("z3"), get_reconstruction("z3")
    hopf = perturbed(rec.on_b.hopf, tensor)
    rec = dataclasses.replace(rec, on_b=StructureBundle(hopf, rec.on_b.index_element))
    rep = identity_suite(tower, rec)
    for name, reference in (("counital pairing formula", ref_counital_pairing_formula),
                            ("counital map is Cartan-linear", ref_cartan_linear)):
        residual = rep[name].residual
        assert abs(residual - reference(tower, hopf)) <= SAME, name
        if tensor is not None:
            assert residual > BROKEN, name


# -- the streamed rows across many slabs -------------------------------------------

STREAMING_MODULES = (axioms, actions, multimatrix)


@pytest.fixture
def small_slabs(monkeypatch):
    """One-entry slabs, so a streamed row yields one slab per leading index.
    Returns the number of slab pairs each streamed reduction folded (a test
    clears it after building its inputs)."""
    monkeypatch.setattr(_linalg, "_SLAB", 1)
    counts = []

    def counting(pairs):
        seen = 0

        def tally():
            nonlocal seen
            for pair in pairs:
                seen += 1
                yield pair
        value = _linalg.streamed_residual(tally())
        counts.append(seen)
        return value

    for module in STREAMING_MODULES:
        monkeypatch.setattr(module, "streamed_residual", counting)
    return counts


def _crosses_three_boundaries(counts):
    return bool(counts) and min(counts) >= 4


STREAMED_ROWS = [row for row in ROWS if row[0] in ("coassociativity", "multiplicativity")]


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("row, value, reference, tensor", STREAMED_ROWS,
                         ids=[r[0] for r in STREAMED_ROWS])
def test_streamed_row_matches_its_dense_reference_across_slabs(
        get_case, small_slabs, case, row, value, reference, tensor):
    hopf, h = get_case(case)
    small_slabs.clear()
    assert abs(value(hopf, h) - reference(hopf, h)) <= SAME
    bad = perturbed(hopf, tensor)
    residual = value(bad, h)
    assert abs(residual - reference(bad, h)) <= SAME
    assert residual > BROKEN
    assert _crosses_three_boundaries(small_slabs)


@pytest.mark.parametrize("right", ["action", "twisted"])
@pytest.mark.parametrize("broken", [None, "delta", "right doubled"])
def test_module_multiplicativity_matches_its_dense_reference_across_slabs(
        get_tower, get_reconstruction, small_slabs, right, broken):
    tower, rec = get_tower("z3"), get_reconstruction("z3")
    hinv = _module_twists(tower, rec)[right]
    small_slabs.clear()
    check_module_multiplicativity(tower, rec, hinv, broken)
    assert _crosses_three_boundaries(small_slabs)


def ref_module_law(hopf, act):
    """(u_b u_c) |> x = u_b |> (u_c |> x) from the structure tensor."""
    return rel_residual(np.einsum("bcm,mxy->bcxy", _mult(hopf), act),
                        np.einsum("cxz,bzy->bcxy", act, act))


@pytest.mark.parametrize("broken", [None, "action"])
def test_module_law_matches_its_dense_reference_across_slabs(get_pipeline, small_slabs,
                                                             broken):
    # a copy of the structure, so its row memo does not hold the module law
    # the pipeline's canonical action already read
    action = get_pipeline("z3")["action"]
    tensor = action.tensor
    if broken == "action":
        tensor = tensor + _noise(tensor.shape)
    action = ActionData(action.hopf.copy_with(), action.carrier, tensor)
    small_slabs.clear()
    residual = verify_action(action)["module law"].residual
    assert abs(residual - ref_module_law(action.hopf, action.tensor)) <= SAME
    if broken is not None:
        assert residual > BROKEN
    assert _crosses_three_boundaries(small_slabs)


def ref_decomposition_residual(tower, delta, right):
    """Cor 4.12, b x = (b_(1) |> x) r(b_(2)), from the ambient structure tensor."""
    mult = tower.ambient.mult_tensor
    b_basis, m_basis = tower.rel_b.images.T, tower.sub_top.images.T
    lhs = np.einsum("bk,xl,klr->bxr", b_basis, m_basis, mult, optimize=True)
    products = np.einsum("yk,ql,klr->yqr", m_basis, right, mult, optimize=True)
    rhs = np.einsum("bpq,pxy,yqr->bxr", delta, tower.module_tensor, products,
                    optimize=True)
    return rel_residual(lhs, rhs)


@pytest.mark.parametrize("broken", [None, "delta"])
def test_decomposition_residual_matches_its_dense_reference_across_slabs(
        get_tower, get_reconstruction, small_slabs, broken):
    tower, rec = get_tower("z3"), get_reconstruction("z3")
    small_slabs.clear()
    hopf = perturbed(rec.on_b.hopf, broken)
    hinv = rec.on_b.hopf.algebra.inverse_vec(rec.on_b.index_element)
    right = tower.ambient.mul_vecs(tower.rel_b.images @ hinv, tower.rel_b.images.T)
    residual = axioms.product_decomposition(hopf, tower, hinv)
    assert abs(residual - ref_decomposition_residual(tower, hopf.delta, right)) <= SAME
    if broken is not None:
        assert residual > BROKEN
    assert _crosses_three_boundaries(small_slabs)


def ref_embedding_multiplicative(emb):
    """The first-column checks of ``SubalgebraEmbedding.residuals`` with the
    products and their expected values as whole (k, k, ambient.dim) arrays."""
    sub, amb, img = emb.sub, emb.ambient, emb.images.T
    cols = [sub.basis_index(a, j, 0) for a, m in enumerate(sub.blocks) for j in range(m)]
    corners = [sub.basis_index(a, 0, 0) for a, m in enumerate(sub.blocks) for _ in range(m)]
    w = img[cols]
    w_star = amb.adjoint_vecs(w)
    k = len(cols)
    grams = np.zeros((k, k, amb.dim), dtype=complex)
    grams[np.arange(k), np.arange(k)] = img[corners]
    outer = np.zeros((k, k, amb.dim), dtype=complex)
    start = 0
    for alpha, m in enumerate(sub.blocks):
        blk = slice(start, start + m)
        outer[blk, blk] = img[sub.block_slice(alpha)].reshape(m, m, -1)
        start += m
    return max(rel_residual(amb.pairwise_mul(w_star, w), grams),
               rel_residual(amb.pairwise_mul(w, w_star), outer),
               rel_residual(amb.mul_vecs(img[corners], w_star), w_star))


@pytest.mark.parametrize("name", ["rel_a", "rel_b", "start_commutant_full"])
@pytest.mark.parametrize("broken", [None, "images"])
def test_embedding_residuals_match_their_dense_reference_across_slabs(
        get_tower, small_slabs, name, broken):
    cached = getattr(get_tower("z4"), name)  # four to sixteen first-column units
    small_slabs.clear()
    # a fresh embedding of the same images: the cached one keeps its
    # residuals once computed, so a test verifying it earlier in the session
    # would leave no slabs to count here
    images = cached.images if broken is None else cached.images + _noise(cached.images.shape)
    emb = SubalgebraEmbedding(cached.sub, cached.ambient, images)
    residual = emb.residuals()["multiplicative"]
    assert abs(residual - ref_embedding_multiplicative(emb)) <= SAME
    if broken is not None:
        assert residual > BROKEN
    assert _crosses_three_boundaries(small_slabs)
