"""Duality pairing of the two relative commutants of a tower and everything
extracted from it: the coalgebra and antipode on both sides, the canonical
central element, comatrix dual bases, the identity suite and the index
classification.  The weak Hopf identities among the suite's rows, the
multiplicativity test of ``classify`` and the index element formula
S(1_(1)) 1_(2) are rows of :mod:`weakhopf.axioms`.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import axioms
from ._linalg import condition_number, max_abs, rel_residual, subspace_residual
from .errors import InvariantViolation
from .multimatrix import (
    DEFAULT_TOL,
    AlgebraElement,
    MultiMatrixAlgebra,
    SubalgebraEmbedding,
    TraceState,
    inclusion_matrix,
    watatani_index,
)
from .report import Report
from .tower import TowerData
from .weak_hopf import (
    WeakHopfData,
    haar_functional,
    haar_projection,
    verify_axioms,
)


@dataclass(frozen=True)
class PairingForm:
    """Gram matrix of the duality form over the matrix-unit bases of the two
    relative commutants."""

    gram: np.ndarray
    condition: float

    @cached_property
    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.gram)


@dataclass
class StructureBundle:
    """Coproduct / counit / antipode tensors over a carrier algebra, together
    with the central element controlling multiplicativity.

    ``hopf.delta`` need not be an algebra map; it is one exactly when the
    index element is the unit.
    """

    hopf: WeakHopfData
    index_element: np.ndarray  # coordinates in the carrier basis

    @property
    def algebra(self) -> MultiMatrixAlgebra:
        return self.hopf.algebra


@dataclass
class ReconstructedStructure:
    tower: TowerData
    pairing: PairingForm
    on_b: StructureBundle
    on_a: StructureBundle
    index_element: AlgebraElement       # ambient representative
    cartan_weights: np.ndarray          # trace weights on the shared Cartan
    cross_checks: dict                  # residuals of the independent formulas


@dataclass(frozen=True)
class DualBases:
    """Comatrix units of B dual to the matrix units of A.

    ``matrix_unit_vectors`` and ``counit_vectors`` hold, column by column in
    ambient coordinates, the matrix units of A and the comatrix units of B
    dual to them; ``block_traces`` is the trace of a diagonal matrix unit per
    A block.
    """

    labels: list
    block_traces: np.ndarray
    matrix_unit_vectors: np.ndarray
    counit_vectors: np.ndarray


# ---------------------------------------------------------------------------
# Pairing and reconstruction.
# ---------------------------------------------------------------------------


def pairing_values(tower: TowerData, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Duality form d lam^-2 tau(x e2 e1 y) for every column pair of the two
    ambient coordinate stacks."""
    alg, tau = tower.ambient, tower.tau
    scale = tower.d / tower.lam ** 2
    mids = alg.mul_vecs(tower.e2.vec, alg.mul_vecs(tower.e1.vec, right.T))
    prods = alg.pairwise_mul(left.T, mids)
    return scale * tau.values(prods)


def pairing(tower: TowerData, tol: float = DEFAULT_TOL) -> PairingForm:
    """Duality form between the relative commutants; errors when degenerate."""
    gram = pairing_values(tower, tower.rel_a.images, tower.rel_b.images)
    cond = condition_number(gram)
    if not np.isfinite(cond) or cond > 1e8:
        raise InvariantViolation("degenerate pairing")
    return PairingForm(gram, cond)


def reconstruct(tower: TowerData, tol: float = DEFAULT_TOL) -> ReconstructedStructure:
    """Extract the coalgebra and antipode on both relative commutants from
    the duality pairing.

    The pairing-based maps are authoritative; the expectation formulas for
    the target counital map and the antipode, and the trace-index formula for
    the canonical central element, are computed independently and must agree.
    """
    form = pairing(tower, tol)
    alg, tau, lam, d = tower.ambient, tower.tau, tower.lam, tower.d
    a_img, b_img = tower.rel_a.images, tower.rel_b.images
    da, db = tower.rel_a.sub.dim, tower.rel_b.sub.dim
    gram, gram_inv = form.gram, form.inverse

    a_basis, b_basis = a_img.T, b_img.T

    # coproduct on B dual to the product of A
    aa = alg.pairwise_mul(a_basis, a_basis)
    paired = pairing_values(tower, aa.reshape(da * da, -1).T, b_img)
    paired = paired.reshape(da, da, db)
    delta_b = np.einsum("pi,qj,ijb->bpq", gram_inv, gram_inv, paired, optimize=True)

    eps_b = (d / lam) * tau.values(alg.mul_vecs(b_basis, tower.e2.vec))

    # antipodes from conj <a*, b*>
    conj_gram = np.conj(pairing_values(tower, alg.adjoint_vecs(a_basis).T,
                                       alg.adjoint_vecs(b_basis).T))
    antipode_b = gram_inv @ conj_gram
    antipode_a = np.linalg.solve(gram.T, conj_gram.T)

    # coproduct on A dual to the product of B, counit from pairing the unit
    bb = alg.pairwise_mul(b_basis, b_basis)
    paired_a = pairing_values(tower, a_img, bb.reshape(db * db, -1).T)
    paired_a = paired_a.reshape(da, db, db)
    delta_a = np.einsum("ip,jq,aij->apq", gram_inv, gram_inv, paired_a, optimize=True)
    eps_a = pairing_values(tower, a_img, alg.unit().vec[:, None])[:, 0]

    hopf_b = WeakHopfData(tower.rel_b.sub, delta_b, eps_b, antipode_b)
    hopf_a = WeakHopfData(tower.rel_a.sub, delta_a, eps_a, antipode_a)

    # canonical central element: antipode applied to the first leg of the
    # coproduct of the unit, against the trace-index formula
    h_b = axioms.index_element(hopf_b)
    h_ambient = b_img @ h_b

    cartan = tower.cartan_target
    weights = _restricted_weights(tower, cartan)
    h_watatani = cartan.embed_vec(
        watatani_index(TraceState(cartan.sub, weights)).vec) / d
    cross = {"index element vs trace index": rel_residual(h_ambient, h_watatani),
             "index element trace normalization":
                 abs(tau.value(h_ambient) - 1.0)}
    if cross["index element vs trace index"] > 100 * tol:
        raise InvariantViolation(
            "canonical element mismatch: pairing vs trace index formula")
    if cross["index element trace normalization"] > 100 * tol:
        raise InvariantViolation("canonical element is not trace-normalized")

    cross.update(_expectation_cross_checks(tower, hopf_b, tol))

    on_b = StructureBundle(hopf_b, h_b)
    on_a = StructureBundle(hopf_a, tower.rel_a.coords_vec(h_ambient[None, :])[0])
    return ReconstructedStructure(tower, form, on_b, on_a,
                                  alg.element(h_ambient), weights, cross)


def _restricted_weights(tower: TowerData, cartan: SubalgebraEmbedding) -> np.ndarray:
    vals = []
    for alpha in range(len(cartan.sub.blocks)):
        unit = cartan.sub.basis_unit(alpha, 0, 0).vec
        vals.append(float(np.real(tower.tau.value(cartan.embed_vec(unit)))))
    return np.asarray(vals)


def _expectation_cross_checks(tower: TowerData, hopf_b: WeakHopfData,
                              tol: float) -> dict:
    alg, lam = tower.ambient, tower.lam

    direct = tower.act(alg.unit().vec)  # b |> 1
    from_pairing = (tower.rel_b.images @ hopf_b.target_counital).T
    counital_res = rel_residual(direct, from_pairing)
    if counital_res > 100 * tol:
        raise InvariantViolation(
            "target counital map disagrees with the expectation formula")

    # S(b) = lam^-3 E_M'(e1 e2 E_M1(b e1 e2)) = lam^-2 E_M'(e1 e2 (b |> e1))
    e1e2 = alg.mul_vecs(tower.e1.vec, tower.e2.vec)
    direct_s = tower.expect_mid_commutant.apply_vec(
        alg.mul_vecs(e1e2, tower.act(tower.e1.vec))) / lam ** 2
    from_pairing_s = (tower.rel_b.images @ hopf_b.antipode).T
    antipode_res = rel_residual(direct_s, from_pairing_s)
    if antipode_res > 100 * tol:
        raise InvariantViolation("antipode disagrees with the expectation formula")
    return {"target counital vs expectation formula": counital_res,
            "antipode vs expectation formula": antipode_res}


# ---------------------------------------------------------------------------
# Dual bases.
# ---------------------------------------------------------------------------


def dual_bases(tower: TowerData, rec: ReconstructedStructure,
               tol: float = DEFAULT_TOL):
    """Comatrix units of B dual to the matrix units of A, with the four
    expectation identities tying them to the pairing verified."""
    alg, lam, d = tower.ambient, tower.lam, tower.d
    a_sub = tower.rel_a.sub
    labels = a_sub.basis_labels()
    gram_inv = rec.pairing.inverse
    v_amb = tower.rel_b.images @ gram_inv  # column m dual to a-unit m
    a_img = tower.rel_a.images

    rep = Report(tolerance=tol, seed=tower.seed, title="dual basis check")
    rep.add("duality normalization",
            rel_residual(pairing_values(tower, a_img, v_amb), np.eye(a_sub.dim)),
            ref="comatrix units")

    block_traces = np.array([
        float(np.real(tower.tau.value(a_img[:, a_sub.basis_index(alpha, 0, 0)])))
        for alpha in range(len(a_sub.blocks))])

    transpose_index = np.array([a_sub.basis_index(alpha, k, j)
                                for (alpha, j, k) in labels])
    alpha_of = np.array([alpha for (alpha, _, _) in labels])

    e2e1 = alg.mul_vecs(tower.e2.vec, tower.e1.vec)

    lhs = tower.expect_top.apply_vec(alg.mul_vecs(e2e1, v_amb.T))
    scale = (lam ** 2 / d) / block_traces[alpha_of]
    rhs = scale[:, None] * a_img[:, transpose_index].T
    rep.add("expectation collapse of comatrix units", rel_residual(lhs, rhs),
            ref="Lemma 4.9(i)")

    lhs = lam * gram_inv.T @ tower.act(tower.e1.vec)  # E_M1(v e1 e2)
    sa_img = a_img @ rec.on_a.hopf.antipode
    rhs = scale[:, None] * sa_img[:, transpose_index].T
    rep.add("reverse expectation collapse", rel_residual(lhs, rhs),
            ref="Lemma 4.9(ii)")

    # lam^-1 E_{M'}(S_A(s_pq) v_ij e1) = [alpha=beta][i=p] v_qj
    sv = alg.mul_vecs(sa_img.T[:, None, :], alg.mul_vecs(v_amb.T, tower.e1.vec)[None, :, :])
    lhs = (1 / lam) * tower.expect_mid_commutant.apply_vec(
        sv.reshape(a_sub.dim * a_sub.dim, -1)).reshape(a_sub.dim, a_sub.dim, -1)
    rhs = np.zeros_like(lhs)
    for mlab, (beta, p, q) in enumerate(labels):
        for nlab, (alpha, i, j) in enumerate(labels):
            if alpha == beta and i == p:
                rhs[mlab, nlab] = v_amb[:, a_sub.basis_index(alpha, q, j)]
    rep.add("mixed expectation exchange", rel_residual(lhs, rhs),
            ref="Lemma 4.9(iii)")

    lhs = (tower.rel_b.images @ rec.on_b.hopf.antipode
           @ tower.rel_b.coords_vec(v_amb.T).T)
    rhs = alg.adjoint_vecs(v_amb[:, transpose_index].T).T
    rep.add("antipode on comatrix units", rel_residual(lhs, rhs),
            ref="Lemma 4.9(iv)")

    # comatrix coalgebra pattern in the dual basis
    v_coords = gram_inv
    to_v = rec.pairing.gram
    delta_v = np.einsum("im,ipq,rp,sq->mrs", v_coords, rec.on_b.hopf.delta,
                        to_v, to_v, optimize=True)
    expected = np.zeros_like(delta_v)
    for m, (alpha, j, k) in enumerate(labels):
        for l in range(a_sub.blocks[alpha]):
            expected[m, a_sub.basis_index(alpha, j, l),
                     a_sub.basis_index(alpha, l, k)] = 1.0
    rep.add("comatrix coproduct", rel_residual(delta_v, expected),
            ref="comatrix units")
    eps_v = rec.on_b.hopf.epsilon @ v_coords
    expected_eps = np.array([1.0 if j == k else 0.0 for (_, j, k) in labels])
    rep.add("comatrix counit", rel_residual(eps_v, expected_eps),
            ref="comatrix units")

    if not rep.passed:
        raise InvariantViolation(
            f"duality defect: {rep.failures()[0].name} "
            f"residual {rep.failures()[0].residual:.3e}")
    return DualBases(labels, block_traces, a_img, v_amb), rep


# ---------------------------------------------------------------------------
# Identity suite.
# ---------------------------------------------------------------------------


def identity_suite(tower: TowerData, rec: ReconstructedStructure,
                   tol: float = DEFAULT_TOL) -> Report:
    """Residuals of the seventeen structural identities tying the pairing
    data to the tower, evaluated over full bases.

    The module map b |> x = lam^-1 E_M1(b x e2) is ``tower.module_tensor``
    (rows 1, 3 and 10-12).  Rows 3 and 12 compare M1 coordinates.  Row 12 is
    ``axioms.module_multiplicativity`` with right factor H^-1 (b_(2) |> y):
    exact in M1, since the trace-index cross check of ``reconstruct`` puts H
    in B_t = M' cap M1 (an H^-1 outside M1 fails ``coords_vec``).  Row 11 is
    ``tower.decomposition_residual`` with r(b) = H^-1 b."""
    rep = Report(tolerance=tol, seed=tower.seed, title="reconstruction identity suite")
    alg, tau, lam, d = tower.ambient, tower.tau, tower.lam, tower.d
    hopf = rec.on_b.hopf
    delta, anti, mult_b = hopf.delta, hopf.antipode, hopf.algebra.mult_tensor
    et = hopf.target_counital
    b_img = tower.rel_b.images
    a_img = tower.rel_a.images
    b_basis, a_basis = b_img.T, a_img.T
    top = tower.sub_top.images.T
    da, db, dm = a_img.shape[1], b_img.shape[1], top.shape[0]
    e1, e2 = tower.e1.vec, tower.e2.vec
    h_b = rec.on_b.index_element
    hinv_b = hopf.algebra.inverse_vec(h_b)
    hinv_amb = b_img @ hinv_b
    act = tower.module_tensor

    # 1. <a, b1 b2> = lam^-1 <E_M1(b2 a e2), b1>
    bb = alg.pairwise_mul(b_basis, b_basis)
    lhs = pairing_values(tower, a_img, bb.reshape(db * db, -1).T)
    lhs = lhs.reshape(da, db, db)
    acted = tower.act(a_basis).reshape(da * db, -1)  # b2 |> a
    rhs = pairing_values(tower, acted.T, b_img).reshape(da, db, db).transpose(0, 2, 1)
    rep.add("pairing against products", rel_residual(lhs, rhs), ref="Lemma 4.1")

    # 17 b. <a, eps_t(b)> = d lam^-2 tau(a e1 b e2)
    et_amb = (b_img @ et).T
    lhs = pairing_values(tower, a_img, et_amb.T)
    mids = alg.mul_vecs(e1, alg.mul_vecs(b_basis, e2))
    prods = alg.pairwise_mul(a_basis, mids)
    rhs = (d / lam ** 2) * tau.values(prods)
    rep.add("counital pairing formula", rel_residual(lhs, rhs), ref="Prop 4.2")

    # 2. b_(1) (x) eps_t(b_(2)) = 1_(1) b (x) 1_(2)
    rep.add("counital coproduct absorption", axioms.target_counital_absorption(hopf),
            ref="Prop 4.3")

    # 3. E_M1(b x e2) = E_M1(e2 x S(b)) for x in M1; the left side is
    # lam (b |> x)
    exs = alg.pairwise_mul(alg.mul_vecs(e2, top), (b_img @ anti).T)
    rhs = tower.sub_top.coords_vec(
        tower.expect_top.apply_vec(exs).reshape(dm * db, -1)).reshape(dm, db, dm)
    rep.add("antipode under the expectation",
            rel_residual(lam * act, rhs.transpose(1, 0, 2)), ref="Remark 4.4")

    # 4. S maps the source Cartan onto the target Cartan
    source_in_b = tower.rel_b.coords_vec(tower.cartan_source.images.T).T
    mapped = b_img @ (anti @ source_in_b)
    rep.add("antipode exchanges the Cartan subalgebras",
            subspace_residual(mapped, tower.cartan_target.images),
            ref="Prop 4.5(ii)")

    # 5. S^2 = id and S(b*) = S(b)*
    rep.add("antipode involutive and star-compatible",
            max(axioms.antipode_involutive(hopf), axioms.antipode_star_compatible(hopf)),
            ref="Prop 4.5(iii)")

    # 6. S anti-multiplicative and anti-comultiplicative
    rep.add("antipode anti-homomorphism", axioms.antipode_anti_homomorphism(hopf),
            ref="Prop 4.5(iv)")

    # 7. coproduct of the unit: explicit formula and positivity
    rep.add("coproduct of the unit", _delta_unit_residual(tower, rec),
            ref="Prop 4.6")

    # 8. eps_t(b_(1)) b_(2) = H b
    rep.add("index element from counital legs",
            axioms.index_from_counital_legs(hopf, h_b), ref="Prop 4.8")

    # 9. coproduct star-preserving
    rep.add("coproduct star-preserving", axioms.star_preserving(hopf), ref="Cor 4.10")

    # 10. comatrix unit recursion v_ij e1 = sum_k (v_ik |> e1) H^-1 v_kj
    rep.add("comatrix recursion", _comatrix_recursion_residual(tower, rec, hinv_amb),
            ref="Prop 4.11")

    # 11. b x = lam^-1 E_M1(b_(1) x e2) H^-1 b_(2) = (b_(1) |> x) H^-1 b_(2)
    rep.add("product against module elements",
            tower.decomposition_residual(delta, alg.mul_vecs(hinv_amb, b_basis)),
            ref="Cor 4.12")

    # 12. E_M1(b x y e2) = lam^-1 E_M1(b_(1) x e2) H^-1 E_M1(b_(2) y e2), that
    # is b |> (x y) = (b_(1) |> x) H^-1 (b_(2) |> y)
    m1 = tower.sub_top.sub
    hinv_m1 = tower.sub_top.coords_vec(hinv_amb[None, :])[0]
    rep.add("expectation comultiplicativity",
            axioms.module_multiplicativity(hopf, act, m1, m1.mul_vecs(hinv_m1, act)),
            ref="Prop 4.13")

    # 13. Delta(b c) = Delta(b) (1 (x) H^-1) Delta(c)
    rep.add("twisted multiplicativity of the coproduct",
            axioms.multiplicativity(hopf, hinv_b), ref="Prop 4.14")

    # 14. b_(1) S(b_(2) H^-1) = eps_t(b)
    rep.add("twisted antipode counital identity", axioms.antipode_counital(hopf, hinv_b),
            ref="Prop 4.15")

    # 15. eps_t(z b) = z eps_t(b) for z in the target Cartan
    bt_in_b = tower.rel_b.coords_vec(tower.cartan_target.images.T).T
    mz = np.einsum("kz,kbr->zbr", bt_in_b, mult_b, optimize=True)
    lhs = np.einsum("zbr,sr->zbs", mz, et, optimize=True)
    rhs = np.einsum("kz,rb,krs->zbs", bt_in_b, et, mult_b, optimize=True)
    rep.add("counital map is Cartan-linear", rel_residual(lhs, rhs),
            ref="Lemma 5.2")

    # 16. the trace is antipode-invariant on both sides
    res = rel_residual(tau.values((b_img @ anti).T), tau.values(b_basis))
    res = max(res, rel_residual(tau.values((a_img @ rec.on_a.hopf.antipode).T),
                                tau.values(a_basis)))
    rep.add("trace antipode-invariant", res, ref="duality")
    return rep


def _delta_unit_residual(tower: TowerData, rec: ReconstructedStructure) -> float:
    """Explicit formula for the coproduct of the unit and its positivity as
    an element of (source Cartan) (x) (target Cartan)."""
    hopf = rec.on_b.hopf
    d = tower.d
    cartan = tower.cartan_target
    bt_in_b = tower.rel_b.coords_vec(cartan.images.T).T
    weights = rec.cartan_weights
    sub = cartan.sub

    formula = np.zeros((hopf.dim, hopf.dim), dtype=complex)
    s_bt = hopf.antipode @ bt_in_b
    for alpha, m in enumerate(sub.blocks):
        coeff = 1.0 / (d * weights[alpha])
        for k in range(m):
            for l in range(m):
                left = s_bt[:, sub.basis_index(alpha, k, l)]
                right = bt_in_b[:, sub.basis_index(alpha, l, k)]
                formula += coeff * np.outer(left, right)
    res = rel_residual(hopf.delta_unit, formula)

    # positivity inside the Cartan tensor square
    source = tower.cartan_source
    src_in_b = tower.rel_b.coords_vec(source.images.T).T
    first = np.linalg.lstsq(src_in_b, hopf.delta_unit, rcond=None)
    coeffs = first[0]  # (source dim, hopf dim) with legs (s, q)
    res = max(res, rel_residual(src_in_b @ coeffs, hopf.delta_unit))
    second = np.linalg.lstsq(bt_in_b, coeffs.T, rcond=None)[0].T  # (s, t)
    res = max(res, rel_residual(second @ bt_in_b.T, coeffs))
    res = max(res, _tensor_positive_residual(source.sub, sub, second))
    return res


def _tensor_positive_residual(left: MultiMatrixAlgebra, right: MultiMatrixAlgebra,
                              coeffs: np.ndarray) -> float:
    """Positivity of sum coeffs[i,j] u_i (x) u_j in the tensor-product
    multimatrix algebra, by block eigenvalues."""
    worst = 0.0
    scale = max(max_abs(coeffs), 1.0)
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
            herm = max_abs(block - block.conj().T) / scale
            if block.size:
                low = float(-np.min(np.linalg.eigvalsh(0.5 * (block + block.conj().T))))
                worst = max(worst, herm, low / scale)
    return worst


def _comatrix_recursion_residual(tower: TowerData, rec: ReconstructedStructure,
                                 hinv_amb: np.ndarray) -> float:
    alg = tower.ambient
    a_sub = tower.rel_a.sub
    gram_inv = rec.pairing.inverse
    v_amb = tower.rel_b.images @ gram_inv
    e1 = tower.e1.vec
    v_on_e1 = gram_inv.T @ tower.act(e1)
    worst = 0.0
    for alpha, m in enumerate(a_sub.blocks):
        idx = np.array([[a_sub.basis_index(alpha, i, j) for j in range(m)]
                        for i in range(m)]).reshape(-1)
        v = v_amb[:, idx].T.reshape(m, m, -1)
        lhs = alg.mul_vecs(v, e1)
        inner_h = alg.mul_vecs(v_on_e1[idx].reshape(m, m, -1), hinv_amb)
        acc = np.zeros_like(lhs)
        for k in range(m):
            acc += alg.mul_vecs(inner_h[:, k, :][:, None, :], v[k, :, :][None, :, :])
        worst = max(worst, rel_residual(lhs, acc))
    return worst


# ---------------------------------------------------------------------------
# Classification.
# ---------------------------------------------------------------------------


def is_squarefree(n: int) -> bool:
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def classify(tower: TowerData, rec: ReconstructedStructure,
             tol: float = DEFAULT_TOL) -> Report:
    """Dichotomy test: the reconstructed structure is a weak Kac algebra
    exactly when the canonical central element is the unit, in which case the
    second Jones projection is its Haar projection and the rescaled trace its
    Haar functional.  Also reports the Perron-Frobenius consistency of the
    Cartan inclusion and arithmetic flags for the index."""
    rep = Report(tolerance=tol, seed=tower.seed, title="index classification")
    hopf = rec.on_b.hopf
    alg = tower.ambient

    h_res = rel_residual(rec.index_element.vec, alg.unit().vec)
    trivial = h_res <= tol
    rep.add_info("index element distance from the unit", h_res, ref="Thm 4.17")
    rep.add("index element positive",
            alg.positive_residual(rec.index_element.vec), ref="Cor 4.7")
    rep.add("index element trace-normalized",
            abs(tower.tau.value(rec.index_element.vec) - 1.0), ref="Cor 4.7")

    if trivial:
        axiom_rep = verify_axioms(hopf, tol)
        rep.add_flag("weak Kac axioms", axiom_rep.classification == "weak Kac",
                     ref="Thm 4.17", note=f"classified {axiom_rep.classification}")
        if axiom_rep.classification != "weak Kac":
            raise InvariantViolation("invalid tower: unit index element but "
                                     "weak Kac axioms fail")

        e2_b = tower.rel_b.coords_vec(tower.e2.vec[None, :])[0]
        solved = haar_projection(hopf, tol)
        rep.add("Haar projection is the second Jones projection",
                rel_residual(solved.vec, e2_b), ref="Thm 4.17")
        phi = haar_functional(hopf, tol)
        phi_trace = tower.d * tower.tau.values(tower.rel_b.images.T)
        rep.add("Haar functional is the rescaled trace",
                rel_residual(phi, phi_trace), ref="Thm 4.17")
        rep.classification = "weak Kac"
    else:
        mult_res = axioms.multiplicativity(hopf)
        rep.add_flag("coproduct is not multiplicative", mult_res > 1e-3,
                     ref="Thm 4.17", note=f"non-multiplicativity {mult_res:.3e}")
        rep.classification = "weak C*-Hopf (deformation required)"

    # Perron-Frobenius consistency of the Cartan inclusion
    bt_in_b = SubalgebraEmbedding(
        tower.cartan_target.sub, tower.rel_b.sub,
        tower.rel_b.coords_vec(tower.cartan_target.images.T).T)
    lam_mat = inclusion_matrix(bt_in_b, tol)
    tvec = rec.cartan_weights
    rep.add("Markov eigenvector consistency",
            rel_residual(lam_mat.product_with_transpose @ tvec, tvec / tower.lam),
            ref="Thm 4.17")

    index = 1.0 / tower.lam
    integral = abs(index - round(index)) <= 1e-6
    rep.add_flag("index integral", integral, ref="Thm 4.17",
                 note=f"index {index:.6f}")
    if integral:
        n = int(round(index))
        rep.add_info("index square-free", 0.0 if is_squarefree(n) else 1.0,
                     ref="number theory", note=f"{n} squarefree: {is_squarefree(n)}")
        rep.add_info("index prime", 0.0 if is_prime(n) else 1.0,
                     ref="number theory", note=f"{n} prime: {is_prime(n)}")
    return rep
