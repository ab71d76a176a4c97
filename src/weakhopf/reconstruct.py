"""Duality pairing of the two relative commutants of a tower and everything
extracted from it: the coalgebra and antipode on both sides, the canonical
central element, comatrix dual bases, the identity suite and the index
classification.  The weak Hopf identities among the suite's rows, the
multiplicativity test of ``classify`` and the index element formula
S(1_(1)) 1_(2) are rows of :mod:`weakhopf.axioms`.

The duality is one Gram matrix G[i, p] = <a_i, b_p> over the matrix units
(:func:`pairing`).  Both commutants embed as *-homomorphisms, so a pairing of
unit products, adjoints or the unit is a gather of G through the commutants'
``product_index``, ``adjoint_index`` and ``unit()``, not an ambient product.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import axioms
from ._linalg import condition_number, max_abs, rel_residual, slabs, streamed_residual
from .errors import InvariantViolation
from .multimatrix import (
    DEFAULT_TOL,
    AlgebraElement,
    MultiMatrixAlgebra,
    inclusion_matrix,
    take_units,
    watatani_index,
)
from .report import Report
from .tower import TowerData
from .weak_hopf import WeakHopfData, verify_axioms


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

    def twist(self, tol: float) -> np.ndarray | None:
        """H^-1, the twist of ``deform`` and of the twisted rows, or None when
        H counts as the unit (``trivial_index``): there the twist is the
        identity, so ``deform`` returns the structure and every twisted row
        is read untwisted."""
        if trivial_index(self.index_element, self.hopf.unit_vec, tol)[1]:
            return None
        return self.algebra.inverse_vec(self.index_element)


def trivial_index(h: np.ndarray, unit: np.ndarray, tol: float) -> tuple[float, bool]:
    """The distance rel_residual(H, 1) of an index element from the unit, and
    whether H counts as the unit (Thm 4.17): the distance is at most ``tol``."""
    distance = rel_residual(h, unit)
    return distance, distance <= tol


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
    ambient coordinate stacks, through ``TraceState.product_values``
    (no product x m is formed)."""
    alg = tower.ambient
    mids = alg.mul_vecs(tower.e2.vec, alg.mul_vecs(tower.e1.vec, right.T))
    return tower.d / tower.lam ** 2 * tower.tau.product_values(left.T, mids)


def pairing(tower: TowerData) -> PairingForm:
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
    form = pairing(tower)
    alg, tau, lam, d = tower.ambient, tower.tau, tower.lam, tower.d
    a_sub, b_sub, b_img = tower.rel_a.sub, tower.rel_b.sub, tower.rel_b.images
    gram, gram_inv = form.gram, form.inverse

    # coproduct on B dual to the product of A: <a_i a_j, b>
    paired = take_units(gram, a_sub.product_index)
    delta_b = np.einsum("pi,qj,ijb->bpq", gram_inv, gram_inv, paired, optimize=True)

    eps_b = (d / lam) * tau.values(alg.mul_vecs(b_img.T, tower.e2.vec))

    # antipodes from conj <a*, b*>
    conj_gram = np.conj(gram[a_sub.adjoint_index][:, b_sub.adjoint_index])
    antipode_b = gram_inv @ conj_gram
    antipode_a = np.linalg.solve(gram.T, conj_gram.T)

    # coproduct on A dual to the product of B, counit from pairing the unit
    paired_a = take_units(gram.T, b_sub.product_index).transpose(2, 0, 1)
    delta_a = np.einsum("ip,jq,aij->apq", gram_inv, gram_inv, paired_a, optimize=True)
    eps_a = gram @ b_sub.unit().vec

    hopf_b = WeakHopfData(b_sub, delta_b, eps_b, antipode_b)
    hopf_a = WeakHopfData(a_sub, delta_a, eps_a, antipode_a)

    # canonical central element: antipode applied to the first leg of the
    # coproduct of the unit, against the trace-index formula
    h_b = axioms.index_element(hopf_b)
    h_ambient = b_img @ h_b

    cartan = tower.cartan_target
    cartan_trace = cartan.restrict(tau)
    h_watatani = cartan.embed_vec(watatani_index(cartan_trace).vec) / d
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
                                  alg.element(h_ambient), cartan_trace.weights, cross)


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
    gram_inv = rec.pairing.inverse
    v_amb = tower.rel_b.images @ gram_inv  # column m dual to a-unit m
    a_img = tower.rel_a.images

    rep = Report(tolerance=tol, seed=tower.seed, title="dual basis check")
    rep.add("duality normalization",
            rel_residual(rec.pairing.gram @ gram_inv, np.eye(a_sub.dim)),
            ref="comatrix units")

    block_traces = tower.rel_a.restrict(tower.tau).weights

    transpose_index = a_sub.adjoint_index

    e2e1 = alg.mul_vecs(tower.e2.vec, tower.e1.vec)

    lhs = tower.expect_top.apply_vec(alg.mul_vecs(e2e1, v_amb.T))
    scale = (lam ** 2 / d) / block_traces[a_sub.block_index]
    rhs = scale[:, None] * a_img[:, transpose_index].T
    rep.add("expectation collapse of comatrix units", rel_residual(lhs, rhs),
            ref="Lemma 4.9(i)")

    lhs = lam * gram_inv.T @ tower.act(tower.e1.vec)  # E_M1(v e1 e2)
    sa_img = a_img @ rec.on_a.hopf.antipode
    rhs = scale[:, None] * sa_img[:, transpose_index].T
    rep.add("reverse expectation collapse", rel_residual(lhs, rhs),
            ref="Lemma 4.9(ii)")

    rep.add("mixed expectation exchange", _mixed_exchange_residual(tower, sa_img, v_amb),
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
    # Delta(v_jk) = sum_l v_jl (x) v_lk, where f_jl f_lk = f_jk
    expected = a_sub.product_index == np.arange(a_sub.dim)[:, None, None]
    rep.add("comatrix coproduct", rel_residual(delta_v, expected),
            ref="comatrix units")
    eps_v = rec.on_b.hopf.epsilon @ v_coords
    rep.add("comatrix counit", rel_residual(eps_v, a_sub.unit().vec),
            ref="comatrix units")

    rep.require_passed("duality defect")
    return DualBases(a_sub.basis_labels(), block_traces, a_img, v_amb), rep


def _mixed_exchange_residual(tower: TowerData, sa_img: np.ndarray,
                             v_amb: np.ndarray) -> float:
    """Lemma 4.9(iii), lam^-1 E_M'(S_A(s_pq) v_ij e1) = [alpha=beta][i=p] v_qj,
    over every pair of A units (columns of ``sa_img`` and ``v_amb``), built
    and compared slab by slab over the first unit: no (dA**2, ambient)
    operand is held."""
    alg, a_sub = tower.ambient, tower.rel_a.sub
    ve1 = alg.mul_vecs(v_amb.T, tower.e1.vec)
    # f_qp f_ij = [i = p] f_qj
    gather = a_sub.product_index[a_sub.adjoint_index]

    def pairs():
        rows = slabs(a_sub.dim, a_sub.dim * alg.dim)
        for sl, sv in zip(rows, alg.pairwise_mul_slabs(sa_img.T, ve1, rows)):
            lhs = (1 / tower.lam) * tower.expect_mid_commutant.apply_vec(
                sv.reshape(-1, alg.dim)).reshape(sv.shape)
            yield lhs, take_units(v_amb.T, gather[sl])
    return streamed_residual(pairs())


# ---------------------------------------------------------------------------
# Identity suite.
# ---------------------------------------------------------------------------


def identity_suite(tower: TowerData, rec: ReconstructedStructure,
                   tol: float = DEFAULT_TOL) -> Report:
    """Residuals of the seventeen structural identities tying the pairing
    data to the tower, evaluated over full bases.

    The module map b |> x = lam^-1 E_M1(b x e2) is ``tower.module_tensor``
    (rows 1, 3 and 10-12).  Row 1 pairs the M1 coordinates of b2 |> a
    against B; row 3 is axiom (2), ``axioms.action_star_compatible``, proved
    equal there; rows 3 and 12 compare M1 coordinates.  Row 12 is
    ``axioms.module_multiplicativity`` with right factor H^-1 (b_(2) |> y):
    exact in M1, since the trace-index cross check of ``reconstruct`` puts H
    in B_t = M' cap M1 (an H^-1 outside M1 fails ``coords_vec``).  Row 11 is
    ``axioms.product_decomposition`` with r(b) = H^-1 b.

    Rows 11-14 are the identities the deformed structure checks untwisted.
    ``deform`` twists by H^-1, so its legs are b_(1) (x) H^-1 b_(2).  For h
    in B_t, inside M1, h |> z = lam^-1 E_M1(h z e2) = h z, so by the module
    law (H^-1 b_(2)) |> y = H^-1 (b_(2) |> y).  Hence axiom (1) of the
    canonical action, b |> (x y) = (b'_(1) |> x)(b'_(2) |> y) over the
    deformed legs, is row 12, and its product check b x = (b'_(1) |> x) b'_(2)
    is row 11; multiplicativity and the antipode target identity of the
    deformed axioms are rows 13 and 14.  At a trivial index element
    (``StructureBundle.twist`` is None) the twist is the identity and
    ``deform`` returns this structure, so the four rows are read untwisted
    through its row memo: each is evaluated once for the suite,
    ``check_bundle``, ``verify_axioms`` and ``canonical_action`` together,
    and row 3 is the canonical action's axiom (2).  At H != 1 they are read
    at H^-1."""
    rep = Report(tolerance=tol, seed=tower.seed, title="reconstruction identity suite")
    alg, tau, lam, d = tower.ambient, tower.tau, tower.lam, tower.d
    hopf = rec.on_b.hopf
    anti = hopf.antipode
    et = hopf.target_counital
    gram = rec.pairing.gram
    b_img = tower.rel_b.images
    a_img = tower.rel_a.images
    b_basis, a_basis = b_img.T, a_img.T
    db = b_img.shape[1]
    e1, e2 = tower.e1.vec, tower.e2.vec
    h_b = rec.on_b.index_element
    hinv_amb = b_img @ hopf.algebra.inverse_vec(h_b)
    m1 = tower.sub_top.sub
    # the twist of rows 11-14 in B and in M1 coordinates
    twist_b = rec.on_b.twist(tol)
    twist_m1 = None if twist_b is None else tower.sub_top.coords_vec(hinv_amb[None, :])[0]

    # 1. <a, b1 b2> = lam^-1 <E_M1(b2 a e2), b1>
    rep.add("pairing against products", _pairing_products_residual(tower, rec),
            ref="Lemma 4.1")

    # 17 b. <a, eps_t(b)> = d lam^-2 tau(a e1 b e2)
    lhs = gram @ et
    mids = alg.mul_vecs(e1, alg.mul_vecs(b_basis, e2))
    rhs = (d / lam ** 2) * tau.product_values(a_basis, mids)
    rep.add("counital pairing formula", rel_residual(lhs, rhs), ref="Prop 4.2")

    # 2. b_(1) (x) eps_t(b_(2)) = 1_(1) b (x) 1_(2)
    rep.add("counital coproduct absorption",
            hopf.row(axioms.target_counital_absorption), ref="Prop 4.3")

    # 3. E_M1(b x e2) = E_M1(e2 x S(b)) for x in M1: (b |> x)* = S(b)* |> x*
    rep.add("antipode under the expectation",
            hopf.row(axioms.action_star_compatible, tower.module_tensor, m1),
            ref="Remark 4.4")

    # 4. S maps the source Cartan onto the target Cartan: S is invertible,
    # so S(B_s) inside B_t with equal dimensions is S(B_s) = B_t
    source_in_b = tower.cartan_source_in_b
    mapped = b_img @ (anti @ source_in_b.images)
    rep.add("antipode exchanges the Cartan subalgebras",
            max(tower.cartan_target.outside(mapped.T),
                float(source_in_b.sub.dim != tower.d)), ref="Prop 4.5(ii)")

    # 5. S^2 = id and S(b*) = S(b)*
    rep.add("antipode involutive and star-compatible",
            max(hopf.row(axioms.antipode_involutive),
                hopf.row(axioms.antipode_star_compatible)),
            ref="Prop 4.5(iii)")

    # 6. S anti-multiplicative and anti-comultiplicative
    rep.add("antipode anti-homomorphism", axioms.antipode_anti_homomorphism(hopf),
            ref="Prop 4.5(iv)")

    # 7. coproduct of the unit: explicit formula and positivity
    rep.add("coproduct of the unit", _delta_unit_residual(tower, rec),
            ref="Prop 4.6")

    # 8. eps_t(b_(1)) b_(2) = H b
    rep.add("index element from counital legs",
            hopf.row(axioms.index_from_counital_legs, h_b), ref="Prop 4.8")

    # 9. coproduct star-preserving
    rep.add("coproduct star-preserving", hopf.row(axioms.star_preserving),
            ref="Cor 4.10")

    # 10. comatrix unit recursion v_ij e1 = sum_k (v_ik |> e1) H^-1 v_kj
    rep.add("comatrix recursion", _comatrix_recursion_residual(tower, rec, hinv_amb),
            ref="Prop 4.11")

    # 11. b x = lam^-1 E_M1(b_(1) x e2) H^-1 b_(2) = (b_(1) |> x) H^-1 b_(2)
    rep.add("product against module elements",
            hopf.row(axioms.product_decomposition, tower, twist_b), ref="Cor 4.12")

    # 12. E_M1(b x y e2) = lam^-1 E_M1(b_(1) x e2) H^-1 E_M1(b_(2) y e2), that
    # is b |> (x y) = (b_(1) |> x) H^-1 (b_(2) |> y)
    rep.add("expectation comultiplicativity",
            hopf.row(axioms.module_multiplicativity, tower.module_tensor, m1, twist_m1),
            ref="Prop 4.13")

    # 13. Delta(b c) = Delta(b) (1 (x) H^-1) Delta(c)
    rep.add("twisted multiplicativity of the coproduct",
            hopf.row(axioms.multiplicativity, twist_b), ref="Prop 4.14")

    # 14. b_(1) S(b_(2) H^-1) = eps_t(b)
    rep.add("twisted antipode counital identity",
            hopf.row(axioms.antipode_counital, twist_b), ref="Prop 4.15")

    # 15. eps_t(z b) = z eps_t(b) for z in the target Cartan
    zs = tower.cartan_in_b.images.T
    lhs = hopf.algebra.pairwise_mul(zs, np.eye(db)) @ et.T
    rhs = hopf.algebra.pairwise_mul(zs, et.T)
    rep.add("counital map is Cartan-linear", rel_residual(lhs, rhs),
            ref="Lemma 5.2")

    # 16. the trace is antipode-invariant on both sides
    res = rel_residual(tau.values((b_img @ anti).T), tau.values(b_basis))
    res = max(res, rel_residual(tau.values((a_img @ rec.on_a.hopf.antipode).T),
                                tau.values(a_basis)))
    rep.add("trace antipode-invariant", res, ref="duality")
    return rep


def _pairing_products_residual(tower: TowerData, rec: ReconstructedStructure) -> float:
    """Identity-suite row 1, <a, b1 b2> = lam^-1 <E_M1(b2 a e2), b1> =
    <b2 |> a, b1>.  The left side is a read of the pairing matrix.  The
    right side is linear in b2 |> a, so it is the M1 coordinates of b2 |> a
    (those of a against ``tower.module_tensor``, one slab of A units at a
    time) times the pairing P of the units of M1 against those of B: no
    b2 |> a is formed in the ambient."""
    gram, act, products = rec.pairing.gram, tower.module_tensor, rec.on_b.algebra.product_index
    a_m1 = tower.sub_top.coords_vec(tower.rel_a.images.T)
    paired = pairing_values(tower, tower.sub_top.images, tower.rel_b.images)  # P: (M1, B)

    def pairs():
        for sl in slabs(len(a_m1), act.shape[0] * act.shape[2]):
            rhs = (a_m1[sl] @ act) @ paired  # (b2, a, b1)
            yield take_units(gram[sl].T, products).transpose(2, 0, 1), rhs.transpose(1, 2, 0)
    return streamed_residual(pairs())


def _delta_unit_residual(tower: TowerData, rec: ReconstructedStructure) -> float:
    """Explicit formula for the coproduct of the unit and its positivity as
    an element of (source Cartan) (x) (target Cartan)."""
    hopf = rec.on_b.hopf
    d = tower.d
    source = tower.cartan_source_in_b
    target = tower.cartan_in_b
    bt_in_b = target.images
    weights = rec.cartan_weights
    sub = target.sub

    # Delta(1) = sum over the units f_kl of the Cartan of
    # S(f_kl) (x) f_lk / (d tau(f_kk))
    s_bt = hopf.antipode @ bt_in_b / (d * weights[sub.block_index])
    formula = s_bt @ bt_in_b[:, sub.adjoint_index].T
    res = rel_residual(hopf.delta_unit, formula)

    # positivity inside the Cartan tensor square: the first legs in source
    # coordinates, then the second legs in target coordinates
    legs, first = source._back_substitute(hopf.delta_unit.T)  # (q, s)
    second, other = target._back_substitute(legs.T)  # (s, t)
    res = max(res, first, other)
    res = max(res, _tensor_positive_residual(source.sub, sub, second))
    return res


def _tensor_positive_residual(left: MultiMatrixAlgebra, right: MultiMatrixAlgebra,
                              coeffs: np.ndarray) -> float:
    """Positivity of sum coeffs[i,j] u_i (x) u_j in the tensor-product
    multimatrix algebra, by block eigenvalues: one batched ``eigvalsh`` per
    pair of runs of equal blocks, and the real part on 1 x 1 blocks."""
    worst = 0.0
    scale = max(max_abs(coeffs), 1.0)
    for lsl, m, r in left._runs:
        for rsl, n, q in right._runs:
            # e_kl (x) e_pq is the matrix unit ((k, p), (l, q)) of block (a, b)
            blocks = coeffs[lsl, rsl].reshape(r, m, m, q, n, n).transpose(
                0, 3, 1, 4, 2, 5).reshape(r * q, m * n, m * n)
            adj = blocks.conj().transpose(0, 2, 1)
            half = 0.5 * (blocks + adj)
            low = -(half.real.min() if m * n == 1 else np.linalg.eigvalsh(half).min())
            worst = max(worst, max_abs(blocks - adj) / scale, float(low) / scale)
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
        sl = a_sub.block_slice(alpha)
        v = v_amb[:, sl].T.reshape(m, m, -1)
        lhs = alg.mul_vecs(v, e1)
        inner_h = alg.mul_vecs(v_on_e1[sl].reshape(m, m, -1), hinv_amb)
        worst = max(worst, rel_residual(lhs, alg.matmul_vecs(inner_h, v)))
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


def haar_closed_forms(tower: TowerData, hopf: WeakHopfData | None = None,
                      h: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The Haar projection and functional of a structure on B in closed form,
    over the units of B: e2 and d tau (Thm 4.17), or with the index element
    ``h`` of ``hopf`` e2 H and d tau(. S(H) H) (Thm 5.7)."""
    e2 = tower.rel_b.coords_vec(tower.e2.vec[None, :])[0]
    trace = tower.d * tower.tau.values(tower.rel_b.images.T)
    if h is None:
        return e2, trace
    alg = hopf.algebra
    # row q is S(H) H u_q, so the product with the trace is d tau(S(H) H u_q)
    twist = alg.mul_vecs(alg.mul_vecs(hopf.antipode @ h, h), np.eye(alg.dim))
    return alg.mul_vecs(e2, h), twist @ trace


def classify(tower: TowerData, rec: ReconstructedStructure,
             tol: float = DEFAULT_TOL) -> Report:
    """Dichotomy test: the reconstructed structure is a weak Kac algebra
    exactly when the canonical central element is the unit, in which case the
    second Jones projection is its Haar projection and the rescaled trace its
    Haar functional, checked at the Haar identities, not solved for.  Also
    reports the Perron-Frobenius consistency of the Cartan inclusion and
    arithmetic flags for the index."""
    rep = Report(tolerance=tol, seed=tower.seed, title="index classification")
    hopf = rec.on_b.hopf
    alg = tower.ambient

    h_res, trivial = trivial_index(rec.index_element.vec, alg.unit().vec, tol)
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

        e2_b, phi_trace = haar_closed_forms(tower)
        rep.add("Haar projection is the second Jones projection",
                hopf.row(axioms.haar_projection_identities, e2_b), ref="Thm 4.17")
        rep.add("Haar functional is the rescaled trace",
                hopf.row(axioms.haar_functional_identities, phi_trace), ref="Thm 4.17")
        rep.classification = "weak Kac"
    else:
        mult_res = hopf.row(axioms.multiplicativity)
        rep.add_flag("coproduct is not multiplicative", mult_res > 1e-3,
                     ref="Thm 4.17", note=f"non-multiplicativity {mult_res:.3e}")
        rep.classification = "weak C*-Hopf (deformation required)"

    # Perron-Frobenius consistency of the Cartan inclusion
    lam_mat = inclusion_matrix(tower.cartan_in_b, tol)
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
