"""The weak Hopf identities, each written once as a named row.

A row returns the relative residual of one identity over full bases.  It
takes a :class:`~weakhopf.weak_hopf.WeakHopfData`; the index-element rows
also take H and ``intertwines`` takes two structures and a basis change.  The
structure on the relative commutant B = M' cap M2 satisfies these identities
twisted by its index element H (Cor 4.16, Prop 4.14-4.15).  The twisted rows
take the inverse ``hinv`` of H in carrier coordinates and default to H = 1,
where they are the untwisted weak C*-Hopf axioms of Boehm-Nill-Szlachanyi.
Callers (``verify_axioms``, ``check_bundle``, ``identity_suite``,
``classify``) pick rows under their own check names and refs.
"""

import numpy as np

from ._linalg import rel_residual


def coassociativity(hopf) -> float:
    """(Delta (x) id) Delta = (id (x) Delta) Delta."""
    delta = hopf.delta
    lhs = np.einsum("ipc,pab->iabc", delta, delta, optimize=True)
    rhs = np.einsum("iaq,qbc->iabc", delta, delta, optimize=True)
    return rel_residual(lhs, rhs)


def counit_left(hopf) -> float:
    """(eps (x) id) Delta = id."""
    return rel_residual(np.einsum("ipq,p->iq", hopf.delta, hopf.epsilon),
                        np.eye(hopf.dim))


def counit_right(hopf) -> float:
    """(id (x) eps) Delta = id."""
    return rel_residual(np.einsum("ipq,q->ip", hopf.delta, hopf.epsilon),
                        np.eye(hopf.dim))


def multiplicativity(hopf, hinv=None) -> float:
    """Delta(b c) = Delta(b) (1 (x) H^-1) Delta(c)."""
    delta, mult, d = hopf.delta, hopf.mult, hopf.dim
    twist = hopf.structure.left_matrix(hopf.unit_vec if hinv is None else hinv)
    twisted = np.einsum("cpq,rq->cpr", delta, twist, optimize=True)
    prod = np.einsum("ijm,mpq->ijpq", mult, delta, optimize=True)
    # products of every pair in B(x)B as one matmul of the regrouped four-leg
    # contraction
    c1 = np.einsum("ipq,pPr->irPq", delta, mult, optimize=True)
    c2 = np.einsum("jPQ,qQs->Pqjs", twisted, mult, optimize=True)
    pairs = (c1.reshape(d * d, d * d) @ c2.reshape(d * d, d * d)).reshape(d, d, d, d)
    return rel_residual(prod, pairs.transpose(0, 2, 1, 3))


def star_preserving(hopf) -> float:
    """Delta(b*) = Delta(b)^(* (x) *)."""
    star = hopf.star_matrix
    lhs = np.einsum("ji,jpq->ipq", star, hopf.delta, optimize=True)
    rhs = np.einsum("iPQ,pP,qQ->ipq", np.conj(hopf.delta), star, star, optimize=True)
    return rel_residual(lhs, rhs)


def target_counital_relation(hopf) -> float:
    """b eps_t(c) = eps(b_(1) c) b_(2)."""
    lhs = np.einsum("kc,bkr->bcr", hopf.target_counital, hopf.mult, optimize=True)
    rhs = np.einsum("bpq,pc->bcq", hopf.delta, hopf._eps_of_products, optimize=True)
    return rel_residual(lhs, rhs)


def target_counital_absorption(hopf) -> float:
    """b_(1) (x) eps_t(b_(2)) = 1_(1) b (x) 1_(2)."""
    lhs = np.einsum("bpq,sq->bps", hopf.delta, hopf.target_counital, optimize=True)
    rhs = np.einsum("pq,pbr->brq", hopf.delta_unit, hopf.mult, optimize=True)
    return rel_residual(lhs, rhs)


def source_counital_relation(hopf) -> float:
    """eps_s(c) b = b_(1) eps(c b_(2))."""
    lhs = np.einsum("kc,kbr->cbr", hopf.source_counital, hopf.mult, optimize=True)
    rhs = np.einsum("bpq,cq->cbp", hopf.delta, hopf._eps_of_products, optimize=True)
    return rel_residual(lhs, rhs)


def source_counital_absorption(hopf) -> float:
    """eps_s(b_(1)) (x) b_(2) = 1_(1) (x) b 1_(2)."""
    lhs = np.einsum("bpq,sp->bsq", hopf.delta, hopf.source_counital, optimize=True)
    rhs = np.einsum("pq,bqr->bpr", hopf.delta_unit, hopf.mult, optimize=True)
    return rel_residual(lhs, rhs)


def antipode_counital(hopf, hinv=None) -> float:
    """b_(1) S(b_(2) H^-1) = eps_t(b)."""
    sr = hopf.antipode @ hopf.structure.right_matrix(
        hopf.unit_vec if hinv is None else hinv)
    inner = np.einsum("psr,sq->pqr", hopf.mult, sr, optimize=True)
    lhs = np.einsum("bpq,pqr->br", hopf.delta, inner, optimize=True)
    return rel_residual(lhs, hopf.target_counital.T)


def antipode_source(hopf) -> float:
    """S(b_(1)) b_(2) = eps_s(b)."""
    sp = np.einsum("kp,kqr->pqr", hopf.antipode, hopf.mult, optimize=True)
    lhs = np.einsum("bpq,pqr->br", hopf.delta, sp, optimize=True)
    return rel_residual(lhs, hopf.source_counital.T)


def _reverses_products(hopf, mat: np.ndarray, mult_image: np.ndarray) -> float:
    """mat(u_i u_j) = mat(u_j) mat(u_i), with ``mult_image`` the structure
    tensor as ``mat`` sees it (conjugated for an antilinear map)."""
    lhs = np.einsum("ijm,km->ijk", mult_image, mat, optimize=True)
    rhs = np.einsum("aj,bi,abr->ijr", mat, mat, hopf.mult, optimize=True)
    return rel_residual(lhs, rhs)


def anti_multiplicative(hopf) -> float:
    """S(b c) = S(c) S(b)."""
    return _reverses_products(hopf, hopf.antipode, hopf.mult)


def anti_comultiplicative(hopf) -> float:
    """Delta(S(b)) = S(b_(2)) (x) S(b_(1))."""
    anti = hopf.antipode
    lhs = np.einsum("jb,jpq->bpq", anti, hopf.delta, optimize=True)
    rhs = np.einsum("bPQ,pQ,qP->bpq", hopf.delta, anti, anti, optimize=True)
    return rel_residual(lhs, rhs)


def antipode_anti_homomorphism(hopf) -> float:
    """Anti-multiplicative and anti-comultiplicative, the larger residual."""
    return max(anti_multiplicative(hopf), anti_comultiplicative(hopf))


def counit_antipode_invariant(hopf) -> float:
    """eps(S(b)) = eps(b)."""
    return rel_residual(hopf.epsilon @ hopf.antipode, hopf.epsilon)


def antipode_involutive(hopf) -> float:
    """S^2 = id."""
    return rel_residual(hopf.antipode @ hopf.antipode, np.eye(hopf.dim))


def antipode_star_compatible(hopf) -> float:
    """S(b*) = S(b)*."""
    star = hopf.star_matrix
    return rel_residual(hopf.antipode @ star, star @ np.conj(hopf.antipode))


def star_antipode_squared(hopf) -> float:
    """S(S(b*)*) = b."""
    antistar = hopf.antipode @ hopf.star_matrix
    return rel_residual(antistar @ np.conj(antistar), np.eye(hopf.dim))


def involution_squared(hopf) -> float:
    """b** = b."""
    star = hopf.star_matrix
    return rel_residual(star @ np.conj(star), np.eye(hopf.dim))


def involution_anti_multiplicative(hopf) -> float:
    """(b c)* = c* b*."""
    return _reverses_products(hopf, hopf.star_matrix, np.conj(hopf.mult))


def involution_fixes_unit(hopf) -> float:
    """1* = 1."""
    return rel_residual(hopf.star(hopf.unit_vec), hopf.unit_vec)


def index_element(hopf) -> np.ndarray:
    """S(1_(1)) 1_(2), the index element H of a reconstructed structure."""
    return np.einsum("pq,ap,aqr->r", hopf.delta_unit, hopf.antipode, hopf.mult,
                     optimize=True)


def index_from_unit_legs(hopf, h: np.ndarray) -> float:
    """S(1_(1)) 1_(2) = H  (Cor 4.7)."""
    return rel_residual(index_element(hopf), h)


def index_from_counital_legs(hopf, h: np.ndarray) -> float:
    """eps_t(b_(1)) b_(2) = H b  (Prop 4.8)."""
    lhs = np.einsum("bpq,kp,kqr->br", hopf.delta, hopf.target_counital, hopf.mult,
                    optimize=True)
    rhs = np.einsum("k,kbr->br", h, hopf.mult, optimize=True)
    return rel_residual(lhs, rhs)


def intertwines(source, target, u: np.ndarray) -> float:
    """u maps the product, coproduct, counit, antipode, involution and unit
    of ``source`` to those of ``target`` (worst residual)."""
    res = rel_residual(
        np.einsum("ijk,mk->ijm", source.mult, u, optimize=True),
        np.einsum("pi,qj,pqm->ijm", u, u, target.mult, optimize=True))
    res = max(res, rel_residual(
        np.einsum("mi,mPQ->iPQ", u, target.delta, optimize=True),
        np.einsum("ipq,Pp,Qq->iPQ", source.delta, u, u, optimize=True)))
    res = max(res, rel_residual(target.epsilon @ u, source.epsilon))
    res = max(res, rel_residual(target.antipode @ u, u @ source.antipode))
    res = max(res, rel_residual(target.star_matrix @ np.conj(u),
                                u @ source.star_matrix))
    return max(res, rel_residual(u @ source.unit_vec, target.unit_vec))
