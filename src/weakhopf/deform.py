"""Deformation of a reconstructed structure into a weak C*-Hopf algebra, and
the formal inverse used to synthesize structures with a nontrivial central
twist from honest weak Kac data.  ``check_bundle`` reads the twisted rows of
:mod:`weakhopf.axioms` at the bundle's index element through the structure's
row memo, so ``undeform`` followed by ``deform`` evaluates each row once; at
a trivial index element it reads them untwisted.
"""

from dataclasses import dataclass

import numpy as np

from . import axioms
from ._linalg import max_abs, rel_residual
from .errors import InvariantViolation
from .multimatrix import DEFAULT_TOL
from .report import Report
from .reconstruct import StructureBundle, haar_closed_forms
from .weak_hopf import WeakHopfData, verify_axioms
from .tower import TowerData


@dataclass
class DeformedStructure:
    """Weak C*-Hopf algebra obtained by twisting with the central index
    element: new involution, comultiplication, counit and antipode, plus the
    modular element implementing the square of the deformed antipode."""

    hopf: WeakHopfData
    index_element: np.ndarray            # H, carrier coordinates
    antipode_of_index: np.ndarray        # S(H), fixed by the deformation
    modular_element: np.ndarray          # G = S(H)^-1 H


def _positivity_residual(hopf: WeakHopfData, vec: np.ndarray) -> float:
    """Self-adjointness under the structure involution plus spectral
    positivity (eigenvalues of the blocks, those of left multiplication)."""
    res = rel_residual(hopf.star(vec), vec)
    spec = np.concatenate([np.linalg.eigvals(vec[sl].reshape(r, m, m)).reshape(-1)
                           for sl, m, r in hopf.algebra._runs])
    scale = max(max_abs(spec), 1.0)
    res = max(res, float(np.max(np.abs(np.imag(spec)))) / scale)
    res = max(res, float(-np.min(np.real(spec))) / scale)
    return res


def _central_in_cartan_residual(hopf: WeakHopfData, vec: np.ndarray) -> float:
    """Membership in the target Cartan subalgebra (eps_t fixes it) and
    centrality there: the Cartan is the range of eps_t, so ``vec`` must
    commute with the columns of eps_t."""
    res = rel_residual(hopf.target_counital @ vec, vec)
    span = hopf.target_counital.T  # rows: eps_t(u_i)
    alg = hopf.algebra
    return max(res, rel_residual(alg.mul_vecs(vec, span), alg.mul_vecs(span, vec)))


def _sandwich(alg, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Matrix of x -> left x right on coefficient vectors."""
    return alg.mul_vecs(alg.mul_vecs(left, np.eye(alg.dim)), right).T


def _twist(hopf: WeakHopfData, t: np.ndarray) -> WeakHopfData:
    """Twist by a central invertible Cartan element t: coproduct
    Delta(b)(1 (x) t), counit eps(t^-1 .), antipode S(t^-1 . t) and the
    involution conjugated by S(t).  ``undeform`` twists by H and ``deform`` by
    H^-1, so the two are inverse to each other."""
    alg = hopf.algebra
    t_inv = alg.inverse_vec(t)
    s_t = hopf.antipode @ t
    delta = alg.mul_vecs(t, hopf.delta)
    eps = alg.mul_vecs(t_inv, np.eye(alg.dim)) @ hopf.epsilon
    antipode = hopf.antipode @ _sandwich(alg, t_inv, t)
    star = _sandwich(alg, s_t, alg.inverse_vec(s_t)) @ hopf.star_matrix
    return WeakHopfData(hopf.algebra, delta, eps, antipode, star)


def check_bundle(bundle: StructureBundle, tol: float = DEFAULT_TOL) -> Report:
    """Verify the axiom bundle satisfied by a reconstructed (possibly
    non-multiplicative) structure: coalgebra, twisted multiplicativity,
    star-preservation, counital relations, involutive star-compatible
    anti-homomorphism antipode with the twisted counital identity, and a
    positive invertible central index element.  At a trivial index element
    (``bundle.twist`` is None) the two twisted rows are read untwisted: the
    entries that ``verify_axioms`` and the identity suite read for the same
    structure."""
    hopf, h = bundle.hopf, bundle.index_element
    hinv = bundle.twist(tol)
    rows = [
        ("coassociativity", "Cor 4.16", hopf.row(axioms.coassociativity)),
        ("counit left", "Cor 4.16", hopf.row(axioms.counit_left)),
        ("counit right", "Cor 4.16", hopf.row(axioms.counit_right)),
        ("twisted multiplicativity", "Cor 4.16", hopf.row(axioms.multiplicativity, hinv)),
        ("coproduct star-preserving", "Cor 4.16", hopf.row(axioms.star_preserving)),
        ("counital relation", "Cor 4.16", hopf.row(axioms.target_counital_relation)),
        ("counital coproduct absorption", "Cor 4.16",
         hopf.row(axioms.target_counital_absorption)),
        ("antipode anti-homomorphism", "Cor 4.16",
         axioms.antipode_anti_homomorphism(hopf)),
        ("antipode involutive", "Cor 4.16", hopf.row(axioms.antipode_involutive)),
        ("antipode star-compatible", "Cor 4.16",
         hopf.row(axioms.antipode_star_compatible)),
        ("twisted antipode counital identity", "Cor 4.16",
         hopf.row(axioms.antipode_counital, hinv)),
        ("index element positive", "Cor 4.7", _positivity_residual(hopf, h)),
        ("index element central in the Cartan", "Cor 4.7",
         _central_in_cartan_residual(hopf, h)),
        ("index element as S(1_(1)) 1_(2)", "Cor 4.7",
         hopf.row(axioms.index_from_unit_legs, h)),
    ]
    rep = Report(tolerance=tol, title="structure bundle check")
    for name, ref, residual in rows:
        rep.add(name, residual, ref=ref)
    return rep


def deform(bundle: StructureBundle, tol: float = DEFAULT_TOL,
           tower: TowerData | None = None,
           declared_index: float | None = None):
    """Twist a structure bundle into a weak C*-Hopf algebra.

    Returns ``(DeformedStructure, Report)``.  With a tower supplied, the
    Thm 5.7 closed forms e2 H and d tau(. S(H) H) are checked at the Haar
    identities of the deformed structure, not solved for.  At a trivial
    index element (the Thm 4.17 test of ``trivial_index``, where
    ``bundle.twist`` is None) the twist is the identity and the deformed
    structure is the input itself, so its axiom rows, and the Haar rows at
    e2 and d tau, are read from the memo the earlier checks filled.
    """
    check_bundle(bundle, tol).require_passed("structure bundle violated")

    hopf, h = bundle.hopf, bundle.index_element
    alg = hopf.algebra
    s_h = hopf.antipode @ h
    s_h_inv = alg.inverse_vec(s_h)
    hinv = bundle.twist(tol)
    deformed = hopf if hinv is None else _twist(hopf, hinv)
    rep = Report(tolerance=tol, title="deformation check")

    axiom_rep = verify_axioms(deformed, tol)
    rep.extend(axiom_rep, prefix="deformed: ")
    # the axiom report fails exactly when it classifies the structure invalid
    axiom_rep.require_passed("deformed axioms failed")
    rep.classification = axiom_rep.classification

    rep.add("deformed target counital map unchanged",
            rel_residual(deformed.target_counital, hopf.target_counital),
            ref="Prop 5.5")

    rep.add("antipode fixes the image of the index element",
            rel_residual(deformed.antipode @ h, s_h), ref="Prop 5.6")
    modular = alg.mul_vecs(s_h_inv, h)
    squared = deformed.antipode @ deformed.antipode
    rep.add("squared antipode is conjugation by the modular element",
            rel_residual(squared, _sandwich(alg, modular, alg.inverse_vec(modular))),
            ref="Prop 5.6")
    rep.add("modular element positive", _positivity_residual(deformed, modular),
            ref="Remark 5.8")

    if tower is not None:
        projection, functional = haar_closed_forms(tower, hopf, None if hinv is None else h)
        rep.add("Haar projection is e2 twisted by the index element",
                deformed.row(axioms.haar_projection_identities, projection), ref="Thm 5.7")
        rep.add("Haar functional closed form",
                deformed.row(axioms.haar_functional_identities, functional), ref="Thm 5.7")

    if declared_index is not None and abs(declared_index - round(declared_index)) > 1e-9:
        power, eye = modular.copy(), np.eye(alg.dim)
        found = None
        for n in range(1, 13):
            comm = alg.mul_vecs(power, eye) - alg.mul_vecs(eye, power)
            if max_abs(comm) / max(max_abs(power), 1.0) <= 1e-8:
                found = n
                break
            power = alg.mul_vecs(power, modular)
        rep.add_info("modular element central power",
                     0.0 if found is None else float(found),
                     ref="Remark 5.8",
                     note="no central power up to 12 (antipode of infinite order)"
                     if found is None else f"G^{found} is central")

    out = DeformedStructure(deformed, h, s_h, modular)
    return out, rep


def undeform(hopf: WeakHopfData, h: np.ndarray, tol: float = DEFAULT_TOL):
    """Formal inverse of the deformation: twist a verified weak Kac or weak
    C*-Hopf structure by a positive invertible central Cartan element,
    producing a structure bundle whose index element is that twist.

    Returns ``(StructureBundle, Report)`` where the report is the bundle
    check of the output.
    """
    if verify_axioms(hopf, tol).classification == "invalid":
        raise InvariantViolation("input does not satisfy the structure axioms")
    h = np.asarray(h, dtype=complex).reshape(-1)
    if _positivity_residual(hopf, h) > 100 * tol:
        raise InvariantViolation("twist element is not positive")
    if _central_in_cartan_residual(hopf, h) > 100 * tol:
        raise InvariantViolation("twist element is not central in the Cartan")

    bundle = StructureBundle(_twist(hopf, h), h)
    rep = check_bundle(bundle, tol)
    rep.require_passed("undeformed bundle invalid")
    return bundle, rep
