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
from .reconstruct import StructureBundle
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
    positivity (eigenvalues of left multiplication, basis-independent)."""
    res = rel_residual(hopf.star(vec), vec)
    spec = np.linalg.eigvals(hopf.algebra.left_mult_matrix(vec))
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


def _twist(hopf: WeakHopfData, t: np.ndarray) -> WeakHopfData:
    """Twist by a central invertible Cartan element t: coproduct
    Delta (1 (x) L(t)), counit eps L(t^-1), antipode S L(t^-1) R(t) and the
    involution conjugated by S(t).  ``undeform`` twists by H and ``deform`` by
    H^-1, so the two are inverse to each other."""
    alg = hopf.algebra
    t_inv = alg.inverse_vec(t)
    s_t = hopf.antipode @ t
    delta = np.einsum("bpQ,qQ->bpq", hopf.delta, alg.left_mult_matrix(t), optimize=True)
    eps = hopf.epsilon @ alg.left_mult_matrix(t_inv)
    antipode = hopf.antipode @ alg.left_mult_matrix(t_inv) @ alg.right_mult_matrix(t)
    star = alg.left_mult_matrix(s_t) @ alg.right_mult_matrix(
        alg.inverse_vec(s_t)) @ hopf.star_matrix
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

    Returns ``(DeformedStructure, Report)``.  With a tower supplied, the Haar
    projection is matched against the product of the second Jones projection
    with the index element and the Haar functional against its closed form.
    At a trivial index element (the Thm 4.17 test of ``trivial_index``,
    where ``bundle.twist`` is None) the twist is the identity and the
    deformed structure is the input itself, so its axiom rows are read from
    the memo the earlier checks filled.
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
    adg = alg.left_mult_matrix(modular) @ alg.right_mult_matrix(
        alg.inverse_vec(modular))
    rep.add("squared antipode is conjugation by the modular element",
            rel_residual(squared, adg), ref="Prop 5.6")
    rep.add("modular element positive", _positivity_residual(deformed, modular),
            ref="Remark 5.8")

    if tower is not None:
        from .weak_hopf import haar_functional, haar_projection

        e2_b = tower.rel_b.coords_vec(tower.e2.vec[None, :])[0]
        e2h = alg.mul_vecs(e2_b, h)
        solved = haar_projection(deformed, tol)
        rep.add("Haar projection is e2 twisted by the index element",
                rel_residual(solved.vec, e2h), ref="Thm 5.7")
        phi = haar_functional(deformed, tol)
        sh_h = alg.mul_vecs(s_h, h)
        closed = tower.d * tower.tau.values(
            (tower.rel_b.images @ alg.left_mult_matrix(sh_h)).T)
        rep.add("Haar functional closed form",
                rel_residual(phi, closed), ref="Thm 5.7")

    if declared_index is not None and abs(declared_index - round(declared_index)) > 1e-9:
        power = modular.copy()
        found = None
        for n in range(1, 13):
            comm = alg.left_mult_matrix(power) - alg.right_mult_matrix(power)
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
