"""Actions of weak Hopf structures on multimatrix algebras, the canonical
tower action, fixed points, balanced crossed products, minimality, and the
comparison isomorphism onto the tower ambient.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import axioms
from ._linalg import (
    max_abs,
    null_space,
    orthonormal_columns,
    rel_residual,
    subspace_residual,
)
from .decompose import StructureAlgebra, decompose_structure_algebra
from .deform import DeformedStructure
from .errors import InvariantViolation
from .multimatrix import (
    DEFAULT_TOL,
    MultiMatrixAlgebra,
    SubalgebraEmbedding,
    _commutant_from_units,
    relative_commutant,
    subalgebra_from_basis,
)
from .report import Report
from .tower import TowerData
from .weak_hopf import WeakHopfData, canonical_involution_matrix

_PROBES = 8


@dataclass
class ActionData:
    """Left module action of a weak Hopf structure on a multimatrix algebra.

    ``tensor[b, x, y]`` is the coefficient of the y-th carrier unit in the
    action of the b-th structure unit on the x-th carrier unit.
    """

    hopf: WeakHopfData
    carrier: MultiMatrixAlgebra
    tensor: np.ndarray

    def act(self, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        return np.einsum("b,x,bxy->y", b, x, self.tensor, optimize=True)

    @property
    def on_unit(self) -> np.ndarray:
        """Matrix of b -> b acting on the carrier unit."""
        return np.einsum("bxy,x->yb", self.tensor, self.carrier.unit().vec)


@dataclass
class CrossedProduct:
    """Balanced tensor product of the carrier M1 with the acting structure B,
    as a multimatrix algebra.

    Raw tensors live in M1 (x) B with the flat index ``x * hopf.dim + b``.
    ``quot`` maps them to coordinates over a basis of the balanced classes
    and ``lift`` sends each class basis vector to a representative, so
    ``quot @ lift`` is the identity.  ``block_coords`` maps class coordinates
    to coordinates over the matrix units of ``algebra`` and ``unit_classes``
    is its inverse.  The product is the algebraic one,
    (x (x) b)(y (x) c) = x (b_(1) |> y) (x) b_(2) c; the blocks only supply
    the basis in which it is the matrix product.
    """

    action: ActionData
    algebra: MultiMatrixAlgebra
    quot: np.ndarray                        # (dim, carrier.dim * hopf.dim)
    lift: np.ndarray                        # (carrier.dim * hopf.dim, dim)
    block_coords: np.ndarray                # (dim, dim): classes -> blocks
    unit_classes: np.ndarray                # (dim, dim): blocks -> classes

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def coords(self, raw: np.ndarray) -> np.ndarray:
        """Block coordinates of the classes of raw tensors (trailing axis)."""
        return np.asarray(raw, dtype=complex) @ self.quot.T @ self.block_coords.T

    @property
    def representatives(self) -> np.ndarray:
        """Raw tensors representing the block matrix units, as columns."""
        return self.lift @ self.unit_classes

    @cached_property
    def carrier_embedding(self) -> SubalgebraEmbedding:
        """The carrier in the blocks, x -> [x (x) 1]."""
        car, hopf = self.action.carrier, self.action.hopf
        raw = np.kron(np.eye(car.dim), hopf.unit_vec)
        return SubalgebraEmbedding(car, self.algebra, self.coords(raw).T)

    @cached_property
    def source_embedding(self) -> np.ndarray:
        """Columns: [1 (x) z] for z over an orthonormal basis of the source
        Cartan subalgebra."""
        car, hopf = self.action.carrier, self.action.hopf
        span = null_space(hopf.source_counital - np.eye(hopf.dim), 1e-10)
        return self.coords(np.kron(car.unit().vec[:, None], span).T).T


@dataclass
class ThetaMap:
    """Linear comparison map from the crossed product onto the tower ambient."""

    matrix: np.ndarray  # (ambient.dim, crossed.dim), columns = images of the block units
    report: Report


# ---------------------------------------------------------------------------
# Actions.
# ---------------------------------------------------------------------------


def verify_action(action: ActionData, tol: float = DEFAULT_TOL) -> Report:
    """Module law and the three compatibility axioms, plus equality of the
    kernels of b -> b acting on 1 and of the target counital map."""
    rep = Report(tolerance=tol, title="action check")
    hopf, car, act = action.hopf, action.carrier, action.tensor
    db, dm = hopf.dim, car.dim

    lhs = np.einsum("bcm,mxy->bcxy", hopf.mult, act, optimize=True)
    rhs = np.einsum("cxz,bzy->bcxy", act, act, optimize=True)
    rep.add("module law", rel_residual(lhs, rhs), ref="action")
    rep.add("unit acts trivially",
            rel_residual(np.einsum("b,bxy->xy", hopf.unit_vec, act), np.eye(dm)),
            ref="action")

    rep.add("action multiplicative on products",
            axioms.module_multiplicativity(hopf, act, car, act), ref="axiom (1)")

    j_m = canonical_involution_matrix(car)
    starred_s = hopf.star((hopf.antipode @ np.eye(db)).T)  # rows: S(u_b)*
    lhs = np.einsum("ry,bxy->bxr", j_m, np.conj(act), optimize=True)
    rhs = np.einsum("bk,zx,kzy->bxy", starred_s, j_m, act, optimize=True)
    rep.add("action star-compatible", rel_residual(lhs, rhs), ref="axiom (2)")

    on_unit = action.on_unit
    et_unit = on_unit @ hopf.target_counital
    rep.add("unit image factors through the counital map",
            rel_residual(on_unit, et_unit), ref="axiom (3)")
    ker_act = null_space(on_unit, 1e-10)
    ker_et = null_space(hopf.target_counital, 1e-10)
    rep.add("kernel of the unit image matches the counital kernel",
            subspace_residual(ker_act, ker_et), ref="axiom (3)")
    return rep


def canonical_action(tower: TowerData, deformed: DeformedStructure,
                     tol: float = DEFAULT_TOL) -> ActionData:
    """Action of the deformed structure on M1 through the tower's module map
    b |> x = lam^-1 E_M1(b x e2) (``TowerData.module_tensor``).  Verified as
    an action, and against b x = (b_(1) |> x) b_(2) in the ambient with the
    deformed legs."""
    hopf = deformed.hopf
    action = ActionData(hopf, tower.sub_top.sub, tower.module_tensor)

    rep = verify_action(action, tol)
    if not rep.passed:
        worst = max(rep.failures(), key=lambda c: c.residual)
        raise InvariantViolation(
            f"canonical action invalid: {worst.name} residual {worst.residual:.3e}")
    if tower.decomposition_residual(hopf.delta, tower.rel_b.images.T) > 100 * tol:
        raise InvariantViolation(
            "canonical action fails the product decomposition identity")
    return action


def fixed_points(action: ActionData, *, rng=None,
                 tol: float = DEFAULT_TOL) -> SubalgebraEmbedding:
    """Subalgebra of carrier elements on which every structure element acts
    through its counital image."""
    hopf, act = action.hopf, action.tensor
    act_mats = act.transpose(0, 2, 1)  # [b] : matrix of x -> b |> x
    et_mats = np.einsum("kb,kxy->byx", hopf.target_counital, act, optimize=True)
    rows = (act_mats - et_mats).reshape(-1, action.carrier.dim)
    span = null_space(rows, 1e-10)
    try:
        return subalgebra_from_basis(action.carrier, span, rng=rng, tol=tol)
    except InvariantViolation as exc:
        raise InvariantViolation(f"fixed-point set is not a subalgebra: {exc}")


# ---------------------------------------------------------------------------
# Crossed products.
# ---------------------------------------------------------------------------


def crossed_product(action: ActionData, *, rng=None,
                    tol: float = DEFAULT_TOL) -> CrossedProduct:
    """Quotient of M1 (x) B by the balancing relation over the target Cartan
    B_t, with its blocks and the two canonical embeddings.

    Classes: B_t acts on M1 from the right through z -> z |> 1, so the
    quotient is M1 (x)_{B_t} B.  With matrix units f^a_ij of B_t and
    p_a = f^a_00 |> 1 it is the direct sum over a of M1 p_a (x) f^a_00 B, and
    x (x) b goes to sum_i x (f^a_i0 |> 1) (x) f^a_0i b.

    Blocks: pi(x (x) b) = L_x A_b, with A_b the operator y -> b |> y on
    L2(M1) (coefficient coordinates, unweighted trace).  pi kills the
    relators when A_z = L_(z |> 1) on B_t, which is checked.  It is
    multiplicative: the module law gives A_b A_c = A_(bc), and axiom (1),
    b |> (y w) = (b_(1) |> y)(b_(2) |> w), says A_b L_y = L_(b_(1) |> y) A_(b_(2)),
    so pi(x (x) b) pi(y (x) c) = L_x L_(b_(1) |> y) A_(b_(2)) A_c
    = pi(x (b_(1) |> y) (x) b_(2) c); ``verify_action`` checks both laws on
    every basis pair.  Every pi(x (x) b) commutes with right multiplication
    by the fixed points M, and when pi is a *-map its image is exactly their
    commutant, whose matrix units come from those of M in closed form.  So
    classes map to block coordinates, and pi must be injective there; for
    the tower actions it is, and nothing is split at random beyond the small
    B_t and M.  A kernel (non-Galois actions such as the counit action) is
    an ideal whose blocks are split from its algebraic structure constants.
    Random probes compare the algebraic product and involution with the
    block product and adjoint.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    hopf, car = action.hopf, action.carrier
    db, dm = hopf.dim, car.dim

    cartan_span = null_space(hopf.target_counital - np.eye(db), 1e-10)
    cartan = subalgebra_from_basis(hopf.algebra, cartan_span, rng=rng, tol=tol)
    quot, lift, factors = _class_basis(action, cartan)
    _check_relators(action, cartan, quot, tol)

    fixed = fixed_points(action, rng=rng, tol=tol)
    rights = [np.stack([
        car.right_mult_matrix(fixed.images[:, fixed.sub.basis_index(alpha, 0, c)]).reshape(-1)
        for c in range(k)]) for alpha, k in enumerate(fixed.sub.blocks)]
    image = _commutant_from_units(MultiMatrixAlgebra([dm]), rights)
    image.require_valid(tol)

    left_basis = np.stack([car.left_mult_matrix(e) for e in np.eye(dm)])
    ops = [(np.einsum("xv,xij->vij", vs, left_basis)[:, None]
            @ np.einsum("bw,bxy->wyx", ws, action.tensor)[None]).reshape(-1, dm * dm)
           for vs, ws in factors]
    try:
        coords = image.coords_vec(np.concatenate(ops), tol)  # (classes, image.dim)
    except InvariantViolation as exc:
        raise InvariantViolation(
            "classes do not act in the commutant of the fixed points") from exc
    u, sv, vh = np.linalg.svd(coords.T)
    rank = int(np.sum(sv > 1e-8 * sv[0]))
    if rank < image.sub.dim:
        raise InvariantViolation("crossed product does not fill the commutant "
                                 "of the fixed points")
    if rank == quot.shape[0]:
        algebra, block_coords = image.sub, coords.T
        unit_classes = np.linalg.inv(block_coords)
    else:
        kernel = vh[rank:].conj().T
        preimages = (vh[:rank].conj().T / sv[:rank]) @ u[:, :rank].conj().T
        ideal, ideal_units, ideal_unit = _kernel_ideal(action, quot, lift, kernel,
                                                       rng, tol)
        # the complementary ideal is (1 - e) times the crossed product
        preimages -= quot @ _left_products(action, ideal_unit).T @ lift @ preimages
        algebra = MultiMatrixAlgebra(image.sub.blocks + ideal.blocks)
        unit_classes = np.hstack([preimages, ideal_units])
        block_coords = np.linalg.inv(unit_classes)

    crossed = CrossedProduct(action, algebra, quot, lift, block_coords, unit_classes)
    if crossed.carrier_embedding.verify(tol) > 100 * tol:
        raise InvariantViolation("carrier embedding is not a *-homomorphism")
    _verify_products(crossed, rng, tol)
    return crossed


def _class_basis(action: ActionData, cartan: SubalgebraEmbedding):
    """``quot`` and ``lift`` of M1 (x)_{B_t} B from the matrix units of B_t,
    plus the factors (V_a, W_a): orthonormal bases of M1 p_a and f^a_00 B,
    whose products v (x) w represent the classes of block a."""
    hopf, car = action.hopf, action.carrier
    on_unit = action.on_unit
    quots, lifts, factors = [], [], []
    for alpha, k in enumerate(cartan.sub.blocks):
        def unit(i, j):
            return cartan.images[:, cartan.sub.basis_index(alpha, i, j)]
        rights = [car.right_mult_matrix(on_unit @ unit(i, 0)) for i in range(k)]
        lefts = [hopf.algebra.left_mult_matrix(unit(0, i)) for i in range(k)]
        vs = orthonormal_columns(rights[0], 1e-10)
        ws = orthonormal_columns(lefts[0], 1e-10)
        quots.append(sum(np.kron(vs.conj().T @ r, ws.conj().T @ l)
                         for r, l in zip(rights, lefts)))
        lifts.append(np.kron(vs, ws))
        factors.append((vs, ws))
    return np.vstack(quots), np.hstack(lifts), factors


def _check_relators(action: ActionData, cartan: SubalgebraEmbedding, quot, tol):
    """The class map kills x (z |> 1) (x) b - x (x) z b, and the operators
    A_z equal L_(z |> 1), for every matrix unit z of B_t."""
    hopf, car = action.hopf, action.carrier
    zs = cartan.images.T
    on_unit = action.on_unit @ cartan.images
    q3 = quot.reshape(-1, car.dim, hopf.dim)
    worst = 0.0
    for z, z1 in zip(zs, on_unit.T):
        moved = car.right_mult_matrix(z1).T @ q3
        absorbed = q3 @ hopf.algebra.left_mult_matrix(z)
        worst = max(worst, rel_residual(moved, absorbed))
    if worst > 1e-6:
        raise InvariantViolation("quotient map does not kill the relators")

    acts = np.einsum("bk,bxy->kyx", cartan.images, action.tensor)
    lefts = np.stack([car.left_mult_matrix(z1) for z1 in on_unit.T])
    if rel_residual(acts, lefts) > 100 * tol:
        raise InvariantViolation(
            "representation on L2(M1) does not kill the relators: "
            "A_z differs from L_(z |> 1) on the target Cartan")


def _kernel_ideal(action: ActionData, quot, lift, kernel, rng, tol):
    """Blocks of the ideal ker pi (columns of ``kernel``: an orthonormal basis
    in class coordinates) from its algebraic structure constants.  Returns
    the block algebra, the class coordinates of its matrix units and its
    unit as a raw tensor."""
    reps = (lift @ kernel).T
    dual = quot.T @ kernel.conj()  # raw tensor -> ideal coordinates
    mult = np.stack([reps @ _left_products(action, r) @ dual for r in reps])
    k = kernel.shape[1]
    coeff, *_ = np.linalg.lstsq(mult.reshape(k, k * k).T, np.eye(k).reshape(-1),
                                rcond=None)
    if rel_residual(coeff @ mult.reshape(k, k * k), np.eye(k).reshape(-1)) > 1e-6:
        raise InvariantViolation("kernel of the representation has no unit")
    star = (_raw_star(action, reps) @ dual).T
    ideal, change = decompose_structure_algebra(StructureAlgebra(mult, coeff, star),
                                                rng=rng, tol=tol)
    return ideal, kernel @ change, coeff @ reps


def _left_products(action: ActionData, raw: np.ndarray) -> np.ndarray:
    """``raw * (x (x) b)`` for every elementary tensor, one row per (x, b);
    carrier.dim * hopf.dim products at once, so meant for the small kernel
    ideals of non-Galois actions."""
    db, dm = action.hopf.dim, action.carrier.dim
    labels = np.array([(x, b) for x in range(dm) for b in range(db)])
    left, _ = _relator_products(action, np.tile(raw, (len(labels), 1)), labels)
    return left


def _raw_star(action: ActionData, raw: np.ndarray) -> np.ndarray:
    """Algebraic involution (x (x) b)* = (b*_(1) |> x*) (x) b*_(2) of a stack
    of raw tensors (n, carrier.dim * hopf.dim)."""
    hopf, car, act = action.hopf, action.carrier, action.tensor
    db, dm = hopf.dim, car.dim
    raw = np.asarray(raw, dtype=complex).reshape(-1, dm, db)
    starred = np.einsum("yx,kb,nxb->nyk", canonical_involution_matrix(car),
                        hopf.star_matrix, np.conj(raw), optimize=True)
    legs = np.einsum("nyk,kpq->nypq", starred, hopf.delta, optimize=True)
    out = np.einsum("nypq,pyz->nzq", legs, act, optimize=True)
    return out.reshape(len(raw), dm * db)


def _verify_products(crossed: CrossedProduct, rng, tol):
    """Random probes: the algebraic product and involution of raw tensors
    agree with the block product and adjoint of their classes."""
    action = crossed.action
    db, dm = action.hopf.dim, action.carrier.dim
    alg = crossed.algebra
    draws = rng.standard_normal((_PROBES, dm * db)) \
        + 1j * rng.standard_normal((_PROBES, dm * db))
    labels = np.stack([rng.integers(0, dm, _PROBES), rng.integers(0, db, _PROBES)],
                      axis=1)
    left, right = _relator_products(action, draws, labels)
    probes = crossed.coords(draws)
    elementary = crossed.coords(np.eye(dm * db)[labels[:, 0] * db + labels[:, 1]])
    if max(rel_residual(crossed.coords(left), alg.mul_vecs(probes, elementary)),
           rel_residual(crossed.coords(right), alg.mul_vecs(elementary, probes))) \
            > 100 * tol:
        raise InvariantViolation("algebraic product differs from the block product")
    if rel_residual(crossed.coords(_raw_star(action, draws)),
                    alg.adjoint_vecs(probes)) > 100 * tol:
        raise InvariantViolation("algebraic involution differs from the block adjoint")


def _relator_products(action: ActionData, probes: np.ndarray, labels: np.ndarray):
    """Raw products of carrier (x) structure tensors before quotienting,
    ``probe * (x (x) b)`` and ``(x (x) b) * probe``, for a stack of probes
    (n, carrier.dim * hopf.dim) and elementary labels (n, 2) of (x, b).

    With (y (x) c)(x (x) b) = y (c_(1) |> x) (x) c_(2) b, one elementary
    factor keeps every intermediate at n * dim**3 entries.
    """
    hopf, car, act = action.hopf, action.carrier, action.tensor
    db, dm = hopf.dim, car.dim
    mult_m, mult_b, delta = car.mult_tensor, hopf.mult, hopf.delta
    xs, bs = labels[:, 0], labels[:, 1]
    n = len(labels)
    probes = probes.reshape(n, dm, db)

    legs = np.einsum("nyc,cpq->nypq", probes, delta, optimize=True)
    acted = np.einsum("nypq,pnz->nyqz", legs, act[:, xs, :], optimize=True)
    carried = np.einsum("nyqz,yzm->nqm", acted, mult_m, optimize=True)
    left = np.einsum("nqm,qnk->nmk", carried, mult_b[:, bs, :], optimize=True)

    acted = np.einsum("npq,pyz->nqyz", delta[bs], act, optimize=True)
    carried = np.einsum("nqyz,nzm->nqym", acted, mult_m[xs], optimize=True)
    tails = np.einsum("nyc,qck->nyqk", probes, mult_b, optimize=True)
    right = np.einsum("nqym,nyqk->nmk", carried, tails, optimize=True)
    return left.reshape(n, dm * db), right.reshape(n, dm * db)


def minimality(crossed: CrossedProduct, tol: float = DEFAULT_TOL) -> Report:
    """Commutant of the carrier image inside the crossed product, compared
    with the image of the source Cartan subalgebra."""
    rep = Report(tolerance=tol, title="minimality check")
    commutant = relative_commutant(crossed.carrier_embedding, tol=tol).images

    source = orthonormal_columns(crossed.source_embedding, 1e-10)
    rep.add_flag("commutant dimension matches the source Cartan",
                 commutant.shape[1] == source.shape[1],
                 ref="Remark 6.4",
                 note=f"commutant {commutant.shape[1]}, Cartan {source.shape[1]}")
    rep.add("commutant equals the source Cartan image",
            subspace_residual(commutant, source), ref="Remark 6.4")
    rep.add_flag("action minimal",
                 commutant.shape[1] == source.shape[1]
                 and subspace_residual(commutant, source) <= 100 * tol,
                 ref="minimality")
    return rep


def theta_iso(tower: TowerData, deformed: DeformedStructure,
              crossed: CrossedProduct, tol: float = DEFAULT_TOL) -> ThetaMap:
    """Comparison map sending a class of x (x) b to x s b s^-1 in the tower
    ambient, where s is the positive square root of the antipode image of the
    index element.  Verified well defined on the classes and, on the block
    matrix units, bijective and a unital *-homomorphism (the first-column
    argument of :meth:`SubalgebraEmbedding.residuals`)."""
    alg = tower.ambient
    hopf = deformed.hopf
    db, dm = hopf.dim, crossed.action.carrier.dim

    sh_amb = tower.rel_b.images @ deformed.antipode_of_index
    root = alg.sqrt_posdef_vec(sh_amb, tol)
    root_inv = alg.inverse_vec(root)

    top_basis = tower.sub_top.images.T
    mid = alg.mul_vecs(root, alg.mul_vecs(tower.rel_b.images.T, root_inv))
    theta_raw = alg.pairwise_mul(top_basis, mid).reshape(dm * db, alg.dim).T

    rep = Report(tolerance=tol, seed=tower.seed, title="comparison map check")
    # well definedness: the raw map factors through the balanced classes
    residual = theta_raw - (theta_raw @ crossed.lift) @ crossed.quot
    rep.add("well defined on balanced classes",
            max_abs(residual) / max(max_abs(theta_raw), 1.0), ref="Prop 6.3")

    matrix = theta_raw @ crossed.representatives
    sv = np.linalg.svd(matrix, compute_uv=False)
    bij = sv[-1] > 1e-8 * sv[0] and matrix.shape[0] == matrix.shape[1]
    rep.add_flag("bijective", bij, ref="Prop 6.3",
                 note=f"singular value ratio {sv[-1] / sv[0]:.3e}")
    if not bij:
        raise InvariantViolation("theta not bijective")

    parts = SubalgebraEmbedding(crossed.algebra, alg, matrix).residuals()
    rep.add("multiplicative", parts["multiplicative"], ref="Prop 6.3")
    rep.add("involution-preserving", parts["adjoint"], ref="Prop 6.3")
    rep.add("unital", parts["unital"], ref="Prop 6.3")
    if not rep.passed:
        worst = max(rep.failures(), key=lambda c: c.residual)
        raise InvariantViolation(
            f"comparison map failed: {worst.name} residual {worst.residual:.3e}")
    return ThetaMap(matrix, rep)
