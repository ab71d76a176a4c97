"""Actions of weak Hopf structures on multimatrix algebras, the canonical
tower action, fixed points, balanced crossed products, minimality, and the
comparison isomorphism onto the tower ambient.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import axioms
from ._linalg import (
    SupportSVD,
    box_slabs,
    null_space,
    numeric_rank,
    reach,
    read_only,
    rel_residual,
    slabs,
    streamed_residual,
    streamed_residuals,
)
from .decompose import StructureAlgebra, decompose_structure_algebra
from .deform import DeformedStructure
from .errors import InvariantViolation
from .multimatrix import (
    DEFAULT_TOL,
    MEMBERSHIP_TOL,
    MultiMatrixAlgebra,
    SubalgebraEmbedding,
    _corner_ranges,
    corner_frame,
    module_endomorphisms,
    relative_commutant,
    subalgebra_from_basis,
)
from .report import Report
from .tower import TowerData
from .weak_hopf import WeakHopfData, canonical_involution_matrix


@dataclass
class ActionData:
    """Left module action of a weak Hopf structure on a multimatrix algebra.

    ``tensor[b, x, y]`` is the coefficient of the y-th carrier unit in the
    action of the b-th structure unit on the x-th carrier unit.  It is held
    read-only (the array itself when it already is, as the tower's module
    tensor), since the structure's row memo keys it by identity; a changed
    action is a new ``ActionData`` over a new array.

    ``cartan`` (B_t in B) and ``fixed`` (the fixed points in the carrier)
    are matrix units known in closed form, as the tower's; without them the
    crossed product splits their spans at random.
    """

    hopf: WeakHopfData
    carrier: MultiMatrixAlgebra
    tensor: np.ndarray
    cartan: SubalgebraEmbedding | None = None
    fixed: SubalgebraEmbedding | None = None

    def __post_init__(self):
        self.tensor = read_only(self.tensor)

    @property
    def on_unit(self) -> np.ndarray:
        """Matrix of b -> b acting on the carrier unit."""
        return np.einsum("bxy,x->yb", self.tensor, self.carrier.unit().vec)


@dataclass
class ClassMap:
    """The class map of M1 (x)_{B_t} B and its lift, kept as their factors.

    A raw tensor is a (carrier.dim, hopf.dim) matrix T, flattened with the
    index ``x * hopf.dim + b``.  Block a of the classes is M1 p_a (x) f^a_00 B
    (see :func:`crossed_product`), with orthonormal bases V (carrier.dim, r)
    of M1 p_a and W (hopf.dim, s) of f^a_00 B, so its class coordinates are
    an (r, s) matrix C, flattened row-major after the blocks before it.
    ``blocks`` holds (V, W, P, Q) per block, with P[i] = V* R(f^a_i0 |> 1)
    and Q[i] = W* L(f^a_0i):

    - the class map ``quot`` sends T to sum_i P[i] T Q[i]^T in block a;
    - the lift sends C to its representative V C W^T, so quot after lift
      is the identity on the classes.

    The dense matrices of both maps, (classes, carrier.dim * hopf.dim)
    each, are never formed.
    """

    raw_shape: tuple   # (carrier.dim, hopf.dim)
    blocks: list       # per block: (V, W, P, Q)

    @property
    def dim(self) -> int:
        return sum(vs.shape[1] * ws.shape[1] for vs, ws, _, _ in self.blocks)

    def quot(self, raw: np.ndarray) -> np.ndarray:
        """Class coordinates of raw tensors (trailing axis).  Per block,
        sum_i P[i] T Q[i]^T is two matrix products: the stacked P[i] times
        each T, then the result, with i moved next to the raw B index, times
        the stacked Q[i]^T."""
        raw = np.asarray(raw, dtype=complex)
        mats = raw.reshape((-1,) + self.raw_shape)
        n, width = len(mats), self.raw_shape[1]
        out = []
        for _, _, ps, qs in self.blocks:
            k, r, _ = ps.shape
            left = (ps.reshape(k * r, -1) @ mats).reshape(n, k, r, width)
            left = left.transpose(0, 2, 1, 3).reshape(n * r, k * width)
            right = qs.transpose(0, 2, 1).reshape(k * width, -1)
            out.append((left @ right).reshape(n, -1))
        return np.concatenate(out, axis=1).reshape(raw.shape[:-1] + (self.dim,))

    def lift(self, cls: np.ndarray) -> np.ndarray:
        """Representatives of class coordinates (n, dim) as raw tensors."""
        cls = np.asarray(cls, dtype=complex)
        out = np.zeros((len(cls),) + self.raw_shape, dtype=complex)
        start = 0
        for vs, ws, _, _ in self.blocks:
            r, s = vs.shape[1], ws.shape[1]
            out += vs @ cls[:, start:start + r * s].reshape(-1, r, s) @ ws.T
            start += r * s
        return out.reshape(len(cls), -1)


@dataclass
class CrossedProduct:
    """Balanced tensor product of the carrier M1 with the acting structure B,
    as a multimatrix algebra.

    Raw tensors live in M1 (x) B with the flat index ``x * hopf.dim + b``.
    ``classes`` maps them to coordinates over a basis of the balanced
    classes and lifts each class to a representative, as factored maps
    (:class:`ClassMap`).  ``block_coords`` maps class coordinates to
    coordinates over the matrix units of ``algebra`` and ``unit_classes`` is
    its inverse.  The product is the algebraic one,
    (x (x) b)(y (x) c) = x (b_(1) |> y) (x) b_(2) c; the blocks only supply
    the basis in which it is the matrix product.
    """

    action: ActionData
    algebra: MultiMatrixAlgebra
    classes: ClassMap
    block_coords: np.ndarray                # (dim, dim): classes -> blocks
    unit_classes: np.ndarray                # (dim, dim): blocks -> classes

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def coords(self, raw: np.ndarray) -> np.ndarray:
        """Block coordinates of the classes of raw tensors (trailing axis)."""
        return self.classes.quot(raw) @ self.block_coords.T

    @property
    def representatives(self) -> np.ndarray:
        """Raw tensors representing the block matrix units, as columns."""
        return self.classes.lift(self.unit_classes.T).T

    @cached_property
    def carrier_embedding(self) -> SubalgebraEmbedding:
        """The carrier in the blocks, x -> [x (x) 1]."""
        car, hopf = self.action.carrier, self.action.hopf
        raw = np.kron(np.eye(car.dim), hopf.unit_vec)
        return SubalgebraEmbedding(car, self.algebra, self.coords(raw).T)

    @cached_property
    def source_embedding(self) -> np.ndarray:
        """Columns: [1 (x) eps_s(u_i)] over the basis units u_i of B; they
        span the image of the source Cartan subalgebra, the range of eps_s."""
        car, hopf = self.action.carrier, self.action.hopf
        return self.coords(np.kron(car.unit().vec[:, None], hopf.source_counital).T).T


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
    kernels of b -> b acting on 1 and of the target counital map: the unit
    image factors through eps_t, so the kernel of eps_t lies in that of the
    unit image, and eps_t kills the kernel of the unit image."""
    rep = Report(tolerance=tol, title="action check")
    hopf, car, act = action.hopf, action.carrier, action.tensor

    rep.add("module law", hopf.row(axioms.module_law, act), ref="action")
    rep.add("unit acts trivially",
            rel_residual(np.einsum("b,bxy->xy", hopf.unit_vec, act), np.eye(car.dim)),
            ref="action")

    rep.add("action multiplicative on products",
            hopf.row(axioms.module_multiplicativity, act, car), ref="axiom (1)")

    rep.add("action star-compatible",
            hopf.row(axioms.action_star_compatible, act, car), ref="axiom (2)")

    on_unit = action.on_unit
    et_unit = on_unit @ hopf.target_counital
    rep.add("unit image factors through the counital map",
            rel_residual(on_unit, et_unit), ref="axiom (3)")
    ker_act = null_space(on_unit, 1e-10)  # orthonormal columns
    rep.add("kernel of the unit image matches the counital kernel",
            rel_residual(hopf.target_counital @ ker_act, 0.0), ref="axiom (3)")
    return rep


def canonical_action(tower: TowerData, deformed: DeformedStructure,
                     tol: float = DEFAULT_TOL) -> ActionData:
    """Action of the deformed structure on M1 through the tower's module map
    b |> x = lam^-1 E_M1(b x e2) (``TowerData.module_tensor``).  Verified as
    an action, and against b x = (b_(1) |> x) b_(2) in the ambient with the
    deformed legs (``axioms.product_decomposition``).

    These two checks are identity-suite rows 12 and 11.  The deformed legs
    are b_(1) (x) H^-1 b_(2), and h |> z = lam^-1 E_M1(h z e2) = h z for h in
    B_t = M' cap M1, so (H^-1 b_(2)) |> y = H^-1 (b_(2) |> y): axiom (1),
    b |> (x y) = (b'_(1) |> x)(b'_(2) |> y), is Prop 4.13 and the product
    check, b x = (b'_(1) |> x) b'_(2), is Cor 4.12 with r(b) = H^-1 b.  At a
    trivial index element ``deform`` returns the reconstructed structure
    and the suite reads both rows and axiom (2) (its row 3) untwisted on the
    same module tensor, carrier and tower: after the suite all are memo hits."""
    hopf = deformed.hopf
    action = ActionData(hopf, tower.sub_top.sub, tower.module_tensor,
                        tower.cartan_in_b, tower.mid_in_top)

    verify_action(action, tol).require_passed("canonical action invalid")
    if hopf.row(axioms.product_decomposition, tower) > 100 * tol:
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
    return _spanned(action.carrier, null_space(rows, 1e-10), action.fixed,
                    "fixed-point set", rng, tol)


def _spanned(host: MultiMatrixAlgebra, span, given, name: str, rng, tol):
    """The subalgebra spanned by the columns of ``span``: ``given`` once it
    is a *-homomorphism holding the span at its rank, else split from it."""
    if given is not None:
        given.require_valid(tol)
        if given.outside(span.T) > 100 * tol or given.sub.dim != numeric_rank(span, 1e-10):
            raise InvariantViolation(f"{name} differs from its given matrix units")
        return given
    try:
        return subalgebra_from_basis(host, span, rng=rng, tol=tol)
    except InvariantViolation as exc:
        raise InvariantViolation(f"{name} is not a subalgebra: {exc}")


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
    commutant End_M(L2(M1)), the basic construction of M in M1.  Only the
    generators meet it (:func:`_commutant_coords`): the L_x by its copy map,
    the A_b by its corners.  A class v (x) w gets the block product of the
    coordinates of L_v and A_w, so no class needs its own test.  pi must be
    injective on the classes; for the tower actions it is, and as they carry
    B_t and M as matrix units, nothing is split at random.  A kernel (of a
    non-Galois action) is an ideal whose blocks are split from its algebraic
    structure constants.
    The complementary ideal (1 - e) X, e the kernel's unit, maps onto the
    commutant, and the units of that commutant are lifted into it: the
    least-norm preimages lie orthogonal to the kernel in class coordinates,
    which is (1 - e) X only when left multiplication by e is self-adjoint
    for the Euclidean metric of the matrix-unit coefficients.  It is for a
    group algebra whose matrix units are orthonormal for its involution and
    which acts unitarily on L2(M1) (the counit actions, permutations of
    points): then every left multiplication is.  It need not be once the
    units are skewed against a supplied involution (C[S3] permuting three
    points is then 0.5 off), so the preimages are multiplied by 1 - e.

    Checks on the generators x (x) 1 and 1 (x) b, never on raw tensors.  The
    block product and adjoint are the algebraic product and the involution
    (x (x) b)* = (b*_(1) |> x*) (x) b*_(2), which is (1 (x) b*)(x* (x) 1)
    by the product formula, an exact identity.  pi is multiplicative by the
    module law, axiom (1) and the relator check, so its coordinates in the
    commutant, a *-subalgebra, multiply as the classes do; the two laws are
    read through ``hopf.row`` (memo hits on the canonical action).  On
    L2(M1), L_(x*) = L_x^dagger: each L of a matrix unit is a 0/1 partial
    permutation, and the carrier-embedding check reads it again.  So
    pi((x (x) b)*) = A_(b*) L_(x*) equals pi(x (x) b)^dagger = A_b^dagger
    L_x^dagger for every x (x) b iff A_(b*) = A_b^dagger for every unit b
    (both sides are antilinear in b, and x = 1 gives the converse), which is
    checked; then pi(c*) = pi(c)^dagger for every class c.  A kernel K of pi
    is then a *-closed two-sided ideal, its unit e is central, and
    X = (1 - e) X + K with pi injective on (1 - e) X.  A class c has block
    coordinates [pi(c), e c] and c* has [pi(c*), e c*], while the block
    adjoint of c is [pi(c)^dagger, (e c)*], since the units of K are split
    against its own algebraic involution (``_verify_units`` checks them).
    So the block adjoint is the involution iff also e c* = (e c)* for every
    c.  Anti-multiplicativity of the involution on X would give it, but no
    row read here covers it, so it is checked on the elementary tensors.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    hopf = action.hopf
    cartan = _spanned(hopf.algebra, hopf.target_counital, action.cartan,
                      "target Cartan", rng, tol)
    classes = _class_basis(action, cartan)
    _check_relators(action, cartan, classes, tol)

    commutant, coords = _commutant_coords(action, classes, rng, tol)
    # the coordinates are monomial on the tower path: one SVD per support
    # component, most of them 1 x 1
    svd = SupportSVD(coords.T)
    cutoff = 1e-8 * svd.top
    rank = svd.rank(cutoff)
    if rank < commutant.dim:
        raise InvariantViolation("crossed product does not fill the commutant "
                                 "of the fixed points")
    # least-norm preimages of the block units, the pseudo-inverse of the
    # coordinates; at full rank they are their inverse
    preimages = svd.pinv(cutoff)
    ideal_star = 0.0
    if rank == classes.dim:
        algebra, block_coords, unit_classes = commutant, coords.T, preimages
    else:
        kernel = svd.kernel(cutoff)
        ideal, ideal_units, ideal_unit = _kernel_ideal(action, classes, kernel, rng, tol)
        by_unit = _left_products(action, ideal_unit)
        # into the complementary ideal (1 - e) X; see the docstring
        preimages -= classes.quot(classes.lift(preimages.T) @ by_unit).T
        ideal_star = _ideal_star_residual(action, classes, by_unit)
        algebra = MultiMatrixAlgebra(commutant.blocks + ideal.blocks)
        unit_classes = np.hstack([preimages, ideal_units])
        block_coords = np.linalg.inv(unit_classes)

    crossed = CrossedProduct(action, algebra, classes, block_coords, unit_classes)
    if crossed.carrier_embedding.verify() > 100 * tol:
        raise InvariantViolation("carrier embedding is not a *-homomorphism")
    _verify_products(action, tol, ideal_star)
    return crossed


def _commutant_coords(action: ActionData, classes: ClassMap, rng, tol):
    """The commutant End_M(L2(M1)) of the right action of the fixed points M
    (Hilbert-Schmidt metric; :func:`module_endomorphisms`) and the (classes,
    commutant dim) coordinates of the class basis in it.  With V_a the basis
    of M1 f^a_00 and F_c0 = R(f^a_c0)^dagger, a *-homomorphism as x -> R_x is
    an anti-*-homomorphism, its units are E^a_ij = sum_c F_c0 v_i v_j* F_0c,
    and V_a* E^b_ij V_a = [a = b] e_i e_j*.  So T lies in it iff T equals
    sum_a sum_c F_c0 V_a (V_a* T V_a) V_a* F_0c, with coordinates V_a* T V_a,
    checked slab by slab for the A_b.  L_x (x in M1) lies in it by
    associativity, (x y) z = x (y z), and V_a* L_x V_a is x_j (x) 1 in slot
    j: the copy map, with no operator formed and no test.  M is checked by
    :func:`_spanned`."""
    car = action.carrier
    fixed = fixed_points(action, rng=rng, tol=tol)
    comm, copies, ranges = module_endomorphisms(fixed, tol)[1:]
    frames = [corner_frame(car, firsts, bases)
              for firsts, bases in zip(fixed.first_columns(), ranges)]
    ops = action.tensor.transpose(0, 2, 1)  # A_b: y -> b |> y
    parts = [basis.conj().T @ ops @ basis for basis, _ in frames]
    if streamed_residual((ops[sl], sum(f @ part[sl] @ f.conj().T
                                       for (_, fs), part in zip(frames, parts) for f in fs))
                         for sl in slabs(len(ops), car.dim ** 2)) > MEMBERSHIP_TOL:
        raise InvariantViolation("classes do not act in the commutant of the fixed points")
    acts = np.concatenate([part.reshape(len(ops), -1) for part in parts], axis=1)
    return comm, np.concatenate([comm.pairwise_mul(vs.T @ copies.T, ws.T @ acts)
                                 .reshape(-1, comm.dim) for vs, ws, _, _ in classes.blocks])


def _class_basis(action: ActionData, cartan: SubalgebraEmbedding) -> ClassMap:
    """The class map of M1 (x)_{B_t} B from the units f^a_ij of B_t, read
    off corner frames (:func:`corner_frame`): V_a of M1 p_a, p_a = f^a_00 |> 1,
    with P[i] = F[i]^dagger.  Conjugated gathers through ``adjoint_index``
    turn the frame of B f^a_00 into W_a of f^a_00 B and L(f^a_i0) W_a, so
    Q[i] = W_a* L(f^a_0i) is F[i]^T with its columns gathered."""
    car, alg = action.carrier, action.hopf.algebra
    blocks, flip = [], alg.adjoint_index
    for firsts in cartan.first_columns():
        moved = firsts @ action.on_unit.T  # the f^a_i0 |> 1
        vs, rights = corner_frame(car, moved, _corner_ranges(car, moved[0]))
        ws, lefts = corner_frame(alg, firsts, _corner_ranges(alg, firsts[0]))
        blocks.append((vs, np.conj(ws[flip]), np.conj(rights).transpose(0, 2, 1),
                       lefts.transpose(0, 2, 1)[..., flip]))
    return ClassMap((car.dim, action.hopf.dim), blocks)


def _check_relators(action: ActionData, cartan: SubalgebraEmbedding,
                    classes: ClassMap, tol):
    """The class map kills x (z |> 1) (x) b - x (x) z b, and the operators
    A_z equal L_(z |> 1), for every matrix unit z of B_t.

    In block a the class map is sum_i P_i (x) Q_i, so the relator of z is
    killed when sum_i P_i R_(z |> 1) (x) Q_i = sum_i P_i (x) Q_i L_z
    (:func:`_relator_residuals`)."""
    hopf, car = action.hopf, action.carrier
    zs = cartan.images.T
    on_unit = action.on_unit @ cartan.images
    moves = [(car.right_mult_matrix(z1), hopf.algebra.left_mult_matrix(z))
             for z, z1 in zip(zs, on_unit.T)]
    if max(_relator_residuals(classes.blocks, moves)) > 1e-6:
        raise InvariantViolation("quotient map does not kill the relators")

    acts = np.einsum("bk,bxy->kxy", cartan.images, action.tensor)
    if rel_residual(acts, car.pairwise_mul(on_unit.T, np.eye(car.dim))) > 100 * tol:
        raise InvariantViolation(
            "representation on L2(M1) does not kill the relators: "
            "A_z differs from L_(z |> 1) on the target Cartan")


def _relator_residuals(blocks, moves) -> list[float]:
    """Per move (R, L), the residual of sum_i P_i R (x) Q_i = sum_i P_i (x)
    Q_i L, indexed (a, c, y, b), over the class blocks (V, W, P, Q).  Both
    sides are compared over boxes of the rows a of P, for all moves at once:
    row a of a box holds the carrier indices y where some P_i[a] or
    P_i[a] R is nonzero, and the B indices where some Q_i or Q_i L is
    (``_linalg.box_slabs``); the rows c of Q are whole."""
    rights, lefts = (np.logical_or.reduce([m.astype(bool) for m in side])
                     for side in zip(*moves))
    operands = [m for move in moves for m in move]

    def groups():
        for _, ws, ps, qs in blocks:
            on_p = ps.astype(bool).any(axis=0)
            on_q = qs.astype(bool).any(axis=(0, 1))
            on_q = np.broadcast_to(on_q | reach(on_q[None], lefts)[0], (len(on_p), len(on_q)))
            for rows, (ys, bs) in box_slabs((on_p | reach(on_p, rights), on_q),
                                            ps, qs, *operands, width=ws.shape[1]):
                part = ps[:, rows]
                yield ((np.einsum("iay,icb->acyb", part @ right[:, ys], qs[:, :, bs]),
                        np.einsum("iax,icb->acxb", part[:, :, ys], qs @ left[:, bs]))
                       for right, left in moves)
    return streamed_residuals(groups(), len(moves))


def _kernel_ideal(action: ActionData, classes: ClassMap, kernel, rng, tol):
    """Blocks of the ideal ker pi (columns of ``kernel``: an orthonormal basis
    in class coordinates) from its algebraic structure constants.  Returns
    the block algebra, the class coordinates of its matrix units and its
    unit as a raw tensor."""
    reps = classes.lift(kernel.T)

    def ideal_coords(raw):
        return classes.quot(raw) @ kernel.conj()
    mult = np.stack([ideal_coords(reps @ _left_products(action, r)) for r in reps])
    k = kernel.shape[1]
    coeff, *_ = np.linalg.lstsq(mult.reshape(k, k * k).T, np.eye(k).reshape(-1),
                                rcond=None)
    if rel_residual(coeff @ mult.reshape(k, k * k), np.eye(k).reshape(-1)) > 1e-6:
        raise InvariantViolation("kernel of the representation has no unit")
    star = ideal_coords(_raw_star(action, reps)).T
    ideal, change = decompose_structure_algebra(StructureAlgebra(mult, coeff, star),
                                                rng=rng, tol=tol)
    return ideal, kernel @ change, coeff @ reps


def _left_products(action: ActionData, raw: np.ndarray) -> np.ndarray:
    """``raw * (x (x) b)`` for every elementary tensor, one row per (x, b),
    swept over slabs of the labels with the one probe broadcast; the rows
    fill a (carrier.dim * hopf.dim)**2 array, so this is meant for the small
    kernel ideals of non-Galois actions."""
    db, dm = action.hopf.dim, action.carrier.dim
    labels = np.array([(x, b) for x in range(dm) for b in range(db)])
    return np.concatenate([
        _relator_products(action, np.broadcast_to(raw, (len(labels[sl]), raw.size)),
                          labels[sl])
        for sl in slabs(len(labels), dm * db * max(dm, db))])


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


def _ideal_star_residual(action: ActionData, classes: ClassMap, by_unit) -> float:
    """Residual of e c* = (e c)* over the elementary tensors c, as classes,
    with ``by_unit`` the rows e (x (x) b) of :func:`_left_products`: the
    kernel-ideal half of the involution check (see :func:`crossed_product`)."""
    starred = _raw_star(action, np.eye(len(by_unit)))  # rows (x (x) b)*
    return rel_residual(classes.quot(_raw_star(action, by_unit)),
                        classes.quot(starred @ by_unit))


def _involution_residual(action: ActionData) -> float:
    """Residual of A_(b*) = A_b^dagger over the units b of B.  A_b is
    act[b]^T on L2(M1), so A_(b*)^T is the action tensor contracted with
    the rows b*, and (A_b^dagger)^T is conj(act[b])^T."""
    hopf, act = action.hopf, action.tensor
    return rel_residual(np.tensordot(hopf.star(np.eye(hopf.dim)), act, axes=1),
                        np.conj(act.transpose(0, 2, 1)))


def _verify_products(action: ActionData, tol, ideal_star: float = 0.0):
    """The block product and adjoint are the algebraic product and
    involution, checked on the generators (see :func:`crossed_product`):
    the module law and axiom (1) for the product, A_(b*) = A_b^dagger and,
    on a kernel ideal, ``ideal_star`` for the involution."""
    hopf, act = action.hopf, action.tensor
    if max(hopf.row(axioms.module_law, act),
           hopf.row(axioms.module_multiplicativity, act, action.carrier)) > 100 * tol:
        raise InvariantViolation("algebraic product differs from the block product")
    if max(_involution_residual(action), ideal_star) > 100 * tol:
        raise InvariantViolation("algebraic involution differs from the block adjoint")


def _relator_products(action: ActionData, probes: np.ndarray, labels: np.ndarray):
    """Raw products ``probe * (x (x) b)`` of carrier (x) structure tensors
    before quotienting, for a stack of probes (n, carrier.dim * hopf.dim)
    and elementary labels (n, 2) of (x, b).

    With (y (x) c)(x (x) b) = y (c_(1) |> x) (x) c_(2) b, the elementary
    factor keeps every intermediate at n * dim**3 entries.  Products in M1
    and in B go through their block kernels.
    """
    hopf, car, act = action.hopf, action.carrier, action.tensor
    db, dm = hopf.dim, car.dim
    xs, bs = labels[:, 0], labels[:, 1]
    n = len(labels)

    # sum over y of u_y (c_(1) |> x): the row of M1 units times the column of
    # acted legs, then the B coefficients over q times u_b
    legs = np.einsum("nyc,cpq->nypq", probes.reshape(n, dm, db), hopf.delta, optimize=True)
    acted = np.einsum("nypq,pnz->ynqz", legs, act[:, xs, :], optimize=True)
    carried = car.matmul_vecs(np.eye(dm)[None], acted.reshape(dm, n * db, dm))
    carried = carried.reshape(n, db, dm).transpose(0, 2, 1)
    return hopf.algebra.mul_vecs(carried, np.eye(db)[bs][:, None, :]).reshape(n, dm * db)


def minimality(crossed: CrossedProduct, tol: float = DEFAULT_TOL) -> Report:
    """Commutant of the carrier image inside the crossed product, compared
    with the image of the source Cartan subalgebra: the image lies in the
    commutant, and their dimensions agree."""
    rep = Report(tolerance=tol, title="minimality check")
    commutant = relative_commutant(crossed.carrier_embedding, tol=tol)
    source = crossed.source_embedding
    rank = numeric_rank(source, 1e-10)
    same_dim = commutant.sub.dim == rank
    rep.add_flag("commutant dimension matches the source Cartan", same_dim,
                 ref="Remark 6.4", note=f"commutant {commutant.sub.dim}, Cartan {rank}")
    outside = commutant.outside(source.T)
    rep.add("commutant equals the source Cartan image", outside, ref="Remark 6.4")
    rep.add_flag("action minimal", same_dim and outside <= 100 * tol, ref="minimality")
    return rep


def theta_iso(tower: TowerData, deformed: DeformedStructure,
              crossed: CrossedProduct, tol: float = DEFAULT_TOL) -> ThetaMap:
    """Comparison map sending a class of x (x) b to x s b s^-1 in the tower
    ambient, where s is the positive square root of the antipode image of the
    index element.  It is read off the generator images x and s b s^-1, as
    the crossed product reads its classes off L_x and A_b: the class
    V_i (x) W_j of a block (V, W, P, Q) of the class map goes to the product
    of (V^T x)_i and (W^T s b s^-1)_j.  theta(x (x) b) = x theta(1 (x) b) is
    left M1-linear, so it kills the relators x (z |> 1) (x) b - x (x) z b,
    that is, factors through M1 (x)_{B_t} B, iff
    (z |> 1) theta(1 (x) b) = theta(1 (x) z b) for the units z of B_t and b
    of B: the well-definedness row.  Verified, on the block matrix units, a
    unital *-homomorphism (:meth:`SubalgebraEmbedding.residuals`), so its
    kernel is a sum of blocks; a nonzero projection has an integer trace, so
    at equal dimensions it is bijective iff every Tr theta(f^k_00) > 1/2."""
    alg = tower.ambient
    hopf = deformed.hopf

    sh_amb = tower.rel_b.images @ deformed.antipode_of_index
    root = alg.sqrt_posdef_vec(sh_amb, tol)
    root_inv = alg.inverse_vec(root)

    top_basis = tower.sub_top.images.T
    # row b: theta(1 (x) u_b) = s u_b s^-1
    mid = alg.mul_vecs(root, alg.mul_vecs(tower.rel_b.images.T, root_inv))

    rep = Report(tolerance=tol, seed=tower.seed, title="comparison map check")
    zs = tower.cartan_in_b.images.T
    on_one = zs @ crossed.action.on_unit.T @ top_basis  # z |> 1 in the ambient
    units_b = np.eye(hopf.dim)
    rep.add("well defined on balanced classes", streamed_residual(
        (alg.mul_vecs(z1, mid), hopf.algebra.mul_vecs(z, units_b) @ mid)
        for z, z1 in zip(zs, on_one)), ref="Prop 6.3")

    on_classes = np.concatenate([
        alg.pairwise_mul(vs.T @ top_basis, ws.T @ mid).reshape(-1, alg.dim)
        for vs, ws, _, _ in crossed.classes.blocks])  # (classes, ambient)
    matrix = on_classes.T @ crossed.unit_classes
    theta = SubalgebraEmbedding(crossed.algebra, alg, matrix)
    parts = theta.residuals()
    traces = np.real([alg.unit().vec @ f[0] for f in theta.first_columns()])  # Tr theta(f_00)
    bij = matrix.shape[0] == matrix.shape[1] and traces.min() > 0.5
    rep.add_flag("bijective", bij, ref="Prop 6.3",
                 note=f"smallest block trace {traces.min():.3g}")
    if not bij:
        raise InvariantViolation("theta not bijective")
    rep.add("multiplicative", parts["multiplicative"], ref="Prop 6.3")
    rep.add("involution-preserving", parts["adjoint"], ref="Prop 6.3")
    rep.add("unital", parts["unital"], ref="Prop 6.3")
    rep.require_passed("comparison map failed")
    return ThetaMap(matrix, rep)
