"""Abstract finite-dimensional weak Kac / weak C*-Hopf algebras.

Structure tensors live over the canonical matrix-unit basis of the underlying
multimatrix algebra; the involution is either that basis adjoint or an
explicitly supplied antilinear map (needed for deformed structures).  The
residual of each axiom is a row of :mod:`weakhopf.axioms`, read through the
structure's row memo (``WeakHopfData.row``); ``verify_axioms`` lists the rows
it reports.

The algebra itself is the :class:`~weakhopf.multimatrix.MultiMatrixAlgebra`
and every product goes through its block kernels.  Counit and Haar values of
products are gathers through ``product_index`` (``unit_products``):
eps(u_p u_c) gives the counital maps, phi(u_i u_j) the positivity gram and
the traciality test.  Only the dual (whose product is the transposed
coproduct, not a multimatrix product), group algebras (whose table is their
structure tensor) and subalgebras given by a spanning set go through
:class:`~weakhopf.decompose.StructureAlgebra`.  The raw dual (``_raw_dual``)
is split by ``dual_algebra``; ``connectedness`` splits nothing: it reads
only its centre and the checked ranges of the counital maps (``_cartan_spans``).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import axioms
from ._linalg import (
    SupportSVD,
    max_abs,
    null_space,
    read_only,
    rel_residual,
    residual_outside,
)
from .decompose import StructureAlgebra, center_span, decompose_structure_algebra
from .errors import InvariantViolation
from .groups import FiniteGroup
from .multimatrix import (
    DEFAULT_TOL,
    AlgebraElement,
    MultiMatrixAlgebra,
    SubalgebraEmbedding,
    split_span,
    subalgebra_span,
)
from .report import Report


def canonical_involution_matrix(algebra: MultiMatrixAlgebra) -> np.ndarray:
    """The block adjoint as an antilinear matrix: x* = J conj(x)."""
    eye = np.eye(algebra.dim, dtype=complex)
    return algebra.adjoint_vecs(eye).T


def _memo_key(arg):
    """The row-memo key of one row argument: None stays None, a writeable
    array (H or H^-1) is its dtype, shape and bytes, and a read-only array
    (a module tensor) or any other object (a carrier, a tower) is its
    identity."""
    if arg is None:
        return None
    if isinstance(arg, np.ndarray) and arg.flags.writeable:
        return (arg.dtype.str, arg.shape, arg.tobytes())
    return id(arg)


class WeakHopfData:
    """Comultiplication / counit / antipode tensors over a multimatrix algebra.

    ``delta[i, p, q]`` is the coefficient of ``u_p (x) u_q`` in the coproduct
    of the i-th basis unit; ``antipode[:, j]`` is the image of the j-th unit.
    ``involution`` is None for the canonical block adjoint, otherwise an
    antilinear matrix J acting as x* = J conj(x).

    The four tensors are read-only views, so the cached maps below and the
    row memo of :meth:`row` cannot go stale; a changed structure is a new
    one (``copy_with``), with a memo of its own.
    """

    def __init__(self, algebra: MultiMatrixAlgebra, delta, epsilon, antipode,
                 involution=None):
        self.algebra = algebra
        d = algebra.dim
        self.delta = read_only(delta)
        self.epsilon = read_only(epsilon).reshape(-1)
        self.antipode = read_only(antipode)
        if self.delta.shape != (d, d, d) or self.epsilon.shape != (d,) \
                or self.antipode.shape != (d, d):
            raise InvariantViolation("structure tensor shapes are inconsistent")
        if involution is None:
            self.involution = None
        else:
            involution = read_only(involution)
            if involution.shape != (d, d):
                raise InvariantViolation("involution matrix has wrong shape")
            self.involution = involution
        self._rows = {}

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @cached_property
    def star_matrix(self) -> np.ndarray:
        if self.involution is None:
            return canonical_involution_matrix(self.algebra)
        return self.involution

    def star(self, vecs: np.ndarray) -> np.ndarray:
        return np.tensordot(np.conj(vecs), self.star_matrix, axes=([-1], [1]))

    @cached_property
    def unit_vec(self) -> np.ndarray:
        return self.algebra.unit().vec

    @cached_property
    def delta_unit(self) -> np.ndarray:
        """Coproduct of the unit as a (d, d) coefficient matrix."""
        return np.tensordot(self.unit_vec, self.delta, axes=([0], [0]))

    @cached_property
    def counit_form(self) -> np.ndarray:
        """eps(u_p u_c) as a (p, c) matrix, gathered by ``unit_products``."""
        return self.algebra.unit_products(self.epsilon)

    @cached_property
    def target_counital(self) -> np.ndarray:
        """Matrix of the target counital map eps_t(b) = eps(1_(1) b) 1_(2)."""
        return self.delta_unit.T @ self.counit_form

    @cached_property
    def source_counital(self) -> np.ndarray:
        """Matrix of the source counital map eps_s(b) = 1_(1) eps(b 1_(2))."""
        return self.delta_unit @ self.counit_form.T

    def row(self, fn, *args) -> float:
        """The residual ``fn(self, *args)`` of a row of :mod:`weakhopf.axioms`,
        evaluated once per structure.  The memo is keyed by the row and
        ``_memo_key`` of each argument.  Trailing None arguments (the
        untwisted row, H = 1) are dropped first, so ``row(fn, None)`` and
        ``row(fn)`` share one entry.  The memo keeps the arguments with the
        value, so an identity in a key is never reused by another object;
        it copies no operand."""
        while args and args[-1] is None:
            args = args[:-1]
        key = (fn, *map(_memo_key, args))
        if key not in self._rows:
            self._rows[key] = fn(self, *args), args
        return self._rows[key][0]

    def copy_with(self, **kwargs) -> "WeakHopfData":
        data = dict(algebra=self.algebra, delta=self.delta, epsilon=self.epsilon,
                    antipode=self.antipode, involution=self.involution)
        data.update(kwargs)
        return WeakHopfData(**data)


@dataclass(frozen=True)
class CartanPair:
    """Images of the counital maps, decomposed into matrix blocks."""

    target: SubalgebraEmbedding
    source: SubalgebraEmbedding


@dataclass(frozen=True)
class DualAlgebra:
    """Dual weak Hopf structure plus the evaluation pairing against the
    original basis: evaluation[j, i] = (j-th dual basis unit)(u_i)."""

    hopf: WeakHopfData
    evaluation: np.ndarray


def counital_maps(hopf: WeakHopfData, b: AlgebraElement):
    """Target and source counital images of a single element."""
    return (hopf.algebra.element(hopf.target_counital @ b.vec),
            hopf.algebra.element(hopf.source_counital @ b.vec))


# ---------------------------------------------------------------------------
# Axiom verification.
# ---------------------------------------------------------------------------


# (check name, ref, row) in report order; the rows live in weakhopf.axioms.
_AXIOM_ROWS = [
    ("coassociativity", "coalgebra", axioms.coassociativity),
    ("counit left", "coalgebra", axioms.counit_left),
    ("counit right", "coalgebra", axioms.counit_right),
    ("comultiplication multiplicative", "axiom (1)", axioms.multiplicativity),
    ("comultiplication star-preserving", "axiom (1)", axioms.star_preserving),
    ("target counital relation", "axiom (2)", axioms.target_counital_relation),
    ("target counital coproduct", "axiom (2)", axioms.target_counital_absorption),
    ("source counital relation", "axiom (2')", axioms.source_counital_relation),
    ("source counital coproduct", "axiom (2')", axioms.source_counital_absorption),
    ("antipode target identity", "axiom (3)", axioms.antipode_counital),
    ("antipode source identity", "axiom (3')", axioms.antipode_source),
    ("antipode anti-multiplicative", "axiom (3)", axioms.anti_multiplicative),
    ("antipode anti-comultiplicative", "axiom (3)", axioms.anti_comultiplicative),
    ("counit antipode-invariant", "axiom (3)", axioms.counit_antipode_invariant),
    ("star-antipode squared identity", "axiom (3)", axioms.star_antipode_squared),
    ("involution squared identity", "C* structure", axioms.involution_squared),
    ("involution anti-multiplicative", "C* structure",
     axioms.involution_anti_multiplicative),
    ("involution fixes unit", "C* structure", axioms.involution_fixes_unit),
]


def verify_axioms(hopf: WeakHopfData, tol: float = DEFAULT_TOL, seed: int = 0) -> Report:
    """Residual check of every defining axiom; classifies the structure as a
    weak Kac algebra, a weak C*-Hopf algebra, or invalid."""
    rep = Report(tolerance=tol, seed=seed, title="weak Hopf axiom check")
    for name, ref, row in _AXIOM_ROWS:
        rep.add(name, hopf.row(row), ref=ref)

    core_pass = rep.passed
    kac_s2 = hopf.row(axioms.antipode_involutive)
    kac_comm = hopf.row(axioms.antipode_star_compatible)
    rep.add_info("antipode involutive", kac_s2, ref="weak Kac",
                 note="classification only")
    rep.add_info("antipode commutes with star", kac_comm, ref="weak Kac",
                 note="classification only")

    if core_pass and kac_s2 <= tol and kac_comm <= tol:
        rep.classification = "weak Kac"
    elif core_pass:
        rep.classification = "weak C*-Hopf"
    else:
        rep.classification = "invalid"
    return rep


# ---------------------------------------------------------------------------
# Cartan subalgebras, integrals, duals, connectedness.
# ---------------------------------------------------------------------------


def _cartan_spans(hopf: WeakHopfData, tol: float):
    """``[(span, structure)]`` (:func:`subalgebra_span`) of B_t and B_s, the
    ranges of the idempotents ``target_counital`` and ``source_counital``,
    refused unless both are unital *-subalgebras for the block adjoint, they
    commute and the antipode maps B_t onto B_s."""
    alg = hopf.algebra
    spans = [subalgebra_span(alg, counital, tol)
             for counital in (hopf.target_counital, hopf.source_counital)]
    target, source = spans[0][0].T, spans[1][0].T
    comm = alg.pairwise_mul(target, source) - alg.pairwise_mul(source, target).transpose(1, 0, 2)
    if max_abs(comm) > 100 * tol:
        raise InvariantViolation("Cartan subalgebras do not commute")
    # S is invertible, so S(B_t) inside B_s with equal dimensions is S(B_t) = B_s
    if len(target) != len(source) \
            or residual_outside(hopf.antipode @ target.T, source.T) > 1e-6:
        raise InvariantViolation("antipode does not exchange the Cartan subalgebras")
    return spans


def cartan_subalgebras(hopf: WeakHopfData, tol: float = DEFAULT_TOL,
                       seed: int = 0) -> CartanPair:
    """Fixed-point subalgebras of the counital maps, checked by
    :func:`_cartan_spans` and block-decomposed."""
    rng = np.random.default_rng(seed)
    return CartanPair(*(split_span(hopf.algebra, span, structure, rng=rng, tol=tol)
                        for span, structure in _cartan_spans(hopf, tol)))


def _solve_unique(conditions, message: str) -> np.ndarray:
    """The least-squares solution of Haar ``conditions`` read at the units,
    which must have exactly one: one SVD, taken per support component
    (:class:`SupportSVD`), gives the rank test (every singular value above
    1e-9 of the largest, one per unknown), whose failure raises
    ``message``, and the solution."""
    lhs, rhs = conditions
    svd = SupportSVD(lhs.T)
    cutoff = 1e-9 * svd.top
    if svd.rank(cutoff) < len(lhs):
        raise InvariantViolation(message)
    return svd.solve(rhs, cutoff)


def haar_projection(hopf: WeakHopfData, tol: float = DEFAULT_TOL) -> AlgebraElement:
    """Unique projection p with x p = eps_t(x) p, S(p) = p, eps_t(p) = 1,
    solved for (abstract input; the tower chain checks closed forms)."""
    message = "Haar projection system degenerate"
    p = _solve_unique(axioms.haar_projection_conditions(hopf, np.eye(hopf.dim)), message)
    if hopf.row(axioms.haar_projection_identities, p) > 100 * tol:
        raise InvariantViolation(message)
    if rel_residual(hopf.algebra.mul_vecs(p, p), p) > 100 * tol \
            or rel_residual(hopf.star(p), p) > 100 * tol:
        raise InvariantViolation("Haar projection is not a self-adjoint idempotent")
    return hopf.algebra.element(p)


def haar_functional(hopf: WeakHopfData, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Unique positive functional phi with (id(x)phi)Delta = (eps_t(x)phi)Delta,
    phi.S = phi and phi.eps_t = eps, solved for (abstract input; the tower
    chain checks closed forms).  Returns the vector phi(u_i)."""
    message = "Haar functional system degenerate"
    sol = _solve_unique(axioms.haar_functional_conditions(hopf, np.eye(hopf.dim)), message)
    if hopf.row(axioms.haar_functional_identities, sol) > 100 * tol:
        raise InvariantViolation(message)
    gram = hopf.star_matrix.T @ hopf.algebra.unit_products(sol)  # phi(u_i* u_j)
    herm = rel_residual(gram, gram.conj().T)
    eigs = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
    if herm > 1e-6 or eigs[0] < -1e-7 * max(eigs[-1], 1.0):
        raise InvariantViolation("Haar functional is not positive")
    return sol


def haar_traciality_residual(hopf: WeakHopfData, phi: np.ndarray) -> float:
    values = hopf.algebra.unit_products(phi)  # phi(u_i u_j)
    return rel_residual(values, values.T)


def _raw_dual(hopf: WeakHopfData) -> StructureAlgebra:
    """The dual algebra over the dual basis u^p (u^p(u_q) = delta_pq), not
    yet split: the product is the transposed coproduct, (u^p u^q)(u_i) =
    delta[i, p, q], the unit is the counit, and the involution is
    phi*(b) = conj(phi(S(b)*))."""
    return StructureAlgebra(hopf.delta.transpose(1, 2, 0), hopf.epsilon,
                            (np.conj(hopf.star_matrix) @ hopf.antipode).T)


def dual_algebra(hopf: WeakHopfData, tol: float = DEFAULT_TOL,
                 seed: int = 0) -> DualAlgebra:
    """Dual weak Hopf structure on the dual space, block-decomposed.

    Product is the transpose of the coproduct, coproduct the transpose of the
    product, unit the counit, counit evaluation at the unit, antipode the
    transpose, and involution phi* (b) = conj(phi(S(b)*)).
    """
    raw = _raw_dual(hopf)
    multi, change = decompose_structure_algebra(raw, rng=np.random.default_rng(seed),
                                                tol=tol)
    inv = np.linalg.inv(change)
    delta_dual = hopf.algebra.mult_tensor.transpose(2, 0, 1)

    # one index at a time: each step holds its input and output, two
    # (d, d, d) arrays, and no third one beside them
    delta_new = inv @ np.tensordot(change, delta_dual, axes=([0], [0])) @ inv.T
    eps_new = hopf.unit_vec @ change
    s_new = inv @ hopf.antipode.T @ change
    j_new = inv @ raw.involution @ np.conj(change)

    canonical = canonical_involution_matrix(multi)
    involution = None if rel_residual(j_new, canonical) <= 1e-9 else j_new
    dual = WeakHopfData(multi, delta_new, eps_new, s_new, involution)
    return DualAlgebra(dual, change.T)


def double_dual_residual(hopf: WeakHopfData, tol: float = DEFAULT_TOL,
                         seed: int = 0) -> float:
    """Distance between the double dual and the original structure under the
    canonical evaluation identification."""
    first = dual_algebra(hopf, tol, seed)
    second = dual_algebra(first.hopf, tol, seed)
    # evaluation-at-u_i in double-dual coordinates: sum_m c[m,i] v_m(w_j) = w_j(u_i)
    coords = np.linalg.solve(second.evaluation.T, first.evaluation)
    return axioms.intertwines(hopf, second.hopf, coords)


def _center_span_of(algebra: MultiMatrixAlgebra) -> np.ndarray:
    return np.column_stack([algebra.block_identity(a).vec
                            for a in range(len(algebra.blocks))])


def _fixed_dim(counital: np.ndarray, span: np.ndarray) -> int:
    """Dimension of the elements of the span of the independent columns
    ``span`` that the idempotent ``counital`` fixes: its intersection with
    the counital range."""
    return null_space((counital - np.eye(len(counital))) @ span, 1e-10).shape[1]


def connectedness(hopf: WeakHopfData, tol: float = DEFAULT_TOL, seed: int = 0):
    """(connected, dual_connected, biconnected) with the cross-check that the
    two available criteria for dual connectedness agree: B_t meets the
    center of B in the scalars only (connected), B_t meets B_s in the
    scalars only, and the dual's B_t meets its center in the scalars only
    (dual connected).

    Nothing is split: B_t and B_s are the checked ranges of the counital
    maps (:func:`_cartan_spans`), and B_t meets B_s in the fixed points of
    eps_s in any basis of B_t.  The dual is read off the raw coproduct.  Over the
    dual basis u^p its product is the transposed coproduct (``_raw_dual``),
    so its centre is the commutant span ``center_span`` of that structure.
    Its unit is eps and its coproduct the transposed product, so
    Delta^(1^) = sum_ij eps(u_i u_j) u^i (x) u^j, and its counit is
    evaluation at 1, so eps^(u^i phi) = (u^i (x) phi)Delta(1).  Hence
    eps^_t(phi) = eps^(1^_(1) phi) 1^_(2) sends b to
    phi(eps(1_(1) b) 1_(2)) = phi(eps_t(b)): eps^_t(phi) = phi . eps_t,
    whose matrix over the dual basis is the transpose of ``target_counital``.
    A block split is an algebra isomorphism, so it maps the centre onto the
    centre and conjugates eps^_t; the dimension of the fixed points of
    eps^_t in the centre is the one the split dual gives.
    """
    (target, _), _ = _cartan_spans(hopf, tol)
    connected = _fixed_dim(hopf.target_counital, _center_span_of(hopf.algebra)) == 1
    primal_criterion = _fixed_dim(hopf.source_counital, target) == 1

    dual_center = center_span(_raw_dual(hopf), np.random.default_rng(seed), tol)
    dual_connected = _fixed_dim(hopf.target_counital.T, dual_center) == 1
    if dual_connected != primal_criterion:
        raise InvariantViolation(
            "connectedness criteria disagree between dual and primal")
    return connected, dual_connected, connected and dual_connected


# ---------------------------------------------------------------------------
# Example generators.
# ---------------------------------------------------------------------------


def pair_groupoid(n: int) -> WeakHopfData:
    """Groupoid algebra of the pair groupoid on n points: M_n with grouplike
    matrix units."""
    if n < 1:
        raise InvariantViolation("pair groupoid needs at least one point")
    algebra = MultiMatrixAlgebra([n])
    d = algebra.dim
    delta = np.zeros((d, d, d), dtype=complex)
    for i in range(d):
        delta[i, i, i] = 1.0
    eps = np.ones(d, dtype=complex)
    anti = np.zeros((d, d), dtype=complex)
    for k in range(n):
        for l in range(n):
            anti[algebra.basis_index(0, l, k), algebra.basis_index(0, k, l)] = 1.0
    return WeakHopfData(algebra, delta, eps, anti)


def group_algebra(group: FiniteGroup, tol: float = DEFAULT_TOL,
                  seed: int = 0) -> WeakHopfData:
    """Group algebra with Delta(g) = g (x) g, realized on its matrix blocks.

    The group table is the structure tensor (u_g u_h = u_gh) and the regular
    trace |G| delta_{g,e} is positive, so the blocks split straight from it."""
    rng = np.random.default_rng(seed)
    n = group.order
    idx = np.arange(n)
    mult = np.zeros((n, n, n), dtype=complex)
    mult[idx[:, None], idx, group.table] = 1.0
    unit = np.zeros(n, dtype=complex)
    unit[group.identity] = 1.0
    s_group = np.zeros((n, n), dtype=complex)
    s_group[group.inverse, idx] = 1.0
    j_group = s_group  # (sum c_g g)* = sum conj(c_g) g^{-1}
    # the units come as combinations of group elements: change is from_units
    algebra, from_units = decompose_structure_algebra(
        StructureAlgebra(mult, unit, j_group), rng=rng, tol=tol)
    to_units = np.linalg.inv(from_units)

    delta = np.einsum("ij,pi,qi->jpq", from_units, to_units, to_units, optimize=True)
    eps = from_units.sum(axis=0)
    antipode = to_units @ s_group @ from_units
    j_new = to_units @ j_group @ np.conj(from_units)
    canonical = canonical_involution_matrix(algebra)
    involution = None if rel_residual(j_new, canonical) <= 1e-9 else j_new
    hopf = WeakHopfData(algebra, delta, eps, antipode, involution)
    hopf.group_basis = to_units  # column g = that group element in unit coords
    return hopf


def function_algebra(group: FiniteGroup) -> WeakHopfData:
    """Functions on a finite group: commutative, with coproduct dual to the
    group law."""
    n = group.order
    algebra = MultiMatrixAlgebra([1] * n)
    delta = np.zeros((n, n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            delta[group.table[a, b], a, b] = 1.0
    eps = np.zeros(n, dtype=complex)
    eps[group.identity] = 1.0
    anti = np.zeros((n, n), dtype=complex)
    anti[group.inverse, np.arange(n)] = 1.0
    return WeakHopfData(algebra, delta, eps, anti)
