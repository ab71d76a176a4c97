"""Finite analogues of a depth-2 Jones tower.

The tower ambient plays the role of the second extension of the starting
inclusion; the two Jones projections, the Markov trace and the relative
commutants of the chain are all carried concretely inside it.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import containment_residual, max_abs, numeric_rank, rel_residual
from .errors import InvariantViolation
from .groups import FiniteGroup
from .multimatrix import (
    DEFAULT_TOL,
    AlgebraElement,
    ConditionalExpectation,
    MultiMatrixAlgebra,
    SubalgebraEmbedding,
    TraceState,
    basic_construction,
    inclusion_matrix,
    markov_trace,
    relative_commutant,
)
from .report import Report


@dataclass
class TowerData:
    """Two-step Jones tower data living inside a common ambient algebra.

    ``sub_start``, ``sub_mid``, ``sub_top`` are the embeddings of the chain
    N < M < M1 into the ambient (the finite stand-in for the second
    extension); ``e1``, ``e2`` are the Jones projections, ``tau`` the Markov
    trace on the ambient and ``lam`` its modulus.  The relative commutants
    are computed on first use from the matrix units of the chain, so they do
    not depend on ``seed``, which only labels reports.
    """

    ambient: MultiMatrixAlgebra
    sub_start: SubalgebraEmbedding
    sub_mid: SubalgebraEmbedding
    sub_top: SubalgebraEmbedding
    e1: AlgebraElement
    e2: AlgebraElement
    tau: TraceState
    lam: float
    seed: int = 0

    @cached_property
    def rel_a(self) -> SubalgebraEmbedding:
        """A = N' in M1."""
        return relative_commutant(self.sub_start, within=self.sub_top)

    @cached_property
    def rel_b(self) -> SubalgebraEmbedding:
        """B = M' in the ambient."""
        return relative_commutant(self.sub_mid)

    @cached_property
    def cartan_target(self) -> SubalgebraEmbedding:
        """M' in M1 (the shared Cartan subalgebra of the two commutants)."""
        return relative_commutant(self.sub_mid, within=self.sub_top)

    @cached_property
    def cartan_source(self) -> SubalgebraEmbedding:
        """M1' in the ambient."""
        return relative_commutant(self.sub_top)

    @cached_property
    def start_commutant_full(self) -> SubalgebraEmbedding:
        """N' in the full ambient."""
        return relative_commutant(self.sub_start)

    @property
    def d(self) -> int:
        return self.cartan_target.sub.dim

    @cached_property
    def expect_top(self) -> ConditionalExpectation:
        """Expectation onto M1."""
        return ConditionalExpectation(self.sub_top, self.tau, verify=False)

    @cached_property
    def expect_mid(self) -> ConditionalExpectation:
        """Expectation onto M."""
        return ConditionalExpectation(self.sub_mid, self.tau, verify=False)

    @cached_property
    def expect_start(self) -> ConditionalExpectation:
        """Expectation onto N."""
        return ConditionalExpectation(self.sub_start, self.tau, verify=False)

    @cached_property
    def expect_mid_commutant(self) -> ConditionalExpectation:
        """Expectation onto M' (within the ambient)."""
        return ConditionalExpectation(self.rel_b, self.tau, verify=False)

    @cached_property
    def module_tensor(self) -> np.ndarray:
        """The minimal action b |> x = lam^-1 E_M1(b x e2) of B = M' cap M2 on
        M1: a read-only (B units, M1 units, M1 coordinates) array.  It does
        not depend on the coproduct of B."""
        alg, top = self.ambient, self.sub_top
        raw = self.expect_top.apply_vec(alg.pairwise_mul(
            self.rel_b.images.T, alg.mul_vecs(top.images.T, self.e2.vec)))
        db, dm = raw.shape[:2]
        tensor = top.coords_vec(raw.reshape(db * dm, -1)).reshape(db, dm, dm) / self.lam
        tensor.setflags(write=False)
        return tensor

    def act(self, xs: np.ndarray) -> np.ndarray:
        """b |> x for every unit b of B and M1 element x of the stack ``xs``,
        ambient coordinates in and out: shape xs.shape[:-1] + (B units, dim)."""
        coords = self.sub_top.coords_vec(xs)
        return self.sub_top.embed_vec(
            np.einsum("...x,bxy->...by", coords, self.module_tensor, optimize=True))

    def decomposition_residual(self, delta: np.ndarray, right: np.ndarray) -> float:
        """Residual of b x = (b_(1) |> x) r(b_(2)) over the units b of B and x
        of M1, for the legs ``delta`` and r(u_q) = ``right[q]`` in the ambient:
        the M1 x B product map, contracted with the legs in one GEMM."""
        alg = self.ambient
        b_basis, m_basis = self.rel_b.images.T, self.sub_top.images.T
        db, dm = len(b_basis), len(m_basis)
        legs = np.einsum("bpq,pxy->bxyq", delta, self.module_tensor, optimize=True)
        products = alg.pairwise_mul(m_basis, right).reshape(dm * db, -1)
        rhs = legs.reshape(db * dm, dm * db) @ products
        return rel_residual(alg.pairwise_mul(b_basis, m_basis), rhs.reshape(db, dm, -1))


def build_tower_from_group(group: FiniteGroup, *, seed: int = 0,
                           tol: float = DEFAULT_TOL) -> TowerData:
    """Two basic constructions over scalars < functions(G) with the uniform
    Markov trace.  The modulus is 1/|G| (the group enters only through its
    order; the inclusion of scalars into the diagonal forgets the law).

    Nothing here is random: ``seed`` is only recorded on the tower, which
    passes it to its reports."""
    n = group.order
    if n < 2:
        raise InvariantViolation("tower needs a group of order at least 2")

    diag = MultiMatrixAlgebra([1] * n)
    scalars = MultiMatrixAlgebra([1])
    start = SubalgebraEmbedding(scalars, diag, diag.unit().vec[:, None])
    trace_mid = TraceState(diag, np.full(n, 1.0 / n))

    index, _ = markov_trace(inclusion_matrix(start, tol), tol)
    if abs(index - n) > tol * n:
        raise InvariantViolation("Markov index does not match the group order")
    lam = 1.0 / n

    first = basic_construction(start, trace_mid, lam, tol=tol)
    second = basic_construction(first.inclusion, first.extended_trace, lam, tol=tol)

    ambient = second.algebra
    sub_top = second.inclusion                           # M1 in ambient
    sub_mid = first.inclusion.compose(second.inclusion)  # M in ambient
    sub_start = start.compose(sub_mid)                   # N in ambient
    e1 = second.inclusion.embed(first.e)
    e2 = second.e

    tower = TowerData(ambient, sub_start, sub_mid, sub_top, e1, e2,
                      second.extended_trace, lam, seed=seed)
    if tower.d != n:
        raise InvariantViolation("relative commutant dimension mismatch")
    return tower


def verify_tower_premises(tower: TowerData, tol: float = DEFAULT_TOL) -> Report:
    """Markov identities, the commuting square, the two collapse identities
    for products against the Jones projections, and the spanning conditions."""
    rep = Report(tolerance=tol, seed=tower.seed, title="tower premise check")
    alg, tau, lam = tower.ambient, tower.tau, tower.lam
    e1, e2 = tower.e1.vec, tower.e2.vec
    top = tower.sub_top.images.T   # basis of M1 in ambient coordinates
    mid = tower.sub_mid.images.T   # basis of M

    for name, e in (("e1", e1), ("e2", e2)):
        rep.add(f"{name} idempotent", rel_residual(alg.mul_vecs(e, e), e),
                ref="Jones projection")
        rep.add(f"{name} self-adjoint", rel_residual(alg.adjoint_vecs(e), e),
                ref="Jones projection")

    rep.add("e1 in N' of M1",
            max(containment_residual(e1[:, None], tower.rel_a.images),
                containment_residual(e1[:, None], tower.sub_top.images)),
            ref="Jones projection")
    rep.add("e2 in M'",
            containment_residual(e2[:, None], tower.rel_b.images),
            ref="Jones projection")

    exe = alg.mul_vecs(e2, alg.mul_vecs(top, e2))
    rep.add("e2 implements expectation onto M",
            rel_residual(exe, alg.mul_vecs(tower.expect_mid.apply_vec(top), e2)),
            ref="Markov")
    rep.add("e2 Markov trace identity",
            rel_residual(tau.values(alg.mul_vecs(top, e2)), lam * tau.values(top)),
            ref="Markov")
    exe1 = alg.mul_vecs(e1, alg.mul_vecs(mid, e1))
    rep.add("e1 implements expectation onto N",
            rel_residual(exe1, alg.mul_vecs(tower.expect_start.apply_vec(mid), e1)),
            ref="Markov")
    rep.add("e1 Markov trace identity",
            rel_residual(tau.values(alg.mul_vecs(mid, e1)), lam * tau.values(mid)),
            ref="Markov")
    rep.add("e2 e1 e2 = lam e2",
            rel_residual(alg.mul_vecs(e2, alg.mul_vecs(e1, e2)), lam * e2),
            ref="Temperley-Lieb")
    rep.add("e1 e2 e1 = lam e1",
            rel_residual(alg.mul_vecs(e1, alg.mul_vecs(e2, e1)), lam * e1),
            ref="Temperley-Lieb")

    # commuting square on N' inside the ambient
    nprime = tower.start_commutant_full.images
    p_top = tower.expect_top.matrix
    p_bcomm = tower.expect_mid_commutant.matrix
    lhs = p_top @ (p_bcomm @ nprime)
    rhs = p_bcomm @ (p_top @ nprime)
    rep.add("commuting square", rel_residual(lhs, rhs), ref="commuting square")

    a_img, b_img = tower.rel_a.images, tower.rel_b.images
    prods = alg.mul_vecs(a_img.T[:, None, :], b_img.T[None, :, :])
    prods = prods.reshape(-1, alg.dim)
    span_dim = numeric_rank(prods.T, 1e-9)
    rep.add_flag("products of the commutants span N'",
                 span_dim == tower.start_commutant_full.sub.dim,
                 ref="non-degenerate square",
                 note=f"rank {span_dim} of {tower.start_commutant_full.sub.dim}")

    # collapse identities on a basis of N'
    npb = nprime.T
    xe2 = alg.mul_vecs(npb, e2)
    rep.add("x e2 collapse",
            rel_residual(xe2, (1 / lam) * alg.mul_vecs(
                tower.expect_top.apply_vec(xe2), e2)),
            ref="Lemma 3.1")
    xe1 = alg.mul_vecs(npb, e1)
    rep.add("x e1 collapse",
            rel_residual(xe1, (1 / lam) * alg.mul_vecs(
                tower.expect_mid_commutant.apply_vec(xe1), e1)),
            ref="Lemma 3.1")

    # spanning: M e1 M = M1 and M1 e2 M1 = ambient
    me1m = alg.mul_vecs(mid[:, None, :], alg.mul_vecs(e1, mid[None, :, :]))
    rank1 = numeric_rank(me1m.reshape(-1, alg.dim).T, 1e-9)
    rep.add_flag("M e1 M spans M1", rank1 == tower.sub_top.sub.dim,
                 ref="Remark 4.4", note=f"rank {rank1} of {tower.sub_top.sub.dim}")
    m1e2m1 = alg.mul_vecs(top[:, None, :], alg.mul_vecs(e2, top[None, :, :]))
    rank2 = numeric_rank(m1e2m1.reshape(-1, alg.dim).T, 1e-9)
    rep.add_flag("M1 e2 M1 spans the ambient", rank2 == alg.dim,
                 ref="Remark 4.4", note=f"rank {rank2} of {alg.dim}")

    # Cartan compatibility: M' in M1 sits inside both commutants
    rep.add("shared Cartan inside A",
            containment_residual(tower.cartan_target.images, a_img), ref="chain")
    rep.add("shared Cartan inside B",
            containment_residual(tower.cartan_target.images, b_img), ref="chain")
    comm = alg.mul_vecs(tower.cartan_target.images.T[:, None, :],
                        tower.cartan_source.images.T[None, :, :]) \
        - alg.mul_vecs(tower.cartan_source.images.T[None, :, :],
                       tower.cartan_target.images.T[:, None, :])
    rep.add("Cartan subalgebras commute", max_abs(comm), ref="chain")
    return rep
