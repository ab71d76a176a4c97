"""Finite analogues of a depth-2 Jones tower.

The tower ambient plays the role of the second extension of the starting
inclusion; the two Jones projections, the Markov trace and the relative
commutants of the chain are all carried concretely inside it.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import max_abs, rel_residual, slabs
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
    product_span_dim,
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
    def mid_in_top(self) -> SubalgebraEmbedding:
        """M as a subalgebra of M1: the fixed points of the canonical action."""
        return self.sub_mid.restrict_to(self.sub_top)

    @cached_property
    def cartan_target(self) -> SubalgebraEmbedding:
        """M' in M1 (the shared Cartan subalgebra of the two commutants)."""
        return relative_commutant(self.mid_in_top).compose(self.sub_top)

    @cached_property
    def cartan_in_b(self) -> SubalgebraEmbedding:
        """M' in M1 as a subalgebra of B: the target Cartan B_t of B."""
        return self.cartan_target.restrict_to(self.rel_b)

    @cached_property
    def cartan_source(self) -> SubalgebraEmbedding:
        """M1' in the ambient."""
        return relative_commutant(self.sub_top)

    @cached_property
    def cartan_source_in_b(self) -> SubalgebraEmbedding:
        """M1' in the ambient as a subalgebra of B: the source Cartan B_s
        of B."""
        return self.cartan_source.restrict_to(self.rel_b)

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
        return ConditionalExpectation(self.sub_top, self.tau)

    @cached_property
    def expect_mid(self) -> ConditionalExpectation:
        """Expectation onto M."""
        return ConditionalExpectation(self.sub_mid, self.tau)

    @cached_property
    def expect_start(self) -> ConditionalExpectation:
        """Expectation onto N."""
        return ConditionalExpectation(self.sub_start, self.tau)

    @cached_property
    def expect_mid_commutant(self) -> ConditionalExpectation:
        """Expectation onto M' (within the ambient)."""
        return ConditionalExpectation(self.rel_b, self.tau)

    @cached_property
    def module_tensor(self) -> np.ndarray:
        """The minimal action b |> x = lam^-1 E_M1(b x e2) of B = M' cap M2 on
        M1: a read-only (B units, M1 units, M1 coordinates) array, built one
        slab of B units at a time.  It does not depend on the coproduct of B."""
        alg, b_basis = self.ambient, self.rel_b.images.T
        xe2 = alg.mul_vecs(self.sub_top.images.T, self.e2.vec)
        rows = slabs(len(b_basis), xe2.size)
        tensor = np.empty((len(b_basis), len(xe2), len(xe2)), dtype=complex)
        for sl, bxe2 in zip(rows, alg.pairwise_mul_slabs(b_basis, xe2, rows)):
            tensor[sl] = self.expect_top.coords(bxe2)
        tensor /= self.lam
        tensor.setflags(write=False)
        return tensor

    def act(self, x: np.ndarray) -> np.ndarray:
        """b |> x for every unit b of B and one M1 element x, ambient
        coordinates in and out, shape (B units, dim): a matrix product per
        unit b, so the module tensor is not copied."""
        return self.sub_top.embed_vec(self.sub_top.coords_vec(x) @ self.module_tensor)


def _inclusion_entries(inclusion, rows: int, cols: int) -> np.ndarray:
    """Λ as integers, refused unless it is the multiplicity matrix of a
    unital inclusion of ``rows`` N blocks in ``cols`` M blocks."""
    try:
        entries = np.array(inclusion, dtype=float)
    except (TypeError, ValueError):
        raise InvariantViolation("inclusion matrix is not a rectangular array") from None
    if entries.shape != (rows, cols):
        raise InvariantViolation(
            f"inclusion matrix has shape {entries.shape}, expected {(rows, cols)}")
    if not np.all(np.isfinite(entries) & (entries == np.round(entries))):
        raise InvariantViolation("inclusion matrix has a non-integer entry")
    if np.any(entries < 0):
        raise InvariantViolation("inclusion matrix has a negative entry")
    if not entries.any(axis=1).all():
        raise InvariantViolation("inclusion matrix has a zero row: an N block is not embedded")
    if not entries.any(axis=0).all():
        raise InvariantViolation("inclusion matrix has a zero column: the inclusion is not unital")
    return entries.astype(int)


def build_tower_from_inclusion(sub_blocks, inclusion, weights, lam: float, *,
                               seed: int = 0, tol: float = DEFAULT_TOL) -> TowerData:
    """The tower N < M < M1 < M2 of an inclusion matrix Λ: N block i sits
    ``inclusion[i][j]`` times down the diagonal of M block j, M carries the
    trace weights ``weights`` (one per M block), and two basic constructions
    of modulus ``lam``, which check that the trace is Markov for it, give M1
    and the ambient M2.

    Nothing here is random: ``seed`` is only recorded on the tower, which
    passes it to its reports."""
    sub = MultiMatrixAlgebra(sub_blocks)
    entries = _inclusion_entries(inclusion, len(sub.blocks), len(weights))
    mid = MultiMatrixAlgebra(entries.T @ np.asarray(sub.blocks))
    images = np.zeros((mid.dim, sub.dim), dtype=complex)
    for j in range(len(mid.blocks)):
        slot = 0
        for i, n in enumerate(sub.blocks):
            a, b = np.divmod(np.arange(n * n), n)
            for _ in range(entries[i, j]):
                images[mid.basis_index(j, slot + a, slot + b), sub.basis_index(i, a, b)] = 1
                slot += n
    start = SubalgebraEmbedding(sub, mid, images)
    first = basic_construction(start, TraceState(mid, weights), lam, tol=tol)
    second = basic_construction(first.inclusion, first.extended_trace, lam, tol=tol)
    sub_mid = first.inclusion.compose(second.inclusion)  # M in the ambient M2
    return TowerData(second.algebra, start.compose(sub_mid), sub_mid, second.inclusion,
                     second.inclusion.embed(first.e), second.e, second.extended_trace, lam,
                     seed=seed)


def build_tower_from_group(group: FiniteGroup, *, seed: int = 0,
                           tol: float = DEFAULT_TOL) -> TowerData:
    """The tower of scalars < functions(G) with the uniform Markov trace and
    modulus 1/|G| (the group enters only through its order; the inclusion of
    scalars into the diagonal forgets the law).  M is the diagonal of
    M1 = M_|G|, so d = |G| is not checked."""
    n = group.order
    if n < 2:
        raise InvariantViolation("tower needs a group of order at least 2")
    return build_tower_from_inclusion([1], [[1] * n], [1 / n] * n, 1 / n, seed=seed, tol=tol)


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
            max(tower.rel_a.outside(e1), tower.sub_top.outside(e1)),
            ref="Jones projection")
    rep.add("e2 in M'", tower.rel_b.outside(e2), ref="Jones projection")

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
    npb = tower.start_commutant_full.images.T  # basis of N'
    e_top, e_bcomm = tower.expect_top.apply_vec, tower.expect_mid_commutant.apply_vec
    rep.add("commuting square", rel_residual(e_top(e_bcomm(npb)), e_bcomm(e_top(npb))),
            ref="commuting square")

    span_dim = product_span_dim(tower.rel_a, alg.unit().vec, tower.rel_b)
    rep.add_flag("products of the commutants span N'",
                 span_dim == tower.start_commutant_full.sub.dim,
                 ref="non-degenerate square",
                 note=f"rank {span_dim} of {tower.start_commutant_full.sub.dim}")

    # collapse identities on a basis of N'
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
    rank1 = product_span_dim(tower.sub_mid, e1, tower.sub_mid)
    rep.add_flag("M e1 M spans M1", rank1 == tower.sub_top.sub.dim,
                 ref="Remark 4.4", note=f"rank {rank1} of {tower.sub_top.sub.dim}")
    rank2 = product_span_dim(tower.sub_top, e2, tower.sub_top)
    rep.add_flag("M1 e2 M1 spans the ambient", rank2 == alg.dim,
                 ref="Remark 4.4", note=f"rank {rank2} of {alg.dim}")

    # Cartan compatibility: M' in M1 sits inside both commutants
    cartan, source = tower.cartan_target.images.T, tower.cartan_source.images.T
    rep.add("shared Cartan inside A", tower.rel_a.outside(cartan), ref="chain")
    rep.add("shared Cartan inside B", tower.rel_b.outside(cartan), ref="chain")
    comm = alg.pairwise_mul(cartan, source) - alg.pairwise_mul(source, cartan).transpose(1, 0, 2)
    rep.add("Cartan subalgebras commute", max_abs(comm), ref="chain")
    return rep
