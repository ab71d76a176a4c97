"""Finite-dimensional C*-algebra engine.

A multimatrix algebra is a direct sum of full complex matrix blocks.  Elements
are kept as flat coefficient vectors over the canonical matrix-unit basis, so
linear maps between algebras are ordinary matrices and batched element
arithmetic reduces to block einsums.

Commutants need no splitting: relative commutants, centers and the Jones basic
construction (the commutant of the right action of the subalgebra) all take
their matrix units from those of the subalgebra, through one closed form.
Only subalgebras given by a bare spanning set are recognized by handing their
structure constants to :mod:`weakhopf.decompose`, the one block-splitting
engine.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from ._linalg import (
    condition_number,
    max_abs,
    orthonormal_columns,
    rel_residual,
    residual_outside,
)
from .errors import InvariantViolation

DEFAULT_TOL = 1e-9


class MultiMatrixAlgebra:
    """Direct sum of full matrix blocks ``M_{m_1} + ... + M_{m_r}``.

    The canonical basis consists of the matrix units of each block; an element
    is a complex vector of length ``sum(m_a**2)`` holding the coefficients in
    row-major order block by block.
    """

    def __init__(self, blocks):
        blocks = tuple(int(m) for m in blocks)
        if not blocks or any(m < 1 for m in blocks):
            raise InvariantViolation("block sizes must be positive integers")
        self.blocks = blocks
        self.dim = int(sum(m * m for m in blocks))
        self._offsets = np.cumsum([0] + [m * m for m in blocks])

    def __repr__(self):
        return f"MultiMatrixAlgebra(blocks={list(self.blocks)})"

    def __eq__(self, other):
        return isinstance(other, MultiMatrixAlgebra) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    # -- basis bookkeeping -------------------------------------------------

    def block_slice(self, alpha: int) -> slice:
        return slice(int(self._offsets[alpha]), int(self._offsets[alpha + 1]))

    def basis_index(self, alpha: int, row: int, col: int) -> int:
        m = self.blocks[alpha]
        return int(self._offsets[alpha]) + row * m + col

    def basis_labels(self) -> list[tuple[int, int, int]]:
        return [(alpha, k, l)
                for alpha, m in enumerate(self.blocks)
                for k in range(m) for l in range(m)]

    def block_views(self, vecs: np.ndarray) -> list[np.ndarray]:
        """Reshape the trailing axis of ``vecs`` into per-block matrices."""
        vecs = np.asarray(vecs, dtype=complex)
        views = []
        for alpha, m in enumerate(self.blocks):
            sl = self.block_slice(alpha)
            views.append(vecs[..., sl].reshape(vecs.shape[:-1] + (m, m)))
        return views

    # -- elements ----------------------------------------------------------

    def element(self, vec) -> "AlgebraElement":
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        if vec.shape[0] != self.dim:
            raise InvariantViolation(
                f"coefficient vector has length {vec.shape[0]}, expected {self.dim}")
        return AlgebraElement(self, vec)

    def from_blocks(self, mats) -> "AlgebraElement":
        vec = np.zeros(self.dim, dtype=complex)
        for alpha, mat in enumerate(mats):
            mat = np.asarray(mat, dtype=complex)
            m = self.blocks[alpha]
            if mat.shape != (m, m):
                raise InvariantViolation(f"block {alpha} must be {m}x{m}")
            vec[self.block_slice(alpha)] = mat.reshape(-1)
        return AlgebraElement(self, vec)

    def unit(self) -> "AlgebraElement":
        return self.from_blocks([np.eye(m) for m in self.blocks])

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, np.zeros(self.dim, dtype=complex))

    def basis_unit(self, alpha: int, row: int, col: int) -> "AlgebraElement":
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.basis_index(alpha, row, col)] = 1.0
        return AlgebraElement(self, vec)

    def block_identity(self, alpha: int) -> "AlgebraElement":
        vec = np.zeros(self.dim, dtype=complex)
        for k in range(self.blocks[alpha]):
            vec[self.basis_index(alpha, k, k)] = 1.0
        return AlgebraElement(self, vec)

    # -- batched arithmetic on coefficient arrays --------------------------

    def mul_vecs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Product of (broadcast) stacks of coefficient vectors."""
        u = np.asarray(u, dtype=complex)
        v = np.asarray(v, dtype=complex)
        shape = np.broadcast_shapes(u.shape[:-1], v.shape[:-1])
        out = np.empty(shape + (self.dim,), dtype=complex)
        for alpha, m in enumerate(self.blocks):
            sl = self.block_slice(alpha)
            ub = u[..., sl].reshape(u.shape[:-1] + (m, m))
            vb = v[..., sl].reshape(v.shape[:-1] + (m, m))
            prod = ub @ vb
            out[..., sl] = prod.reshape(shape + (m * m,))
        return out

    def pairwise_mul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """All-pairs products of two stacks of coefficient vectors.

        ``u`` is (a, dim), ``v`` is (b, dim); returns (a, b, dim) with one
        matrix multiply per block.
        """
        u = np.asarray(u, dtype=complex)
        v = np.asarray(v, dtype=complex)
        a, b = u.shape[0], v.shape[0]
        out = np.empty((a, b, self.dim), dtype=complex)
        for alpha, m in enumerate(self.blocks):
            sl = self.block_slice(alpha)
            ub = u[:, sl].reshape(a * m, m)
            vb = v[:, sl].reshape(b, m, m).transpose(1, 0, 2).reshape(m, b * m)
            prod = (ub @ vb).reshape(a, m, b, m).transpose(0, 2, 1, 3)
            out[:, :, sl] = prod.reshape(a, b, m * m)
        return out

    def adjoint_vecs(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=complex)
        out = np.empty_like(u)
        for alpha, m in enumerate(self.blocks):
            sl = self.block_slice(alpha)
            ub = u[..., sl].reshape(u.shape[:-1] + (m, m))
            adj = np.conj(np.swapaxes(ub, -1, -2))
            out[..., sl] = adj.reshape(u.shape[:-1] + (m * m,))
        return out

    def left_mult_matrix(self, vec: np.ndarray) -> np.ndarray:
        """Matrix of x -> vec * x on coefficient vectors."""
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        for alpha, m in enumerate(self.blocks):
            sl = self.block_slice(alpha)
            a = np.asarray(vec, dtype=complex)[sl].reshape(m, m)
            mat[sl, sl] = np.kron(a, np.eye(m))
        return mat

    def right_mult_matrix(self, vec: np.ndarray) -> np.ndarray:
        """Matrix of x -> x * vec on coefficient vectors."""
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        for alpha, m in enumerate(self.blocks):
            sl = self.block_slice(alpha)
            a = np.asarray(vec, dtype=complex)[sl].reshape(m, m)
            mat[sl, sl] = np.kron(np.eye(m), a.T)
        return mat

    @cached_property
    def mult_tensor(self) -> np.ndarray:
        """Structure constants c[i, j, k] with u_i u_j = sum_k c[i,j,k] u_k.

        Materialized lazily; only meant for small algebras.
        """
        eye = np.eye(self.dim, dtype=complex)
        return self.mul_vecs(eye[:, None, :], eye[None, :, :])

    # -- spectral helpers (canonical adjoint) -------------------------------

    def hermitian_residual(self, vec: np.ndarray) -> float:
        return rel_residual(vec, self.adjoint_vecs(vec))

    def eigh_blocks(self, vec: np.ndarray):
        return [np.linalg.eigh(mat) for mat in self.block_views(vec)]

    def apply_spectral(self, vec: np.ndarray, fun) -> np.ndarray:
        parts = []
        for vals, vecs in self.eigh_blocks(vec):
            parts.append((vecs * fun(vals)) @ vecs.conj().T)
        return self.from_blocks(parts).vec

    def positive_residual(self, vec: np.ndarray) -> float:
        """Distance from being a positive semi-definite element (relative)."""
        herm = self.hermitian_residual(vec)
        worst = 0.0
        for vals, _ in self.eigh_blocks(vec):
            if vals.size:
                worst = max(worst, float(-np.min(vals)))
        return max(herm, worst / max(max_abs(vec), 1.0))

    def inverse_vec(self, vec: np.ndarray) -> np.ndarray:
        return self.from_blocks(
            [np.linalg.inv(mat) for mat in self.block_views(vec)]).vec

    def sqrt_posdef_vec(self, vec: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
        scale = max(max_abs(vec), 1.0)
        for vals, _ in self.eigh_blocks(vec):
            if np.min(vals) <= tol * scale:
                raise InvariantViolation("element is not positive definite")
        return self.apply_spectral(vec, np.sqrt)


@dataclass(frozen=True)
class AlgebraElement:
    """Element of a multimatrix algebra, stored as a coefficient vector."""

    algebra: MultiMatrixAlgebra
    vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vec", np.asarray(self.vec, dtype=complex).reshape(-1))

    def blocks(self) -> list[np.ndarray]:
        return self.algebra.block_views(self.vec)

    def __add__(self, other):
        return AlgebraElement(self.algebra, self.vec + other.vec)

    def __sub__(self, other):
        return AlgebraElement(self.algebra, self.vec - other.vec)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return AlgebraElement(self.algebra, self.algebra.mul_vecs(self.vec, other.vec))
        return AlgebraElement(self.algebra, self.vec * complex(other))

    def __rmul__(self, scalar):
        return AlgebraElement(self.algebra, complex(scalar) * self.vec)

    def __neg__(self):
        return AlgebraElement(self.algebra, -self.vec)

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, self.algebra.adjoint_vecs(self.vec))

    @property
    def H(self) -> "AlgebraElement":
        return self.adjoint()

    def norm(self) -> float:
        return max_abs(self.vec)

    def inverse(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, self.algebra.inverse_vec(self.vec))


class TraceState:
    """Positive trace on a multimatrix algebra, one weight per block."""

    def __init__(self, algebra: MultiMatrixAlgebra, weights):
        w = np.asarray(weights, dtype=float).reshape(-1)
        if w.shape[0] != len(algebra.blocks):
            raise InvariantViolation("one trace weight per block required")
        if np.any(w <= 0):
            raise InvariantViolation("degenerate trace")
        self.algebra = algebra
        self.weights = w

    def __repr__(self):
        return f"TraceState({list(self.algebra.blocks)}, weights={self.weights.tolist()})"

    @cached_property
    def coefficient_weights(self) -> np.ndarray:
        """Vector t with tau(x) = t . x on coefficient vectors."""
        w = np.zeros(self.algebra.dim)
        for alpha, m in enumerate(self.algebra.blocks):
            for k in range(m):
                w[self.algebra.basis_index(alpha, k, k)] = self.weights[alpha]
        return w

    @cached_property
    def metric_weights(self) -> np.ndarray:
        """Diagonal of the sesquilinear form <x,y> = tau(x* y) on coefficients."""
        w = np.zeros(self.algebra.dim)
        for alpha in range(len(self.algebra.blocks)):
            w[self.algebra.block_slice(alpha)] = self.weights[alpha]
        return w

    def value(self, x) -> complex:
        vec = x.vec if isinstance(x, AlgebraElement) else np.asarray(x, dtype=complex)
        return complex(np.tensordot(vec, self.coefficient_weights, axes=([-1], [0])))

    def values(self, vecs: np.ndarray) -> np.ndarray:
        return np.tensordot(np.asarray(vecs, dtype=complex),
                            self.coefficient_weights, axes=([-1], [0]))


class SubalgebraEmbedding:
    """Unital *-homomorphism of one multimatrix algebra into another.

    ``images`` has shape (ambient.dim, sub.dim); column j is the image of the
    j-th canonical basis unit of the subalgebra.
    """

    def __init__(self, sub: MultiMatrixAlgebra, ambient: MultiMatrixAlgebra,
                 images: np.ndarray):
        self.sub = sub
        self.ambient = ambient
        images = np.asarray(images, dtype=complex)
        if images.shape != (ambient.dim, sub.dim):
            raise InvariantViolation("embedding image matrix has wrong shape")
        self.images = images

    @classmethod
    def identity(cls, algebra: MultiMatrixAlgebra) -> "SubalgebraEmbedding":
        return cls(algebra, algebra, np.eye(algebra.dim, dtype=complex))

    def __repr__(self):
        return (f"SubalgebraEmbedding({list(self.sub.blocks)} into "
                f"{list(self.ambient.blocks)})")

    def embed_vec(self, coords: np.ndarray) -> np.ndarray:
        return np.tensordot(np.asarray(coords, dtype=complex), self.images,
                            axes=([-1], [1]))

    def embed(self, x: AlgebraElement) -> AlgebraElement:
        return self.ambient.element(self.embed_vec(x.vec))

    @cached_property
    def _pinv(self) -> np.ndarray:
        """Left inverse of ``images`` for a *-homomorphism: images of distinct
        matrix units are orthogonal in coefficient coordinates (the pairing
        Tr(x* y) with the unweighted trace), and the image of f_jk has squared
        norm Tr(image of f_jj).  So the conjugate transpose with each row
        divided by that norm inverts it; zero columns get zero rows.  Images
        that are not orthogonal fail the back-substitution in ``coords_vec``.
        """
        norms = np.einsum("aj,aj->j", self.images.conj(), self.images).real
        scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
        return self.images.conj().T * scale[:, None]

    def coords_vec(self, ambient_vecs: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Coordinates of ambient vectors in the sub basis (must lie in the image)."""
        coords = np.tensordot(np.asarray(ambient_vecs, dtype=complex), self._pinv,
                              axes=([-1], [1]))
        back = self.embed_vec(coords)
        if rel_residual(back, ambient_vecs) > 1e-6:
            raise InvariantViolation("vector does not lie in the subalgebra image")
        return coords

    def compose(self, outer: "SubalgebraEmbedding") -> "SubalgebraEmbedding":
        """Embedding of ``self.sub`` into ``outer.ambient`` (outer after self)."""
        if outer.sub != self.ambient:
            raise InvariantViolation("embeddings do not compose")
        return SubalgebraEmbedding(self.sub, outer.ambient, outer.images @ self.images)

    def restrict_to(self, other: "SubalgebraEmbedding",
                    tol: float = DEFAULT_TOL) -> "SubalgebraEmbedding":
        """Re-express this subalgebra as a subalgebra of ``other`` (same ambient)."""
        coords = other.coords_vec(self.images.T, tol)
        return SubalgebraEmbedding(self.sub, other.sub, coords.T)

    def residuals(self) -> dict:
        """Residuals of the three *-homomorphism requirements, keyed
        ``"unital"``, ``"adjoint"`` and ``"multiplicative"``.

        Multiplicativity over all unit pairs reduces to three checks on the
        first-column partial isometries w_j = image(f_j0): their mutual grams
        w_j* w_k = [j=k] image(f_00), the reconstruction of every image as
        w_j w_l*, and absorption of f_00 into the w_l*.  Together with the
        ambient's associativity and the adjoint requirement this implies the
        full product table.
        """
        img = self.images.T  # (sub.dim, ambient.dim)
        eye = np.eye(self.sub.dim, dtype=complex)
        unital = rel_residual(self.embed_vec(self.sub.unit().vec), self.ambient.unit().vec)
        adj = self.ambient.adjoint_vecs(img)
        sub_adj = self.sub.adjoint_vecs(eye)
        adjoint = rel_residual(sub_adj @ img, adj)

        sub = self.sub
        cols, corner_rows, starts = [], [], [0]
        for alpha, m in enumerate(sub.blocks):
            cols += [sub.basis_index(alpha, j, 0) for j in range(m)]
            corner_rows += [sub.basis_index(alpha, 0, 0)] * m
            starts.append(starts[-1] + m)
        w = img[cols]
        w_star = self.ambient.adjoint_vecs(w)
        corners = img[corner_rows]
        diag = np.arange(len(cols))

        # subtract the expected values in place, so no second (k, k,
        # ambient.dim) array is built; the scale is the one rel_residual uses
        grams = self.ambient.pairwise_mul(w_star, w)
        scale = max(max_abs(grams), max_abs(corners), 1.0)
        grams[diag, diag] -= corners
        res = max_abs(grams) / scale
        del grams

        outer = self.ambient.pairwise_mul(w, w_star)
        scale = max(max_abs(outer), max_abs(img), 1.0)
        for alpha, m in enumerate(sub.blocks):
            blk = slice(starts[alpha], starts[alpha + 1])
            outer[blk, blk] -= img[sub.block_slice(alpha)].reshape(m, m, -1)
        res = max(res, max_abs(outer) / scale)
        del outer

        absorbed = self.ambient.mul_vecs(corners, w_star)
        res = max(res, rel_residual(absorbed, w_star))
        return {"unital": unital, "adjoint": adjoint, "multiplicative": res}

    def verify(self, tol: float = DEFAULT_TOL) -> float:
        """Largest of the :meth:`residuals`."""
        return max(self.residuals().values())

    def require_valid(self, tol: float = DEFAULT_TOL):
        if self.verify(tol) > 100 * tol:
            raise InvariantViolation("not a subalgebra")


@dataclass(frozen=True)
class InclusionMatrix:
    """Multiplicity matrix of a unital inclusion; rows index sub blocks,
    columns index ambient blocks."""

    entries: np.ndarray
    sub_blocks: tuple
    ambient_blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", np.asarray(self.entries, dtype=int))

    @property
    def product_with_transpose(self) -> np.ndarray:
        lam = self.entries.astype(float)
        return lam @ lam.T


@dataclass(frozen=True)
class JonesExtension:
    """Result of the basic construction for an inclusion with a Markov trace."""

    algebra: MultiMatrixAlgebra
    e: AlgebraElement
    extended_trace: TraceState
    lam: float
    inclusion: SubalgebraEmbedding      # old ambient into the new algebra
    sub_projection: SubalgebraEmbedding  # original subalgebra into the new algebra
    realization: SubalgebraEmbedding     # new algebra inside operators on the GNS space


class ConditionalExpectation:
    """Trace-orthogonal projection onto the image of a subalgebra.

    Coincides with the unique trace-preserving conditional expectation in
    finite dimensions.
    """

    def __init__(self, sub: SubalgebraEmbedding, trace: TraceState,
                 tol: float = DEFAULT_TOL, verify: bool = True):
        if trace.algebra != sub.ambient:
            raise InvariantViolation("trace lives on a different algebra")
        if verify:
            sub.require_valid(tol)
        self.sub = sub
        self.trace = trace
        v = sub.images
        weighted = v * trace.metric_weights[:, None]
        gram = v.conj().T @ weighted
        if condition_number(gram) > 1e12:
            raise InvariantViolation("degenerate trace")
        self.matrix = v @ np.linalg.solve(gram, weighted.conj().T)

    def apply_vec(self, vecs: np.ndarray) -> np.ndarray:
        return np.tensordot(np.asarray(vecs, dtype=complex), self.matrix,
                            axes=([-1], [1]))

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        return self.sub.ambient.element(self.apply_vec(x.vec))


def conditional_expectation(sub: SubalgebraEmbedding, trace: TraceState,
                            x: AlgebraElement, tol: float = DEFAULT_TOL) -> AlgebraElement:
    """Trace-preserving conditional expectation of ``x`` onto the subalgebra."""
    return ConditionalExpectation(sub, trace, tol)(x)


# ---------------------------------------------------------------------------
# Subalgebra recognition: turn a *-closed subspace into matrix units.
# ---------------------------------------------------------------------------


def subalgebra_from_basis(ambient: MultiMatrixAlgebra, span: np.ndarray, *,
                          rng=None, tol: float = DEFAULT_TOL) -> SubalgebraEmbedding:
    """Recognize a *-closed unital subspace of ``ambient`` as a multimatrix
    algebra and return the embedding carrying its canonical matrix units.

    The span is checked for closure under adjoints, the unit and all pairwise
    products; its structure constants in an orthonormal basis of the span then
    go through :func:`weakhopf.decompose.decompose_structure_algebra`, which
    splits blocks and builds matrix units (deterministic for a fixed seed).
    """
    from .decompose import StructureAlgebra, decompose_structure_algebra

    span = orthonormal_columns(np.asarray(span, dtype=complex), 1e-10)
    dim = span.shape[1]
    if dim == 0:
        raise InvariantViolation("empty subspace")
    if dim == ambient.dim:
        return SubalgebraEmbedding.identity(ambient)

    basis = span.T
    adjoints = ambient.adjoint_vecs(basis)
    if residual_outside(adjoints.T, span) > 100 * tol:
        raise InvariantViolation("not a subalgebra")
    unit = ambient.unit().vec
    if residual_outside(unit[:, None], span) > 100 * tol:
        raise InvariantViolation("subspace does not contain the unit")
    prods = ambient.pairwise_mul(basis, basis)
    if residual_outside(prods.reshape(-1, ambient.dim).T, span) > 100 * tol:
        raise InvariantViolation("not a subalgebra")

    # coordinates in the orthonormal span basis are inner products with it
    coords = span.conj()
    structure = StructureAlgebra(prods @ coords, unit @ coords, (adjoints @ coords).T)
    sub, change = decompose_structure_algebra(structure, rng=rng, tol=tol)
    emb = SubalgebraEmbedding(sub, ambient, span @ change)
    emb.require_valid(tol)
    return emb


# ---------------------------------------------------------------------------
# Commutants, centers, inclusion data, Markov traces.
# ---------------------------------------------------------------------------


def _commutant_from_units(host: MultiMatrixAlgebra, firsts) -> SubalgebraEmbedding:
    """Commutant in ``host`` of a subalgebra given by the images of its
    first-column matrix units: ``firsts[alpha]`` stacks the images of
    f^alpha_c0 as rows (k_alpha, host.dim).

    In host block beta, let V be an orthonormal basis of the range of
    f^alpha_00 (its dimension is the multiplicity of alpha in beta).  Block
    (alpha, beta) of the commutant has the units
    E_ij = sum_c (f_c0 v_i)(f_c0 v_j)^*, which copy v_i v_j^* onto the range of
    every f_cc and so commute with every f_ab.  Blocks come alpha by alpha,
    then beta; nothing is split at random.
    """
    units, sizes = [], []
    for stack in firsts:
        for beta, mats in enumerate(host.block_views(stack)):
            # f_00 is a projection, so its singular values are 0 or 1; the
            # absolute cut ignores rounding noise in blocks alpha misses
            u, s, _ = scipy.linalg.svd(mats[0], full_matrices=False,
                                       lapack_driver="gesdd")
            basis = u[:, s > 0.5]
            size = basis.shape[1]
            if size == 0:
                continue
            copies = mats @ basis  # (k, n_beta, size)
            block = np.zeros((size * size, host.dim), dtype=complex)
            block[:, host.block_slice(beta)] = np.einsum(
                "cai,cbj->ijab", copies, copies.conj()).reshape(size * size, -1)
            units.append(block)
            sizes.append(size)
    return SubalgebraEmbedding(MultiMatrixAlgebra(sizes), host, np.vstack(units).T)


def relative_commutant(sub: SubalgebraEmbedding,
                       within: SubalgebraEmbedding | None = None, *,
                       tol: float = DEFAULT_TOL) -> SubalgebraEmbedding:
    """Elements of ``within`` (default: the ambient) commuting with the image
    of ``sub``, embedded in the same ambient.

    The matrix units are read off those of ``sub`` (restricted into
    ``within`` first), so the blocks follow the block order of ``sub``.
    """
    if within is not None:
        if within.ambient != sub.ambient:
            raise InvariantViolation("subalgebras live in different ambients")
        sub = sub.restrict_to(within, tol)
    host = sub.ambient
    firsts = [sub.images[:, [sub.sub.basis_index(alpha, c, 0) for c in range(k)]].T
              for alpha, k in enumerate(sub.sub.blocks)]
    comm = _commutant_from_units(host, firsts)
    comm.require_valid(tol)
    units, gens = comm.images.T, sub.images.T
    if rel_residual(host.pairwise_mul(units, gens),
                    host.pairwise_mul(gens, units).transpose(1, 0, 2)) > 100 * tol:
        raise InvariantViolation("commutant does not commute with the subalgebra")
    return comm if within is None else comm.compose(within)


def center(emb: SubalgebraEmbedding, *, tol: float = DEFAULT_TOL) -> SubalgebraEmbedding:
    """Center of a (sub)algebra, as a subalgebra of the same ambient."""
    return relative_commutant(emb, within=emb, tol=tol)


def inclusion_matrix(sub: SubalgebraEmbedding, tol: float = DEFAULT_TOL) -> InclusionMatrix:
    """Multiplicities of each sub block inside each ambient block."""
    unit_res = rel_residual(sub.embed_vec(sub.sub.unit().vec), sub.ambient.unit().vec)
    if unit_res > 100 * tol:
        raise InvariantViolation("embedding is not unital")
    rows = []
    for alpha, m in enumerate(sub.sub.blocks):
        p = sub.embed_vec(sub.sub.block_identity(alpha).vec)
        row = []
        for mat in sub.ambient.block_views(p):
            mult = float(np.real(np.trace(mat))) / m
            if abs(mult - round(mult)) > 1e-6:
                raise InvariantViolation("non-integer inclusion multiplicity")
            row.append(int(round(mult)))
        rows.append(row)
    entries = np.asarray(rows, dtype=int)
    expected = entries.T @ np.asarray(sub.sub.blocks)
    if not np.array_equal(expected, np.asarray(sub.ambient.blocks)):
        raise InvariantViolation("embedding is not unital")
    return InclusionMatrix(entries, sub.sub.blocks, sub.ambient.blocks)


def markov_trace(lam_matrix: InclusionMatrix, tol: float = DEFAULT_TOL):
    """Perron-Frobenius data of a connected inclusion.

    Returns ``(index, trace_vector)`` where the vector is indexed by the sub
    blocks and normalized so the induced trace is a state on the subalgebra.
    """
    m = lam_matrix.product_with_transpose
    n = m.shape[0]
    reach = (m > 0).astype(bool) | np.eye(n, dtype=bool)
    closure = np.linalg.matrix_power(reach.astype(float), max(n - 1, 1))
    if np.any(closure == 0):
        raise InvariantViolation("inclusion not connected")
    vals, vecs = np.linalg.eigh(m)
    index = float(vals[-1])
    vector = np.real(vecs[:, -1])
    if vector[int(np.argmax(np.abs(vector)))] < 0:
        vector = -vector
    if np.any(vector <= 0):
        raise InvariantViolation("Perron-Frobenius vector not strictly positive")
    vector = vector / float(vector @ np.asarray(lam_matrix.sub_blocks))
    if rel_residual(m @ vector, index * vector) > tol:
        raise InvariantViolation("eigen-residual above tolerance")
    return index, vector


def watatani_index(trace: TraceState) -> AlgebraElement:
    """Central element sum_a (m_a / tau_a) 1_a attached to a faithful trace."""
    alg = trace.algebra
    out = alg.zero().vec.copy()
    for alpha, m in enumerate(alg.blocks):
        out += (m / trace.weights[alpha]) * alg.block_identity(alpha).vec
    return alg.element(out)


# ---------------------------------------------------------------------------
# Basic construction.
# ---------------------------------------------------------------------------


def basic_construction(sub: SubalgebraEmbedding, trace: TraceState, lam: float,
                       *, tol: float = DEFAULT_TOL) -> JonesExtension:
    """Jones basic construction for ``sub`` inside its ambient, for a Markov
    trace of modulus ``lam``.

    The extension is realized on the trace-GNS space L2(M) of the ambient
    algebra M as the commutant of the right action of the subalgebra N, which
    equals the algebra generated by M and the projection e onto L2(N).  Its
    blocks follow those of N: block alpha acts on L2(M) f_00 and is copied
    onto each L2(M) f_cc by right multiplication with the matrix unit f_0c of
    N, so :func:`_commutant_from_units` reads the matrix units off directly
    (no span growth, no random splitting) in the block order of N.
    """
    ambient = sub.ambient
    if trace.algebra != ambient:
        raise InvariantViolation("trace lives on a different algebra")
    lam_mat = inclusion_matrix(sub, tol)
    ent = lam_mat.entries.astype(float)
    if rel_residual(ent.T @ (ent @ trace.weights), trace.weights / lam) > 1e-8:
        raise InvariantViolation("trace not Markov")

    n = ambient.dim
    gns = MultiMatrixAlgebra([n])
    root = np.sqrt(trace.metric_weights)
    inv_root = 1.0 / root

    def as_operator(mat: np.ndarray) -> np.ndarray:
        # conjugate into the orthonormal GNS coordinates
        return root[:, None] * mat * inv_root[None, :]

    eye = np.eye(n, dtype=complex)
    left_ops = np.stack([as_operator(ambient.left_mult_matrix(eye[j])).reshape(-1)
                         for j in range(n)])

    w = sub.images * root[:, None]
    q = orthonormal_columns(w, 1e-10)
    e_vec = (q @ q.conj().T).reshape(-1)

    # right multiplication is an anti-homomorphism, so R(f_0c) plays the part
    # of the image of f_c0; it maps L2(M) f_00 isometrically onto L2(M) f_cc,
    # since tau(f_c0 x* x f_0c) = tau(x* x f_00)
    rights = [np.stack([
        as_operator(ambient.right_mult_matrix(
            sub.images[:, sub.sub.basis_index(alpha, 0, c)])).reshape(-1)
        for c in range(k)]) for alpha, k in enumerate(sub.sub.blocks)]
    new_emb = _commutant_from_units(gns, rights)
    new_emb.require_valid(tol)
    algebra = new_emb.sub

    incl_images = new_emb.coords_vec(left_ops, tol)  # (n, algebra.dim)
    e_coords = new_emb.coords_vec(e_vec[None, :], tol)[0]
    inclusion = SubalgebraEmbedding(ambient, algebra, incl_images.T)
    inclusion.require_valid(tol)
    sub_in_new = sub.compose(inclusion)

    ext_trace = _solve_extended_trace(algebra, incl_images, e_coords, trace, lam)
    ext = JonesExtension(algebra, algebra.element(e_coords), ext_trace, float(lam),
                         inclusion, sub_in_new, new_emb)
    _verify_jones(ext, sub, trace, lam_mat, tol)
    return ext


def _solve_extended_trace(algebra, incl_images, e_coords, trace, lam):
    """Block weights with tau_ext . incl = tau and tau_ext(x e) = lam tau(x)."""
    n = incl_images.shape[0]
    nblocks = len(algebra.blocks)
    e_mult = algebra.mul_vecs(incl_images, e_coords)
    block_traces = np.zeros((2 * n, nblocks), dtype=complex)
    for alpha in range(nblocks):
        sl = algebra.block_slice(alpha)
        m = algebra.blocks[alpha]
        idx = np.arange(m) * m + np.arange(m)
        block_traces[:n, alpha] = incl_images[:, sl][:, idx].sum(axis=1)
        block_traces[n:, alpha] = e_mult[:, sl][:, idx].sum(axis=1)
    rhs = np.concatenate([trace.coefficient_weights,
                          lam * trace.coefficient_weights]).astype(complex)
    rows = np.vstack([np.real(block_traces), np.imag(block_traces)])
    target = np.concatenate([np.real(rhs), np.imag(rhs)])
    sol, *_ = np.linalg.lstsq(rows, target, rcond=None)
    res = rel_residual(rows @ sol, target)
    if res > 1e-8 or np.any(sol <= 0):
        raise InvariantViolation(f"extended trace inconsistent (max residual {res:.3e})")
    return TraceState(algebra, sol)


def _verify_jones(ext: JonesExtension, sub, old_trace, lam_mat, tol):
    alg = ext.algebra
    e = ext.e.vec
    res = rel_residual(alg.mul_vecs(e, e), e)
    res = max(res, rel_residual(alg.adjoint_vecs(e), e))
    expect = ConditionalExpectation(ext.sub_projection, ext.extended_trace, tol,
                                    verify=False)
    imgs = ext.inclusion.images.T
    exe = alg.mul_vecs(e, alg.mul_vecs(imgs, e))
    res = max(res, rel_residual(exe, alg.mul_vecs(expect.apply_vec(imgs), e)))
    lhs = ext.extended_trace.values(alg.mul_vecs(imgs, e))
    rhs = ext.lam * old_trace.coefficient_weights
    res = max(res, rel_residual(lhs, rhs))
    predicted = sorted(lam_mat.entries @ np.asarray(lam_mat.ambient_blocks))
    if predicted != sorted(alg.blocks):
        raise InvariantViolation("extension dimension does not match the inclusion data")
    if res > 100 * tol:
        raise InvariantViolation(f"extended trace inconsistent (max residual {res:.3e})")
