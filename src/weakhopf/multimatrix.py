"""Finite-dimensional C*-algebra engine.

A multimatrix algebra is a direct sum of full complex matrix blocks.  Elements
are kept as flat coefficient vectors over the canonical matrix-unit basis, so
linear maps between algebras are ordinary matrices.

Products of elements have one home, the block kernels of
:class:`MultiMatrixAlgebra`: ``mul_vecs`` (elementwise products of stacks),
``matmul_vecs`` (matrices of elements, with ``pairwise_mul`` as its all-pairs
case, and ``matmuls``/``pairwise_mul_slabs`` for slabs against one fixed
right factor) and the left/right multiplication matrices.  They multiply
block by block, one batched matmul per run of equal blocks, and every module
multiplies through them.  Runs of 1 x 1 blocks with one inner index multiply
elementwise.

Support rule: ``matmul_vecs`` contracts only over the support of its left
factor (``_linalg.support_matmul``).  Data built from matrix units (unit
images, commutants, coproducts, module maps) is almost all exact zeros, so
per run it reads only the contracted columns of the laid-out left factor
that hold a nonzero and computes only its nonzero rows; every other row is
an exact zero.  There is no threshold and no second path: a left factor
with full support takes the plain product, and so does a right factor
holding an inf or NaN, which therefore propagates as before.  The embedding
check (``SubalgebraEmbedding.residuals``) likewise multiplies only the unit
pairs whose supports meet (``support_lines``) or whose product is expected
to be a unit; every other pair is an exact zero.

One helper hides a format built on the kernels: ``tensor_square``, the
algebra tensored with itself, in which coproducts multiply.  A map applied to
products of basis units is a gather through ``product_index`` (u_i u_j is one
unit or zero), so a functional of products, f(u_p u_c), is
``unit_products(f)`` and tau(x y) is ``TraceState.product_values``, a gather
through ``adjoint_index``; no dense (dim, dim) form is built.  The dense table
``mult_tensor`` is never contracted against an element, and its docstring
lists what reads it.  How unit labels transpose and multiply is read from
``adjoint_index`` and ``product_index``, never rebuilt from labels.

Projections onto the image of a subalgebra have one home as well.  Images of
distinct matrix units are orthogonal for Tr(x* y) and for tau(x* y), so
coordinates, the membership residual ``outside`` and conditional
expectations all read one closed-form left inverse
(``SubalgebraEmbedding._left_inverse``); no Gram system is solved.  Every
comparison of a span with a subalgebra image is ``outside`` (containment)
plus a dimension count; no projector, intersection or least-squares solve
stands in for it.  The Cartan subalgebras of an abstract structure are the
ranges of its counital maps (idempotents, so z lies in B_t iff
eps_t z = z), checked by :func:`subalgebra_span` and split by :func:`split_span`.

Commutants need no splitting: relative commutants and centers take their matrix
units from those of the subalgebra in closed form, and so does the Jones basic
construction, read off the inclusion matrix (Goodman-de la Harpe-Jones 1989);
each checks its input as a *-homomorphism, not its output, which is one by
construction (proofs in the docstrings), and so is the dimension of the span
of products x w y over two subalgebras (``product_span_dim``).  Only bare
spanning sets are recognized by handing their structure constants to
:mod:`weakhopf.decompose`, the one block-splitting engine.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import (
    box_slabs,
    max_abs,
    numeric_rank,
    orthonormal_columns,
    read_only,
    rel_residual,
    residual_outside,
    slabs,
    streamed_residual,
    support_matmul,
)
from .errors import InvariantViolation

DEFAULT_TOL = 1e-9

# relative residual above which a vector is judged to lie outside the image
# of a subalgebra embedding (``SubalgebraEmbedding.coords_vec``)
MEMBERSHIP_TOL = 1e-6


def take_units(images: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``images[index]`` with zeros where ``index`` is -1: the images of
    basis-unit products (or of any unit-valued table) under a linear map."""
    images = np.asarray(images)
    out = np.zeros(index.shape + images.shape[1:], dtype=images.dtype)
    hit = index >= 0
    out[hit] = images[index[hit]]
    return out


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

    @cached_property
    def block_index(self) -> np.ndarray:
        """``index[i] = alpha`` when u_i lies in block alpha."""
        return np.repeat(np.arange(len(self.blocks)), [m * m for m in self.blocks])

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
        # the diagonal units are the self-adjoint ones
        return AlgebraElement(self, self.adjoint_index == np.arange(self.dim))

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, np.zeros(self.dim, dtype=complex))

    def basis_unit(self, alpha: int, row: int, col: int) -> "AlgebraElement":
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.basis_index(alpha, row, col)] = 1.0
        return AlgebraElement(self, vec)

    def block_identity(self, alpha: int) -> "AlgebraElement":
        return AlgebraElement(self, (self.block_index == alpha) * self.unit().vec)

    # -- batched arithmetic on coefficient arrays --------------------------

    @cached_property
    def _runs(self) -> list[tuple[slice, int, int]]:
        """Maximal runs of consecutive blocks of one size, as (coefficient
        slice, block size m, number of blocks r): the products of a run are
        one batched matmul over its r blocks."""
        runs, alpha = [], 0
        for m, group in itertools.groupby(self.blocks):
            r = len(list(group))
            runs.append((slice(int(self._offsets[alpha]), int(self._offsets[alpha + r])),
                         m, r))
            alpha += r
        return runs

    def mul_vecs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Elementwise products of two stacks of coefficient vectors, u[i] v[i]
        with numpy broadcasting (one element against a stack, say).  All-pairs
        products u[i] v[j] go through :meth:`pairwise_mul`, which skips the
        exact zeros of its left factor; a broadcast all-pairs product here
        would multiply every zero."""
        u = np.asarray(u, dtype=complex)
        v = np.asarray(v, dtype=complex)
        shape = np.broadcast_shapes(u.shape[:-1], v.shape[:-1])
        out = np.empty(shape + (self.dim,), dtype=complex)
        for sl, m, r in self._runs:
            if m == 1:
                out[..., sl] = u[..., sl] * v[..., sl]
                continue
            ub = u[..., sl].reshape(u.shape[:-1] + (r, m, m))
            vb = v[..., sl].reshape(v.shape[:-1] + (r, m, m))
            out[..., sl] = (ub @ vb).reshape(shape + (r * m * m,))
        return out

    def matmul_vecs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Matrix product of two arrays whose entries are elements:
        ``u`` is (a, k, dim), ``v`` is (k, c, dim) and the result (a, c, dim)
        holds sum_l u[i, l] v[l, j].  In each block the entries of u lie side
        by side in one (a m, k m) matrix and those of v in one (k m, c m)
        matrix, so the sum over l is one matmul per run of equal blocks,
        taken over the support of u (:func:`~weakhopf._linalg.support_matmul`)."""
        return next(self.matmuls([u], v))

    def matmuls(self, us, v: np.ndarray):
        """``matmul_vecs(u, v)`` for each u of the iterable ``us``, as a
        generator; the per-run layout of the fixed right factor ``v`` and
        its finiteness are worked out once.  A run whose contracted length
        k m is 1 (1 x 1 blocks, one inner index) is a broadcast product."""
        v = np.asarray(v, dtype=complex)
        k, c = v.shape[:2]
        laid = []
        for sl, m, r in self._runs:
            if k * m == 1:
                laid.append((v[0, :, sl], True))
                continue
            vb = v[:, :, sl].reshape(k, c, r, m, m).transpose(2, 0, 3, 1, 4) \
                .reshape(r, k * m, c * m)
            laid.append((vb, bool(np.isfinite(vb).all())))
        return (self._matmul_laid(np.asarray(u, dtype=complex), laid, k, c) for u in us)

    def _matmul_laid(self, u: np.ndarray, laid, k: int, c: int) -> np.ndarray:
        """One product of :meth:`matmuls` against its laid-out right factor;
        its temporaries go when it returns."""
        a = u.shape[0]
        out = np.empty((a, c, self.dim), dtype=complex)
        for (sl, m, r), (vb, finite) in zip(self._runs, laid):
            if k * m == 1:
                out[:, :, sl] = u[:, 0, None, sl] * vb
                continue
            ub = u[:, :, sl].reshape(a, k, r, m, m).transpose(2, 0, 3, 1, 4)
            rows, prod = support_matmul(ub.reshape(r, a * m, k * m), vb, finite)
            # written through a view of out, so the transposed product is
            # not copied first; rows off the support are exact zeros
            view = out[:, :, sl].reshape(a, c, r, m, m)
            if len(rows) == a * m:
                view[...] = prod.reshape(r, a, m, c, m).transpose(1, 3, 0, 2, 4)
                continue
            view[...] = 0
            i, p = np.divmod(rows, m)
            view[i, :, :, p] = prod.reshape(r, len(rows), c, m).transpose(1, 2, 0, 3)
        return out

    def pairwise_mul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """All-pairs products of two stacks of coefficient vectors.

        ``u`` is (a, dim), ``v`` is (b, dim); returns (a, b, dim), the
        :meth:`matmul_vecs` of a column by a row.
        """
        u = np.asarray(u, dtype=complex)
        v = np.asarray(v, dtype=complex)
        return self.matmul_vecs(u[:, None, :], v[None, :, :])

    def pairwise_mul_slabs(self, u: np.ndarray, v: np.ndarray, rows):
        """``pairwise_mul(u[sl], v)`` for each slice ``sl`` of ``rows``, as a
        generator: the fixed right factor is laid out once, not per slab."""
        u = np.asarray(u, dtype=complex)
        v = np.asarray(v, dtype=complex)
        return self.matmuls((u[sl, None, :] for sl in rows), v[None, :, :])

    def support_lines(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, cols)``, each (len(u), sum of the block sizes): 1.0 where
        a row, or a column, of a block of u[i] holds a nonzero (an inf or
        NaN counts as nonzero), else 0.0.  A product x y can be nonzero only
        if ``cols(x) @ rows(y)`` is: where no nonzero column of x meets a
        nonzero row of y in any block, every term of x y has an exact zero
        factor."""
        nz = np.asarray(u).astype(bool)
        lines = ([], [])
        for sl, m, r in self._runs:
            run = nz[:, sl].reshape(len(nz), r, m, m)
            for out, axis in zip(lines, (3, 2)):
                out.append(np.logical_or.reduce(run, axis=axis).reshape(len(nz), r * m))
        return tuple(np.concatenate(out, axis=1).astype(float) for out in lines)

    def block_support(self, u: np.ndarray) -> np.ndarray:
        """(len(u), number of blocks) bool: whether block alpha of u[i] holds
        a nonzero (an inf or NaN counts as nonzero)."""
        return np.logical_or.reduceat(np.asarray(u).astype(bool), self._offsets[:-1],
                                      axis=1)

    def summand(self, coords) -> "MultiMatrixAlgebra":
        """The direct sum of the blocks whose coordinates are ``coords``
        (whole blocks, ascending), this algebra for ``slice(None)``: products
        of elements restricted to those coordinates are taken in it, and
        equal the products here restricted to them."""
        if isinstance(coords, slice):
            return self
        held = np.zeros(len(self.blocks), dtype=bool)
        held[self.block_index[coords]] = True
        return MultiMatrixAlgebra(np.asarray(self.blocks)[held])

    def adjoint_vecs(self, u: np.ndarray) -> np.ndarray:
        """Adjoints of coefficient vectors: a conjugated :attr:`adjoint_index` gather."""
        out = np.asarray(u, dtype=complex)[..., self.adjoint_index]
        return np.conj(out, out=out)

    @cached_property
    def tensor_square(self) -> tuple["MultiMatrixAlgebra", np.ndarray]:
        """``(square, index)``: this algebra tensored with itself, with one
        block of size m_a m_b per block pair (a, b) in row-major pair order,
        and ``index[p, q]`` the coefficient of u_p (x) u_q in it.  Legs
        ``legs[..., p, q]`` become square coordinates through
        ``vec[..., index] = legs`` and come back as ``vec[..., index]``.  The
        tensor of e_ij in block a and e_kl in block b is the matrix unit
        ((i, k), (j, l)) of block (a, b)."""
        sizes = np.asarray(self.blocks)
        square = MultiMatrixAlgebra(np.outer(sizes, sizes).reshape(-1))
        # u_p = e_ij of block a of size m down the rows of the index, and
        # u_q = e_kl of block b of size n along its columns
        a = self.block_index
        m = sizes[a]
        i, j = np.divmod(np.arange(self.dim) - self._offsets[a], m)
        b, n, k, l = a[None], m[None], i[None], j[None]
        a, m, i, j = a[:, None], m[:, None], i[:, None], j[:, None]
        index = square._offsets[a * len(sizes) + b] + (i * n + k) * (m * n) + j * n + l
        return square, index

    @cached_property
    def adjoint_index(self) -> np.ndarray:
        """``index[i] = j`` when u_i* = u_j: the adjoint of e_rc is e_cr."""
        index = np.arange(self.dim)
        for sl, m, r in self._runs:
            index[sl] = index[sl].reshape(r, m, m).transpose(0, 2, 1).reshape(-1)
        return index

    @cached_property
    def product_index(self) -> np.ndarray:
        """``index[i, j] = k`` when u_i u_j = u_k and -1 when u_i u_j = 0:
        e_rc e_cl = e_rl inside a block, and every other product of matrix
        units vanishes."""
        index = np.full((self.dim, self.dim), -1)
        for sl, m, r in self._runs:
            q, i, c, l = np.indices((r, m, m, m))
            off = sl.start + q * m * m  # the offset of block q of the run
            index[off + i * m + c, off + c * m + l] = off + i * m + l
        return index

    def unit_products(self, images: np.ndarray, rows=slice(None)) -> np.ndarray:
        """f(u_i u_j) for the units u_i with i in ``rows`` and every unit
        u_j, for the linear map f with f(u_k) = ``images[k]``: a gather
        through :attr:`product_index`, of shape (rows, dim) + images.shape[1:].
        It copies the images of the nonzero products and multiplies nothing."""
        return take_units(images, self.product_index[rows])

    @cached_property
    def mult_tensor(self) -> np.ndarray:
        """Dense table of basis-unit products: u_i u_j = sum_k c[i, j, k] u_k.

        Products of general elements go through the block kernels above, and
        a map applied to products of basis units is a gather through
        :attr:`product_index` (:meth:`unit_products`).  This table is read
        only where its transpose is the data: the dual coproduct in
        ``weak_hopf.dual_algebra``, of abstract input.  The tower chain never
        forms it; the Haar integrals it checks in closed form, and the
        solve of abstract input reads its conditions through the block
        kernels (``axioms.haar_projection_conditions``).
        """
        eye = np.eye(self.dim, dtype=complex)
        return self.pairwise_mul(eye, eye)

    # -- spectral helpers (canonical adjoint) -------------------------------

    def hermitian_residual(self, vec: np.ndarray) -> float:
        return rel_residual(vec, self.adjoint_vecs(vec))

    def eigh_runs(self, vec: np.ndarray):
        """``(sl, vals, vecs)`` per run of equal blocks: the eigenvalues
        (r, m) and eigenvectors (r, m, m) of the r blocks of the self-adjoint
        element ``vec`` in one batched ``eigh``.  A 1 x 1 block a has the
        eigenvalue Re a and the eigenvector 1, which ``eigh`` also returns
        (it reads only the real part of the diagonal)."""
        vec = np.asarray(vec, dtype=complex)
        for sl, m, r in self._runs:
            if m == 1:
                yield sl, vec[sl].real.reshape(r, 1), np.ones((r, 1, 1), dtype=complex)
            else:
                yield (sl, *np.linalg.eigh(vec[sl].reshape(r, m, m)))

    def apply_spectral(self, vec: np.ndarray, fun) -> np.ndarray:
        out = np.empty(self.dim, dtype=complex)
        for sl, vals, vecs in self.eigh_runs(vec):
            out[sl] = ((vecs * fun(vals)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)).reshape(-1)
        return out

    def _lowest_eigenvalue(self, vec: np.ndarray) -> float:
        return min(float(vals.min()) for _, vals, _ in self.eigh_runs(vec))

    def positive_residual(self, vec: np.ndarray) -> float:
        """Distance from being a positive semi-definite element (relative)."""
        herm = self.hermitian_residual(vec)
        worst = max(0.0, -self._lowest_eigenvalue(vec))
        return max(herm, worst / max(max_abs(vec), 1.0))

    def inverse_vec(self, vec: np.ndarray) -> np.ndarray:
        """Inverse of an element: one batched ``inv`` per run of equal
        blocks, and 1 / a on a run of 1 x 1 blocks."""
        vec = np.asarray(vec, dtype=complex)
        out = np.empty(self.dim, dtype=complex)
        for sl, m, r in self._runs:
            if m == 1:
                if not vec[sl].all():
                    raise InvariantViolation("element is not invertible")
                out[sl] = 1.0 / vec[sl]
                continue
            try:
                out[sl] = np.linalg.inv(vec[sl].reshape(r, m, m)).reshape(-1)
            except np.linalg.LinAlgError as exc:
                raise InvariantViolation("element is not invertible") from exc
        return out

    def sqrt_posdef_vec(self, vec: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
        if self._lowest_eigenvalue(vec) <= tol * max(max_abs(vec), 1.0):
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
        return self.metric_weights * self.algebra.unit().vec.real

    @cached_property
    def metric_weights(self) -> np.ndarray:
        """Diagonal of the sesquilinear form <x,y> = tau(x* y) on coefficients."""
        return self.weights[self.algebra.block_index]

    def value(self, x) -> complex:
        vec = x.vec if isinstance(x, AlgebraElement) else np.asarray(x, dtype=complex)
        return complex(np.tensordot(vec, self.coefficient_weights, axes=([-1], [0])))

    def values(self, vecs: np.ndarray) -> np.ndarray:
        return np.tensordot(np.asarray(vecs, dtype=complex),
                            self.coefficient_weights, axes=([-1], [0]))

    def product_values(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """tau(x y) for every row x of ``xs`` and row y of ``ys``, shape
        (len(xs), len(ys)).  Since tau(e_ij e_kl) = [j = k][i = l] w, the
        trace of x y is sum_p w_p x_p y_(p*) over the units u_p: a gather
        through ``adjoint_index``, with no product and no (dim, dim) form."""
        return (xs * self.metric_weights) @ ys[..., self.algebra.adjoint_index].T


class SubalgebraEmbedding:
    """Unital *-homomorphism of one multimatrix algebra into another.

    ``images`` has shape (ambient.dim, sub.dim); column j is the image of the
    j-th canonical basis unit of the subalgebra.  It is a read-only view, so
    :meth:`residuals`, computed once per embedding, cannot go stale.
    """

    def __init__(self, sub: MultiMatrixAlgebra, ambient: MultiMatrixAlgebra,
                 images: np.ndarray):
        self.sub = sub
        self.ambient = ambient
        images = read_only(images)
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

    def _left_inverse(self, metric=None):
        """``(solve, norms)``: the left inverse x -> (v_j* W x) / (v_j* W v_j)
        of ``images`` for the diagonal metric W = ``metric`` (1 when None),
        zero where the squared norm v_j* W v_j is.  Dividing after the
        contraction keeps a unit's coordinate exactly 1.

        Exact for a *-homomorphism: f_kj f_lm = [j = l] f_km, so v_j* v_k
        with j != k is the image of an off-diagonal unit or zero, on which Tr
        and every trace vanish.  Images that are not orthogonal fail the
        back-substitution of :meth:`outside`."""
        rows = self.images.conj().T
        if metric is not None:
            rows = rows * metric[None, :]
        norms = np.einsum("ja,aj->j", rows, self.images).real
        def solve(vecs):
            coords = np.tensordot(vecs, rows, axes=([-1], [1]))
            return np.divide(coords, norms, out=np.zeros_like(coords), where=norms > 0)
        return solve, norms

    def coords_vec(self, ambient_vecs: np.ndarray) -> np.ndarray:
        """Coordinates of ambient vectors in the sub basis (must lie in the
        image, up to ``MEMBERSHIP_TOL``)."""
        coords, res = self._back_substitute(ambient_vecs)
        if res > MEMBERSHIP_TOL:
            raise InvariantViolation("vector does not lie in the subalgebra image")
        return coords

    def outside(self, ambient_vecs: np.ndarray) -> float:
        """How far a vector or a stack of them sticks out of the image: the
        relative back-substitution residual that :meth:`coords_vec` holds
        to ``MEMBERSHIP_TOL``."""
        return self._back_substitute(ambient_vecs)[1]

    def _back_substitute(self, vecs) -> tuple[np.ndarray, float]:
        """The coordinates of ``vecs`` and the residual of embedding them
        back, folded over slabs of the leading axis
        (:func:`streamed_residual`), so no embedded copy of a whole stack is
        held."""
        vecs = np.asarray(vecs, dtype=complex)
        coords = self._left_inverse()[0](vecs)
        if vecs.ndim == 1:
            return coords, streamed_residual([(self.embed_vec(coords), vecs)])
        return coords, streamed_residual(
            (self.embed_vec(coords[sl]), vecs[sl])
            for sl in slabs(len(vecs), vecs.size // max(len(vecs), 1)))

    def compose(self, outer: "SubalgebraEmbedding") -> "SubalgebraEmbedding":
        """Embedding of ``self.sub`` into ``outer.ambient`` (outer after self)."""
        if outer.sub != self.ambient:
            raise InvariantViolation("embeddings do not compose")
        return SubalgebraEmbedding(self.sub, outer.ambient, outer.images @ self.images)

    def restrict(self, trace: TraceState) -> TraceState:
        """The ambient trace read on the subalgebra: block alpha weighs
        tau(image of f^alpha_00)."""
        corners = self.images[:, self.sub._offsets[:-1]].T
        return TraceState(self.sub, trace.values(corners).real)

    def first_columns(self) -> list[np.ndarray]:
        """Per block alpha of ``sub``, the images of its first-column units
        f^alpha_c0 as rows (m_alpha, ambient.dim), read by the closed forms."""
        return [self.images[:, self.sub.basis_index(alpha, 0, 0) + m * np.arange(m)].T
                for alpha, m in enumerate(self.sub.blocks)]

    def restrict_to(self, other: "SubalgebraEmbedding") -> "SubalgebraEmbedding":
        """Re-express this subalgebra as a subalgebra of ``other`` (same ambient)."""
        coords = other.coords_vec(self.images.T)
        return SubalgebraEmbedding(self.sub, other.sub, coords.T)

    def residuals(self) -> dict:
        """Residuals of the three *-homomorphism requirements, keyed
        ``"unital"``, ``"adjoint"`` and ``"multiplicative"``, computed on the
        first call only (``_residuals``)."""
        return dict(self._residuals)

    @cached_property
    def _residuals(self) -> dict:
        """The values of :meth:`residuals`.

        Multiplicativity over all unit pairs reduces to three checks on the
        first-column partial isometries w_j = image(f_j0): their mutual grams
        w_j* w_k = [j=k] image(f_00), the reconstruction of every image as
        w_j w_l*, and absorption of f_00 into the w_l*.  Together with the
        ambient's associativity and the adjoint requirement this implies the
        full product table.

        Of the k² gram and outer pairs, only two kinds are formed: pairs
        whose expected unit exists (among them every diagonal pair), and
        pairs where, in some ambient block, a column of the left factor
        holding a nonzero meets a row of the right factor holding one
        (:meth:`MultiMatrixAlgebra.support_lines`).  Every other pair is an
        exact zero on both sides, so it would add nothing to the residual.
        The supports are read from ``images`` on every call, so a fault off
        the support of a valid embedding still meets what it touches, and
        an inf or NaN lies on the support of its own diagonal pair.
        """
        img = self.images.T  # (sub.dim, ambient.dim)
        unital = rel_residual(self.embed_vec(self.sub.unit().vec), self.ambient.unit().vec)
        # image(f_ij*) = image(f_ji) is a gather of image rows
        star_at = self.sub.adjoint_index
        adjoint = streamed_residual(
            (img[star_at[sl]], self.ambient.adjoint_vecs(img[sl]))
            for sl in slabs(self.sub.dim, self.ambient.dim))

        # w_j = image(f_j0) over the blocks of sub; the expected grams and
        # outer products are images of sub units, listed in unit-index tables
        sub = self.sub
        k = sum(sub.blocks)
        corners = np.empty(k, dtype=int)  # f_00 of the block of f_j0
        outer_at = np.full((k, k), -1)    # w_j w_l* = image(f_jl)
        start = 0
        for alpha, m in enumerate(sub.blocks):
            blk = slice(start, start + m)
            first = sub.basis_index(alpha, 0, 0)
            corners[blk] = first
            outer_at[blk, blk] = first + np.arange(m * m).reshape(m, m)
            start += m
        grams_at = np.full((k, k), -1)    # w_j* w_l = [j = l] image(f_00)
        grams_at[np.diag_indices(k)] = corners
        w = np.concatenate(self.first_columns())
        w_star = self.ambient.adjoint_vecs(w)

        def pairs(left, right, expected_at, meet):
            formed = (expected_at >= 0) | (meet > 0)
            for lefts, (rights,) in box_slabs([formed], width=self.ambient.dim):
                yield (self.ambient.pairwise_mul(left[lefts], right[rights]),
                       take_units(img, expected_at[lefts][:, rights]))

        # the columns of w_j* are the rows of w_j, so w_j* w_l can be nonzero
        # only where rows of w_j and w_l meet, and w_j w_l* where columns do
        w_rows, w_cols = self.ambient.support_lines(w)
        res = max(streamed_residual(pairs(w_star, w, grams_at, w_rows @ w_rows.T)),
                  streamed_residual(pairs(w, w_star, outer_at, w_cols @ w_cols.T)))
        absorbed = self.ambient.mul_vecs(img[corners], w_star)
        res = max(res, rel_residual(absorbed, w_star))
        return {"unital": unital, "adjoint": adjoint, "multiplicative": res}

    def verify(self) -> float:
        """Largest of the :meth:`residuals`."""
        return max(self.residuals().values())

    def require_valid(self, tol: float = DEFAULT_TOL):
        if self.verify() > 100 * tol:
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


class ConditionalExpectation:
    """Trace-preserving conditional expectation onto the image of a
    subalgebra, the tau-orthogonal projection.

    The images v_j of the matrix units are tau-orthogonal, so E(x) has the
    coordinates tau(v_j* x) / tau(v_j* v_j): one closed-form left inverse
    (``SubalgebraEmbedding._left_inverse``), no Gram solve and no
    (ambient, ambient) matrix.
    """

    def __init__(self, sub: SubalgebraEmbedding, trace: TraceState):
        if trace.algebra != sub.ambient:
            raise InvariantViolation("trace lives on a different algebra")
        self.sub = sub
        self.trace = trace
        self._solve, norms = sub._left_inverse(trace.metric_weights)
        if not norms.min() > 1e-12 * norms.max():
            raise InvariantViolation("degenerate trace")

    def coords(self, vecs: np.ndarray) -> np.ndarray:
        """Coordinates of E(x) in the sub basis, for each x of ``vecs``."""
        return self._solve(np.asarray(vecs, dtype=complex))

    def apply_vec(self, vecs: np.ndarray) -> np.ndarray:
        return self.sub.embed_vec(self.coords(vecs))

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        return self.sub.ambient.element(self.apply_vec(x.vec))


# ---------------------------------------------------------------------------
# Subalgebra recognition: turn a *-closed subspace into matrix units.
# ---------------------------------------------------------------------------


def subalgebra_span(ambient: MultiMatrixAlgebra, span: np.ndarray,
                    tol: float = DEFAULT_TOL):
    """``(span, structure)``: orthonormal columns of ``span`` and the
    :class:`~weakhopf.decompose.StructureAlgebra` over them, once the span is
    checked closed under adjoints and products and holding the unit.  A span
    of the whole of ``ambient`` needs no check and no split: structure None."""
    from .decompose import StructureAlgebra

    span = orthonormal_columns(np.asarray(span, dtype=complex), 1e-10)
    dim = span.shape[1]
    if dim == 0:
        raise InvariantViolation("empty subspace")
    if dim == ambient.dim:
        return span, None

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
    return span, StructureAlgebra(prods @ coords, unit @ coords, (adjoints @ coords).T)


def split_span(ambient: MultiMatrixAlgebra, span: np.ndarray, structure, *,
               rng=None, tol: float = DEFAULT_TOL) -> SubalgebraEmbedding:
    """The embedding carrying the canonical matrix units of a span and its
    structure from :func:`subalgebra_span`, split by
    :func:`weakhopf.decompose.decompose_structure_algebra`."""
    from .decompose import decompose_structure_algebra

    if structure is None:
        return SubalgebraEmbedding.identity(ambient)
    sub, change = decompose_structure_algebra(structure, rng=rng, tol=tol)
    emb = SubalgebraEmbedding(sub, ambient, span @ change)
    emb.require_valid(tol)
    return emb


def subalgebra_from_basis(ambient: MultiMatrixAlgebra, span: np.ndarray, *,
                          rng=None, tol: float = DEFAULT_TOL) -> SubalgebraEmbedding:
    """Recognize a *-closed unital subspace of ``ambient`` as a multimatrix
    algebra: :func:`subalgebra_span`, then :func:`split_span`."""
    return split_span(ambient, *subalgebra_span(ambient, span, tol), rng=rng, tol=tol)


# ---------------------------------------------------------------------------
# Commutants, centers, inclusion data, Markov traces.
# ---------------------------------------------------------------------------


def _corner_ranges(host: MultiMatrixAlgebra, corner: np.ndarray) -> list[np.ndarray]:
    """Per block of ``host``, orthonormal columns spanning the range of the
    projection ``corner``, the image of some f^alpha_00: as many as alpha
    has copies there.  Its singular values are 0 or 1, so the absolute cut
    ignores rounding noise in the blocks it misses."""
    ranges = []
    for sl, m, r in host._runs:  # one batched SVD per run of equal blocks
        u, s, _ = np.linalg.svd(np.asarray(corner[sl], dtype=complex).reshape(r, m, m))
        ranges += [uq[:, sq > 0.5] for uq, sq in zip(u, s)]
    return ranges


def corner_frame(host: MultiMatrixAlgebra, firsts: np.ndarray, ranges):
    """``(V, F)`` for the first-column units f_c0 (rows of ``firsts``) of a
    subalgebra of ``host`` and the per-block ``ranges`` of f_00
    (:func:`_corner_ranges`).  V (host.dim, sum_j n_j c_j) holds the e_r v_t*
    in block j, v_t over the columns of ranges[j], in the order (j, r, t): an
    orthonormal basis of the left ideal host f_00 for Tr(x* y).  F[c] is
    R(f_c0*) V, the same columns of the slots [f_c0]_j ranges[j], as
    e_r v* f_c0* = e_r (f_c0 v)*."""
    def columns(slots):
        lead, parts = np.shape(slots[0])[:-2], []
        for j, (n, w) in enumerate(zip(host.blocks, slots)):
            if not w.shape[-1]:
                continue  # a block that f_00 misses
            part = np.zeros(lead + (host.dim, n * w.shape[-1]), dtype=complex)
            part[..., host.block_slice(j), :] = np.einsum(
                "ab,...lt->...albt", np.eye(n), np.conj(w)).reshape(lead + (n * n, -1))
            parts.append(part)
        return np.concatenate(parts, axis=-1)
    return columns(ranges), columns([f @ v for f, v in zip(host.block_views(firsts), ranges)])


def _commutant_from_units(host: MultiMatrixAlgebra, firsts) -> SubalgebraEmbedding:
    """Commutant in ``host`` of a subalgebra given by the images of its
    first-column units (:meth:`SubalgebraEmbedding.first_columns`).  Block
    (alpha, beta) has the units E_ij = sum_c (f_c0 v_i)(f_c0 v_j)^*, v_i an
    orthonormal basis of the range of f^alpha_00 in host block beta
    (:func:`_corner_ranges`), proved valid at :func:`relative_commutant`.
    Blocks come alpha by alpha, then beta; nothing is split at random."""
    parts = []
    for stack in firsts:
        for beta, (mats, basis) in enumerate(zip(host.block_views(stack),
                                                 _corner_ranges(host, stack[0]))):
            if basis.shape[1]:
                parts.append((beta, mats @ basis))  # copies, (k, n_beta, size)
    sizes = [copies.shape[2] for _, copies in parts]
    # one row per unit, written in place: the images are the one array of
    # (host.dim, commutant dim) the construction holds
    units = np.zeros((sum(m * m for m in sizes), host.dim), dtype=complex)
    row = 0
    for (beta, copies), size in zip(parts, sizes):
        units[row:row + size * size, host.block_slice(beta)] = np.einsum(
            "cai,cbj->ijab", copies, copies.conj()).reshape(size * size, -1)
        row += size * size
    return SubalgebraEmbedding(MultiMatrixAlgebra(sizes), host, units.T)


def relative_commutant(sub: SubalgebraEmbedding,
                       within: SubalgebraEmbedding | None = None, *,
                       tol: float = DEFAULT_TOL) -> SubalgebraEmbedding:
    """Elements of ``within`` (default: the ambient) commuting with the image
    of ``sub``, embedded in the same ambient.

    The matrix units are read off those of ``sub`` (restricted into
    ``within`` first), so the blocks follow the block order of ``sub``.
    Only ``sub`` is checked: with f_ab its units and v_i an orthonormal
    basis of the range of f^alpha_00 in a host block, the units
    E_ij = sum_c f_c0 v_i v_j* f_0c (:func:`_commutant_from_units`) satisfy
    f_ab E_ij = f_a0 v_i v_j* f_0b = E_ij f_ab, E_ij E_kl = [j = k] E_il,
    E_ij* = E_ji and sum_i E_ii = sum_c f_cc, which sum over blocks to 1.
    """
    if within is not None:
        if within.ambient != sub.ambient:
            raise InvariantViolation("subalgebras live in different ambients")
        sub = sub.restrict_to(within)
    sub.require_valid(tol)
    comm = _commutant_from_units(sub.ambient, sub.first_columns())
    return comm if within is None else comm.compose(within)


def product_span_dim(left: SubalgebraEmbedding, w: np.ndarray,
                     right: SubalgebraEmbedding) -> int:
    """dim span{x w y : x in X, y in Y} for unital *-subalgebras X = ``left``
    and Y = ``right`` of one ambient A with units f^a_ij (size m_a) and g^b_kl
    (size n_b): sum_ab m_a n_b rank{f^a_0j w g^b_k0}.  x w y is a sum of
    f_i0 (f_0j w g_k0) g_0l, and c -> f^a_i0 c g^b_0l is injective on the
    corner f^a_00 A g^b_00 (z -> f_0i z g_l0 undoes it), with images in the
    Peirce pieces f^a_ii A g^b_ll, independent as sum f_ii = sum g_ll = 1.
    Corners of distinct (a, b) are independent too: one stack per weight."""
    alg = left.ambient
    lefts = [alg.adjoint_vecs(f) for f in left.first_columns()]   # f_0j
    rights = [alg.mul_vecs(w, g) for g in right.first_columns()]  # w g_k0
    corners = {}
    for f, g in itertools.product(lefts, rights):
        corners.setdefault(len(f) * len(g), []).append(alg.pairwise_mul(f, g).reshape(-1, alg.dim))
    return sum(weight * numeric_rank(np.concatenate(stack).T, 1e-9)
               for weight, stack in corners.items())


def center(emb: SubalgebraEmbedding, *, tol: float = DEFAULT_TOL) -> SubalgebraEmbedding:
    """Center of a (sub)algebra, as a subalgebra of the same ambient."""
    return relative_commutant(emb, within=emb, tol=tol)


def inclusion_matrix(sub: SubalgebraEmbedding, tol: float = DEFAULT_TOL) -> InclusionMatrix:
    """Multiplicities of each sub block inside each ambient block: the traces
    of the image of 1_alpha in the ambient blocks, over m_alpha."""
    alg, amb, sizes = sub.sub, sub.ambient, np.asarray(sub.sub.blocks)
    if rel_residual(sub.embed_vec(alg.unit().vec), amb.unit().vec) > 100 * tol:
        raise InvariantViolation("embedding is not unital")
    ones = (alg.block_index == np.arange(len(alg.blocks))[:, None]) * alg.unit().vec
    diagonals = np.real(sub.embed_vec(ones)) * amb.unit().vec.real
    mult = np.add.reduceat(diagonals, amb._offsets[:-1], axis=1) / sizes[:, None]
    if not np.abs(mult - np.round(mult)).max() <= 1e-6:
        raise InvariantViolation("non-integer inclusion multiplicity")
    entries = np.round(mult).astype(int)
    if not np.array_equal(entries.T @ sizes, np.asarray(amb.blocks)):
        raise InvariantViolation("embedding is not unital")
    return InclusionMatrix(entries, alg.blocks, amb.blocks)


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
    return alg.element((np.asarray(alg.blocks) / trace.weights)[alg.block_index]
                       * alg.unit().vec)


# ---------------------------------------------------------------------------
# Basic construction.
# ---------------------------------------------------------------------------


def module_endomorphisms(sub: SubalgebraEmbedding, tol: float = DEFAULT_TOL):
    """End_N(L2(M)), the commutant of the right action of N on L2(M), for
    ``sub``, N inside its ambient M, in the closed form of Goodman-de la
    Harpe-Jones ("Coxeter graphs and towers of algebras", 1989), without a
    trace: ``(Lambda, algebra, copies, ranges)``.  Block alpha acts on
    M f^alpha_00, of size (Lambda n)_alpha, with the basis (j, r, t) of
    :func:`corner_frame` over the ranges V_aj of [f^alpha_00]_j.  x in M acts
    there as x_j (x) 1 in slot j, the 0/1 ``copies`` (algebra.dim, M.dim):
    a *-homomorphism, as the slots tile the block, that reads neither V nor
    a trace.  The caller checks ``sub`` as a *-homomorphism."""
    ambient = sub.ambient
    mult = inclusion_matrix(sub, tol).entries
    algebra = MultiMatrixAlgebra(mult @ np.asarray(ambient.blocks))
    copies = np.zeros((algebra.dim, ambient.dim), dtype=complex)
    for alpha, m in enumerate(algebra.blocks):
        slot = 0
        for j, (n, c) in enumerate(zip(ambient.blocks, mult[alpha])):
            # unit (a, b) of M block j goes to ((a, t), (b, t)) in slot j
            a, b, t = np.ix_(range(n), range(n), range(c))
            copies[algebra.basis_index(alpha, 0, 0) + (slot + a * c + t) * m + slot + b * c + t,
                   ambient.basis_index(j, 0, 0) + a * n + b] = 1.0
            slot += n * c
    corners = sub.images[:, sub.sub._offsets[:-1]].T  # the f^alpha_00
    return mult, algebra, copies, [_corner_ranges(ambient, p) for p in corners]


def basic_construction(sub: SubalgebraEmbedding, trace: TraceState, lam: float,
                       *, tol: float = DEFAULT_TOL) -> JonesExtension:
    """Jones basic construction M1 = <M, e> = End_N(L2(M)) for ``sub``, N
    inside its ambient M, for a Markov trace of modulus ``lam``: the blocks
    and the inclusion of M are :func:`module_endomorphisms`, whose basis
    (j, r, t) is e_r v_t* / sqrt(tau_j) in the tau-metric.  e projects onto
    L2(N), which block alpha meets in the span of the u_i = sqrt(tau_j)
    [f^alpha_i0]_j V_aj (slot by slot); they are orthogonal,
    <u_i, u_k> = [i = k] sum_j tau_j Lambda_(alpha j), as
    f_0i f_k0 = [i = k] f_00, so block alpha of e is sum_i u_i u_i* / |u_i|^2.
    The extended trace lam Lambda tau (Jones 1983) gives e f^alpha_00, a
    minimal projection of block alpha, the trace lam tau(f^alpha_00); on M
    it is lam Lambda^T Lambda tau = tau exactly when the Markov check passes.
    Only the input is checked, ``sub`` as a *-homomorphism and the trace as
    Markov."""
    ambient = sub.ambient
    if trace.algebra != ambient:
        raise InvariantViolation("trace lives on a different algebra")
    sub.require_valid(tol)
    mult, algebra, copies, ranges = module_endomorphisms(sub, tol)
    if rel_residual(mult.T @ (mult @ trace.weights), trace.weights / lam) > 1e-8:
        raise InvariantViolation("trace not Markov")

    e = np.zeros(algebra.dim, dtype=complex)
    for alpha, (firsts, bases) in enumerate(zip(sub.first_columns(), ranges)):
        u = np.concatenate([np.sqrt(w) * (f @ basis).reshape(len(firsts), -1)
                            for f, basis, w in zip(ambient.block_views(firsts), bases,
                                                   trace.weights)], axis=1)
        norms = np.einsum("ip,ip->i", u, u.conj()).real
        e[algebra.block_slice(alpha)] = (u.T @ (u.conj() / norms[:, None])).reshape(-1)

    inclusion = SubalgebraEmbedding(ambient, algebra, copies)
    ext_trace = TraceState(algebra, lam * (mult @ trace.weights))
    return JonesExtension(algebra, algebra.element(e), ext_trace, float(lam),
                          inclusion, sub.compose(inclusion))
