"""Recognition of abstractly presented *-algebras as multimatrix algebras.

Input is a multiplication tensor, a unit vector and an antilinear involution
matrix over some basis.  The regular trace of a C*-algebra is positive and
faithful, so it provides a Hilbert metric in which left multiplication is a
*-representation; from there the block split proceeds spectrally.  This is the
only block-splitting engine.

:class:`StructureAlgebra` is the type of abstract algebras only, those not
yet known as a multimatrix algebra.  There are four:
:func:`weakhopf.multimatrix.subalgebra_from_basis` passes the structure
constants of a span (abstract fixed points and Cartans),
:func:`weakhopf.weak_hopf.group_algebra` those of its group table
(u_g u_h = u_gh), :func:`weakhopf.weak_hopf.dual_algebra` the raw dual
(product = transposed coproduct), and :func:`weakhopf.actions.crossed_product`
the kernel ideal of a non-Galois action; crossed products of tower actions
take B_t, M and their blocks in closed form and never reach it.
:func:`weakhopf.weak_hopf.connectedness` reads the raw dual without a split:
only its centre (:func:`center_span`, the split's own first step).  A
block's size m is read off the regular trace of its central projection
(m**2), so a 1 x 1 block takes no corner and no random draw.  Once an
algebra is a :class:`~weakhopf.multimatrix.MultiMatrixAlgebra`, its products
go through the block kernels there, never through a structure tensor here.

The dense structure tensor is the large operand (d**3 entries), so every
product goes through batched operator kernels that read it once per batch of
elements: :meth:`StructureAlgebra.left_matrices` is one matrix product with
the ``(d, d**2)`` flattening of the tensor and
:meth:`StructureAlgebra.right_matrices` one stacked matrix product over its
leading index.  Products, all-pairs products and commutators are thin layers
over these two, and the matrix-unit relations ``e_ij e_kl = delta_jk e_il``
are checked one slab of left factors at a time against a gather through the
split's ``product_index``, and the adjoints against one through its
``adjoint_index``, rather than against a canonical structure tensor.
"""

import numpy as np

from ._linalg import (
    cluster_values,
    max_abs,
    null_space,
    orthonormal_columns,
    rel_residual,
    slabs,
)
from .errors import InvariantViolation
from .multimatrix import MultiMatrixAlgebra, take_units

__all__ = ["StructureAlgebra", "center_span", "decompose_structure_algebra"]
# relative gap that separates eigenvalue clusters in ``_spectral_projections``
SPECTRAL_GAP = 1e-6


class StructureAlgebra:
    """A *-algebra given by structure constants over an arbitrary basis.

    ``mult[a, b, k]`` is the coefficient of ``u_k`` in ``u_a u_b``.  Operator
    matrices act on coefficient columns: ``left_matrix(x) @ y`` is ``x y`` and
    ``right_matrix(x) @ y`` is ``y x``.
    """

    def __init__(self, mult: np.ndarray, unit: np.ndarray, involution: np.ndarray):
        self.mult = np.ascontiguousarray(mult, dtype=complex)
        self.unit = np.asarray(unit, dtype=complex).reshape(-1)
        self.involution = np.asarray(involution, dtype=complex)
        self.dim = self.unit.shape[0]
        if self.mult.shape != (self.dim,) * 3 or self.involution.shape != (self.dim,) * 2:
            raise InvariantViolation("structure tensor shapes are inconsistent")

    def left_matrices(self, vecs: np.ndarray) -> np.ndarray:
        """Left multiplication matrices of a stack (n, dim) -> (n, dim, dim),
        as one matrix product with the flattened tensor."""
        vecs = np.asarray(vecs, dtype=complex)
        d = self.dim
        partial = vecs @ self.mult.reshape(d, d * d)    # (n, b * d + k)
        return partial.reshape(-1, d, d).transpose(0, 2, 1)

    def right_matrices(self, vecs: np.ndarray) -> np.ndarray:
        """Right multiplication matrices of a stack (n, dim) -> (n, dim, dim),
        as one stacked matrix product over the leading tensor index."""
        vecs = np.asarray(vecs, dtype=complex)
        return np.matmul(vecs, self.mult).transpose(1, 2, 0)  # (a, n, k) -> (n, k, a)

    def commutator_matrices(self, vecs: np.ndarray) -> np.ndarray:
        """Matrices of y -> x y - y x for a stack of elements x."""
        ops = self.left_matrices(vecs)
        ops -= self.right_matrices(vecs)
        return ops

    def left_matrix(self, vec: np.ndarray) -> np.ndarray:
        return self.left_matrices(np.asarray(vec)[None, :])[0]

    def right_matrix(self, vec: np.ndarray) -> np.ndarray:
        return self.right_matrices(np.asarray(vec)[None, :])[0]

    def pairwise(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """All-pairs products of two stacks (a, dim), (b, dim) -> (a, b, dim)."""
        v = np.asarray(v, dtype=complex)
        return v @ self.left_matrices(u).transpose(0, 2, 1)

    def star(self, vecs: np.ndarray) -> np.ndarray:
        """Involution of one element or of a stack of elements (rows)."""
        return np.conj(vecs) @ self.involution.T

    def regular_trace_vector(self) -> np.ndarray:
        return np.einsum("kaa->k", self.mult)


class _Retry(Exception):
    pass


def _orthonormalize(algebra: StructureAlgebra, tol: float):
    """Basis change into coordinates where the regular trace metric is the
    standard one.  Returns (transform T, inverse)."""
    tr = algebra.regular_trace_vector()
    gram = np.einsum("ai,ajk,k->ij", algebra.involution, algebra.mult, tr,
                     optimize=True)
    gram = 0.5 * (gram + gram.conj().T)
    vals, vecs = np.linalg.eigh(gram)
    if vals[0] <= tol * max(vals[-1], 1.0):
        raise InvariantViolation("involution is not positive (no C* structure)")
    t = vecs @ np.diag(1.0 / np.sqrt(vals))
    t_inv = np.diag(np.sqrt(vals)) @ vecs.conj().T
    return t, t_inv


def decompose_structure_algebra(algebra: StructureAlgebra, *, rng=None,
                                tol: float = 1e-9):
    """Split an abstract finite-dimensional C*-algebra into matrix blocks.

    Returns ``(multi, change)`` where ``change`` has one column per canonical
    matrix unit of ``multi``, expressed in the original basis.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    t, t_inv = _orthonormalize(algebra, tol)
    d = algebra.dim
    # slab by slab over k, so one slab's temporaries sit beside the output
    mult_on = np.empty((d, d, d), dtype=complex)
    for ks in slabs(d, d * d):
        part = np.tensordot(algebra.mult, t_inv[ks], axes=([2], [1]))   # (a, b, k)
        part = np.tensordot(t, part, axes=([0], [0]))                    # (i, b, k)
        part = np.tensordot(t, part, axes=([0], [1]))                    # (j, i, k)
        mult_on[:, :, ks] = part.transpose(1, 0, 2)
    unit_on = t_inv @ algebra.unit
    inv_on = t_inv @ algebra.involution @ np.conj(t)
    on = StructureAlgebra(mult_on, unit_on, inv_on)

    center = center_span(on, rng, tol)
    for _ in range(8):
        try:
            units, sizes = _split(on, center, rng)
            break
        except _Retry:
            continue
    else:
        raise InvariantViolation("failed to split algebra into matrix blocks")

    multi = MultiMatrixAlgebra(sizes)
    if multi.dim != d:
        raise InvariantViolation("matrix units do not span the algebra")
    change_on = np.column_stack(units)
    _verify_units(on, multi, change_on)
    return multi, t @ change_on


def _random_self_adjoint(on: StructureAlgebra, span: np.ndarray, rng):
    coeff = rng.standard_normal(span.shape[1]) + 1j * rng.standard_normal(span.shape[1])
    x = span @ coeff
    return 0.5 * (x + on.star(x))


def center_span(on: StructureAlgebra, rng, tol: float) -> np.ndarray:
    """Orthonormal columns spanning the centre of ``on``: the common kernel
    of the commutators with a few random elements, grown by the basis unit
    that commutes worst until every basis unit commutes with every column.
    It needs no C* structure and reads no unit or involution."""
    d = on.dim
    gens = [rng.standard_normal(d) + 1j * rng.standard_normal(d)
            for _ in range(min(d, 3))]
    for _ in range(6):
        cand = null_space(on.commutator_matrices(np.stack(gens)).reshape(-1, d), 1e-10)
        # per unit u_i, the largest |(cand_c u_i - u_i cand_c)_k| over c and
        # k, folded over slabs of the candidates
        peaks = np.zeros(d)
        for sl in slabs(cand.shape[1], d * d):
            comm = on.commutator_matrices(cand[:, sl].T)  # [c, k, i]
            peaks = np.maximum(peaks, np.abs(comm).max(axis=(0, 1)))
        if peaks.max() / max(max_abs(cand), 1.0) <= 100 * tol:
            return cand
        gens.append(np.eye(d, dtype=complex)[int(np.argmax(peaks))])
    raise InvariantViolation("center computation did not stabilize")


def _spectral_projections(on: StructureAlgebra, h: np.ndarray):
    lmat = on.left_matrix(h)
    lmat = 0.5 * (lmat + lmat.conj().T)  # Hermitian in the regular metric
    vals, vecs = np.linalg.eigh(lmat)
    scale = max(max_abs(vals), 1.0)
    clusters = cluster_values(vals, SPECTRAL_GAP * scale)
    reps, projections = [], []
    for cluster in clusters:
        sel = vecs[:, cluster]
        reps.append(float(np.mean(vals[cluster])))
        projections.append(sel @ (sel.conj().T @ on.unit))
    return np.asarray(reps), projections


def _split(on: StructureAlgebra, center: np.ndarray, rng):
    z = _random_self_adjoint(on, center, rng)
    _, projs = _spectral_projections(on, z)
    if len(projs) != center.shape[1]:
        raise _Retry
    if rel_residual(np.sum(projs, axis=0), on.unit) > 1e-6:
        raise _Retry

    trace = on.regular_trace_vector()
    units, sizes = [], []
    for p in projs:
        # p is minimal central in an m x m block, so tr(L_p) = dim(pA) = m**2
        msq = complex(trace @ p)
        m = int(round(np.sqrt(max(msq.real, 0.0))))
        if m == 0 or abs(msq - m * m) > 1e-6 * m * m:
            raise _Retry
        sizes.append(m)
        if m == 1:
            units.append(p)
            continue
        # columns p u_i p for every basis vector u_i
        corner = orthonormal_columns(on.right_matrix(p) @ on.left_matrix(p), 1e-8)
        if corner.shape[1] != m * m:
            raise _Retry
        diag = _minimal_projections(on, corner, p, m, rng)
        units.extend(_matrix_units(on, diag, rng))
    return units, sizes


def _minimal_projections(on, corner, p, m, rng):
    h = _random_self_adjoint(on, corner, rng)
    vals, projs = _spectral_projections(on, h)
    scale = max(max_abs(vals), 1.0)
    keep = [q for v, q in zip(vals, projs) if abs(v) > 1e-6 * scale]
    if len(keep) != m:
        raise _Retry
    if rel_residual(np.sum(keep, axis=0), p) > 1e-6:
        raise _Retry
    return keep


def _matrix_units(on, diag, rng):
    """Matrix units of a block of size m >= 2 as rows (m*m, dim): e_00, e_01, ..."""
    m = len(diag)
    d = on.dim
    lefts = on.left_matrices(np.stack(diag[1:]))
    right0 = on.right_matrix(diag[0])
    isometries = [diag[0]]
    for k in range(1, m):
        for _ in range(8):
            y = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            u = lefts[k - 1] @ (right0 @ y)  # diag_k y diag_0
            gram = u @ on.left_matrix(on.star(u)).T  # u* u
            c = float(np.real(np.vdot(diag[0], gram) / np.vdot(diag[0], diag[0])))
            if c > 1e-10 and rel_residual(gram, c * diag[0]) < 1e-6:
                isometries.append(u / np.sqrt(c))
                break
        else:
            raise _Retry
    isometries = np.stack(isometries)
    return on.pairwise(isometries, on.star(isometries)).reshape(m * m, d)


def _verify_units(on: StructureAlgebra, multi: MultiMatrixAlgebra,
                  change: np.ndarray):
    cols = change.T  # (multi.dim, on.dim), one row per canonical matrix unit
    d = on.dim
    # u_i u_j is the unit product_index[i, j] (e_rc e_cl = e_rl) or 0, checked
    # one slab of left factors at a time; worst and scale are those of the
    # relative residual over all pairs at once
    worst, scale = 0.0, 1.0
    for sl in slabs(d, d * d):
        prods = on.pairwise(cols[sl], cols)
        expected = take_units(cols, multi.product_index[sl])
        scale = max(scale, max_abs(prods), max_abs(expected))
        prods -= expected
        worst = max(worst, max_abs(prods))
    if worst / scale > 1e-6:
        raise InvariantViolation("matrix-unit relations failed")
    if rel_residual(on.star(cols), cols[multi.adjoint_index]) > 1e-6:
        raise InvariantViolation("matrix units are not adjoint-compatible")
    if rel_residual(np.tensordot(multi.unit().vec, cols, axes=([0], [0])), on.unit) > 1e-6:
        raise InvariantViolation("matrix units do not sum to the unit")
