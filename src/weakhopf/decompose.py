"""Recognition of abstractly presented *-algebras as multimatrix algebras.

Input is a multiplication tensor, a unit vector and an antilinear involution
matrix over some basis.  The regular trace of a C*-algebra is positive and
faithful, so it provides a Hilbert metric in which left multiplication is a
*-representation; from there the block split reads every matrix unit off
one eigendecomposition.  This is the only block-splitting engine.

:class:`StructureAlgebra` is the type of abstract algebras only, those not
yet known as a multimatrix algebra.  There are four:
:func:`weakhopf.multimatrix.subalgebra_span` builds the structure
constants of a span (abstract fixed points and Cartans),
:func:`weakhopf.weak_hopf.group_algebra` those of its group table
(u_g u_h = u_gh), :func:`weakhopf.weak_hopf.dual_algebra` the raw dual
(product = transposed coproduct), and :func:`weakhopf.actions.crossed_product`
the kernel ideal of a non-Galois action; crossed products of tower actions
take B_t, M and their blocks in closed form and never reach it.
:func:`weakhopf.weak_hopf.connectedness` reads the raw dual without a split:
only its centre, through :func:`center_span`, which the split itself does not
read.  Once an algebra is a :class:`~weakhopf.multimatrix.MultiMatrixAlgebra`,
its products go through the block kernels there, never through a structure
tensor here.

**The split** is the generic-element method of Murota, Kanno, Kojima and
Kojima (Japan J. Indust. Appl. Math. 27, 2010) on the regular
representation.  In the coordinates of :func:`_orthonormalize`,
<x, y> = Tr(x* y) for the regular trace Tr.  For self-adjoint h, L_h
(x -> h x) is Hermitian, and so is R_h (x -> x h), since
<x, y h> = Tr(h x* y) = Tr((x h)* y) by traciality; they commute, so
K = L_h + c R_h is Hermitian for real c.  On a block M_m with
h = sum_i lambda_i e_ii in its own eigenbasis, K e_ij =
(lambda_i + c lambda_j) e_ij.  For generic h, pairs (i, j) != (k, l) share
an eigenvalue only where lambda_i - lambda_k + c (lambda_j - lambda_l)
vanishes identically: c = 1 with (k, l) = (j, i), c = -1 with i = j and
k = l, or c = 0.  For any other c each eigenvector is u = s e_ij / sqrt(m)
with |s| = 1 (Tr(e_ij* e_ij) = Tr(e_jj) = m): its row value <u, L_h u> is
lambda_i, its column value (eigenvalue - lambda_i) / c is lambda_j, and
its trace is s sqrt(m) if i = j and 0 otherwise.  So the diagonal units
are the eigenvectors of trace at least 1 in modulus, with
e_ii = conj(Tr v) v; every other one sits at the (i, j) of its nearest row
and column values, the blocks are the classes of i ~ j, each holding m**2
eigenvectors, and e_k0 = sqrt(m) u_k0 has e_k0* e_k0 = e_00 (the phase s
picks one of the unit systems), so e_kl = e_k0 e_0l.  A draw with two
eigenvalues of K within ``SPECTRAL_GAP`` (relative), or with a class that
is not full, is retried; :func:`_verify_units` checks the result.  Blocks
come largest first, ties in the order of their smallest lambda_i.

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

from ._linalg import max_abs, null_space, rel_residual, slabs
from .errors import InvariantViolation
from .multimatrix import MultiMatrixAlgebra, take_units

__all__ = ["StructureAlgebra", "center_span", "decompose_structure_algebra"]
# relative gap below which two eigenvalues of the splitting operator K count
# as equal, so the draw is retried
SPECTRAL_GAP = 1e-6
# weight c of right multiplication in K = L_h + c R_h: any real outside
# {0, 1, -1} gives every matrix unit a simple eigenvalue
_RIGHT_WEIGHT = 0.5


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

    for _ in range(8):
        try:
            units, sizes = _split(on, rng)
            break
        except _Retry:
            continue
    else:
        raise InvariantViolation("failed to split algebra into matrix blocks")

    multi = MultiMatrixAlgebra(sizes)
    if multi.dim != d:
        raise InvariantViolation("matrix units do not span the algebra")
    change_on = np.concatenate(units).T
    _verify_units(on, multi, change_on)
    return multi, t @ change_on


def _random_self_adjoint(on: StructureAlgebra, rng):
    x = rng.standard_normal(on.dim) + 1j * rng.standard_normal(on.dim)
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


def _split(on: StructureAlgebra, rng):
    """One attempt: the matrix units of ``on`` as (m*m, dim) row stacks, one
    per block, and the block sizes, read off one eigendecomposition of
    K = L_h + c R_h (module docstring); ``_Retry`` on a bad draw."""
    d = on.dim
    h = _random_self_adjoint(on, rng)
    left = on.left_matrix(h)
    k_op = left + _RIGHT_WEIGHT * on.right_matrix(h)
    vals, vecs = np.linalg.eigh(0.5 * (k_op + k_op.conj().T))
    if np.any(np.diff(vals) <= SPECTRAL_GAP * max(max_abs(vals), 1.0)):
        raise _Retry
    # per eigenvector u = s e_ij / sqrt(m): lambda_i, lambda_j and Tr(u)
    row_vals = np.einsum("ai,ai->i", vecs.conj(), left @ vecs).real
    col_vals = (vals - row_vals) / _RIGHT_WEIGHT
    traces = on.regular_trace_vector() @ vecs
    diag = np.flatnonzero(np.abs(traces) > 0.5)
    diag = diag[np.argsort(row_vals[diag])]
    k = len(diag)
    # (i, j) of each eigenvector: its nearest sorted lambda_i and lambda_j
    cuts = 0.5 * (row_vals[diag][1:] + row_vals[diag][:-1])
    where = np.full(k * k, -1)
    where[np.searchsorted(cuts, row_vals) * k + np.searchsorted(cuts, col_vals)] = np.arange(d)
    held = (where >= 0).reshape(k, k)
    first = held.argmax(axis=1)  # the classes of i ~ j must be full squares
    if np.count_nonzero(held) != d or \
            not np.array_equal(held, first[:, None] == first[None, :]):
        raise _Retry

    firsts, sizes = np.unique(first, return_counts=True)
    order = np.lexsort((firsts, -sizes))
    units = []
    for f, m in zip(firsts[order], sizes[order]):
        j = where[f * k + f]
        e00 = np.conj(traces[j]) * vecs[:, j]
        # e_k0 = sqrt(m) u_k0, then e_kl = e_k0 e_0l
        below = np.flatnonzero(first == f)[1:] * k + f
        isometries = np.vstack([e00, np.sqrt(m) * vecs[:, where[below]].T])
        units.append(isometries if m == 1 else
                     on.pairwise(isometries, on.star(isometries)).reshape(m * m, d))
    return units, [int(m) for m in sizes[order]]


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
