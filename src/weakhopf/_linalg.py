"""Dense linear-algebra helpers shared by the workbench modules.

Everything here works on plain complex ndarrays; subspaces are represented
by matrices whose *columns* span them.  Factorizations use ``numpy.linalg``
(LAPACK ``gesdd`` for the SVD, ``heevd`` for ``eigh``); an inf or NaN in
their input raises ``numpy.linalg.LinAlgError``.

No projector or intersection of two spans is built here.  Membership in a
subalgebra image is the embedding's back-substitution residual
(``multimatrix.SubalgebraEmbedding.outside``), and membership in a Cartan
subalgebra B_t or B_s is being fixed by its counital map, an idempotent: the
elements of a span lying in B_t are ``null_space`` of (eps_t - 1) applied to
a basis of the span.  ``residual_outside`` serves only spans that are not
yet a subalgebra (the closure checks of ``subalgebra_from_basis``).

``support`` and ``support_matmul`` let a contraction skip the exact zeros of
an operand, which data built from matrix units is mostly made of; no
threshold decides what counts as zero.  Comparisons skip them too: an entry
that is an exact zero on both sides of a residual adds 0 to each of the
three maxima |lhs|, |rhs| and |lhs - rhs| the residual keeps, so
``streamed_residuals`` compares only the entries where either side is
nonzero, with a result bit-identical to a sweep over every entry.
``box_slabs`` carries this from the contracted index to the output axes: a
sweep whose rows mark where each output axis can be nonzero builds both
sides only on boxes of those marks.
"""

import math

import numpy as np

# entries per slab when a residual is reduced slab by slab (1 MiB of complex)
_SLAB = 1 << 16


def max_abs(a) -> float:
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def read_only(a) -> np.ndarray:
    """A read-only complex view of ``a`` (``a`` itself when it already is
    one): writing through it raises."""
    a = np.asarray(a, dtype=complex)
    if not a.flags.writeable:
        return a
    view = a.view()
    view.flags.writeable = False
    return view


def slabs(n: int, per_row: int) -> list[slice]:
    """Slices of ``range(n)`` holding about ``_SLAB`` entries each, for rows
    of ``per_row`` entries (at least one row per slice)."""
    rows = max(1, _SLAB // max(per_row, 1))
    return [slice(i, i + rows) for i in range(0, n, rows)]


def box_slabs(masks, *operands, width: int = 1):
    """Boxes ``(rows, axes)`` covering the True entries of ``masks``: one
    bool (n, length) matrix per output axis of a sweep over n leading
    indices, row i marking the indices at which the i-th can be nonzero.  A
    box is a slice of consecutive rows and, per axis, the union of their
    marked indices, holding about ``_SLAB`` entries of ``width`` each (at
    least one row), as a generator.  An axis whose union is every index
    gives ``slice(None)``, so a full box is a plain slice and gathers
    nothing; a box with an empty axis holds only exact zeros and is not
    yielded.  If one of ``operands`` holds an inf or NaN, every box is
    full, so it propagates as in a sweep over every entry."""
    masks = [np.asarray(m, dtype=bool) for m in masks]
    if not all(np.isfinite(a).all() for a in operands):
        masks = [np.ones_like(m) for m in masks]
    n = len(masks[0])
    unions = [m.any(axis=0) for m in masks]
    # a sweep whose marks all fit in one slab is one box, read off at once
    boxes = ([(slice(0, n), unions)]
             if n * width * math.prod(int(u.sum()) for u in unions) <= _SLAB
             else _grown_boxes(masks, width))
    for rows, marks in boxes:
        if all(u.any() for u in marks):
            yield rows, [slice(None) if u.all() else u.nonzero()[0] for u in marks]


def _grown_boxes(masks, width: int):
    """``(rows, unions)`` for :func:`box_slabs`: from each start row, the
    longest run of rows whose box stays within ``_SLAB`` entries (at least
    one row), with the union of its marks per axis."""
    n, start = len(masks[0]), 0
    while start < n:
        volume = width * math.prod(int(m[start].sum()) for m in masks)
        grown = [np.logical_or.accumulate(m[start:start + max(1, _SLAB // max(volume, 1))],
                                          axis=0) for m in masks]
        sizes = np.arange(1, len(grown[0]) + 1) * width
        for u in grown:
            sizes = sizes * u.sum(axis=1)
        stop = start + max(1, int(np.searchsorted(sizes, _SLAB, side="right")))
        yield slice(start, stop), [u[stop - start - 1] for u in grown]
        start = stop


def reach(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The bool matrix product of ``f`` and ``g``: i reaches k when f[i, j]
    and g[j, k] for some j (the terms are counted in floats)."""
    return (np.asarray(f, dtype=float) @ np.asarray(g, dtype=float)) > 0


def streamed_residual(pairs) -> float:
    """Max-abs deviation between two arrays given as ``(lhs, rhs)`` slab
    pairs, relative to the largest operand entry (floored at 1 so near-zero
    comparisons are absolute).

    Only the three maxima |lhs|, |rhs| and |lhs - rhs| are kept from slab to
    slab, so a row that yields its operands slab by slab never holds them
    whole.  ``rhs`` broadcasts against ``lhs``; a NaN in any slab propagates.
    """
    return streamed_residuals(((pair,) for pair in pairs), 1)[0]


def streamed_residuals(groups, rows: int) -> list[float]:
    """:func:`streamed_residual` of ``rows`` comparisons swept together:
    each item of ``groups`` holds one ``(lhs, rhs)`` slab pair per row, in
    row order, so slabs that share their inputs are built once.  A group may
    be a generator; its pairs are folded one at a time.

    Only the entries where ``lhs`` or ``rhs`` is nonzero are compared, and a
    slab without one is skipped: where both sides are exact zeros, |lhs|,
    |rhs| and |lhs - rhs| are all 0, which no maximum (each starts at 0)
    can take from.  So the result is bit-identical to comparing every
    entry.  An inf or NaN counts as nonzero and propagates; a -0.0 counts
    as zero and adds 0 either way.  A slab with every entry nonzero is
    compared as it is."""
    peaks = [[(0.0, 0.0, 0.0)] for _ in range(rows)]
    top = np.maximum.reduce
    for group in groups:
        for row, (lhs, rhs) in zip(peaks, group):
            lhs, rhs = np.asarray(lhs), np.asarray(rhs)
            if lhs.shape != rhs.shape:
                lhs, rhs = np.broadcast_arrays(lhs, rhs)
            live = lhs.astype(bool) | rhs.astype(bool)
            count = np.count_nonzero(live)
            if not count:
                continue
            if count < live.size:
                at = live.ravel().nonzero()[0]
                lhs, rhs = lhs.take(at), rhs.take(at)
            row.append((top(np.abs(lhs), axis=None), top(np.abs(rhs), axis=None),
                        top(np.abs(lhs - rhs), axis=None)))
    out = []
    for row in peaks:
        top_lhs, top_rhs, top_diff = np.max(row, axis=0)
        out.append(float(top_diff / max(top_lhs, top_rhs, 1.0)))
    return out


def rel_residual(lhs, rhs) -> float:
    """:func:`streamed_residual` of two whole arrays, swept in slabs along
    the leading axis.  ``rhs`` broadcasts against ``lhs``; slabs are views,
    so transposed operands are not copied."""
    lhs = np.atleast_1d(np.asarray(lhs, dtype=complex))
    rhs = np.asarray(rhs, dtype=complex)
    if lhs.size == 0:
        return 0.0
    if lhs.shape != rhs.shape:
        lhs, rhs = np.broadcast_arrays(lhs, rhs)
    return streamed_residual((lhs[sl], rhs[sl])
                             for sl in slabs(len(lhs), lhs.size // len(lhs)))


def _finite(mat: np.ndarray) -> np.ndarray:
    """``mat`` itself; an inf or NaN raises, as LAPACK returns NaNs for an inf."""
    if not np.isfinite(mat).all():
        raise np.linalg.LinAlgError("array must not contain infs or NaNs")
    return mat


def orthonormal_columns(vectors: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis (as columns) of the column span of ``vectors``."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=complex))
    if vectors.shape[1] == 0:
        return vectors
    u, s, _ = np.linalg.svd(_finite(vectors), full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((vectors.shape[0], 0), dtype=complex)
    rank = int(np.sum(s > tol * s[0]))
    return u[:, :rank]


def null_space(mat: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of ``mat``: the right
    singular vectors past the numerical rank, from the full right factor
    when ``mat`` is wide.

    The cutoff is floored at ``tol`` itself so an (almost) zero matrix has a
    full kernel; callers build these matrices from O(1)-normalized data.
    """
    mat = _finite(np.asarray(mat, dtype=complex))
    m, n = mat.shape
    _, s, vh = np.linalg.svd(mat, full_matrices=m < n)
    cutoff = tol * max(float(s[0]) if s.size else 0.0, 1.0)
    rank = int(np.sum(s > cutoff))
    return vh[rank:, :].conj().T


def support(a: np.ndarray, *axes: int) -> list[np.ndarray]:
    """For each of ``axes``, the indices along it at which ``a`` holds a
    nonzero entry (an inf, a NaN or an imaginary-only entry counts as
    nonzero, a -0.0 does not).  Dropping the other indices drops only exact
    zeros."""
    nz = np.asarray(a).astype(bool)
    return [np.flatnonzero(nz.any(axis=tuple(i for i in range(nz.ndim)
                                             if i != axis % nz.ndim)))
            for axis in axes]


def support_matmul(a: np.ndarray, b: np.ndarray, finite: bool):
    """``(rows, prod)``: the rows of ``a @ b`` (stacks of matrices in the
    last two axes) that can be nonzero, and ``prod = (a @ b)[..., rows, :]``
    contracted over the support of ``a``.  Only the columns of ``a`` holding
    a nonzero (in any matrix of the stack) are read, and only its rows
    holding one are computed; every other row of the product is an exact
    zero.  An ``a`` with full support, or a ``b`` that is not ``finite``,
    takes the plain product over every row, so an inf or NaN of ``b``
    propagates as it does there."""
    rows, cols = support(a, -2, -1)
    if not finite or (len(rows) == a.shape[-2] and len(cols) == a.shape[-1]):
        return np.arange(a.shape[-2]), a @ b
    return rows, a[..., rows[:, None], cols] @ b[..., cols, :]


def numeric_rank(mat: np.ndarray, tol: float = 1e-10) -> int:
    """Number of singular values above ``tol`` times the largest.  The SVD
    sees only the rows and columns holding a nonzero entry: deleting zero
    rows and columns leaves the nonzero singular values unchanged."""
    mat = _finite(np.asarray(mat, dtype=complex))
    if mat.size == 0:
        return 0
    mat = mat[np.ix_(*support(mat, 0, 1))]
    if mat.size == 0:
        return 0
    s = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(s > tol * s[0]))


def residual_outside(vectors: np.ndarray, q: np.ndarray) -> float:
    """Relative distance of the given column vectors from the span of the
    orthonormal columns ``q``."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=complex))
    if vectors.shape[1] == 0:
        return 0.0
    rest = vectors - q @ (q.conj().T @ vectors)
    return max_abs(rest) / max(max_abs(vectors), 1.0)


def condition_number(mat: np.ndarray) -> float:
    s = np.linalg.svd(_finite(np.asarray(mat, dtype=complex)), compute_uv=False)
    if s.size == 0 or s[-1] == 0.0:
        return np.inf
    return float(s[0] / s[-1])
