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
``streamed_residual`` compares only the entries where either side is
nonzero, with a result bit-identical to a sweep over every entry.
``box_slabs`` carries this from the contracted index to the output axes: a
sweep whose rows mark where each output axis can be nonzero builds both
sides only on boxes of those marks.  ``SparseJoin`` and ``joined_slabs`` go
to the entries themselves: a side given as products of two lists of
nonzero entries is formed term by term and summed per output entry, so its
cost is the number of nonzero terms, counted exactly before any is formed;
the entries no term reaches are exact zeros on both sides, which the fold
skips anyway.

Factorizations skip exact zeros too (:class:`SupportSVD`, behind
``numeric_rank`` and ``null_space``).  Join row i and column j when
mat[i, j] is nonzero; the connected components of that bipartite graph
(the coarse Dulmage-Mendelsohn decomposition, Pothen and Fan, ACM TOMS 16,
1990) split the matrix into blocks, with every other entry an exact zero.
Proof that each block is factored alone: permuting rows and columns,
P mat Q = diag(B_1, ..., B_k, 0), where the trailing zero block holds the
zero rows and columns.  If B_c = U_c S_c V_c* then P mat Q =
diag(U_c) diag(S_c) diag(V_c)* with diag(U_c) and diag(V_c) unitary, so the
singular values of mat are the union of those of the B_c, plus zeros; its
kernel is the direct sum of the kernels of the B_c (on their columns) and
the unit vectors of the zero columns, as x lies in it iff B_c x_c = 0 for
every c; and its pseudo-inverse is Q diag(B_c^+, 0) P, whose defining
Penrose equations hold block by block.  No threshold decides what counts
as zero, and a rank cutoff stays relative to the largest singular value
over all blocks, so every rank decision is the dense one.
"""

import math
from functools import cached_property

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


class SparseJoin:
    """The index pairs ``(i, j)`` of two arrays of small non-negative integer
    keys with ``left[i] == right[j]``: the terms of a contraction over the
    key of two entry lists, as in Gustavson's sparse product (ACM TOMS 4,
    1978).  ``counts[i]``, the number of partners of ``left[i]``, is read off
    a bincount of the right keys, so :attr:`terms` is exact without a pair
    being formed.  ``lead`` holds the ascending leading output index of each
    left entry, by which :func:`joined_slabs` cuts its slabs."""

    def __init__(self, left: np.ndarray, right: np.ndarray, lead: np.ndarray):
        self.left, self.right, self.lead = left, right, lead
        self._per_key = np.bincount(right, minlength=int(left.max(initial=-1)) + 1)
        self.counts = self._per_key[left]

    @property
    def terms(self) -> int:
        return int(self.counts.sum())

    @cached_property
    def _ranked(self):
        """The right entries ordered by key, and where each key's run starts."""
        return (np.argsort(self.right, kind="stable"),
                np.cumsum(self._per_key) - self._per_key)

    def pairs(self, sl: slice = slice(None)):
        """``(i, j)`` for the left entries of the slice ``sl``, ordered by i
        and, for one i, by j."""
        order, run = self._ranked
        counts = self.counts[sl]
        starts = np.cumsum(counts) - counts
        i = np.repeat(np.arange(len(self.counts))[sl], counts)
        j = order[np.arange(int(counts.sum()))
                  + np.repeat(run[self.left[sl]] - starts, counts)]
        return i, j


def summed(keys: np.ndarray, values: np.ndarray):
    """``(keys, sums)``: the distinct keys ascending and the sum of the
    values at each, added in the order given."""
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    if first.all():
        return keys, values
    at, n = np.cumsum(first) - 1, int(first.sum())
    sums = np.empty(n, dtype=complex)
    sums.real = np.bincount(at, values.real, n)
    sums.imag = np.bincount(at, values.imag, n)
    return keys[first], sums


def joined_slabs(lhs, rhs):
    """Aligned 1-D ``(lhs, rhs)`` slabs of two sides given as sums of join
    terms, for :func:`streamed_residual`.  Each side is a pair ``(join,
    land)``: a :class:`SparseJoin` and ``land(i, j)``, the output keys and
    values of its terms at the pairs ``(i, j)``; a key lies in the leading
    index of its left entry, so two runs never share one.  Leading indices
    are taken in runs whose terms on both sides number at most ``_SLAB``
    (at least one index); per run each side's duplicate keys are summed
    (:func:`summed`) and the two sides are laid on the union of their keys,
    zero where a side has no term.  An output key held by neither side is
    an exact zero on both, which the fold skips anyway, so the residual is
    the one over every entry.  As a generator."""
    joins = [join for join, _ in (lhs, rhs)]
    n = max((int(join.lead[-1]) + 1 for join in joins if len(join.lead)), default=0)
    per_lead = sum(np.bincount(join.lead, join.counts, n) for join in joins)
    ends = np.cumsum(per_lead)
    start = 0
    while start < n:
        spent = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, spent + _SLAB, side="right")))
        sides = []
        for join, land in (lhs, rhs):
            sl = slice(*np.searchsorted(join.lead, (start, stop)))
            sides.append(summed(*land(*join.pairs(sl))))
        start = stop
        keys = np.union1d(sides[0][0], sides[1][0])
        if len(keys):
            out = np.zeros((2, len(keys)), dtype=complex)
            for row, (at, values) in zip(out, sides):
                row[np.searchsorted(keys, at)] = values
            yield out[0], out[1]


def reach(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The bool matrix product of ``f`` and ``g``: i reaches k when f[i, j]
    and g[j, k] for some j.  The terms are counted in single precision: a
    sum of ones and zeros is positive exactly when one term is."""
    return (np.asarray(f, dtype=np.float32) @ np.asarray(g, dtype=np.float32)) > 0


def streamed_residual(pairs) -> float:
    """Max-abs deviation between two arrays given as ``(lhs, rhs)`` slab
    pairs, relative to the largest operand entry (floored at 1 so near-zero
    comparisons are absolute).

    Only the three maxima |lhs|, |rhs| and |lhs - rhs| are kept from slab to
    slab, so a row that yields its operands slab by slab never holds them
    whole.  ``rhs`` broadcasts against ``lhs``.  Only the entries where
    ``lhs`` or ``rhs`` is nonzero are compared, and a slab without one is
    skipped: where both sides are exact zeros, |lhs|, |rhs| and |lhs - rhs|
    are all 0, which no maximum (each starts at 0) can take from, so the
    result is bit-identical to comparing every entry.  An inf or NaN counts
    as nonzero and propagates; a -0.0 counts as zero and adds 0 either way."""
    peaks = [(0.0, 0.0, 0.0)]
    top = np.maximum.reduce
    for lhs, rhs in pairs:
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
        peaks.append((top(np.abs(lhs), axis=None), top(np.abs(rhs), axis=None),
                      top(np.abs(lhs - rhs), axis=None)))
    top_lhs, top_rhs, top_diff = np.max(peaks, axis=0)
    return float(top_diff / max(top_lhs, top_rhs, 1.0))


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


def _column_roots(rows: np.ndarray, cols: np.ndarray, n: int):
    """``(col_root, row_root)``: the connected components of the n columns
    of a nonzero pattern given by its entries ``(rows, cols)`` in row-major
    order, two columns being joined when a row holds both.  Each column
    gets the least column of its component (a column with no entry keeps
    its own index), and each row holding an entry the root of its columns.
    Every round hooks the root of each column of a row onto the least root
    in that row and then jumps pointers until every column points at a
    root: a few whole-array passes per round, and no loop over rows,
    columns or components."""
    first = np.ones(len(rows), dtype=bool)  # the first entry of each row
    np.not_equal(rows[1:], rows[:-1], out=first[1:])
    starts, of_row = np.flatnonzero(first), np.cumsum(first) - 1
    label = np.arange(n)
    while True:
        at = label[cols]
        low = np.minimum.reduceat(at, starts)
        spread = low[of_row]
        if (at == spread).all():
            return label, low
        np.minimum.at(label, at, spread)
        while True:
            up = label[label]
            if (up == label).all():
                break
            label = up


def _component_indices(rows: np.ndarray, cols: np.ndarray, shape):
    """``(groups, zero_cols)`` for :class:`SupportSVD`: the connected
    components of the nonzero pattern with entries ``(rows, cols)`` (in
    row-major order) of an array of ``shape``, grouped by shape, each group
    a pair of index arrays (k, r) and (k, c) holding the ascending rows and
    columns of its k components of shape (r, c), and the columns that hold
    no nonzero.  A pattern with a row or column that meets every nonzero
    column or row is one component and is not labelled."""
    m, n = shape
    per_row, per_col = np.bincount(rows, minlength=m), np.bincount(cols, minlength=n)
    live_rows, live_cols = np.flatnonzero(per_row), np.flatnonzero(per_col)
    zero_cols = np.flatnonzero(per_col == 0)
    if not len(live_rows):
        return [], zero_cols
    if per_row.max() == len(live_cols) or per_col.max() == len(live_rows):
        return [(live_rows[None], live_cols[None])], zero_cols
    col_root, row_root = _column_roots(rows, cols, n)
    # components numbered by their least column
    number = np.cumsum((col_root == np.arange(n)) & (per_col > 0)) - 1
    row_comp, col_comp = number[row_root], number[col_root[live_cols]]
    heights, widths = np.bincount(row_comp), np.bincount(col_comp)
    # rows (columns) sorted by component, ascending within each
    row_order = live_rows[np.argsort(row_comp, kind="stable")]
    col_order = live_cols[np.argsort(col_comp, kind="stable")]
    row_start, col_start = np.cumsum(heights) - heights, np.cumsum(widths) - widths
    shape = heights * (n + 1) + widths
    by_shape = np.argsort(shape, kind="stable")
    groups = []
    for comps in np.split(by_shape, np.flatnonzero(np.diff(shape[by_shape])) + 1):
        groups.append((row_order[row_start[comps][:, None] + np.arange(heights[comps[0]])],
                       col_order[col_start[comps][:, None] + np.arange(widths[comps[0]])]))
    return groups, zero_cols


class SupportSVD:
    """Singular value decomposition of a matrix, one connected component of
    its nonzero pattern at a time.

    If the rows and columns of ``mat`` can be permuted to make it block
    diagonal, its singular values are the union of the blocks' singular
    values, its kernel is the sum of the blocks' kernels plus the unit
    vectors of its zero columns, and its pseudo-inverse is the block-wise
    one (module docstring).  The blocks are the components of the bipartite
    graph whose edges are the nonzero entries (the coarse Dulmage-Mendelsohn
    decomposition); zero rows belong to none.  Components of one shape are
    factored in one batched LAPACK call, and a 1 x 1 component a is read in
    closed form: singular value |a|, phase a/|a|.  A matrix of one component
    is factored whole, gathered only when it has a zero row or column.

    Every cutoff passed in is absolute; callers take it relative to
    :attr:`top`, the largest singular value over all components, so a rank
    decision is the one a dense SVD makes.  ``compute_uv=False`` keeps only
    the singular values (:meth:`rank` and :attr:`top`).  An inf or NaN
    raises ``LinAlgError``."""

    def __init__(self, mat: np.ndarray, compute_uv: bool = True):
        mat = np.asarray(mat, dtype=complex)
        self.shape = mat.shape
        # an inf or a NaN is nonzero, so it is among the entries read here
        rows, cols = np.divmod(np.flatnonzero(mat.astype(bool)), mat.shape[1])
        _finite(mat[rows, cols])
        groups, self.zero_cols = _component_indices(rows, cols, mat.shape)
        self.parts = []  # (rows, cols, u, s, vh), stacked over the group
        for rows, cols in groups:
            k, r = rows.shape
            c = cols.shape[1]
            if (r, c) == self.shape:
                blocks = mat[None]
            else:
                blocks = mat[rows[:, :, None], cols[:, None, :]]
            if r == c == 1:
                s = np.abs(blocks[:, 0])
                u, vh = blocks / s[:, :, None], np.ones_like(blocks)
            elif compute_uv:
                u, s, vh = np.linalg.svd(blocks, full_matrices=r < c)
            else:
                u, s, vh = None, np.linalg.svd(blocks, compute_uv=False), None
            self.parts.append((rows, cols, u, s, vh))
        self.top = max((float(s[:, 0].max()) for *_, s, _ in self.parts), default=0.0)

    def rank(self, cutoff: float) -> int:
        """Number of singular values above ``cutoff``."""
        return sum(int(np.count_nonzero(s > cutoff)) for *_, s, _ in self.parts)

    def kernel(self, cutoff: float) -> np.ndarray:
        """Orthonormal columns spanning the right singular vectors whose
        singular value is at most ``cutoff`` (zero past the last one), and
        the unit vectors of the zero columns: per component, the rows of its
        full right factor past its rank, conjugated and placed on its
        columns.  The columns have disjoint supports across components."""
        n = self.shape[1]
        pieces = [np.eye(n, dtype=complex)[:, self.zero_cols]]
        for _, cols, _, s, vh in self.parts:
            c = cols.shape[1]
            live = np.zeros((len(cols), c), dtype=bool)
            live[:, :s.shape[1]] = s > cutoff
            comp, row = np.nonzero(~live)
            piece = np.zeros((n, len(comp)), dtype=complex)
            piece[cols[comp], np.arange(len(comp))[:, None]] = vh[comp, row].conj()
            pieces.append(piece)
        return np.concatenate(pieces, axis=1)

    def _inverses(self, cutoff: float):
        """``(rows, cols, inverse)`` per group: the (k, c, r) pseudo-inverses
        V S^-1 U* of its components over the singular values above
        ``cutoff``."""
        for rows, cols, u, s, vh in self.parts:
            inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > cutoff)
            yield rows, cols, (vh[:, :s.shape[1]].conj().transpose(0, 2, 1) * inv[:, None, :]) \
                @ u.conj().transpose(0, 2, 1)

    def pinv(self, cutoff: float) -> np.ndarray:
        """The (n, m) pseudo-inverse over the singular values above
        ``cutoff``: each component's on its columns and rows, zero
        elsewhere."""
        out = np.zeros(self.shape[::-1], dtype=complex)
        for rows, cols, inverse in self._inverses(cutoff):
            out[cols[:, :, None], rows[:, None, :]] = inverse
        return out

    def solve(self, rhs: np.ndarray, cutoff: float) -> np.ndarray:
        """The least-norm least-squares solution of ``mat x = rhs`` over the
        singular values above ``cutoff`` (``rhs`` of shape (m,) or (m, q)):
        :meth:`pinv` applied component by component, with 0 on the zero
        columns."""
        rhs = np.asarray(rhs, dtype=complex)
        out = np.zeros((self.shape[1],) + rhs.shape[1:], dtype=complex)
        for rows, cols, inverse in self._inverses(cutoff):
            out[cols] = (inverse @ rhs[rows].reshape(rows.shape + (-1,))).reshape(
                cols.shape + rhs.shape[1:])
        return out


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
    singular vectors past the numerical rank, from the full right factor of
    each support component (:class:`SupportSVD`), and the unit vectors of
    the zero columns.

    The cutoff is floored at ``tol`` itself so an (almost) zero matrix has a
    full kernel; callers build these matrices from O(1)-normalized data.
    """
    svd = SupportSVD(mat)
    return svd.kernel(tol * max(svd.top, 1.0))


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
    """Number of singular values above ``tol`` times the largest, read one
    support component at a time (:class:`SupportSVD`)."""
    svd = SupportSVD(mat, compute_uv=False)
    return svd.rank(tol * svd.top)


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
