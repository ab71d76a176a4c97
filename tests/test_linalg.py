import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakhopf import _linalg
from weakhopf._linalg import (
    SparseJoin,
    SupportSVD,
    condition_number,
    joined_slabs,
    null_space,
    numeric_rank,
    orthonormal_columns,
    rel_residual,
    slabs,
    streamed_residual,
    support,
    support_matmul,
)


def with_entry(shape, value):
    mat = np.arange(np.prod(shape), dtype=complex).reshape(shape) / 7.0
    mat[shape[0] // 2, shape[1] // 2] = value
    return mat


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, -np.inf)])
@pytest.mark.parametrize("helper, shape", [
    (orthonormal_columns, (5, 3)),
    (numeric_rank, (5, 3)),
    (condition_number, (4, 4)),
    (null_space, (3, 5)),  # wide: full right factor
    (null_space, (5, 3)),  # tall: thin right factor
])
def test_non_finite_input_raises_linalg_error(helper, shape, value):
    with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
        helper(with_entry(shape, value))


def old_rel_residual(lhs, rhs):
    """The one-pass formula the slab sweep replaces."""
    lhs = np.asarray(lhs, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    scale = max(_linalg.max_abs(lhs), _linalg.max_abs(rhs), 1.0)
    if lhs.size == 0:
        return 0.0
    return float(np.max(np.abs(lhs - rhs)) / scale)


@pytest.mark.parametrize("place", ["first", "last", "middle"])
def test_rel_residual_matches_one_pass_formula_across_slabs(place):
    rng = np.random.default_rng(3)
    size = 2 * _linalg._SLAB + 17
    lhs = rng.normal(size=size) + 1j * rng.normal(size=size)
    rhs = lhs + 1e-9 * rng.normal(size=size)
    # the largest operand entry and the largest deviation sit in different slabs
    at = {"first": 0, "last": size - 1, "middle": _linalg._SLAB}[place]
    lhs[at] = 40.0
    rhs[(at + _linalg._SLAB + 5) % size] += 0.25j
    for a, b in [(lhs, rhs), (rhs, lhs), (lhs[::-1], rhs[::-1])]:
        assert rel_residual(a, b) == old_rel_residual(a, b)


def test_rel_residual_keeps_broadcasting_real_operands_and_floor():
    rng = np.random.default_rng(4)
    n = 300  # n * n spans two slabs
    mat = np.eye(n) + 1e-3 * rng.normal(size=(n, n))
    assert rel_residual(mat, np.eye(n)) == old_rel_residual(mat, np.eye(n))
    assert rel_residual(mat.T, np.eye(n)) == old_rel_residual(mat.T, np.eye(n))
    cube = rng.normal(size=(24,) * 4) + 1j * rng.normal(size=(24,) * 4)
    swapped = cube.transpose(1, 0, 3, 2)  # six slabs of four leading rows
    assert rel_residual(cube, swapped) == old_rel_residual(cube, swapped)
    row = rng.normal(size=n)
    assert rel_residual(mat, row) == old_rel_residual(mat, row)
    assert rel_residual(mat, 0.5) == old_rel_residual(mat, 0.5)
    assert rel_residual(2.0, [1.0, 2.0]) == old_rel_residual(2.0, [1.0, 2.0])
    assert rel_residual(np.zeros((0, 3)), np.zeros((0, 3))) == 0.0
    assert rel_residual([1e-3], [0.0]) == 1e-3  # scale floored at 1
    assert np.isnan(rel_residual([1.0, np.nan], [1.0, 1.0]))
    big = np.zeros(_linalg._SLAB + 1, dtype=complex)
    big[0] = np.nan  # a NaN in an early slab is not hidden by later ones
    assert np.isnan(rel_residual(big, 0.0))


def slab_pairs(lhs, rhs, rows):
    lhs, rhs = np.broadcast_arrays(np.asarray(lhs, dtype=complex), rhs)
    return ((lhs[i:i + rows], rhs[i:i + rows]) for i in range(0, len(lhs), rows))


def test_streamed_residual_of_no_pairs_is_zero():
    assert streamed_residual(iter(())) == 0.0
    assert streamed_residual([(np.zeros((0, 3)), np.zeros((0, 3)))]) == 0.0


def test_streamed_residual_propagates_a_nan_in_the_last_slab():
    lhs = np.ones((5, 4), dtype=complex)
    rhs = lhs.copy()
    rhs[-1, -1] = np.nan
    assert np.isnan(streamed_residual(slab_pairs(lhs, rhs, 2)))
    assert np.isnan(streamed_residual(slab_pairs(rhs, lhs, 2)))


def test_streamed_residual_matches_rel_residual_on_real_broadcast_transposed():
    rng = np.random.default_rng(5)
    mat = np.eye(40) + 1e-3 * rng.normal(size=(40, 40))
    cube = rng.normal(size=(6,) * 4) + 1j * rng.normal(size=(6,) * 4)
    row = rng.normal(size=40)
    for lhs, rhs in [(mat, np.eye(40)),                        # real
                     (mat, row), (mat, 0.5),                    # broadcast
                     (mat.T, mat), (cube, cube.transpose(1, 0, 3, 2))]:  # transposed
        for rows in (1, 3, len(lhs)):
            assert streamed_residual(slab_pairs(lhs, rhs, rows)) == rel_residual(lhs, rhs)


def test_streamed_residual_keeps_the_floor_of_one_on_the_scale():
    assert streamed_residual([(np.array([1e-3]), np.array([0.0]))]) == 1e-3
    assert streamed_residual(slab_pairs([4.0, 1.0], [2.0, 1.0], 1)) == 0.5


def test_slabs_read_the_slab_size_at_call_time(monkeypatch):
    assert slabs(10, 3) == [slice(0, _linalg._SLAB // 3)]
    monkeypatch.setattr(_linalg, "_SLAB", 7)
    assert slabs(10, 3) == [slice(0, 2), slice(2, 4), slice(4, 6), slice(6, 8),
                            slice(8, 10)]
    assert slabs(2, 100) == [slice(0, 1), slice(1, 2)]  # at least one row per slab
    assert slabs(0, 3) == []


def test_streamed_residual_folds_each_comparison_on_its_own():
    # comparisons of different scales, folded in slabs of any height, give
    # the residual of the whole arrays; the pairs may come from a generator
    rng = np.random.default_rng(6)
    mat = np.eye(40) + 1e-3 * rng.normal(size=(40, 40))
    for lhs, rhs in [(mat, np.eye(40)), (100 * mat.T, 100 * mat), (1e-3 * mat, 0.0)]:
        rhs = np.broadcast_to(rhs, lhs.shape)
        for step in (1, 7, 40):
            assert streamed_residual((lhs[i:i + step], rhs[i:i + step])
                                     for i in range(0, 40, step)) == rel_residual(lhs, rhs)


# one entry per row: which of them hold a nonzero
ENTRIES = [(0.0, False), (-0.0, False), (complex(-0.0, -0.0), False),
           (np.nan, True), (np.inf, True), (-np.inf, True),
           (complex(0, np.nan), True), (complex(0, -np.inf), True),
           (1j, True), (-1e-300j, True), (5e-324, True), (-2.0, True)]


def test_support_counts_every_entry_but_a_signed_zero_as_nonzero():
    column = np.array([[value] for value, _ in ENTRIES], dtype=complex)
    held = [i for i, (_, nonzero) in enumerate(ENTRIES) if nonzero]
    rows, cols = support(column, 0, 1)
    assert rows.tolist() == held and cols.tolist() == [0]
    real = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 0.0])
    assert support(real, 0)[0].tolist() == [2, 3, 4, 5]
    # the row set of a product contracted over the support
    a = np.zeros((len(ENTRIES), 3), dtype=complex)
    a[:, 1] = column[:, 0]
    with np.errstate(invalid="ignore"):
        rows, prod = support_matmul(a, np.ones((3, 2)), finite=True)
        plain = a @ np.ones((3, 2))
    assert rows.tolist() == held
    assert np.array_equal(prod, plain[held], equal_nan=True)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(1, 8), st.integers(0, 8),
       st.sampled_from(["complex", "binary"]), st.integers(0, 2 ** 32 - 1))
def test_null_space_has_the_kernel_dimension_of_matrix_rank(m, n, r, kind, seed):
    # wide, square and tall, of full or lower rank: the kernel has
    # n - rank orthonormal columns that the matrix kills
    rng = np.random.default_rng(seed)
    if kind == "binary":
        mat = rng.integers(0, 2, (m, n)).astype(complex)
    else:
        def draw(rows, cols):
            return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        mat = draw(m, r) @ draw(r, n)
    ker = null_space(mat)
    assert ker.shape == (n, n - np.linalg.matrix_rank(mat))
    assert np.allclose(ker.conj().T @ ker, np.eye(ker.shape[1]), atol=1e-12)
    assert np.abs(mat @ ker).max(initial=0.0) < 1e-10 * max(np.abs(mat).max(initial=0.0), 1.0)


# -- factorizations over support components ----------------------------------

CUT_TOL = 1e-6  # cutoff relative to the largest singular value
TOP = 10.0  # the largest singular value when a near-cutoff block is drawn


def dense_kernel(mat, cutoff):
    """The kernel the dense SVD gives (the full right factor of a wide
    matrix), past the singular values above ``cutoff``."""
    _, s, vh = np.linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])
    return vh[int(np.sum(s > cutoff)):].conj().T


def draw_block(rng, r, c, kind):
    """A dense (r, c) block: random with entries about 0.1, of rank one, or
    with singular values TOP and CUT_TOL * TOP (1 +- 1e-2), straddling the
    global cutoff inside one component.  Their gap, 2e-7 of TOP, bounds how
    well either SVD resolves their singular vectors (to about 5e-9), hence
    the 1e-7 tolerances of :func:`assert_matches_dense`."""
    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if kind == "rank1":
        return 0.1 * gauss(r, 1) @ gauss(1, c)
    if kind == "random":
        return 0.1 * gauss(r, c)
    if kind == "tiny":
        # below the global cutoff when a near-cutoff block is drawn, far
        # above a cutoff taken from this component alone
        q = np.linalg.qr(gauss(max(r, c), min(r, c)))[0]
        return 0.5 * CUT_TOL * TOP * (q if r >= c else q.T)
    k = min(r, c)
    values = [TOP, CUT_TOL * TOP * (1 + 1e-2), CUT_TOL * TOP * (1 - 1e-2)]
    values = (values + list(rng.uniform(0.1, 1.0, k)))[:k]
    u = np.linalg.qr(gauss(r, r))[0][:, :k]
    v = np.linalg.qr(gauss(c, c))[0][:, :k]
    return (u * values) @ v.conj().T


def permuted_blocks(rng, specs, zero_rows, zero_cols):
    """The blocks of ``specs`` down the diagonal, then zero rows and
    columns, with rows and columns shuffled."""
    blocks = [draw_block(rng, r, c, kind) for r, c, kind in specs]
    m = sum(b.shape[0] for b in blocks) + zero_rows
    n = sum(b.shape[1] for b in blocks) + zero_cols
    mat = np.zeros((m, n), dtype=complex)
    i = j = 0
    for b in blocks:
        mat[i:i + b.shape[0], j:j + b.shape[1]] = b
        i, j = i + b.shape[0], j + b.shape[1]
    return mat[rng.permutation(m)][:, rng.permutation(n)]


def assert_matches_dense(mat, rng):
    """Rank, kernel, pseudo-inverse and least-squares solution of
    :class:`SupportSVD` against one dense SVD, at the cutoff CUT_TOL of the
    largest singular value, and the two public wrappers likewise."""
    m, n = mat.shape
    s = np.linalg.svd(mat, compute_uv=False)
    top = float(s[0]) if s.size else 0.0
    cutoff = CUT_TOL * top
    rank = int(np.sum(s > cutoff))
    svd = SupportSVD(mat)
    assert abs(svd.top - top) <= 1e-12 * max(top, 1.0)
    assert svd.rank(cutoff) == rank == SupportSVD(mat, compute_uv=False).rank(cutoff)
    assert numeric_rank(mat, CUT_TOL) == rank
    ker = svd.kernel(cutoff)
    assert ker.shape == (n, n - rank)
    assert np.allclose(ker.conj().T @ ker, np.eye(n - rank), atol=1e-12)
    ref = dense_kernel(mat, cutoff)
    assert np.allclose(ker @ ker.conj().T, ref @ ref.conj().T, atol=1e-7)
    floored = null_space(mat, CUT_TOL)
    assert floored.shape[1] == n - int(np.sum(s > CUT_TOL * max(top, 1.0)))
    pinv = np.linalg.pinv(mat, rcond=CUT_TOL) if mat.size else np.zeros((n, m))
    scale = max(np.abs(pinv).max(initial=0.0), 1.0)
    assert np.abs(svd.pinv(cutoff) - pinv).max(initial=0.0) <= 1e-7 * scale
    rhs = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
    assert np.abs(svd.solve(rhs, cutoff) - pinv @ rhs).max(initial=0.0) <= 1e-7 * scale
    assert np.abs(svd.solve(rhs[:, 0], cutoff) - pinv @ rhs[:, 0]).max(initial=0.0) \
        <= 1e-7 * scale


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4),
                          st.sampled_from(["random", "rank1", "near", "tiny"])), max_size=5),
       st.integers(0, 3), st.integers(0, 2), st.integers(0, 2),
       st.integers(0, 2 ** 32 - 1))
def test_support_svd_matches_the_dense_svd(specs, ones, zero_rows, zero_cols, seed):
    # block matrices up to row and column permutation, with 1 x 1
    # components, zero rows and columns, and singular values either side of
    # the cutoff inside one component
    rng = np.random.default_rng(seed)
    specs = specs + [(1, 1, "random")] * ones
    assert_matches_dense(permuted_blocks(rng, specs, zero_rows, zero_cols), rng)


@pytest.mark.parametrize("specs, shapes", [
    ([(2, 3, "random"), (1, 1, "random"), (2, 3, "rank1"), (3, 1, "random")],
     [((1, 1), (1, 1)), ((1, 3), (1, 1)), ((2, 2), (2, 3))]),
    # a row meeting all nonzero columns but one is not one component
    ([(2, 3, "random"), (1, 1, "random")], [((1, 1), (1, 1)), ((1, 2), (1, 3))]),
])
def test_support_components_are_the_blocks_up_to_permutation(specs, shapes):
    rng = np.random.default_rng(3)
    mat = permuted_blocks(rng, specs, zero_rows=1, zero_cols=2)
    svd = SupportSVD(mat)
    groups = [(rows, cols) for rows, cols, *_ in svd.parts]
    assert sorted((rows.shape, cols.shape) for rows, cols in groups) == shapes
    assert len(svd.zero_cols) == 2
    for rows, cols in groups:
        # a component holds every nonzero of its rows and of its columns
        for r, c in zip(rows, cols):
            assert np.array_equal(mat[r].astype(bool).any(axis=0),
                                  np.isin(np.arange(mat.shape[1]), c))
            assert np.array_equal(mat[:, c].astype(bool).any(axis=1),
                                  np.isin(np.arange(mat.shape[0]), r))


@pytest.mark.parametrize("seed", range(4))
def test_one_nonzero_joining_two_components_gives_the_dense_answer(seed):
    # two rank-deficient blocks, then one entry coupling a row of the first
    # to a column of the second: one component, and the dense rank, kernel
    # and pseudo-inverse
    rng = np.random.default_rng(seed)
    mat = permuted_blocks(rng, [(3, 4, "rank1"), (4, 3, "near")], 0, 0)
    parts = SupportSVD(mat).parts
    assert len(parts) == 2 and all(len(rows) == 1 for rows, *_ in parts)
    (first_rows, *_), (_, second_cols, *_) = sorted(parts, key=lambda part: part[0].shape)
    mat[first_rows[0, 0], second_cols[0, 0]] = 0.3
    assert [rows.shape for rows, *_ in SupportSVD(mat).parts] == [(1, 7)]
    assert_matches_dense(mat, rng)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("helper", [numeric_rank, null_space, SupportSVD])
def test_non_finite_entry_of_one_component_raises(helper, value):
    # a block matrix with many components: the check precedes the split
    mat = permuted_blocks(np.random.default_rng(1), [(2, 2, "random")] * 3 + [(1, 1, "random")],
                          1, 1)
    mat[np.nonzero(mat)[0][4], np.nonzero(mat)[1][4]] = value
    with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
        helper(mat)


# -- the sparse join ----------------------------------------------------------


@st.composite
def matrix_products(draw):
    """Two pairs of (rows, inner) and (inner, cols) Gaussian-integer
    matrices, any size zero, with a drawn share of nonzeros and -0.0 in
    either part of about half of the zeros; and a slab size."""
    rows, inner, cols = (draw(st.integers(0, 6)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.sampled_from([0.0, 0.2, 0.6, 1.0]))

    def sparse(shape):
        vals = rng.integers(-2, 3, shape) + 1j * rng.integers(-2, 3, shape)
        zeros = np.zeros(shape, dtype=complex)
        zeros.real[rng.random(shape) < 0.5] = -0.0
        zeros.imag[rng.random(shape) < 0.5] = -0.0
        return np.where(rng.random(shape) < density, vals, zeros)
    ops = [sparse(shape) for shape in ((rows, inner), (inner, cols)) * 2]
    return ops, draw(st.sampled_from([1, 2, 5, 64]))


def product_side(a, b, leads):
    """a @ b as a join over the inner index, landing (i, j) at i * cols + j;
    the leading indices of every call to its land are recorded."""
    (i, k), (m, j) = np.nonzero(a), np.nonzero(b)
    va, vb = a[i, k], b[m, j]

    def land(l, r):
        leads.append(i[l])
        return i[l] * b.shape[1] + j[r], va[l] * vb[r]
    return SparseJoin(k, m, i), land


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(matrix_products())
def test_joined_slabs_equal_the_dense_product_residual(case):
    # Gaussian-integer entries make every sum exact, so the join, its term
    # count, its slabs and the residual they fold all equal the dense ones
    (a, b, c, e), slab = case
    leads = [[], []]
    sides = [product_side(x, y, at) for x, y, at in ((a, b, leads[0]), (c, e, leads[1]))]
    for (join, _), (x, y) in zip(sides, ((a, b), (c, e))):
        nz_x, nz_y = x != 0, y != 0
        assert join.terms == int((nz_x.sum(axis=0) * nz_y.sum(axis=1)).sum())
        i, r = join.pairs()
        assert np.array_equal(join.left[i], join.right[r])
        assert np.all(np.diff(i) >= 0) and len(np.unique(np.stack([i, r]), axis=1)[0]) == len(i)
    default, _linalg._SLAB = _linalg._SLAB, slab
    try:
        pairs = list(joined_slabs(*sides))
    finally:
        _linalg._SLAB = default
    lhs, rhs = a @ b, c @ e
    assert streamed_residual(pairs) == rel_residual(lhs, rhs)
    # the aligned entries are the dense ones where either side has a term
    def parts(values):
        return sorted((p.real, p.imag, q.real, q.imag) for p, q in values if p != 0 or q != 0)
    live = (lhs != 0) | (rhs != 0)
    assert parts(pair for l, r in pairs for pair in zip(l, r)) == \
        parts(zip(lhs[live], rhs[live]))
    # each slab holds whole leading indices, in ascending runs, and at most
    # the slab size in terms unless it holds one leading index
    runs = [np.concatenate([lhs_at, rhs_at]) for lhs_at, rhs_at in zip(*leads)]
    for before, after in zip(runs, runs[1:]):
        if len(before) and len(after):
            assert before.max() < after.min()
    for run in runs:
        assert len(run) <= slab or len(np.unique(run)) == 1


def test_sparse_join_of_empty_entry_lists_forms_nothing():
    empty = np.zeros(0, dtype=int)
    join = SparseJoin(empty, np.array([0, 1]), empty)
    assert join.terms == 0 and all(len(at) == 0 for at in join.pairs())
    join = SparseJoin(np.array([2, 0]), empty, np.array([0, 1]))
    assert join.terms == 0 and list(join.counts) == [0, 0]

    def land(i, j):
        return i, np.ones(len(i), dtype=complex)
    assert list(joined_slabs((join, land), (join, land))) == []
