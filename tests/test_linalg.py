import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakhopf import _linalg
from weakhopf._linalg import (
    condition_number,
    null_space,
    numeric_rank,
    orthonormal_columns,
    rel_residual,
    slabs,
    streamed_residual,
    streamed_residuals,
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


def test_streamed_residuals_fold_each_row_on_its_own():
    # three rows of different scales swept together give the residual each
    # would give alone; a group may be a generator
    rng = np.random.default_rng(6)
    mat = np.eye(40) + 1e-3 * rng.normal(size=(40, 40))
    rows = [(mat, np.eye(40)), (100 * mat.T, 100 * mat), (1e-3 * mat, 0.0)]

    def groups(step):
        for i in range(0, 40, step):
            yield ((lhs[i:i + step], np.broadcast_to(rhs, lhs.shape)[i:i + step])
                   for lhs, rhs in rows)
    expected = [rel_residual(lhs, rhs) for lhs, rhs in rows]
    for step in (1, 7, 40):
        assert streamed_residuals(groups(step), 3) == expected
    assert streamed_residuals(iter(()), 2) == [0.0, 0.0]


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
