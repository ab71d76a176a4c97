"""Properties of the product kernel, of the tensor square built on it and
of the gathers that read functionals of products, over random block shapes
(one to three blocks of sizes one to three)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from weakhopf._linalg import rel_residual
from weakhopf.multimatrix import MultiMatrixAlgebra, TraceState

SHAPES = st.lists(st.integers(1, 3), min_size=1, max_size=3)
SEEDS = st.integers(0, 2 ** 32 - 1)
PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)


def _elements(rng, count, dim):
    return rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))


@PROPERTY
@given(SHAPES, SEEDS)
def test_product_form_evaluates_the_product(blocks, seed):
    alg = MultiMatrixAlgebra(blocks)
    f, x, y = _elements(np.random.default_rng(seed), 3, alg.dim)
    assert np.isclose(x @ alg.unit_products(f) @ y, f @ alg.mul_vecs(x, y),
                      rtol=1e-12, atol=1e-12)


@PROPERTY
@given(SHAPES, SEEDS)
def test_trace_product_values_evaluate_the_product(blocks, seed):
    # tau(x y) over row stacks, read through adjoint_index, against the
    # products themselves and against the dense trace form tau(u_p u_c)
    alg = MultiMatrixAlgebra(blocks)
    rng = np.random.default_rng(seed)
    trace = TraceState(alg, rng.uniform(0.1, 1.0, len(blocks)))
    xs, ys = _elements(rng, 3, alg.dim), _elements(rng, 2, alg.dim)
    values = trace.product_values(xs, ys)
    assert values.shape == (3, 2)
    assert rel_residual(values, trace.values(alg.mul_vecs(xs[:, None], ys[None]))) < 1e-12
    dense = alg.unit_products(trace.coefficient_weights)
    assert rel_residual(values, xs @ dense @ ys.T) < 1e-14


@PROPERTY
@given(SHAPES, SEEDS)
def test_tensor_square_multiplies_elementary_tensors_legwise(blocks, seed):
    alg = MultiMatrixAlgebra(blocks)
    square, index = alg.tensor_square
    assert square.dim == alg.dim ** 2
    assert sorted(index.ravel()) == list(range(square.dim))
    x, y, z, w = _elements(np.random.default_rng(seed), 4, alg.dim)

    def tensor(a, b):
        out = np.empty(square.dim, dtype=complex)
        out[index] = np.outer(a, b)
        return out

    product = square.mul_vecs(tensor(x, y), tensor(z, w))
    assert rel_residual(product, tensor(alg.mul_vecs(x, z), alg.mul_vecs(y, w))) < 1e-12
    assert rel_residual(product[index], np.outer(alg.mul_vecs(x, z),
                                                 alg.mul_vecs(y, w))) < 1e-12


@PROPERTY
@given(SHAPES, SEEDS, st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
def test_matmul_vecs_sums_products_over_the_inner_index(blocks, seed, a, k, c):
    alg = MultiMatrixAlgebra(blocks)
    rng = np.random.default_rng(seed)
    u = _elements(rng, a * k, alg.dim).reshape(a, k, alg.dim)
    v = _elements(rng, k * c, alg.dim).reshape(k, c, alg.dim)
    expected = sum(alg.mul_vecs(u[:, l, None, :], v[None, l, :, :]) for l in range(k))
    assert rel_residual(alg.matmul_vecs(u, v), expected) < 1e-12
    assert rel_residual(alg.pairwise_mul(u[:, 0], v[0]),
                        alg.mul_vecs(u[:, 0, None, :], v[None, 0])) < 1e-12


@PROPERTY
@given(SHAPES, SEEDS, st.integers(1, 5), st.integers(1, 3))
def test_pairwise_mul_slabs_match_pairwise_mul(blocks, seed, a, c):
    alg = MultiMatrixAlgebra(blocks)
    rng = np.random.default_rng(seed)
    u, v = _elements(rng, a, alg.dim), _elements(rng, c, alg.dim)
    rows = [slice(i, i + 2) for i in range(0, a, 2)]
    products = list(alg.pairwise_mul_slabs(u, v, rows))
    assert len(products) == len(rows)
    for sl, prod in zip(rows, products):
        assert np.array_equal(prod, alg.pairwise_mul(u[sl], v))


@PROPERTY
@given(SHAPES)
def test_adjoint_index_permutes_the_units(blocks):
    alg = MultiMatrixAlgebra(blocks)
    eye = np.eye(alg.dim, dtype=complex)
    assert np.array_equal(eye[alg.adjoint_index], alg.adjoint_vecs(eye))


def _kron_blocks(alg, vec, left):
    """The per-block np.kron construction of the multiplication matrices."""
    mat = np.zeros((alg.dim, alg.dim), dtype=complex)
    for alpha, m in enumerate(alg.blocks):
        sl = alg.block_slice(alpha)
        a = vec[sl].reshape(m, m)
        mat[sl, sl] = np.kron(a, np.eye(m)) if left else np.kron(np.eye(m), a.T)
    return mat


@PROPERTY
@given(SHAPES, SEEDS)
def test_multiplication_matrices_match_the_per_block_kron(blocks, seed):
    alg = MultiMatrixAlgebra(blocks)
    x, y = _elements(np.random.default_rng(seed), 2, alg.dim)
    assert np.array_equal(alg.left_mult_matrix(x), _kron_blocks(alg, x, left=True))
    assert np.array_equal(alg.right_mult_matrix(x), _kron_blocks(alg, x, left=False))
    assert rel_residual(alg.left_mult_matrix(x) @ y, alg.mul_vecs(x, y)) < 1e-12
    assert rel_residual(alg.right_mult_matrix(x) @ y, alg.mul_vecs(y, x)) < 1e-12


@PROPERTY
@given(SHAPES, SEEDS)
def test_unit_products_gather_the_product_table(blocks, seed):
    alg = MultiMatrixAlgebra(blocks)
    assert np.array_equal(alg.unit_products(np.eye(alg.dim, dtype=complex)),
                          alg.mult_tensor)
    images = _elements(np.random.default_rng(seed), alg.dim, 2 * alg.dim) \
        .reshape(alg.dim, 2, alg.dim)
    rows = slice(1, None, 2)
    assert np.array_equal(alg.unit_products(images, rows),
                          np.einsum("ijk,kab->ijab", alg.mult_tensor[rows], images))


def _per_block_tables(alg, u):
    """The per-block loops that the run-wise tables replaced: product_index,
    adjoint_index, the adjoints of the rows of ``u`` and the unit."""
    products = np.full((alg.dim, alg.dim), -1)
    adjoints = np.empty(alg.dim, dtype=int)
    starred = np.empty_like(u)
    unit = np.zeros(alg.dim, dtype=complex)
    for alpha, m in enumerate(alg.blocks):
        sl = alg.block_slice(alpha)
        r, c, l = np.indices((m, m, m))
        products[sl.start + r * m + c, sl.start + c * m + l] = sl.start + r * m + l
        adjoints[sl] = sl.start + np.arange(m * m).reshape(m, m).T.reshape(-1)
        starred[:, sl] = np.conj(np.swapaxes(u[:, sl].reshape(-1, m, m), -1, -2)) \
            .reshape(-1, m * m)
        unit[sl] = np.eye(m).reshape(-1)
    return products, adjoints, starred, unit


@PROPERTY
@given(st.lists(st.integers(1, 3), min_size=1, max_size=6), SEEDS)
def test_run_wise_tables_match_the_per_block_loops(blocks, seed):
    # up to six blocks, so that runs of equal blocks are common
    alg = MultiMatrixAlgebra(blocks)
    u = _elements(np.random.default_rng(seed), 3, alg.dim)
    products, adjoints, starred, unit = _per_block_tables(alg, u)
    assert np.array_equal(alg.product_index, products)
    assert np.array_equal(alg.adjoint_index, adjoints)
    assert np.array_equal(alg.adjoint_vecs(u), starred)
    assert np.array_equal(alg.unit().vec, unit)
