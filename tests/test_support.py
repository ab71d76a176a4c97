"""Contraction over the support: the product kernel, the d**4 axiom rows and
the rank test skip the exact zeros of their operands.  The kernel must equal
a dense per-block product on every zero pattern, an inf or NaN must still
propagate, and the support must come from the data, so a fault outside the
support of the unperturbed structure still fails every row that reads it."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakhopf import axioms
from weakhopf._linalg import numeric_rank, rel_residual
from weakhopf.actions import ActionData, verify_action
from weakhopf.multimatrix import MultiMatrixAlgebra
from weakhopf.reconstruct import StructureBundle, identity_suite

# many 1 x 1 blocks as well as larger ones, so runs of both kinds occur
SHAPES = st.lists(st.integers(1, 3), min_size=1, max_size=5)
SEEDS = st.integers(0, 2 ** 32 - 1)
PATTERNS = st.sampled_from(["zero", "full", "sparse", "dense"])
PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)


def _operand(rng, shape, pattern):
    """Random complex entries; ``sparse`` and ``dense`` zero about 80 % and
    20 % of them, ``zero`` all of them."""
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if pattern == "zero":
        return np.zeros(shape, dtype=complex)
    if pattern == "full":
        return vals
    keep = rng.random(shape) < (0.2 if pattern == "sparse" else 0.8)
    return np.where(keep, vals, 0)


def dense_block_product(alg, u, v):
    """sum_l u[i, l] v[l, j], block by block as full matrices."""
    a, k = u.shape[:2]
    c = v.shape[1]
    out = np.zeros((a, c, alg.dim), dtype=complex)
    for alpha, m in enumerate(alg.blocks):
        sl = alg.block_slice(alpha)
        for i in range(a):
            for j in range(c):
                block = sum((u[i, l, sl].reshape(m, m) @ v[l, j, sl].reshape(m, m)
                             for l in range(k)), np.zeros((m, m), dtype=complex))
                out[i, j, sl] = block.reshape(-1)
    return out


@PROPERTY
@given(SHAPES, SEEDS, PATTERNS, PATTERNS, st.integers(1, 4), st.integers(1, 3),
       st.integers(1, 3))
def test_matmul_vecs_equals_the_dense_block_product(blocks, seed, left, right, a, k, c):
    alg = MultiMatrixAlgebra(blocks)
    rng = np.random.default_rng(seed)
    u = _operand(rng, (a, k, alg.dim), left)
    v = _operand(rng, (k, c, alg.dim), right)
    expected = dense_block_product(alg, u, v)
    assert rel_residual(alg.matmul_vecs(u, v), expected) < 1e-13
    assert rel_residual(alg.pairwise_mul(u[:, 0], v[0]), dense_block_product(
        alg, u[:, :1], v[:1])) < 1e-13
    if left == "zero" or right == "zero":
        assert not alg.matmul_vecs(u, v).any()


@pytest.mark.parametrize("blocks", [[2], [1, 1, 1], [2, 1, 3]])
def test_nan_in_a_right_row_the_left_never_uses_propagates(blocks):
    # u has only first-row, first-column units, so its block columns past
    # the first are zero and never read on the support; the NaN sits in a
    # row of v that only those columns meet
    alg = MultiMatrixAlgebra(blocks)
    u = np.zeros((1, 1, alg.dim), dtype=complex)
    v = np.ones((1, 2, alg.dim), dtype=complex)
    for alpha, m in enumerate(blocks):
        u[0, 0, alg.basis_index(alpha, 0, 0)] = 1.0
        v[0, 1, alg.basis_index(alpha, m - 1, 0)] = np.nan
    for prod in (alg.matmul_vecs(u, v), alg.pairwise_mul(u[:, 0], v[0])):
        assert np.isnan(prod[0, 1]).any()
        assert not np.isnan(prod[0, 0]).any()


@PROPERTY
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 6), SEEDS)
def test_numeric_rank_ignores_zero_rows_and_columns(n, m, rank, seed):
    rng = np.random.default_rng(seed)
    rank = min(rank, n, m)
    mat = (rng.standard_normal((n, rank)) @ rng.standard_normal((rank, m))).astype(complex)
    padded = np.zeros((n + 3, m + 2), dtype=complex)
    rows = np.sort(rng.choice(n + 3, n, replace=False))
    cols = np.sort(rng.choice(m + 2, m, replace=False))
    padded[np.ix_(rows, cols)] = mat
    dense = np.linalg.svd(padded, compute_uv=False)
    expected = int(np.sum(dense > 1e-10 * dense[0])) if dense[0] > 0 else 0
    assert numeric_rank(padded) == expected == numeric_rank(mat)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_numeric_rank_rejects_non_finite_entries(bad):
    mat = np.zeros((4, 5), dtype=complex)
    mat[0, 0] = 1.0
    mat[2, 3] = bad
    with pytest.raises(np.linalg.LinAlgError):
        numeric_rank(mat)


def _bent_off_the_support(hopf, eps=1e-3):
    """The structure with eps written at Delta(u_0)[p, q] for a leg p and a
    leg q that Delta(u_0) does not use at all."""
    delta = hopf.delta
    p = np.flatnonzero(~(delta[0] != 0).any(axis=1))[0]
    q = np.flatnonzero(~(delta[0] != 0).any(axis=0))[0]
    bent = delta.copy()
    bent[0, p, q] = eps
    return hopf.copy_with(delta=bent)


def test_a_fault_off_the_coproduct_support_fails_every_row(get_tower, get_reconstruction):
    tower, rec = get_tower("z3"), get_reconstruction("z3")
    bent = _bent_off_the_support(rec.on_b.hopf)
    rep = identity_suite(tower, dataclasses.replace(
        rec, on_b=StructureBundle(bent, rec.on_b.index_element)))
    action = ActionData(bent, tower.sub_top.sub, tower.module_tensor)
    residuals = [axioms.coassociativity(bent), axioms.multiplicativity(bent),
                 rep["product against module elements"].residual,
                 rep["expectation comultiplicativity"].residual,
                 verify_action(action)["action multiplicative on products"].residual]
    assert all(1e-4 < r <= 2e-3 for r in residuals), residuals


def test_nan_off_the_module_support_gives_nan_rows(get_tower, get_reconstruction):
    tower, rec = get_tower("z3"), get_reconstruction("z3")
    tensor = tower.module_tensor.copy()
    tensor[tuple(np.argwhere(tensor == 0)[0])] = np.nan
    broken = dataclasses.replace(tower)
    broken.module_tensor = tensor  # shadows the cached property
    rep = identity_suite(broken, rec)
    for row in ("expectation comultiplicativity", "product against module elements"):
        assert math.isnan(rep[row].residual) and not rep[row].passed
