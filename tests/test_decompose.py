import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakhopf import decompose
from weakhopf._linalg import rel_residual
from weakhopf.decompose import (
    StructureAlgebra,
    _Retry,
    _split,
    _verify_units,
    decompose_structure_algebra,
)
from weakhopf.errors import InvariantViolation
from weakhopf.groups import symmetric
from weakhopf.multimatrix import MultiMatrixAlgebra
from weakhopf.weak_hopf import (
    canonical_involution_matrix,
    dual_algebra,
    group_algebra,
    pair_groupoid,
)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def canonical_structure(blocks):
    multi = MultiMatrixAlgebra(blocks)
    return multi, StructureAlgebra(multi.mult_tensor, multi.unit().vec,
                                   canonical_involution_matrix(multi))


def test_batched_operators_match_single_vector_einsums():
    rng = np.random.default_rng(7)
    d = 6
    mult = random_complex(rng, d, d, d)
    algebra = StructureAlgebra(mult, np.zeros(d), np.eye(d))
    vecs = random_complex(rng, 5, d)
    lefts = np.stack([np.einsum("a,abk->kb", v, mult) for v in vecs])
    rights = np.stack([np.einsum("b,abk->ka", v, mult) for v in vecs])
    assert rel_residual(algebra.left_matrices(vecs), lefts) < 1e-14
    assert rel_residual(algebra.right_matrices(vecs), rights) < 1e-14
    assert rel_residual(algebra.commutator_matrices(vecs), lefts - rights) < 1e-14
    assert rel_residual(algebra.left_matrix(vecs[0]), lefts[0]) < 1e-14
    assert rel_residual(algebra.right_matrix(vecs[0]), rights[0]) < 1e-14


def test_products_match_einsum_on_every_operand_shape():
    rng = np.random.default_rng(8)
    d = 5
    mult = random_complex(rng, d, d, d)
    algebra = StructureAlgebra(mult, np.zeros(d), np.eye(d))
    u, v = random_complex(rng, 3, d), random_complex(rng, 4, d)
    assert rel_residual(algebra.pairwise(u, v),
                        np.einsum("ia,jb,abk->ijk", u, v, mult)) < 1e-14


def test_star_of_a_stack_is_rowwise():
    multi, algebra = canonical_structure([2, 1])
    rng = np.random.default_rng(9)
    vecs = random_complex(rng, 3, multi.dim)
    assert rel_residual(algebra.star(vecs), multi.adjoint_vecs(vecs)) < 1e-15
    assert rel_residual(algebra.star(vecs[1]), multi.adjoint_vecs(vecs[1])) < 1e-15


def presented(multi, change):
    """``multi`` as a StructureAlgebra over the basis whose elements are the
    columns of ``change`` (canonical coordinates)."""
    inv = np.linalg.inv(change)
    mult = np.einsum("ia,jb,ijl,kl->abk", change, change, multi.mult_tensor, inv,
                     optimize=True)
    involution = inv @ canonical_involution_matrix(multi) @ np.conj(change)
    return StructureAlgebra(mult, inv @ multi.unit().vec, involution)


def test_decompose_recovers_blocks_under_a_basis_change():
    multi, _ = canonical_structure([1, 2, 3])
    rng = np.random.default_rng(10)
    d = multi.dim
    presentation = presented(multi, random_complex(rng, d, d))
    mult = presentation.mult

    found, units = decompose_structure_algebra(presentation,
                                               rng=np.random.default_rng(0))
    assert sorted(found.blocks) == [1, 2, 3]
    # the returned matrix units carry the canonical structure constants
    units_inv = np.linalg.inv(units)
    recovered = np.einsum("ai,bj,abl,kl->ijk", units, units, mult, units_inv,
                          optimize=True)
    assert rel_residual(recovered, found.mult_tensor) < 1e-8
    assert rel_residual(presentation.star(units.T),
                        found.adjoint_vecs(np.eye(d)) @ units.T) < 1e-8


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(st.integers(1, 3), st.lists(st.integers(2, 3), min_size=1, max_size=2),
       st.integers(0, 2 ** 32 - 1))
def test_block_sizes_read_off_the_regular_trace(ones, larger, seed):
    # a shuffled mix of 1x1 and larger blocks in a random unitary basis
    rng = np.random.default_rng(seed)
    blocks = list(rng.permutation([1] * ones + larger))
    multi = MultiMatrixAlgebra(blocks)
    unitary, _ = np.linalg.qr(random_complex(rng, multi.dim, multi.dim))
    found, _ = decompose_structure_algebra(presented(multi, unitary), rng=rng)
    assert sorted(found.blocks) == sorted(blocks)


def test_a_split_takes_one_eigh_and_no_svd(monkeypatch):
    # beyond the eigh of _orthonormalize, one eigh of K = L_h + c R_h
    multi, _ = canonical_structure([2, 1, 2])
    rng = np.random.default_rng(12)
    unitary, _ = np.linalg.qr(random_complex(rng, multi.dim, multi.dim))
    presentation = presented(multi, unitary)
    calls = Counter()

    def counted(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    found, _ = decompose_structure_algebra(presentation, rng=rng)
    assert found.blocks == (2, 2, 1)  # largest first
    assert calls == {"eigh": 2}


def test_a_degenerate_draw_is_retried(monkeypatch):
    # over the canonical units of C + M_2, h = f + diag(1, 3) gives K the
    # eigenvalues (1 + c), (1 + c), 3 (1 + c), 1 + 3 c and 3 + c: two equal
    multi, algebra = canonical_structure([1, 2])
    h = np.array([1, 1, 0, 0, 3], dtype=complex)
    monkeypatch.setattr(decompose, "_random_self_adjoint", lambda on, rng: h)
    with pytest.raises(_Retry):
        _split(algebra, np.random.default_rng(0))
    # every draw the unit, on which K is (1 + c) times the identity
    monkeypatch.setattr(decompose, "_random_self_adjoint", lambda on, rng: on.unit)
    with pytest.raises(InvariantViolation,
                       match="failed to split algebra into matrix blocks"):
        decompose_structure_algebra(algebra)


@pytest.mark.parametrize("name", ["group_s4", "dual_s4", "dual_pair_groupoid4"])
def test_fifty_seeds_split_within_the_retry_budget(name):
    s4 = group_algebra(symmetric(4))
    split = {"group_s4": lambda seed: group_algebra(symmetric(4), seed=seed),
             "dual_s4": lambda seed: dual_algebra(s4, seed=seed).hopf,
             "dual_pair_groupoid4": lambda seed: dual_algebra(pair_groupoid(4),
                                                              seed=seed).hopf}[name]
    blocks = {split(seed).algebra.blocks for seed in range(50)}
    assert blocks == {split(0).algebra.blocks}


def test_verify_units_accepts_the_canonical_units():
    multi, algebra = canonical_structure([1, 2])
    _verify_units(algebra, multi, np.eye(multi.dim, dtype=complex))


@pytest.mark.parametrize("column", [0, 2, 4])
def test_verify_units_rejects_a_corrupted_unit(column):
    multi, algebra = canonical_structure([1, 2])
    change = np.eye(multi.dim, dtype=complex)
    change[(column + 1) % multi.dim, column] = 0.5
    with pytest.raises(InvariantViolation, match="matrix-unit relations"):
        _verify_units(algebra, multi, change)


def scaled(multi, change):
    change[:, 0] *= 1.5


def swapped_across_blocks(multi, change):
    # the unit of the 1 x 1 block and e_00 of a 2 x 2 block
    one, two = multi.basis_index(multi.blocks.index(1), 0, 0), \
        multi.basis_index(multi.blocks.index(2), 0, 0)
    change[:, [one, two]] = change[:, [two, one]]


def conjugated(multi, change):
    # the units of a 2 x 2 block conjugated by diag(1, 2), which is not
    # unitary: e_ij -> (d_i / d_j) e_ij keeps every product
    alpha, d = multi.blocks.index(2), (1.0, 2.0)
    for i, j in itertools.product(range(2), repeat=2):
        change[:, multi.basis_index(alpha, i, j)] *= d[i] / d[j]


def dropped(multi, change):
    # a block's units set to zero: products and adjoints still hold
    change[:, multi.block_slice(multi.blocks.index(2))] = 0


@pytest.mark.parametrize("fault,message", [
    (None, None),
    (scaled, "matrix-unit relations failed"),
    (swapped_across_blocks, "matrix-unit relations failed"),
    (conjugated, "matrix units are not adjoint-compatible"),
    (dropped, "matrix units do not sum to the unit"),
], ids=["clean", "scaled", "swapped", "conjugated", "dropped"])
def test_verify_units_refuses_each_fault_of_a_fresh_split(fault, message):
    multi, _ = canonical_structure([2, 1, 2])
    rng = np.random.default_rng(11)
    unitary, _ = np.linalg.qr(random_complex(rng, multi.dim, multi.dim))
    presentation = presented(multi, unitary)
    found, change = decompose_structure_algebra(presentation, rng=rng)
    if fault is None:
        _verify_units(presentation, found, change)
        return
    fault(found, change)
    with pytest.raises(InvariantViolation, match=message):
        _verify_units(presentation, found, change)
