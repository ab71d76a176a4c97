import numpy as np
import pytest

from weakhopf._linalg import rel_residual
from weakhopf.decompose import (
    StructureAlgebra,
    _verify_units,
    decompose_structure_algebra,
)
from weakhopf.errors import InvariantViolation
from weakhopf.multimatrix import MultiMatrixAlgebra
from weakhopf.weak_hopf import canonical_involution_matrix


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


def test_decompose_recovers_blocks_under_a_basis_change():
    multi, _ = canonical_structure([1, 2, 3])
    rng = np.random.default_rng(10)
    d = multi.dim
    change = random_complex(rng, d, d)  # columns: new basis in canonical coordinates
    inv = np.linalg.inv(change)
    mult = np.einsum("ia,jb,ijl,kl->abk", change, change, multi.mult_tensor, inv,
                     optimize=True)
    involution = inv @ canonical_involution_matrix(multi) @ np.conj(change)
    presented = StructureAlgebra(mult, inv @ multi.unit().vec, involution)

    found, units = decompose_structure_algebra(presented,
                                               rng=np.random.default_rng(0))
    assert sorted(found.blocks) == [1, 2, 3]
    # the returned matrix units carry the canonical structure constants
    units_inv = np.linalg.inv(units)
    recovered = np.einsum("ai,bj,abl,kl->ijk", units, units, mult, units_inv,
                          optimize=True)
    assert rel_residual(recovered, found.mult_tensor) < 1e-8
    assert rel_residual(presented.star(units.T),
                        found.adjoint_vecs(np.eye(d)) @ units.T) < 1e-8


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
