"""Transient memory of the rows whose two sides have d**4 entries.  They
reduce their residual slab by slab, so a call holds a few slabs and its own
inputs, never an operand: at pair_groupoid(6) each operand is 36**4 complex
entries (27 MB), and on the cyclic(5) canonical action 25**4 (6.25 MB).

The crossed product keeps its class map factored and streams its checks, so
on the cyclic(6) tower (216 classes, raw tensors of 36 * 36 entries) it holds
no (classes, raw) or (raw, raw) array.  The commutant of the fixed points
M is the basic construction of M in M1: the 36 generators L_x have its copy
map as coordinates, and the 36 A_b are read off its corners V* A_b V, so no
image of that commutant is formed, and the transient is about 5.2 MiB,
where the dense (1296, 216) commutant image and its left inverse took about
11 MiB, the per-class back-substitution with the images held through random
probes about 17 MiB, and dense class maps and whole probe checks about
54 MiB.  The comparison map reads its classes off the generator
images x and s b s^-1, one class block at a time, and checks the balancing
on the units of B_t, so it holds about 6 MiB at the peak, where the
(raw, ambient) images of every raw tensor took about 10 MiB, and two more
arrays as large for the well-definedness check about 17 MiB.

On C^5 < M_5, where M1 has five blocks and dimension 125, the crossed
product holds about 38 MiB, half of it the fixed-point equations and their
null space; the stack of the 125 dense L_x, 29.8 MiB, and its expansion in
the commutant's units took 99.6 MiB.

The tower premises rank their spans x w y on the corners f_0j w g_k0 of
the units, one stack per weight, so on a warm cyclic(6) tower they hold
about 3.7 MiB, where the all-pairs stacks of M1 e2 M1 (36 * 36 products of
216 entries) and of the two commutants took about 11.4 MiB.

A conditional expectation holds its (sub, ambient) closed-form left inverse,
never an (ambient, ambient) matrix: on cyclic(6), E_M1 is (36, 216).

A group algebra splits straight from its table, the (n, n, n) structure
tensor: for symmetric(4) about 2 MiB, where recognizing the span of the
regular representation in M_24 formed all pairwise products, a
(24, 24, 576) array, and took 16.7 MiB.

A relative commutant checks its input and writes its units in closed form,
so beyond its own images it holds about 2 MiB: on the cyclic(8) tower,
M', M1' and N' in the ambient take 1.2, 1.6 and 4.1 MiB against images of
0.5, 0.06 and 4.0 MiB, where re-checking the output as a *-homomorphism
and sweeping all (commutant unit, subalgebra unit) products took 10.1, 9.3
and 20.0 MiB.

The d**4 rows build both sides only on boxes of the output entries that can
be nonzero, sized like the slabs, so on the cyclic(8) tower (B and M1 of 64
units) coassociativity, the module law, axiom (1), the product check and
the relator check each hold under 10 MiB (6.1, 4.4, 9.4, 1.5 and 2.6 MiB),
where slabs of one leading index over every entry took 16.8, 24.8 (in the
action check), 24.8, 9.6 and 5.3 MiB.  Multiplicativity also holds its
coproducts and their twist, two (64, 4096) arrays of 4 MiB, and a product
temporary as large: 15.6 MiB, where the slabs took 24.5 MiB.

The module map b |> x = lam^-1 E_M1(b x e2) is read only in M1 coordinates.
On the cyclic(8) tower (B and M1 of 64 units, ambient 512) the module tensor
is built over slabs of B units, so it holds about 7 MiB, 4 MiB of it the
tensor itself, where the (64, 64, 512) products b x e2 took 40 MiB.  Suite
row 1 pairs b2 |> a through M1 coordinates and row 3 is axiom (2) on the
tensor, so they hold about 4 and 5 MiB, where forming b2 |> a and
E_M1(e2 x S(b)) in the ambient took 73 and 41 MiB.  ``TowerData.act`` of one
element is a matrix product per unit of B, about 0.5 MiB, where an einsum
copied the 4 MiB tensor."""

import tracemalloc

import pytest

from weakhopf import axioms
from weakhopf.actions import (
    ActionData,
    _class_basis,
    _relator_residuals,
    canonical_action,
    crossed_product,
    theta_iso,
    verify_action,
)
from weakhopf.deform import deform
from weakhopf.groups import cyclic, symmetric
from weakhopf.multimatrix import relative_commutant
from weakhopf.reconstruct import _pairing_products_residual, reconstruct
from weakhopf.tower import build_tower_from_group, verify_tower_premises
from weakhopf.weak_hopf import group_algebra, pair_groupoid

from conftest import inclusion_tower

BOUND_MIB = 16
CROSSED_BOUND_MIB = 9
MATRIX_CROSSED_BOUND_MIB = 48
PREMISES_BOUND_MIB = 8
THETA_BOUND_MIB = 8
RECONSTRUCT_BOUND_MIB = 10
GROUP_ALGEBRA_BOUND_MIB = 6
COMMUTANT_MARGIN_MIB = 2
BOX_BOUND_MIB = 10


def transient_mib(fn) -> float:
    """Peak of the memory allocated while ``fn`` runs, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def cyclic5_action():
    tower = build_tower_from_group(cyclic(5))
    deformed, _ = deform(reconstruct(tower).on_b, tower=tower)
    return canonical_action(tower, deformed)


@pytest.mark.parametrize("row", [axioms.coassociativity, axioms.multiplicativity],
                         ids=["coassociativity", "multiplicativity"])
def test_coalgebra_rows_hold_no_operand(row):
    hopf = pair_groupoid(6)
    assert transient_mib(lambda: row(hopf)) < BOUND_MIB


def test_module_rows_hold_no_operand(cyclic5_action):
    action = cyclic5_action
    assert transient_mib(lambda: axioms.module_multiplicativity(
        action.hopf, action.tensor, action.carrier)) < BOUND_MIB
    assert transient_mib(lambda: verify_action(action)) < BOUND_MIB


@pytest.fixture(scope="module")
def cyclic6_chain():
    tower = build_tower_from_group(cyclic(6))
    deformed, _ = deform(reconstruct(tower).on_b, tower=tower)
    return tower, deformed, canonical_action(tower, deformed)


def test_crossed_product_and_theta_hold_no_class_matrix(cyclic6_chain):
    tower, deformed, action = cyclic6_chain
    built = []
    assert transient_mib(lambda: built.append(crossed_product(action))) < CROSSED_BOUND_MIB
    assert transient_mib(lambda: theta_iso(tower, deformed, built[0])) < THETA_BOUND_MIB


def test_crossed_product_holds_no_stack_of_left_multiplications():
    # C^5 < M_5 with its Markov trace
    tower = inclusion_tower([1] * 5, [[1]] * 5, [1 / 5], 1 / 5)
    deformed, _ = deform(reconstruct(tower).on_b, tower=tower)
    action = canonical_action(tower, deformed)
    assert transient_mib(lambda: crossed_product(action)) < MATRIX_CROSSED_BOUND_MIB


def test_premises_hold_no_all_pairs_stack(cyclic6_chain):
    tower = cyclic6_chain[0]
    verify_tower_premises(tower)  # warms the commutants and expectations of the tower
    assert transient_mib(lambda: verify_tower_premises(tower)) < PREMISES_BOUND_MIB


def test_reconstruct_reads_pairings_from_the_gram(cyclic6_chain):
    # every pairing of unit products, adjoints or the unit is a gather of
    # the (36, 36) Gram matrix, so no (36 * 36, 216) stack of ambient
    # products is formed: about 4.4 MiB, where ambient pairings take 23 MiB
    tower = cyclic6_chain[0]
    reconstruct(tower)  # warms the cached properties of the tower
    assert transient_mib(lambda: reconstruct(tower)) < RECONSTRUCT_BOUND_MIB


def test_expectation_holds_no_ambient_square(cyclic6_chain):
    tower = cyclic6_chain[0]
    square_mib = tower.ambient.dim ** 2 * 16 / 2 ** 20  # one (216, 216) complex array
    tower.__dict__.pop("expect_top", None)
    assert transient_mib(lambda: tower.expect_top.apply_vec(tower.e2.vec)) < square_mib


def test_group_algebra_holds_no_product_of_the_regular_representation():
    group = symmetric(4)
    assert transient_mib(lambda: group_algebra(group)) < GROUP_ALGEBRA_BOUND_MIB


@pytest.mark.parametrize("name", ["sub_mid", "sub_top", "sub_start"])
def test_relative_commutant_holds_little_beyond_its_images(name):
    sub = getattr(build_tower_from_group(cyclic(8)), name)
    built = []
    peak = transient_mib(lambda: built.append(relative_commutant(sub)))
    assert peak < built[0].images.nbytes / 2 ** 20 + COMMUTANT_MARGIN_MIB


@pytest.fixture(scope="module")
def cyclic8_rows():
    tower = build_tower_from_group(cyclic(8))
    rec = reconstruct(tower)
    hopf = rec.on_b.hopf
    action = ActionData(hopf, tower.sub_top.sub, tower.module_tensor)
    cartan = tower.cartan_in_b
    blocks = _class_basis(action, cartan).blocks
    on_unit = action.on_unit @ cartan.images
    moves = [(action.carrier.right_mult_matrix(z1), hopf.algebra.left_mult_matrix(z))
             for z, z1 in zip(cartan.images.T, on_unit.T)]
    # the unit tables the rows gather through are cached on the algebras
    hopf.algebra.product_index, hopf.algebra.tensor_square, action.carrier.product_index
    action.carrier.adjoint_index
    square_mib = hopf.dim * hopf.algebra.tensor_square[0].dim * 16 / 2 ** 20
    return {
        "coassociativity": (lambda: axioms.coassociativity(hopf), 0),
        "multiplicativity": (lambda: axioms.multiplicativity(hopf), 3 * square_mib),
        "module law": (lambda: axioms.module_law(hopf, action.tensor), 0),
        "module multiplicativity": (lambda: axioms.module_multiplicativity(
            hopf, action.tensor, action.carrier), 0),
        "product decomposition": (lambda: axioms.product_decomposition(hopf, tower), 0),
        "relators": (lambda: _relator_residuals(blocks, moves), 0),
        "pairing against products": (lambda: _pairing_products_residual(tower, rec), 0),
        "action star-compatible": (lambda: axioms.action_star_compatible(
            hopf, action.tensor, action.carrier), 0),
    }


@pytest.mark.parametrize("row", ["coassociativity", "multiplicativity", "module law",
                                 "module multiplicativity", "product decomposition",
                                 "relators", "pairing against products",
                                 "action star-compatible"])
def test_boxed_rows_hold_only_their_boxes(cyclic8_rows, row):
    fn, inputs_mib = cyclic8_rows[row]
    assert transient_mib(fn) < BOX_BOUND_MIB + inputs_mib


def test_module_tensor_is_built_over_slabs_of_b():
    tower = build_tower_from_group(cyclic(8))
    tower.rel_b, tower.expect_top  # warms the commutant and E_M1
    built = []
    assert transient_mib(lambda: built.append(tower.module_tensor)) < BOX_BOUND_MIB
    # b |> e1 is one matrix product per unit b, with no copy of the tensor
    tower.sub_top.coords_vec(tower.e1.vec)
    tensor_mib = tower.module_tensor.nbytes / 2 ** 20
    assert transient_mib(lambda: tower.act(tower.e1.vec)) < tensor_mib / 2
