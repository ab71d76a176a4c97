import numpy as np
import pytest

from weakhopf import weak_hopf
from weakhopf._linalg import rel_residual
from weakhopf.errors import InvariantViolation
from weakhopf.deform import deform, undeform
from weakhopf.groups import cyclic, symmetric
from weakhopf.reconstruct import reconstruct
from weakhopf.tower import build_tower_from_group
from weakhopf.weak_hopf import (
    cartan_subalgebras,
    connectedness,
    counital_maps,
    double_dual_residual,
    dual_algebra,
    function_algebra,
    group_algebra,
    haar_functional,
    haar_projection,
    haar_traciality_residual,
    pair_groupoid,
    verify_axioms,
)

TOL = 1e-9


def all_examples():
    return [
        ("pg1", pair_groupoid(1)),
        ("pg2", pair_groupoid(2)),
        ("pg3", pair_groupoid(3)),
        ("cyclic2", group_algebra(cyclic(2))),
        ("cyclic3", group_algebra(cyclic(3))),
        ("cyclic4", group_algebra(cyclic(4))),
        ("cyclic5", group_algebra(cyclic(5))),
        ("sym3", group_algebra(symmetric(3))),
        ("fn2", function_algebra(cyclic(2))),
        ("fn3", function_algebra(cyclic(3))),
        ("fn5", function_algebra(cyclic(5))),
    ]


EXAMPLES = all_examples()


@pytest.mark.parametrize("name,hopf", EXAMPLES, ids=[n for n, _ in EXAMPLES])
def test_generator_axioms(name, hopf):
    rep = verify_axioms(hopf, TOL)
    assert rep.passed, rep.render_table()
    assert rep.classification == "weak Kac"
    assert rep.max_residual <= TOL


def test_pair_groupoid_antipode_exactly_involutive():
    for n in (1, 2, 3):
        hopf = pair_groupoid(n)
        assert rel_residual(hopf.antipode @ hopf.antipode,
                            np.eye(hopf.dim)) == 0.0


def test_counital_maps_on_pair_groupoid_units():
    hopf = pair_groupoid(3)
    alg = hopf.algebra
    for i in range(3):
        for j in range(3):
            et, es = counital_maps(hopf, alg.basis_unit(0, i, j))
            assert rel_residual(et.vec, alg.basis_unit(0, i, i).vec) < 1e-14
            assert rel_residual(es.vec, alg.basis_unit(0, j, j).vec) < 1e-14


def test_counital_maps_group_algebra_scalar_cartan():
    hopf = group_algebra(cyclic(3))
    x = hopf.algebra.element(np.arange(1, hopf.dim + 1, dtype=complex))
    et, _ = counital_maps(hopf, x)
    expected = complex(hopf.epsilon @ x.vec) * hopf.algebra.unit().vec
    assert rel_residual(et.vec, expected) < 1e-12
    unit = hopf.algebra.unit()
    et, _ = counital_maps(hopf, unit)
    assert rel_residual(et.vec, unit.vec) < 1e-12


@pytest.mark.parametrize("name,hopf", EXAMPLES, ids=[n for n, _ in EXAMPLES])
def test_counital_maps_idempotent(name, hopf):
    et, es = hopf.target_counital, hopf.source_counital
    assert rel_residual(et @ et, et) < TOL
    assert rel_residual(es @ es, es) < TOL


def test_cartan_subalgebras():
    pair = cartan_subalgebras(pair_groupoid(3))
    assert pair.target.sub.blocks == (1, 1, 1)
    assert pair.source.sub.blocks == (1, 1, 1)
    pair = cartan_subalgebras(group_algebra(cyclic(4)))
    assert pair.target.sub.dim == 1
    pair = cartan_subalgebras(function_algebra(cyclic(4)))
    assert pair.target.sub.dim == 1


def test_cartan_exchange_fails_when_the_antipode_fixes_them(get_reconstruction):
    # on the z2 structure B_t and B_s are distinct, and S = id maps B_t onto
    # itself
    hopf = get_reconstruction("z2").on_b.hopf
    pair = cartan_subalgebras(hopf)
    assert pair.target.outside(pair.source.images.T) > 0.1
    with pytest.raises(InvariantViolation,
                       match="antipode does not exchange the Cartan subalgebras"):
        cartan_subalgebras(hopf.copy_with(antipode=np.eye(hopf.dim)))


def _onto(*vectors):
    """The orthogonal projection onto the span of ``vectors`` (orthogonal
    to each other), an idempotent map with that range."""
    return sum(np.outer(v, v.conj()) / np.vdot(v, v) for v in np.array(vectors, dtype=complex))


@pytest.mark.parametrize("counital,range_,message", [
    # the range of eps_s is span{1, e_01 + e_10}, which the diagonal B_t
    # does not commute with
    ("source_counital", [(1, 0, 0, 1), (0, 1, 1, 0)], "Cartan subalgebras do not commute"),
    ("target_counital", [(1, 0, 0, 1), (0, 1, 0, 0)], "not a subalgebra"),
    ("target_counital", [(1, 0, 0, 0)], "subspace does not contain the unit"),
], ids=["commute", "adjoint", "unit"])
def test_connectedness_and_the_cartans_share_each_refusal(counital, range_, message):
    # pair_groupoid(2) with one counital map replaced by a projection
    # onto another range
    fake = pair_groupoid(2).copy_with()
    setattr(fake, counital, _onto(*range_))
    for check in (cartan_subalgebras, connectedness):
        with pytest.raises(InvariantViolation, match=message):
            check(fake)


def test_connectedness_refuses_a_cartan_exchange_fault(get_reconstruction):
    hopf = get_reconstruction("z2").on_b.hopf
    hopf = hopf.copy_with(antipode=np.eye(hopf.dim))
    with pytest.raises(InvariantViolation,
                       match="antipode does not exchange the Cartan subalgebras"):
        connectedness(hopf)


@pytest.mark.parametrize("hopf", [pair_groupoid(3), group_algebra(cyclic(3))],
                         ids=["pg3", "cyclic3"])
def test_cartan_membership_characterization(hopf):
    # z in the target Cartan iff its coproduct is the unit coproduct with z
    # multiplied into the first leg
    pair = cartan_subalgebras(hopf)
    e1 = hopf.delta_unit
    for j in range(pair.target.sub.dim):
        z = pair.target.images[:, j]
        lhs = np.tensordot(z, hopf.delta, axes=([0], [0]))
        first = hopf.algebra.mul_vecs(np.eye(hopf.dim), z)  # rows: u_p z
        rhs = np.einsum("pq,pr->rq", e1, first)
        assert rel_residual(lhs, rhs) < TOL


def test_haar_projection_oracles():
    for n in (2, 3):
        hopf = pair_groupoid(n)
        p = haar_projection(hopf)
        assert rel_residual(p.vec, np.full(hopf.dim, 1.0 / n)) < TOL
    for group in (cyclic(2), cyclic(3), cyclic(5), symmetric(3)):
        hopf = group_algebra(group)
        p = haar_projection(hopf)
        oracle = hopf.group_basis.mean(axis=1)
        assert rel_residual(p.vec, oracle) < TOL


def test_haar_projection_trivial_algebra():
    hopf = pair_groupoid(1)
    assert rel_residual(haar_projection(hopf).vec, [1.0]) < 1e-14


def test_haar_projection_invariants():
    hopf = pair_groupoid(3)
    p = haar_projection(hopf).vec
    et = hopf.target_counital
    assert rel_residual(et @ p, hopf.unit_vec) < TOL
    eye = np.eye(hopf.dim)
    xp = hopf.algebra.mul_vecs(eye, p)
    etxp = hopf.algebra.mul_vecs((et @ eye).T, p)
    assert rel_residual(xp, etxp) < TOL


def test_haar_functional_oracles():
    for n in (2, 3):
        hopf = pair_groupoid(n)
        phi = haar_functional(hopf)
        alg = hopf.algebra
        expected = sum(alg.basis_unit(0, i, i).vec for i in range(n))
        assert rel_residual(phi, expected) < TOL
    for group in (cyclic(2), cyclic(4), symmetric(3)):
        hopf = group_algebra(group)
        phi = haar_functional(hopf)
        values = hopf.group_basis.T @ phi
        oracle = np.zeros(group.order)
        oracle[group.identity] = 1.0
        assert rel_residual(values, oracle) < TOL


@pytest.mark.parametrize("name,hopf", EXAMPLES[:8], ids=[n for n, _ in EXAMPLES[:8]])
def test_haar_functional_tracial_for_weak_kac(name, hopf):
    phi = haar_functional(hopf)
    assert haar_traciality_residual(hopf, phi) < TOL


def test_haar_degenerate_system_rejected():
    hopf = pair_groupoid(2)
    broken = hopf.copy_with(epsilon=np.array([1.0, 0, 0, 1.0], dtype=complex))
    with pytest.raises(InvariantViolation):
        haar_projection(broken)


@pytest.mark.parametrize("name,hopf", EXAMPLES, ids=[n for n, _ in EXAMPLES])
def test_dual_algebra_is_valid(name, hopf):
    dual = dual_algebra(hopf)
    rep = verify_axioms(dual.hopf, TOL)
    assert rep.passed, rep.render_table()
    assert rep.classification == "weak Kac"


def test_dual_of_cyclic_group_algebra_is_commutative():
    for n in (2, 3, 4, 5):
        dual = dual_algebra(group_algebra(cyclic(n)))
        assert dual.hopf.dim == n
        assert dual.hopf.algebra.blocks == (1,) * n


def test_dual_of_pair_groupoid_is_commutative():
    dual = dual_algebra(pair_groupoid(2))
    assert dual.hopf.algebra.blocks == (1, 1, 1, 1)


@pytest.mark.parametrize("name,hopf", EXAMPLES, ids=[n for n, _ in EXAMPLES])
def test_double_dual_recovers_structure(name, hopf):
    assert double_dual_residual(hopf) < 1e-12


def test_function_algebra_matches_dual_of_group_algebra():
    group = cyclic(3)
    direct = function_algebra(group)
    rep = verify_axioms(direct)
    assert rep.passed and rep.classification == "weak Kac"
    dual = dual_algebra(group_algebra(group))
    # both are commutative of dimension |G| with the same integral data
    assert dual.hopf.algebra.blocks == direct.algebra.blocks
    lhs = complex(direct.epsilon @ haar_projection(direct).vec)
    rhs = complex(dual.hopf.epsilon @ haar_projection(dual.hopf).vec)
    assert abs(lhs - rhs) < TOL


def test_connectedness_triples():
    assert connectedness(group_algebra(cyclic(2))) == (True, True, True)
    assert connectedness(group_algebra(cyclic(5))) == (True, True, True)
    assert connectedness(pair_groupoid(2)) == (True, False, False)
    assert connectedness(pair_groupoid(3)) == (True, False, False)
    assert connectedness(pair_groupoid(1)) == (True, True, True)
    # B_t and B_s of the dual of M_3 are distinct copies of C^3
    assert connectedness(dual_algebra(pair_groupoid(3)).hopf) == (False, True, False)


def split_connectedness(hopf, tol=TOL, seed=0):
    """Reference for ``connectedness``: dual connectedness read off the
    block-split dual, its centre the block identities and its target
    counital map that of the split structure."""
    pair = cartan_subalgebras(hopf, tol, seed)
    connected = weak_hopf._fixed_dim(hopf.target_counital,
                                     weak_hopf._center_span_of(hopf.algebra)) == 1
    primal_criterion = weak_hopf._fixed_dim(hopf.source_counital, pair.target.images) == 1
    dual = dual_algebra(hopf, tol, seed).hopf
    dual_connected = weak_hopf._fixed_dim(dual.target_counital,
                                          weak_hopf._center_span_of(dual.algebra)) == 1
    if dual_connected != primal_criterion:
        raise InvariantViolation("connectedness criteria disagree between dual and primal")
    return connected, dual_connected, connected and dual_connected


def connectedness_structures():
    """Pair groupoids 1-6, group and function algebras of C12, S3 and S4, B
    of the cyclic(2-6) towers and their duals, and a twisted pair_groupoid(3)
    bundle with its deformation."""
    out = [(f"pg{n}", pair_groupoid(n)) for n in range(1, 7)]
    for name, group in (("c12", cyclic(12)), ("s3", symmetric(3)), ("s4", symmetric(4))):
        out += [(f"group_{name}", group_algebra(group)),
                (f"function_{name}", function_algebra(group))]
    for n in range(2, 7):
        hopf = reconstruct(build_tower_from_group(cyclic(n))).on_b.hopf
        out += [(f"b_c{n}", hopf), (f"dual_b_c{n}", dual_algebra(hopf).hopf)]
    hopf = pair_groupoid(3)
    h = sum(v * hopf.algebra.basis_unit(0, i, i).vec for i, v in enumerate((1.5, 0.75, 1.2)))
    bundle, _ = undeform(hopf, h, TOL)
    return out + [("twisted_pg3", bundle.hopf), ("deformed_pg3", deform(bundle, TOL)[0].hopf)]


STRUCTURES = dict(connectedness_structures())


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("name", list(STRUCTURES))
def test_connectedness_matches_the_split_dual(name, seed):
    hopf = STRUCTURES[name]
    assert connectedness(hopf, TOL, seed) == split_connectedness(hopf, TOL, seed)


@pytest.mark.parametrize("name", ["group_s3", "function_s4", "b_c3", "dual_b_c4",
                                  "twisted_pg3"])
def test_dual_counital_maps_are_the_transposed_ones(name):
    # phi . eps_t and phi . eps_s over the dual basis, conjugated into the
    # split dual's matrix units, are the split dual's counital maps
    hopf = STRUCTURES[name]
    dual = dual_algebra(hopf)
    change = dual.evaluation.T
    inv = np.linalg.inv(change)
    assert rel_residual(inv @ hopf.target_counital.T @ change,
                        dual.hopf.target_counital) < 1e-12
    assert rel_residual(inv @ hopf.source_counital.T @ change,
                        dual.hopf.source_counital) < 1e-12


def test_connectedness_criteria_disagree_on_a_non_cocommutative_fake():
    """M_2 with the grouplike coproduct of its diagonal units, so Delta(1),
    both counital maps and both Cartans (the diagonal, B_t = B_s, not
    connected in the primal criterion) are those of the pair groupoid, but
    the off-diagonal units carry antisymmetric coproducts a (x) b - b (x) a
    with a, b orthogonal to the counit.  The commutators of the dual then
    vanish only on the counit, so its centre is the scalars and the dual
    criterion says connected.  The fake is neither coassociative nor
    multiplicative: a weak Hopf algebra cannot reach this raise."""
    hopf = pair_groupoid(2)
    a, b, c = np.array([[1, -1, 0, 0], [0, 0, 1, -1], [1, 1, -1, -1]], dtype=complex)
    delta = np.array(hopf.delta)
    delta[1] = np.outer(a, b) - np.outer(b, a)
    delta[2] = np.outer(b, c) - np.outer(c, b)
    fake = hopf.copy_with(delta=delta)
    assert rel_residual(fake.delta_unit, hopf.delta_unit) == 0.0
    cartan_subalgebras(fake)
    assert not verify_axioms(fake, TOL).passed
    with pytest.raises(InvariantViolation,
                       match="connectedness criteria disagree between dual and primal"):
        connectedness(fake)


def table_law_residual(hopf, group, elements=None):
    """Worst residual of the group law read off the columns of
    ``group_basis`` (u_g for the listed elements g): u_g u_h = u_gh for every
    h, u_e = 1, u_g* = u_{g^-1} and Delta(u_g) = u_g (x) u_g."""
    basis = hopf.group_basis.T  # row g = u_g in matrix-unit coordinates
    g = np.arange(group.order) if elements is None else np.asarray(elements)
    products = hopf.algebra.mul_vecs(basis[g][:, None], basis[None, :])
    coproducts = np.tensordot(basis[g], hopf.delta, axes=([1], [0]))
    return max(rel_residual(products, basis[group.table[g]]),
               rel_residual(basis[group.identity], hopf.unit_vec),
               rel_residual(hopf.star(basis[g]), basis[group.inverse[g]]),
               rel_residual(coproducts, np.einsum("gp,gq->gpq", basis[g], basis[g])))


@pytest.mark.parametrize("group", [cyclic(12), symmetric(3), symmetric(4)],
                         ids=["cyclic12", "sym3", "sym4"])
def test_group_basis_obeys_the_table(group):
    assert table_law_residual(group_algebra(group), group) < 1e-12


@pytest.mark.parametrize("swap", [(1, 4), (0, 1)], ids=["across-blocks", "in-block"])
def test_swapped_matrix_units_break_the_table_law(monkeypatch, swap):
    # S3 splits into blocks 2, 1, 1: columns 0 and 1 are e_00 and e_01 of the
    # 2x2 block, column 4 the unit of a 1x1 block
    decompose = weak_hopf.decompose_structure_algebra

    def swapped(*args, **kwargs):
        multi, change = decompose(*args, **kwargs)
        assert multi.blocks == (2, 1, 1)
        order = np.arange(change.shape[1])
        order[list(swap)] = swap[::-1]
        return multi, change[:, order]

    monkeypatch.setattr(weak_hopf, "decompose_structure_algebra", swapped)
    group = symmetric(3)
    assert table_law_residual(group_algebra(group), group) > 0.1


def test_group_algebra_of_s5_fits_its_blocks():
    group = symmetric(5)
    hopf = group_algebra(group)
    assert sorted(hopf.algebra.blocks) == [1, 1, 4, 4, 5, 5, 6]
    assert table_law_residual(hopf, group, [group.identity, 1, 7, 119]) < 1e-12


def test_broken_counit_fails_loudly():
    hopf = pair_groupoid(2)
    eps = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)  # delta_ij on the units
    broken = hopf.copy_with(epsilon=eps)
    rep = verify_axioms(broken)
    assert not rep.passed
    assert rep.classification == "invalid"
    counit_rows = [c for c in rep.checks if c.name.startswith("counit")]
    assert any(c.residual >= 1.0 for c in counit_rows)


def test_explicit_involution_roundtrip():
    hopf = pair_groupoid(2)
    explicit = hopf.copy_with(involution=hopf.star_matrix.copy())
    rep = verify_axioms(explicit)
    assert rep.passed and rep.classification == "weak Kac"


def test_invalid_multiplication_table_rejected():
    from weakhopf.groups import FiniteGroup

    with pytest.raises(InvariantViolation, match="invalid multiplication table"):
        FiniteGroup([[0, 1], [1, 1]])
    with pytest.raises(InvariantViolation, match="invalid multiplication table"):
        FiniteGroup([[0, 0], [0, 0]])
    # a table with a relabeled identity is still a group
    FiniteGroup([[1, 0], [0, 1]])


def test_haar_projection_and_functional_of_a_pair_groupoid():
    hopf = pair_groupoid(2)
    assert rel_residual(haar_projection(hopf).vec, np.full(4, 0.5)) < TOL
    assert rel_residual(haar_functional(hopf), [1, 0, 0, 1]) < TOL
