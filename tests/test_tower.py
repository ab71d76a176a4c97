import numpy as np
import pytest

from weakhopf import multimatrix, tower as tower_module
from weakhopf._linalg import rel_residual
from weakhopf.errors import InvariantViolation
from weakhopf.groups import cyclic
from weakhopf.multimatrix import product_span_dim
from weakhopf.tower import (TowerData, build_tower_from_group, build_tower_from_inclusion,
                            verify_tower_premises)

from conftest import INCLUSIONS, TOWER_NAMES, dense_span_dim

TOL = 1e-9

EXPECTED = {
    "z2": dict(order=2, ambient_dim=8, a_blocks=(2,), d=2),
    "z3": dict(order=3, ambient_dim=27, a_blocks=(3,), d=3),
    "z4": dict(order=4, ambient_dim=64, a_blocks=(4,), d=4),
    "s3": dict(order=6, ambient_dim=216, a_blocks=(6,), d=6),
}


@pytest.mark.parametrize("name", TOWER_NAMES)
def test_tower_shapes(name, get_tower):
    tower = get_tower(name)
    info = EXPECTED[name]
    assert abs(1.0 / tower.lam - info["order"]) < 1e-12
    assert tower.ambient.dim == info["ambient_dim"]
    assert tower.rel_a.sub.blocks == info["a_blocks"]
    assert tower.rel_b.sub.dim == info["order"] ** 2
    assert all(m == 1 for m in tower.rel_b.sub.blocks)
    assert tower.d == info["d"]
    assert tower.rel_a.sub.dim == tower.rel_b.sub.dim


@pytest.mark.parametrize("name", TOWER_NAMES)
def test_tower_premises(name, get_tower):
    rep = verify_tower_premises(get_tower(name))
    assert rep.passed, rep.render_table()
    assert rep.max_residual <= TOL


# C < C[D4] and C < C + M_2 + M_2: C < A with the Plancherel weights, a row
# Lambda of the block sizes of A
PREMISE_TOWERS = {name: INCLUSIONS[name] for name in ("a3_in_s3", "c2_in_m3_m3", "c2_in_m2")}
PREMISE_TOWERS.update(c_in_d4=([1], [[1, 1, 1, 1, 2]], [1 / 8] * 4 + [1 / 4], 1 / 8),
                      c_in_c_m2_m2=([1], [[1, 2, 2]], [1 / 9, 2 / 9, 2 / 9], 1 / 9))


@pytest.mark.parametrize("name", PREMISE_TOWERS)
def test_inclusion_tower_premises(name):
    # N != C, so the commutants are not the cyclic towers' diagonal ones;
    # C^2 < M_3 + M_3 (ambient 1458, dim A = dim B = 82) ranks its spans on
    # corners, where the all-pairs (82, 82, 1458) stack took 150 MiB
    rep = verify_tower_premises(build_tower_from_inclusion(*PREMISE_TOWERS[name]))
    assert rep.passed, rep.render_table()


def test_depth_three_inclusion_fails_only_the_commutant_span(get_tower):
    # C[Z2] < C[S3] has depth 3: the products of the commutants miss 2 of
    # the 28 dimensions of N', and every other premise holds
    rep = verify_tower_premises(get_tower("z2_in_s3"))
    assert [row.name for row in rep.failures()] == ["products of the commutants span N'"]
    assert rep["products of the commutants span N'"].note == "rank 26 of 28"


@pytest.mark.parametrize("data, collapse", [
    (([1, 1], [[1], [2]], [1 / 3], 1 / 5), 2 / 5),                    # C + C < M_3
    (([1, 2], [[1], [1]], [1 / 3], 1 / 2), 1 / 4),                    # C + M_2 < M_3
    (([1, 2], [[1, 1], [1, 1]], [1 / 6, 1 / 6], 1 / 4), 1 / 6),       # C + M_2 < M_3 + M_3
    (([1, 1, 1], [[1], [1], [2]], [1 / 4], 1 / 6), 1 / 3),            # C^3 < M_4
], ids=["c_c_in_m3", "c_m2_in_m3", "c_m2_in_m3_m3", "c3_in_m4"])
def test_connected_inclusions_fail_only_the_x_e1_collapse(data, collapse):
    # four connected inclusions whose x e1 collapse misses by an exact
    # fraction while every other premise holds: the open cases of
    # ROADMAP item 2, pinned until they are settled
    rep = verify_tower_premises(build_tower_from_inclusion(*data))
    assert [row.name for row in rep.failures()] == ["x e1 collapse"]
    assert rep["x e1 collapse"].residual == pytest.approx(collapse, abs=1e-12)


@pytest.mark.parametrize("inclusion, defect", [
    ([[1], [1, 2]], "is not a rectangular array"),
    ([[1.5], [1]], "non-integer entry"),
    ([[1]], r"shape \(1, 1\), expected \(2, 1\)"),
    ([[2, -1], [1, 1]], "negative entry"),
    ([[1, 1], [0, 0]], "zero row: an N block is not embedded"),
    ([[1, 0], [1, 0]], "zero column: the inclusion is not unital"),
], ids=["ragged", "fractional", "row_count", "negative", "zero_row", "zero_column"])
def test_malformed_inclusion_matrix_rejected(inclusion, defect):
    weights = [1 / 2] * len(inclusion[0])
    with pytest.raises(InvariantViolation, match=f"^inclusion matrix .*{defect}"):
        build_tower_from_inclusion([1, 1], inclusion, weights, 1 / 2)


@pytest.mark.parametrize("name", TOWER_NAMES + ["a3_in_s3", "z2_in_s3", "c2_in_m2"])
def test_premise_spans_match_the_all_pairs_rank(name, get_tower):
    tower = get_tower(name)
    for left, w, right in [(tower.rel_a, tower.ambient.unit().vec, tower.rel_b),
                           (tower.sub_mid, tower.e1.vec, tower.sub_mid),
                           (tower.sub_top, tower.e2.vec, tower.sub_top)]:
        assert product_span_dim(left, w, right) == dense_span_dim(left, w, right)


def test_building_a_tower_computes_no_commutant_and_no_markov_index(monkeypatch):
    # basic_construction checks the uniform trace is Markov for 1/n, and M
    # is the diagonal of M1 = M_n, so d = n needs no commutant at build time
    def refuse(*args, **kwargs):
        raise AssertionError("computed while building the tower")

    monkeypatch.setattr(tower_module, "relative_commutant", refuse)
    monkeypatch.setattr(tower_module, "markov_trace", refuse, raising=False)
    monkeypatch.setattr(multimatrix, "markov_trace", refuse)
    tower = build_tower_from_group(cyclic(4))
    monkeypatch.undo()
    assert tower.d == 4


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_tower_jones_inclusions_are_exact_homomorphisms(n):
    # each chain embedding of the two basic constructions is a copy map of
    # 0/1 entries, so its residuals are exact zeros; this is why
    # basic_construction checks only its input
    tower = build_tower_from_group(cyclic(n))
    for emb in (tower.sub_start, tower.sub_mid, tower.sub_top):
        assert emb.verify() == 0.0


def test_trivial_group_rejected():
    with pytest.raises(InvariantViolation):
        build_tower_from_group(cyclic(1))


def test_corrupted_jones_projection_detected(get_tower):
    tower = get_tower("z2")
    rng = np.random.default_rng(11)
    vec = rng.standard_normal(tower.ambient.dim) + 0j
    herm = 0.5 * (vec + tower.ambient.adjoint_vecs(vec))
    proj = tower.ambient.apply_spectral(herm, lambda v: (v > 0).astype(float))
    corrupted = TowerData(tower.ambient, tower.sub_start, tower.sub_mid,
                          tower.sub_top, tower.e1, tower.ambient.element(proj),
                          tower.tau, tower.lam, seed=tower.seed)
    rep = verify_tower_premises(corrupted)
    assert not rep.passed
    markov = rep["e2 Markov trace identity"]
    implement = rep["e2 implements expectation onto M"]
    assert markov.residual > 1e-3 or implement.residual > 1e-3


@pytest.mark.parametrize("name", ["z2", "z3"])
def test_trace_restriction_consistency(name, get_tower):
    # the ambient trace restricted to the middle algebra is the Markov trace
    tower = get_tower(name)
    mid = tower.sub_mid
    values = tower.tau.values(mid.images.T)
    n = int(round(1.0 / tower.lam))
    diag_units = [i for i, (_, k, l) in enumerate(mid.sub.basis_labels()) if k == l]
    assert rel_residual(values[diag_units], np.full(len(diag_units), 1.0 / n)) < TOL


@pytest.mark.parametrize("order", [7, 10])
def test_mid_in_top_copies_units_exactly(order):
    # restrict_to divides by v_j* v_j after the contraction, so a copied
    # unit has the coordinate 1 exactly; with the rows scaled first, these
    # orders held 0.9999999999999999 in five and three entries
    images = build_tower_from_group(cyclic(order)).mid_in_top.images
    assert np.isin(images, [0, 1]).all()
