"""Contraction over the support: the product kernel, the d**4 axiom rows and
the rank test skip the exact zeros of their operands.  The kernel must equal
a dense per-block product on every zero pattern, an inf or NaN must still
propagate, and the support must come from the data, so a fault outside the
support of the unperturbed structure still fails every row that reads it.

Boxes over the support: the d**4 rows build both sides only on boxes of the
output entries that can be nonzero.  They must equal a dense reference
exactly, fold few boxes on tower data, and still propagate an inf or NaN.

Comparisons over the support: the residual fold skips entries that are
exact zeros on both sides, and the embedding check forms only the unit
pairs whose product or expected value can be nonzero.  Both must equal
their dense references bit for bit."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weakhopf.tower
from weakhopf import _linalg, axioms
from weakhopf._linalg import box_slabs, numeric_rank, rel_residual, streamed_residual
from weakhopf.actions import ActionData, verify_action
from weakhopf.errors import InvariantViolation
from weakhopf.groups import cyclic
from weakhopf.multimatrix import MultiMatrixAlgebra, SubalgebraEmbedding
from weakhopf.reconstruct import StructureBundle, identity_suite, reconstruct

from test_multimatrix import (
    dense_residuals,
    dense_verify,
    gns_basic_construction,
    m2_c_in_m3_m2,
    m2_in_m4_m2,
    rotated,
)

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


def _off_the_support(a, eps=1e-3):
    """``a`` with eps written at its first exact zero."""
    bent = a.copy()
    bent[tuple(np.argwhere(a == 0)[0])] = eps
    return bent


def test_a_fault_off_the_coproduct_support_fails_every_row(get_tower, get_reconstruction):
    # the module law does not read the coproduct: it gets eps written off
    # the support of the module tensor
    tower, rec = get_tower("z3"), get_reconstruction("z3")
    bent = _bent_off_the_support(rec.on_b.hopf)
    rep = identity_suite(tower, dataclasses.replace(
        rec, on_b=StructureBundle(bent, rec.on_b.index_element)))
    action = ActionData(bent, tower.sub_top.sub, tower.module_tensor)
    acted = ActionData(rec.on_b.hopf.copy_with(), tower.sub_top.sub,
                       _off_the_support(tower.module_tensor))
    residuals = [axioms.coassociativity(bent), axioms.multiplicativity(bent),
                 rep["product against module elements"].residual,
                 rep["expectation comultiplicativity"].residual,
                 verify_action(action)["action multiplicative on products"].residual,
                 verify_action(acted)["module law"].residual]
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


def test_nan_off_the_coproduct_support_gives_nan_rows(get_tower, get_reconstruction,
                                                     monkeypatch):
    # the tower's rows take the join on their nonzero entries; a NaN, even at
    # an exact zero, sends them to full boxes, where it propagates
    def no_join(*sides):
        raise AssertionError("a non-finite operand took the join")
    monkeypatch.setattr(axioms, "joined_slabs", no_join)
    tower, rec = get_tower("z3"), get_reconstruction("z3")
    delta = rec.on_b.hopf.delta.copy()
    delta[tuple(np.argwhere(delta == 0)[0])] = np.nan
    bent = rec.on_b.hopf.copy_with(delta=delta)
    m1 = tower.sub_top.sub
    for residual in (axioms.coassociativity(bent), axioms.multiplicativity(bent),
                     axioms.module_multiplicativity(bent, tower.module_tensor, m1),
                     axioms.product_decomposition(bent, tower)):
        assert math.isnan(residual)


# -- the d**4 rows over their boxes ---------------------------------------------

SMALL_SHAPES = st.lists(st.integers(1, 2), min_size=1, max_size=4)


def _integral(rng, shape, pattern):
    """Gaussian integers in [-2, 2] in the zero pattern of :func:`_operand`,
    so every product and sum, in any order, is exact."""
    vals = rng.integers(-2, 3, shape) + 1j * rng.integers(-2, 3, shape)
    return np.where(_operand(rng, shape, pattern) != 0, vals, 0)


@st.composite
def boxed_rows_input(draw):
    """A random structure for every boxed row: B and a carrier M (their
    tensors need not satisfy any axiom) and an ambient holding images of
    both, each in a drawn zero pattern; a twist or none; a slab size; and
    possibly an inf or NaN written at an exact zero of Delta or of the
    action tensor."""
    b = MultiMatrixAlgebra(draw(SMALL_SHAPES))
    m = MultiMatrixAlgebra(draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)))
    amb = MultiMatrixAlgebra(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    rng = np.random.default_rng(draw(SEEDS))
    data = dict(
        delta=_integral(rng, (b.dim,) * 3, draw(PATTERNS)),
        act=_integral(rng, (b.dim, m.dim, m.dim), draw(PATTERNS)),
        b_img=_integral(rng, (amb.dim, b.dim), draw(PATTERNS)),
        m_img=_integral(rng, (amb.dim, m.dim), draw(PATTERNS)))
    twisted = draw(st.booleans())
    hinv_b = _integral(rng, (b.dim,), "full") if twisted else None
    hinv_m = _integral(rng, (m.dim,), "full") if twisted else None
    poisoned = draw(st.sampled_from([None, "delta", "act"]))
    if poisoned is not None and (data[poisoned] == 0).any():
        data[poisoned][tuple(np.argwhere(data[poisoned] == 0)[0])] = \
            draw(st.sampled_from([np.nan, np.inf]))
    else:
        poisoned = None
    slab = draw(st.sampled_from([1, 7, 64, _linalg._SLAB]))
    return b, m, amb, data, hinv_b, hinv_m, poisoned, slab


def dense_boxed_rows(b, m, amb, data, hinv_b, hinv_m):
    """Each boxed row with both sides formed over every entry, one leading
    index at a time, and compared by :func:`dense_fold`.  As in the rows, a
    sum over the legs of Delta(i) runs over the legs where Delta(i) is
    nonzero (an inf or NaN counts), so an inf or NaN that only an exact zero
    of Delta(i) would meet is not read; every other contraction runs over
    every index."""
    delta, act = data["delta"], data["act"]
    mult_b, mult_m, mult_a = b.mult_tensor, m.mult_tensor, amb.mult_tensor
    hb = b.unit().vec if hinv_b is None else hinv_b
    hm = m.unit().vec if hinv_m is None else hinv_m

    def ein(spec, *ops):
        return np.einsum(spec, *ops, optimize=True)
    twisted = ein("crs,t,tsS->crS", delta, hb, mult_b)  # (1 (x) H^-1) Delta(c)
    right = ein("t,qyv,tvV->qyV", hm, act, mult_m)     # H^-1 (u_q |> y)
    b_basis, m_basis = data["b_img"].T, data["m_img"].T
    b_right = b_basis if hinv_b is None else ein("a,qb,abr->qr", data["b_img"] @ hinv_b,
                                                b_basis, mult_a)
    products = ein("yk,ql,klr->yqr", m_basis, b_right, mult_a)
    legs = [(np.flatnonzero(d.astype(bool).any(axis=1)),
             np.flatnonzero(d.astype(bool).any(axis=0))) for d in delta]
    rows = {
        "coassociativity": [(ein("pc,pab->abc", d[ps], delta[ps]),
                             ein("aq,qbc->abc", d[:, qs], delta[qs]))
                            for d, (ps, qs) in zip(delta, legs)],
        "multiplicativity": [(ein("bck,kPQ->bcPQ", mult_b, delta),
                              ein("bpq,crs,prP,qsQ->bcPQ", delta, twisted, mult_b, mult_b))],
        "module law": [(ein("bck,kxy->bcxy", mult_b, act), ein("cxz,bzy->bcxy", act, act))],
        "module multiplicativity": [
            (ein("xyk,kz->xyz", mult_m, a), ein("pq,pxu,qyv,uvz->xyz", d[ps], act[ps], right,
                                                mult_m))
            for a, d, (ps, _) in zip(act, delta, legs)],
        "product decomposition": [
            (ein("k,xl,klr->xr", bk, m_basis, mult_a), ein("pq,pxy,yqr->xr", d[ps], act[ps],
                                                           products))
            for bk, d, (ps, _) in zip(b_basis, delta, legs)],
    }
    return {name: dense_fold(pairs) for name, pairs in rows.items()}


def boxed_rows(b, m, amb, data, hinv_b, hinv_m):
    """The same rows as the library computes them."""
    hopf = SimpleNamespace(algebra=b, dim=b.dim, delta=data["delta"], unit_vec=b.unit().vec)
    tower = SimpleNamespace(ambient=amb, module_tensor=data["act"],
                            rel_b=SimpleNamespace(images=data["b_img"]),
                            sub_top=SimpleNamespace(images=data["m_img"]))
    return {
        "coassociativity": axioms.coassociativity(hopf),
        "multiplicativity": axioms.multiplicativity(hopf, hinv_b),
        "module law": axioms.module_law(hopf, data["act"]),
        "module multiplicativity": axioms.module_multiplicativity(hopf, data["act"], m, hinv_m),
        "product decomposition": axioms.product_decomposition(hopf, tower, hinv_b),
    }


# rows that read every entry of an operand, so that an inf or NaN in it
# always shows; the others read it through a sum over the legs of Delta
READS = {"delta": ("coassociativity", "multiplicativity"),
         "act": ("module law", "module multiplicativity")}


@PROPERTY
@given(boxed_rows_input())
def test_boxed_rows_equal_their_dense_full_slab_reference(case):
    # Gaussian-integer operands make every sum exact, so the boxed rows and
    # the dense reference agree as floats; an inf or NaN written where the
    # operand was an exact zero, outside every box it had, still propagates
    b, m, amb, data, hinv_b, hinv_m, poisoned, slab = case
    with np.errstate(invalid="ignore", over="ignore"):
        expected = dense_boxed_rows(b, m, amb, data, hinv_b, hinv_m)
        default, _linalg._SLAB = _linalg._SLAB, slab
        try:
            got = boxed_rows(b, m, amb, data, hinv_b, hinv_m)
        finally:
            _linalg._SLAB = default
    for name, value in got.items():
        assert np.array_equal(value, expected[name], equal_nan=True), (name, value,
                                                                      expected[name])
    for name in READS.get(poisoned, ()):
        assert np.isnan(got[name]), name


BOX_FOLDS = 16


@pytest.fixture(scope="module")
def cyclic8_rows():
    tower = weakhopf.tower.build_tower_from_group(cyclic(8))
    hopf = reconstruct(tower).on_b.hopf
    action = ActionData(hopf, tower.sub_top.sub, tower.module_tensor)
    return {
        "coassociativity": lambda: axioms.coassociativity(hopf),
        "multiplicativity": lambda: axioms.multiplicativity(hopf),
        "module law": lambda: axioms.module_law(hopf, action.tensor),
        "module multiplicativity": lambda: axioms.module_multiplicativity(
            hopf, action.tensor, action.carrier),
        "product decomposition": lambda: axioms.product_decomposition(hopf, tower),
    }


@pytest.mark.parametrize("row", ["coassociativity", "multiplicativity", "module law",
                                 "module multiplicativity", "product decomposition"])
def test_rows_on_the_cyclic8_tower_fold_few_boxes(cyclic8_rows, monkeypatch, row):
    # B and M1 have 64 units, and a sweep one leading index at a time folds
    # 64 slabs; a box holds every leading index whose output entries can be
    # nonzero within the slab size
    fold = _linalg.streamed_residual
    folds = []

    def counting(pairs):
        folds.append(0)

        def tally():
            for pair in pairs:
                folds[-1] += 1
                yield pair
        return fold(tally())

    monkeypatch.setattr(axioms, "streamed_residual", counting)
    cyclic8_rows[row]()
    assert len(folds) == 1 and 1 <= folds[0] <= BOX_FOLDS, folds


# -- the residual fold --------------------------------------------------------


def dense_fold(pairs):
    """The three maxima |lhs|, |rhs| and |lhs - rhs| over every entry of
    every pair, zeros included, and the relative residual they give."""
    peaks = [(0.0, 0.0, 0.0)]
    for lhs, rhs in pairs:
        diff = np.abs(lhs - rhs)
        if diff.size:
            peaks.append((np.abs(lhs).max(), np.abs(rhs).max(), diff.max()))
    top_lhs, top_rhs, top_diff = np.max(peaks, axis=0)
    return float(top_diff / max(top_lhs, top_rhs, 1.0))


def _signed_sparse(rng, shape):
    """About 70 % exact zeros, a third of them -0.0 in one or both parts."""
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    zeros = np.zeros(shape, dtype=complex)
    zeros.real[rng.random(shape) < 1 / 3] = -0.0
    zeros.imag[rng.random(shape) < 1 / 3] = -0.0
    return np.where(rng.random(shape) < 0.3, vals, zeros)


@st.composite
def fold_operands(draw):
    """``lhs`` of rank one to three (sizes 0-5) and an ``rhs`` of lower or
    equal rank that broadcasts against it, possibly with a NaN or inf placed
    where the other side is exactly zero; and a slab height."""
    shape = tuple(draw(st.lists(st.integers(0, 5), min_size=1, max_size=3)))
    rank = draw(st.integers(0, len(shape)))
    rhs_shape = tuple(draw(st.sampled_from([1, n])) for n in shape[len(shape) - rank:])
    rng = np.random.default_rng(draw(SEEDS))
    lhs, rhs = _signed_sparse(rng, shape), _signed_sparse(rng, rhs_shape)
    poison = draw(st.sampled_from([None, np.nan, np.inf, complex(0, -np.inf)]))
    if poison is not None and lhs.size and rhs.size:
        at = tuple(int(rng.integers(n)) for n in rhs_shape)
        hit = np.zeros(rhs_shape, dtype=bool)
        hit[at] = True
        hit = np.broadcast_to(hit, shape)
        if draw(st.booleans()):
            rhs[at] = 0.0
            lhs[hit] = poison
        else:
            lhs[hit] = 0.0
            rhs[at] = poison
    else:
        poison = None
    return lhs, rhs, poison, draw(st.integers(1, 4))


@PROPERTY
@given(fold_operands())
def test_the_fold_equals_the_dense_three_maxima(operands):
    lhs, rhs, poison, rows = operands
    same_rank = rhs.ndim == lhs.ndim and rhs.shape[:1] != (1,)
    pairs = [(lhs[i:i + rows], rhs[i:i + rows] if same_rank else rhs)
             for i in range(0, len(lhs), rows)]
    with np.errstate(invalid="ignore"):  # inf - inf and inf / inf
        got, expected = streamed_residual(pairs), dense_fold(pairs)
        whole = rel_residual(lhs, rhs), dense_fold([(lhs, rhs)])
    assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(*whole, equal_nan=True)
    if poison is not None:
        assert math.isnan(got)


@PROPERTY
@given(st.integers(0, 8), st.lists(st.integers(1, 8), min_size=1, max_size=3),
       st.integers(1, 40), st.floats(0.0, 1.0), st.sampled_from([1, 7, 64, _linalg._SLAB]),
       SEEDS)
def test_box_slabs_cover_every_marked_entry_once(n, lengths, width, density, slab, seed):
    rng = np.random.default_rng(seed)
    masks = [rng.random((n, length)) < density for length in lengths]
    live = np.logical_and.reduce([m.any(axis=1) for m in masks])  # rows with entries
    covered = np.zeros(n, dtype=int)
    stop = 0
    default, _linalg._SLAB = _linalg._SLAB, slab
    try:
        boxes = list(box_slabs(masks, width=width))
    finally:
        _linalg._SLAB = default
    for rows, axes in boxes:
        assert rows.start >= stop
        stop = rows.stop
        covered[rows] += 1
        volume = rows.stop - rows.start
        for mask, at in zip(masks, axes):
            union = mask[rows].any(axis=0)
            if isinstance(at, slice):
                assert union.all()
            else:
                assert np.array_equal(at, union.nonzero()[0]) and len(at)
            volume *= union.sum()
        assert volume * width <= slab or rows.stop - rows.start == 1
    assert not live[covered == 0].any() and covered.max(initial=0) <= 1


# -- the embedding check over meeting supports ---------------------------------


def supports_meet(alg, u, v):
    """Whether a nonzero column of u[i] meets a nonzero row of v[j] in
    some block, read from ``support_lines``."""
    return alg.support_lines(u)[1] @ alg.support_lines(v)[0].T > 0


@PROPERTY
@given(SHAPES, SEEDS, PATTERNS, PATTERNS, st.integers(1, 4), st.integers(1, 4))
def test_products_of_pairs_whose_supports_never_meet_are_zero(blocks, seed, left,
                                                             right, a, c):
    alg = MultiMatrixAlgebra(blocks)
    rng = np.random.default_rng(seed)
    u, v = _operand(rng, (a, alg.dim), left), _operand(rng, (c, alg.dim), right)
    meet = supports_meet(alg, u, v)
    assert meet.shape == (a, c)
    products = dense_block_product(alg, u[:, None], v[None])
    assert not products[~meet].any()
    # the rows and columns of an adjoint are the columns and rows
    rows, cols = alg.support_lines(u)
    star_rows, star_cols = alg.support_lines(alg.adjoint_vecs(u))
    assert np.array_equal(rows, star_cols) and np.array_equal(cols, star_rows)


def test_verify_equals_the_dense_reference_on_tower_and_dense_embeddings(monkeypatch):
    # both basic constructions of the towers of cyclic(2-4) are recorded:
    # their inclusions, and the GNS realizations the reference builds from
    # their inputs, are large copy maps
    calls = []
    build = weakhopf.tower.basic_construction

    def recording(sub, trace, *args, **kwargs):
        ext = build(sub, trace, *args, **kwargs)
        calls.append((sub, trace, ext))
        return ext

    monkeypatch.setattr(weakhopf.tower, "basic_construction", recording)
    towers = [weakhopf.tower.build_tower_from_group(cyclic(n)) for n in (2, 3, 4)]
    assert len(calls) == 2 * len(towers)
    embeddings = [getattr(tower, name) for tower in towers
                  for name in ("rel_a", "rel_b", "start_commutant_full")]
    embeddings += [ext.inclusion for _, _, ext in calls]
    embeddings += [gns_basic_construction(sub, trace)[0] for sub, trace, _ in calls]
    embeddings += [rotated(m2_in_m4_m2()), rotated(m2_c_in_m3_m2())]
    for emb in embeddings:
        assert emb.residuals() == dense_residuals(emb), emb
        assert emb.verify() < 1e-12


def _two_disjoint_projections(emb):
    """Ambient block and rows ``(beta, (a, i), (b, j))``: columns a and b of
    two 1 x 1 sub blocks whose images are the diagonal units E_ii and E_jj
    of ambient block beta, i != j, so that their supports do not meet."""
    img, amb = emb.images, emb.ambient
    spots = {}
    for alpha, m in enumerate(emb.sub.blocks):
        col = emb.sub.basis_index(alpha, 0, 0)
        (at,) = np.flatnonzero(img[:, col])
        beta = int(amb.block_index[at])
        row = (at - amb.block_slice(beta).start) // amb.blocks[beta]
        spots.setdefault(beta, []).append((col, row))
    beta, found = next((beta, found) for beta, found in spots.items() if len(found) > 1)
    return beta, found[0], found[1]


def test_a_fault_where_two_first_column_images_did_not_meet_fails_verify(get_tower):
    # h = t (E_ij + E_ji) added to image(f_a) = E_ii and taken from
    # image(f_b) = E_jj: the unit and the adjoints still hold, but
    # (E_ii + h)^2 - (E_ii + h) = t^2 (E_ii + E_jj) and
    # (E_ii + h)(E_jj - h) = -t^2 (E_ii + E_jj), against a scale of 1 + t^2
    emb = get_tower("z3").rel_b
    assert emb.sub.blocks == (1,) * emb.sub.dim and emb.verify() == 0.0
    beta, (a, i), (b, j) = _two_disjoint_projections(emb)
    amb = emb.ambient
    assert not supports_meet(amb, emb.images[:, [a]].T, emb.images[:, [b]].T).any()
    t = 0.5
    h = np.zeros(amb.dim, dtype=complex)
    h[amb.basis_index(beta, i, j)] = h[amb.basis_index(beta, j, i)] = t
    images = emb.images.copy()
    images[:, a] += h
    images[:, b] -= h
    bent = SubalgebraEmbedding(emb.sub, amb, images)
    assert supports_meet(amb, images[:, [a]].T, images[:, [b]].T).all()
    res = bent.residuals()
    assert res == dense_residuals(bent)
    assert res["unital"] == res["adjoint"] == 0.0
    assert res["multiplicative"] == pytest.approx(t ** 2 / (1 + t ** 2), rel=1e-15)
    with pytest.raises(InvariantViolation, match="not a subalgebra"):
        bent.require_valid()


@pytest.mark.parametrize("slab", [None, 1], ids=["one_block", "row_blocks"])
def test_a_fault_only_a_newly_meeting_pair_shows_at_full_size(get_tower, monkeypatch,
                                                              slab):
    # h = t (E_ij + E_ji) added to both E_ii and E_jj: each diagonal pair
    # is off by t^2 only, but (E_ii + h)(E_jj + h) = 2t E_ij + t^2 (E_ii + E_jj)
    # against an expected zero, so the residual is 2t / (1 + t^2) only if
    # the pair whose supports now meet is formed.  With slabs of one entry
    # each row multiplies only the partners formed for it.
    if slab is not None:
        monkeypatch.setattr(_linalg, "_SLAB", slab)
    emb = get_tower("z3").rel_b
    beta, (a, i), (b, j) = _two_disjoint_projections(emb)
    amb = emb.ambient
    t = 0.25
    images = emb.images.copy()
    for col in (a, b):
        images[amb.basis_index(beta, i, j), col] = images[amb.basis_index(beta, j, i), col] = t
    bent = SubalgebraEmbedding(emb.sub, amb, images)
    res = bent.residuals()
    assert res == dense_residuals(bent)
    assert res["multiplicative"] == pytest.approx(2 * t / (1 + t ** 2), rel=1e-15)


@pytest.mark.parametrize("slab", [None, 1], ids=["one_block", "row_blocks"])
def test_a_zero_partial_isometry_fails_its_expected_pairs(get_tower, monkeypatch, slab):
    # image(f_10) = image(f_01) = 0 keeps the unit and the adjoints, and
    # its products meet nothing; only the pairs whose expected unit exists,
    # w_1* w_1 = image(f_00) and w_1 w_1* = image(f_11), show the fault
    if slab is not None:
        monkeypatch.setattr(_linalg, "_SLAB", slab)
    emb = get_tower("z3").start_commutant_full
    images = emb.images.copy()
    images[:, [emb.sub.basis_index(0, 1, 0), emb.sub.basis_index(0, 0, 1)]] = 0
    bent = SubalgebraEmbedding(emb.sub, emb.ambient, images)
    res = bent.residuals()
    assert res == dense_residuals(bent)
    assert res["unital"] == res["adjoint"] == 0.0 and res["multiplicative"] == 1.0


@pytest.mark.parametrize("unit", [(0, 0, 0), (1, 2, 0), (2, 1, 2)],
                         ids=["corner", "first_column", "off_column"])
@pytest.mark.parametrize("on_support", [True, False], ids=["on", "off"])
def test_a_nan_in_one_image_makes_verify_nan(get_tower, unit, on_support):
    emb = get_tower("z3").start_commutant_full
    col = emb.sub.basis_index(*unit)
    images = emb.images.copy()
    at = np.flatnonzero((images[:, col] != 0) == on_support)[0]
    images[at, col] = np.nan
    bent = SubalgebraEmbedding(emb.sub, emb.ambient, images)
    assert math.isnan(bent.verify())
    assert math.isnan(dense_verify(bent))
