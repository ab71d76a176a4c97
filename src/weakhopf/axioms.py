"""The weak Hopf identities, each written once as a named row.

A row returns the relative residual of one identity over full bases.  It
takes a :class:`~weakhopf.weak_hopf.WeakHopfData`; the index-element rows
also take H and ``intertwines`` takes two structures and a basis change.  The
structure on the relative commutant B = M' cap M2 satisfies these identities
twisted by its index element H (Cor 4.16, Prop 4.14-4.15).  The twisted rows
take the inverse ``hinv`` of H in carrier coordinates and default to H = 1,
where they are the untwisted weak C*-Hopf axioms of Boehm-Nill-Szlachanyi.
``module_law`` takes an action tensor, ``module_multiplicativity`` and
``action_star_compatible`` (axiom (2)) an action tensor on a carrier, and
``product_decomposition`` a tower.  ``module_multiplicativity`` and
``product_decomposition`` take H^-1 too: at H = 1 they are axiom (1) of an
action and the product check of ``canonical_action``, at the tower's H^-1
Prop 4.13 and Cor 4.12 of ``identity_suite``.
Callers (``verify_axioms``, ``check_bundle``, ``identity_suite``,
``classify``, ``deform``, ``verify_action``, ``canonical_action``,
``haar_projection``, ``haar_functional``) pick rows under their own check
names and refs.  They read every row that takes a structure
through that structure's memo, ``hopf.row(axioms.<row>, *args)``, so a row
is evaluated once per structure, twist and operand however many reports
list it.  At a trivial index element every caller passes no H^-1 (the
untwisted row), so the suite, ``check_bundle``, ``verify_axioms`` and the
canonical action share one entry per row.  The exceptions are
``intertwines`` (two structures), ``index_element`` (an element, not a
residual), the two Haar conditions (arrays, not residuals) and
``antipode_anti_homomorphism``, which is itself the larger of two memoised
rows.

The Haar rows evaluate the conditions defining the Haar projection or
functional (``haar_*_conditions``, which the solves of abstract input read
at the units) at one candidate, in d**2 memory.  A normalised Haar integral
is unique when it exists (Boehm-Nill-Szlachanyi, J. Algebra 221, 1999,
section 3), so ``classify`` and ``deform`` read them at closed forms and
solve nothing.

Rows multiply through the algebra's block kernels (``mul_vecs``,
``pairwise_mul``, ``matmul_vecs``): a sum over coproduct legs such as
b_(1) S(b_(2)) is one broadcast product of the leg rows, summed.  Products
of coproducts come from the tensor square.  A map applied to products of
basis units (Delta(u_b u_c), mat(u_i u_j), also for the basis change of
``intertwines``, b |> (u_x u_y), and the counit values eps(u_p u_c)) is a
gather through the algebra's ``product_index`` (``unit_products``):
u_i u_j is one unit or zero, so nothing is multiplied.

The rows whose two sides have d**4 entries (``coassociativity``,
``multiplicativity``, ``module_law``, ``module_multiplicativity`` and
``product_decomposition``) take one of two paths, and both fold their
sides with ``streamed_residual``, so no operand-sized array is ever held.

The join.  Each side is a sum of products of the operands' nonzero entries
(Delta, the action tensor, the unit images, the unit products), and a
product lands on an output entry whose units come from block offsets, rows
and columns: u_k u_l is a unit exactly when the column of u_k is the row of
u_l (``MultiMatrixAlgebra.unit_lines``), so no ``product_index`` of the
tensor square is built.  ``_linalg.SparseJoin`` pairs two entry lists on a
key, as Gustavson's sparse product does, so a side costs its nonzero terms;
``_linalg.joined_slabs`` sums the terms landing on one entry and hands both
sides, aligned on the union of their entries, to the fold, a run of leading
indices at a time.  A side of three factors (the twisted coproduct, the legs
b_(1) |> x, H^-1 (b |> y), the products u_y H^-1 u_q) is a chain of joins,
each summed before the next, in the order the boxes multiply; every
residual compared (below) is bit-identical on both paths.

The boxes.  For each leading index (a row of the sweep) a few bool matrix
products of the operands' supports mark, per output axis, the indices at
which either side can be nonzero; ``_linalg.box_slabs`` groups consecutive
rows into boxes of about one slab and gathers the operands at the union of
their marks.  Outside its box both sides are exact zeros, which the fold
skips anyway (``_linalg.streamed_residual``), so every residual is
bit-identical to a sweep over every entry.  An axis marked everywhere is
taken as a plain slice, so dense data builds its slabs with no gather; an
operand holding an inf or NaN makes every box full, so it propagates.
``multiplicativity`` and ``product_decomposition`` box their tensor-square
and ambient axes by whole blocks and multiply in the summand of those blocks
(``MultiMatrixAlgebra.summand``); the carrier axis of
``module_multiplicativity`` is whole.

Which path.  A row reads its marks off the nonzero entries, sizes its
boxes, and counts the terms of its joins exactly (a bincount of keys, no
pair formed).  It takes the join when every operand is finite and
``_TERM_COST`` (4) times the terms are fewer than the entries both sides
hold on the boxes; otherwise it takes the boxes, unchanged.  A join term
costs 45-77 ns against 13-19 ns per box entry (C[S4] and C[Z12] forced
through both paths, one core).  Matrix-unit data joins: at cyclic(6) the
coassociativity join forms 2,592 terms where its boxes hold 559,872 entries
(1.1 ms against 5.6 ms), and at cyclic(12) the five rows take 0.36 s where
the boxes took 1.37 s.  A structure split by ``decompose`` carries rounding
noise in every entry and keeps the boxes: on C[S4] the coassociativity join
would form 15.9 million terms (0.71 s) against 663,552 box entries (9 ms).
Forced through both paths, every row is bit-identical on the cyclic towers
2-10, C < C[S3], the four inclusion towers, the pair groupoids 2-6, plain
and undeformed, and the function algebras of Z12, S3 and S4; on the split
group algebras, which keep the boxes, the join differs in the last bit.

Support rule: a contraction skips exact zeros only, and so do a box and a
join.  Each box of Delta is contracted over the leg indices where its rows
are nonzero (``_linalg.support``), ``product_decomposition`` forms only the
M1 x B products that its legs use, and products of elements go through the
block kernels, which contract over the support of their left factor.
Supports, boxes and entries are read from the operands on every call, never
from the structure they were built from, so a fault off the old support
still shows in full, and a NaN or inf still propagates.
"""

import math
from typing import NamedTuple

import numpy as np

from ._linalg import (
    SparseJoin,
    box_slabs,
    joined_slabs,
    reach,
    rel_residual,
    slabs,
    streamed_residual,
    summed,
    support,
)
from .multimatrix import take_units


class _Entries(NamedTuple):
    """The nonzero entries of an array of ``shape`` (an inf or NaN counts, a
    -0.0 does not): their index arrays ``at``, in row-major order, and their
    ``values``."""
    at: tuple
    values: np.ndarray
    shape: tuple


def _entries(a: np.ndarray) -> _Entries:
    at = np.nonzero(a)
    return _Entries(at, a[at], a.shape)


def _marks(rows: np.ndarray, cols: np.ndarray, shape) -> np.ndarray:
    """A bool matrix of ``shape``, True at the index pairs ``(rows, cols)``."""
    out = np.zeros(shape, dtype=bool)
    out[rows, cols] = True
    return out


def _lines(entries: _Entries, axis: int) -> np.ndarray:
    """(shape[0], shape[axis]) bool: whether row i of the array holds a
    nonzero entry at each index of ``axis``."""
    shape = entries.shape
    return _marks(entries.at[0], entries.at[axis], (shape[0], shape[axis]))


def _products_held(index: np.ndarray, held: np.ndarray):
    """``(used, reached)`` from a ``product_index`` and a bool per unit:
    used[i, j] when u_i u_j is a unit u_k with held[k], and then
    reached[i, k]."""
    used = (index >= 0) & held[index]
    reached = np.zeros(index.shape, dtype=bool)
    reached[used.nonzero()[0], index[used]] = True
    return used, reached


def _box(a: np.ndarray, *axes) -> np.ndarray:
    """``a`` gathered along its leading axes at the index arrays ``axes``;
    a slice or None takes an axis whole (a view, no gather)."""
    for axis, at in enumerate(axes):
        if isinstance(at, np.ndarray):
            a = a.take(at, axis=axis)
    return a


def _unit_products(alg):
    """``(i, j, k)``: every product u_i u_j = u_k of units of ``alg``, by i
    and then j."""
    i, j = np.nonzero(alg.product_index >= 0)
    return i, j, alg.product_index[i, j]


# a join term takes about the time of four box entries: 45-77 ns per term
# against 13-19 ns per entry, measured on the rows of C[S4] and the
# coassociativity of C[Z12] (0.5-16 million terms) forced through both
# paths, one core
_TERM_COST = 4


class _Budget:
    """The boxes of a row's sweep (``box_slabs`` of ``masks``, each entry
    ``width`` long for their sizing) and the terms its joins may form: fewer
    than a ``_TERM_COST``-th of the entries both sides form on the boxes,
    each entry ``extent`` long, and none when one of ``values`` holds an inf
    or NaN, which takes full boxes."""

    def __init__(self, masks, *values, width: int = 1, extent: int = 1):
        self.boxes = list(box_slabs(masks, *values, width=width))
        self.left = 0
        if all(np.isfinite(v).all() for v in values):
            self.left = 2 * extent * sum(
                (rows.stop - rows.start) * math.prod(
                    len(m[0]) if isinstance(at, slice) else len(at) for m, at in zip(masks, axes))
                for rows, axes in self.boxes)

    def takes(self, *joins) -> bool:
        """Spends the terms of ``joins`` (None spends nothing): whether every
        join so far fits."""
        self.left -= _TERM_COST * sum(join.terms for join in joins if join is not None)
        return self.left > 0


def _left_times(alg, h: np.ndarray, entries: _Entries):
    """``(join, entries)``: ``entries`` of an array whose last axis holds
    units u of ``alg``, with every u replaced by h u, and the join that forms
    them, of the rows of the u against the columns of the units of h; the
    terms landing on one entry are summed."""
    row_of, col_of = alg.unit_lines
    (t,), h_values, _ = _entries(h)
    at, values, shape = entries
    join = SparseJoin(row_of[at[-1]], col_of[t], at[0])
    i, j = join.pairs()
    keys, sums = summed(np.ravel_multi_index(
        tuple(a[i] for a in at[:-1]) + (t[j] + col_of[at[-1][i]] - col_of[t[j]],), shape),
        h_values[j] * values[i])
    return join, _Entries(np.unravel_index(keys, shape), sums, shape)


def coassociativity(hopf) -> float:
    """(Delta (x) id) Delta = (id (x) Delta) Delta.  Entry (i, a, b, c) of
    the left side is a sum of Delta[i, p, c] Delta[p, a, b], of the right
    side a sum of Delta[i, a, q] Delta[q, b, c]; each axis of the box of
    row i collects the indices either can use."""
    delta = _entries(hopf.delta)
    (i, p, c), v, _ = delta
    first, second = _lines(delta, 1), _lines(delta, 2)
    masks = (first | reach(first, first),
             reach(first, second) | reach(second, first),
             second | reach(second, second))
    budget = _Budget(masks, v)
    lhs, rhs = SparseJoin(p, i, i), SparseJoin(c, i, i)
    if budget.takes(lhs, rhs):
        shape = (hopf.dim,) * 4
        return streamed_residual(joined_slabs(
            (lhs, lambda l, r: (np.ravel_multi_index((i[l], p[r], c[r], c[l]), shape),
                                v[l] * v[r])),
            (rhs, lambda l, r: (np.ravel_multi_index((i[l], p[l], p[r], c[r]), shape),
                                v[l] * v[r]))))

    def pairs():
        for rows, (a, b, c) in budget.boxes:
            part = hopf.delta[rows]
            ps, qs = support(part, 1, 2)
            yield (np.einsum("ipc,pab->iabc", _box(part[:, ps], None, None, c),
                             _box(hopf.delta[ps], None, a, b), optimize=True),
                   np.einsum("iaq,qbc->iabc", _box(part[:, :, qs], None, a),
                             _box(hopf.delta[qs], None, b, c), optimize=True))
    return streamed_residual(pairs())


def counit_left(hopf) -> float:
    """(eps (x) id) Delta = id."""
    return rel_residual(np.einsum("ipq,p->iq", hopf.delta, hopf.epsilon),
                        np.eye(hopf.dim))


def counit_right(hopf) -> float:
    """(id (x) eps) Delta = id."""
    return rel_residual(np.einsum("ipq,q->ip", hopf.delta, hopf.epsilon),
                        np.eye(hopf.dim))


def multiplicativity(hopf, hinv=None) -> float:
    """Delta(b c) = Delta(b) (1 (x) H^-1) Delta(c), all products taken in the
    tensor square.  Row b of the box holds the c with b c a unit whose
    coproduct is nonzero or with a nonzero row of the twisted Delta(c)
    meeting a nonzero column of Delta(b) in a block of the square, and the
    whole blocks of the square either side can reach; the right side is a
    product in the summand of those blocks."""
    alg, d = hopf.algebra, hopf.dim
    square, index = alg.tensor_square
    row_of, col_of = alg.unit_lines
    lines, blocks = sum(alg.blocks), len(alg.blocks)
    delta = _entries(hopf.delta)
    (i, p, q), v, _ = delta
    twist, twisted = (None, delta) if hinv is None else _left_times(alg, hinv, delta)
    (ti, tp, tq), tv, _ = twisted
    # supports in the square, read off the entries (the twisted ones cover
    # every entry some term reaches, so the dense product's support too):
    # u_p (x) u_q lies in its block (a, b) for u_p in block a and u_q in
    # block b, in the row (column) of the pair of their rows (columns)
    in_delta, in_twisted = (
        _marks(at, alg.block_index[legs] * blocks + alg.block_index[other], (d, blocks ** 2))
        for at, legs, other in ((i, p, q), (ti, tp, tq)))
    meets = reach(_marks(i, col_of[p] * lines + col_of[q], (d, lines ** 2)),
                  _marks(ti, row_of[tp] * lines + row_of[tq], (d, lines ** 2)).T)
    products = alg.product_index
    used, reached = _products_held(products, in_delta.any(axis=1))
    reaching = reach(reached, in_delta) | (in_delta & reach(meets, in_twisted))
    masks = (used | meets, reaching[:, square.block_index])
    budget = _Budget(masks, v, tv, *(() if hinv is None else (hinv,)))
    b, c, k = _unit_products(alg)
    lhs = SparseJoin(k, i, b)
    rhs = SparseJoin(col_of[p] * lines + col_of[q], row_of[tp] * lines + row_of[tq], i)
    if budget.takes(twist, lhs, rhs):
        shape = (d,) * 4
        return streamed_residual(joined_slabs(
            (lhs, lambda l, r: (np.ravel_multi_index((b[l], c[l], p[r], q[r]), shape), v[r])),
            (rhs, lambda l, r: (np.ravel_multi_index(
                (i[l], ti[r], p[l] + col_of[tp[r]] - col_of[p[l]],
                 q[l] + col_of[tq[r]] - col_of[q[l]]), shape), v[l] * tv[r]))))

    coproducts = np.empty((d, square.dim), dtype=complex)
    coproducts[:, index] = hopf.delta
    twisted = np.empty(square.dim, dtype=complex)
    twisted[index] = np.outer(hopf.unit_vec, hopf.unit_vec if hinv is None else hinv)
    twisted = square.mul_vecs(twisted, coproducts)

    def pairs():
        for rows, (cs, ss) in budget.boxes:
            yield (take_units(_box(coproducts, None, ss), _box(products[rows], None, cs)),
                   square.summand(ss).pairwise_mul(_box(coproducts[rows], None, ss),
                                                   _box(twisted, cs, ss)))
    return streamed_residual(pairs())


def star_preserving(hopf) -> float:
    """Delta(b*) = Delta(b)^(* (x) *)."""
    star = hopf.star_matrix
    lhs = np.einsum("ji,jpq->ipq", star, hopf.delta, optimize=True)
    rhs = np.einsum("iPQ,pP,qQ->ipq", np.conj(hopf.delta), star, star, optimize=True)
    return rel_residual(lhs, rhs)


def target_counital_relation(hopf) -> float:
    """b eps_t(c) = eps(b_(1) c) b_(2)."""
    lhs = hopf.algebra.pairwise_mul(np.eye(hopf.dim), hopf.target_counital.T)
    rhs = np.einsum("bpq,pc->bcq", hopf.delta, hopf.counit_form, optimize=True)
    return rel_residual(lhs, rhs)


def target_counital_absorption(hopf) -> float:
    """b_(1) (x) eps_t(b_(2)) = 1_(1) b (x) 1_(2)."""
    lhs = np.einsum("bpq,sq->bps", hopf.delta, hopf.target_counital, optimize=True)
    # row q of delta_unit.T is the first leg paired with u_q
    rhs = hopf.algebra.pairwise_mul(hopf.delta_unit.T, np.eye(hopf.dim))
    return rel_residual(lhs, rhs.transpose(1, 2, 0))


def source_counital_relation(hopf) -> float:
    """eps_s(c) b = b_(1) eps(c b_(2))."""
    lhs = hopf.algebra.pairwise_mul(hopf.source_counital.T, np.eye(hopf.dim))
    rhs = np.einsum("bpq,cq->cbp", hopf.delta, hopf.counit_form, optimize=True)
    return rel_residual(lhs, rhs)


def source_counital_absorption(hopf) -> float:
    """eps_s(b_(1)) (x) b_(2) = 1_(1) (x) b 1_(2)."""
    lhs = np.einsum("bpq,sp->bsq", hopf.delta, hopf.source_counital, optimize=True)
    # row p of delta_unit is the second leg paired with u_p
    rhs = hopf.algebra.pairwise_mul(np.eye(hopf.dim), hopf.delta_unit)
    return rel_residual(lhs, rhs)


def antipode_counital(hopf, hinv=None) -> float:
    """b_(1) S(b_(2) H^-1) = eps_t(b)."""
    alg = hopf.algebra
    sr = hopf.antipode if hinv is None else hopf.antipode @ alg.mul_vecs(np.eye(hopf.dim), hinv).T
    # sum over q of (the first leg paired with u_q) times S(u_q H^-1)
    lhs = alg.mul_vecs(hopf.delta.transpose(0, 2, 1), sr.T).sum(axis=1)
    return rel_residual(lhs, hopf.target_counital.T)


def antipode_source(hopf) -> float:
    """S(b_(1)) b_(2) = eps_s(b)."""
    lhs = hopf.algebra.mul_vecs(hopf.antipode.T, hopf.delta).sum(axis=1)
    return rel_residual(lhs, hopf.source_counital.T)


def _reverses_products(hopf, mat: np.ndarray) -> float:
    """mat(u_i u_j) = mat(u_j) mat(u_i) for a linear or antilinear ``mat``
    (the same test: the basis-unit products have real coefficients)."""
    images = mat.T  # row i: mat(u_i)
    lhs = hopf.algebra.unit_products(images)
    rhs = hopf.algebra.pairwise_mul(images, images).transpose(1, 0, 2)
    return rel_residual(lhs, rhs)


def anti_multiplicative(hopf) -> float:
    """S(b c) = S(c) S(b)."""
    return _reverses_products(hopf, hopf.antipode)


def anti_comultiplicative(hopf) -> float:
    """Delta(S(b)) = S(b_(2)) (x) S(b_(1))."""
    anti = hopf.antipode
    lhs = np.einsum("jb,jpq->bpq", anti, hopf.delta, optimize=True)
    rhs = np.einsum("bPQ,pQ,qP->bpq", hopf.delta, anti, anti, optimize=True)
    return rel_residual(lhs, rhs)


def antipode_anti_homomorphism(hopf) -> float:
    """Anti-multiplicative and anti-comultiplicative, the larger residual; both
    are read through the structure's row memo."""
    return max(hopf.row(anti_multiplicative), hopf.row(anti_comultiplicative))


def counit_antipode_invariant(hopf) -> float:
    """eps(S(b)) = eps(b)."""
    return rel_residual(hopf.epsilon @ hopf.antipode, hopf.epsilon)


def antipode_involutive(hopf) -> float:
    """S^2 = id."""
    return rel_residual(hopf.antipode @ hopf.antipode, np.eye(hopf.dim))


def antipode_star_compatible(hopf) -> float:
    """S(b*) = S(b)*."""
    star = hopf.star_matrix
    return rel_residual(hopf.antipode @ star, star @ np.conj(hopf.antipode))


def star_antipode_squared(hopf) -> float:
    """S(S(b*)*) = b."""
    antistar = hopf.antipode @ hopf.star_matrix
    return rel_residual(antistar @ np.conj(antistar), np.eye(hopf.dim))


def involution_squared(hopf) -> float:
    """b** = b."""
    star = hopf.star_matrix
    return rel_residual(star @ np.conj(star), np.eye(hopf.dim))


def involution_anti_multiplicative(hopf) -> float:
    """(b c)* = c* b*."""
    return _reverses_products(hopf, hopf.star_matrix)


def involution_fixes_unit(hopf) -> float:
    """1* = 1."""
    return rel_residual(hopf.star(hopf.unit_vec), hopf.unit_vec)


def haar_projection_conditions(hopf, p: np.ndarray):
    """The Haar projection's conditions at the candidates p (k, d): row i of
    lhs holds (x - eps_t(x)) p_i over the units x, S(p_i) - p_i and
    eps_t(p_i), to equal rhs = (0, 0, 1)."""
    d, et, p = hopf.dim, hopf.target_counital, np.atleast_2d(p)
    lhs = np.concatenate([hopf.algebra.mul_vecs(np.eye(d) - et.T, p[:, None]).reshape(len(p), -1),
                          p @ (hopf.antipode - np.eye(d)).T, p @ et.T], axis=1)
    return lhs, np.concatenate([np.zeros(d * d + d), hopf.unit_vec])


def haar_projection_identities(hopf, p: np.ndarray) -> float:
    """x p = eps_t(x) p over the units x, S(p) = p and eps_t(p) = 1."""
    return rel_residual(*haar_projection_conditions(hopf, p))


def haar_functional_conditions(hopf, phi: np.ndarray):
    """The Haar functional's conditions at the candidates phi (k, d) of
    values phi(u_i): row i of lhs holds (Delta phi_i)(1 - eps_t)^T, Delta phi
    the matrix of (id (x) phi) Delta(u_b), phi_i S - phi_i and phi_i eps_t,
    to equal rhs = (0, 0, eps)."""
    d, et, phi = hopf.dim, hopf.target_counital, np.atleast_2d(phi)
    legs = np.tensordot(phi, hopf.delta, axes=([1], [2]))
    lhs = np.concatenate([(legs @ (np.eye(d) - et).T).reshape(len(phi), -1),
                          phi @ (hopf.antipode - np.eye(d)), phi @ et], axis=1)
    return lhs, np.concatenate([np.zeros(d * d + d), hopf.epsilon])


def haar_functional_identities(hopf, phi: np.ndarray) -> float:
    """(id (x) phi) Delta = (eps_t (x) phi) Delta, phi S = phi, phi eps_t = eps."""
    return rel_residual(*haar_functional_conditions(hopf, phi))


def index_element(hopf) -> np.ndarray:
    """S(1_(1)) 1_(2), the index element H of a reconstructed structure."""
    return hopf.algebra.mul_vecs(hopf.antipode.T, hopf.delta_unit).sum(axis=0)


def index_from_unit_legs(hopf, h: np.ndarray) -> float:
    """S(1_(1)) 1_(2) = H  (Cor 4.7)."""
    return rel_residual(index_element(hopf), h)


def index_from_counital_legs(hopf, h: np.ndarray) -> float:
    """eps_t(b_(1)) b_(2) = H b  (Prop 4.8)."""
    alg = hopf.algebra
    lhs = alg.mul_vecs(hopf.target_counital.T, hopf.delta).sum(axis=1)
    return rel_residual(lhs, alg.mul_vecs(h, np.eye(hopf.dim)))


def module_law(hopf, act: np.ndarray) -> float:
    """(u_b u_c) |> x = u_b |> (u_c |> x), with ``act[b, x]`` the carrier
    coordinates of b |> x.  The left side gathers ``act`` at the product
    index, the right side is the matrix product act[c] @ act[b].  Row b of
    the box holds the c with b c a unit acting nonzero or with act[c] @
    act[b] nonzero, and the x and y those reach."""
    products = hopf.algebra.product_index
    acting = _entries(act)
    (b, x, y), v, _ = acting
    on_x, on_y = _lines(acting, 1), _lines(acting, 2)
    used, reached = _products_held(products, on_x.any(axis=1))
    meets = reach(on_x, on_y.T)  # some z with act[b, z] and act[c, :, z] nonzero
    masks = (used | meets, reach(reached, on_x) | reach(meets, on_x),
             reach(reached, on_y) | on_y)
    budget = _Budget(masks, v)
    pb, pc, pk = _unit_products(hopf.algebra)
    # act[k, x, y] at u_b u_c = u_k, and act[b, z, y] against act[c, x, z] over z
    lhs, rhs = SparseJoin(pk, b, pb), SparseJoin(x, y, b)
    if budget.takes(lhs, rhs):
        shape = (len(act),) * 2 + act.shape[1:]
        return streamed_residual(joined_slabs(
            (lhs, lambda l, r: (np.ravel_multi_index((pb[l], pc[l], x[r], y[r]), shape), v[r])),
            (rhs, lambda l, r: (np.ravel_multi_index((b[l], b[r], x[r], y[l]), shape),
                                v[l] * v[r]))))

    def pairs():
        for rows, (cs, xs, ys) in budget.boxes:
            zs, = support(act[rows], 1)
            acted = _box(act[rows][:, zs], None, None, ys)
            rhs = _box(act, cs, xs)[:, :, zs][None] @ acted[:, None]
            yield take_units(_box(act, None, xs, ys), _box(products[rows], None, cs)), rhs
    return streamed_residual(pairs())


def module_multiplicativity(hopf, act: np.ndarray, carrier, hinv=None) -> float:
    """b |> (x y) = (b_(1) |> x) H^-1 (b_(2) |> y), with ``act[b, x]`` the
    carrier coordinates of b |> x over the units of ``hopf`` and ``carrier``
    and H^-1 in carrier coordinates.  At H = 1 (``hinv`` None) it is axiom
    (1) of an action; with the tower's H^-1 it is the twisted
    comultiplicativity of the tower expectation (Prop 4.13).  The right side
    is a matrix product over the carrier: the row of legs b_(1) |> x paired
    with u_q, times the column H^-1 (u_q |> y).  Row b of the box holds the
    x and y whose product u_x u_y is a unit on which b acts nonzero, and
    the x its first legs act on and the y its second legs reach; the
    carrier axis is whole, as the carrier product forms every coordinate."""
    d, dm = act.shape[:2]
    products = carrier.product_index
    row_of, col_of = carrier.unit_lines
    lines = sum(carrier.blocks)
    acting, delta = _entries(act), _entries(hopf.delta)
    (b, x, z), v, _ = acting
    (i, p, q), dv, _ = delta
    # the entries of H^-1 (u_q |> y) cover every unit some term reaches, so
    # they mark the support of the dense product the boxes read
    twist, right = (None, acting) if hinv is None else _left_times(carrier, hinv, acting)
    (rq, ry, rw), rv, _ = right
    on_x, every = _lines(acting, 1), np.ones(dm, dtype=bool)
    # x reaches k when u_x u_y = u_k for some y, and y when u_x u_y = u_k
    left_of, right_of = (_products_held(index, every)[1] for index in (products, products.T))
    masks = (reach(on_x, left_of.T) | reach(_lines(delta, 1), on_x),
             reach(on_x, right_of.T) | reach(_lines(delta, 2), _lines(right, 1)))
    budget = _Budget(masks, dv, v, rv, *(() if hinv is None else (hinv,)), width=dm, extent=dm)
    px, py, pk = _unit_products(carrier)
    lhs, legs = SparseJoin(x, pk, b), SparseJoin(p, b, i)
    if budget.takes(twist, lhs, legs):
        # legs[b, x, q, u], the sum over p of Delta[b, p, q] act[p, x, u]
        l, r = legs.pairs()
        keys, lv = summed(np.ravel_multi_index((i[l], x[r], q[l], z[r]), (d, dm, d, dm)),
                          dv[l] * v[r])
        lb, lx, lq, lu = np.unravel_index(keys, (d, dm, d, dm))
        rhs = SparseJoin(lq * lines + col_of[lu], rq * lines + row_of[rw], lb)
        if budget.takes(rhs):
            shape = (d, dm, dm, dm)
            return streamed_residual(joined_slabs(
                (lhs, lambda l, r: (np.ravel_multi_index((b[l], px[r], py[r], z[l]), shape),
                                    v[l])),
                (rhs, lambda l, r: (np.ravel_multi_index(
                    (lb[l], lx[l], ry[r], lu[l] + col_of[rw[r]] - col_of[lu[l]]), shape),
                    lv[l] * rv[r]))))

    right = act if hinv is None else carrier.mul_vecs(hinv, act)

    def pairs():
        for rows, (xs, ys) in budget.boxes:
            part = hopf.delta[rows]
            ps, qs = support(part, 1, 2)
            legs = np.einsum("bpq,pxz->bxqz", part[:, ps][:, :, qs], _box(act[ps], None, xs),
                             optimize=True)
            # b |> (u_x u_y), gathered as (x, y, b, z)
            lhs = take_units(act[rows].transpose(1, 0, 2), _box(products, xs, ys))
            rhs = carrier.matmul_vecs(legs.reshape(legs.shape[0] * legs.shape[1], *legs.shape[2:]),
                                      _box(right[qs], None, ys))
            yield lhs.transpose(2, 0, 1, 3), rhs.reshape(lhs.shape[2:3] + lhs.shape[:2] + (dm,))
    return streamed_residual(pairs())


def action_star_compatible(hopf, act: np.ndarray, carrier) -> float:
    """(b |> x)* = S(b)* |> x*, axiom (2) of an action, on the units b of
    ``hopf`` and x of ``carrier``, ``act[b, x]`` holding the carrier
    coordinates of b |> x; u_x* is the unit u_(x*), so the right side is the
    row S(u_b)* of ``act`` read at x*.  Built one slab of b at a time.  On
    the tower's b |> x = lam^-1 E_M1(b x e2) it is identity-suite row 3,
    E_M1(b x e2) = E_M1(e2 x S(b)): E_M1 is a *-map and (e2 x S(b))* =
    S(b)* x* e2, so E_M1(e2 x S(b)) = lam (S(b)* |> x*)*."""
    starred, adjoint = hopf.star(hopf.antipode.T), carrier.adjoint_index  # rows: S(u_b)*

    def pairs():
        for sl in slabs(len(act), act[0].size):
            yield carrier.adjoint_vecs(act[sl]), np.tensordot(starred[sl], act, 1)[:, adjoint]
    return streamed_residual(pairs())


def product_decomposition(hopf, tower, hinv=None) -> float:
    """b x = (b_(1) |> x) H^-1 b_(2) over the units b of B = ``tower.rel_b``
    and x of M1 = ``tower.sub_top``, in the ambient, with the module map
    b |> x = ``tower.module_tensor`` and H^-1 in B coordinates.  With the
    tower's H^-1 it is Cor 4.12; at H = 1 (``hinv`` None) it is the product
    decomposition b x = (b_(1) |> x) b_(2) of the canonical action.  The
    legs, indexed by (x, y, q) for the M1 units x and y = b_(1) |> x and the
    B leg q, are contracted with the products u_y H^-1 u_q in one GEMM per
    box.  Row b of the box holds the x with a nonzero row meeting a nonzero
    column of b in an ambient block or reached by its first legs, and the
    whole ambient blocks of b and of the products its legs use; both sides
    are products in the summand of those blocks, and only the (y, q) columns
    the legs use are formed.  The legs of a pair (b, x) have up to
    dim M1 * dim B entries against the ambient's, which sizes the boxes."""
    alg, mt, delta = tower.ambient, tower.module_tensor, hopf.delta
    b_img = tower.rel_b.images
    b_basis, m_basis = b_img.T, tower.sub_top.images.T
    d, dm = len(b_basis), len(m_basis)
    right = b_basis if hinv is None else alg.mul_vecs(b_img @ hinv, b_basis)
    coproduct, module = _entries(delta), _entries(mt)
    in_b, in_m = alg.block_support(b_basis), alg.block_support(m_basis)
    first = _lines(coproduct, 1)
    blocks = in_b | (reach(reach(first, _lines(module, 2)), in_m)
                     & reach(_lines(coproduct, 2), alg.block_support(right)))
    masks = (reach(alg.support_lines(b_basis)[1], alg.support_lines(m_basis)[0].T)
             | reach(first, _lines(module, 1)), blocks[:, alg.block_index])
    (bb, be), bv, _ = _entries(b_basis)
    (mx, mf), mv, _ = _entries(m_basis)
    (rq, rg), rv, _ = _entries(right)
    (i, p, q), dv, _ = coproduct
    (tp, tx, ty), tv, _ = module
    budget = _Budget(masks, dv, tv, bv, mv, rv, width=max(1, len(mt) * dm // alg.dim))
    row_of, col_of = alg.unit_lines
    # lhs: b_basis[b, e] m_basis[x, f] over u_e u_f = u_r; the products
    # P[y, q] = u_y H^-1 u_q; the legs Delta[b, p, q] mt[p, x, y] over p
    lhs = SparseJoin(col_of[be], row_of[mf], bb)
    products, legs = SparseJoin(col_of[mf], row_of[rg], mx), SparseJoin(p, tp, i)
    if budget.takes(lhs, products, legs):
        l, r = products.pairs()
        keys, pv = summed(np.ravel_multi_index(
            (mx[l], rq[r], mf[l] + col_of[rg[r]] - col_of[mf[l]]), (dm, d, alg.dim)),
            mv[l] * rv[r])
        py, pq, pr = np.unravel_index(keys, (dm, d, alg.dim))
        l, r = legs.pairs()
        keys, lv = summed(np.ravel_multi_index((i[l], tx[r], ty[r], q[l]), (d, dm, dm, d)),
                          dv[l] * tv[r])
        lb, lx, ly, lq = np.unravel_index(keys, (d, dm, dm, d))
        rhs = SparseJoin(ly * d + lq, py * d + pq, lb)
        if budget.takes(rhs):
            shape = (d, dm, alg.dim)
            return streamed_residual(joined_slabs(
                (lhs, lambda l, r: (np.ravel_multi_index(
                    (bb[l], mx[r], be[l] + col_of[mf[r]] - col_of[be[l]]), shape), bv[l] * mv[r])),
                (rhs, lambda l, r: (np.ravel_multi_index((lb[l], lx[l], pr[r]), shape),
                                    lv[l] * pv[r]))))

    def pairs():
        for rows, (xs, amb) in budget.boxes:
            part, summand = delta[rows], alg.summand(amb)
            ps, qs = support(part, 1, 2)
            legs = np.einsum("bpq,pxy->bxyq", part[:, ps][:, :, qs], _box(mt[ps], None, xs),
                             optimize=True)
            legs = legs.reshape(legs.shape[0] * legs.shape[1], -1)
            at, cols = support(legs, 0, 1)
            ys, q_at = np.divmod(cols, len(qs))
            lhs = summand.pairwise_mul(_box(b_basis[rows], None, amb), _box(m_basis, xs, amb))
            rhs = np.zeros((len(legs), lhs.shape[-1]), dtype=complex)
            rhs[at] = legs[np.ix_(at, cols)] @ summand.mul_vecs(
                _box(m_basis, ys, amb), _box(right, qs[q_at], amb))
            yield lhs, rhs.reshape(lhs.shape)
    return streamed_residual(pairs())


def intertwines(source, target, u: np.ndarray) -> float:
    """u maps the product, coproduct, counit, antipode, involution and unit
    of ``source`` to those of ``target`` (worst residual)."""
    res = rel_residual(source.algebra.unit_products(u.T),  # u(u_i u_j)
                       target.algebra.pairwise_mul(u.T, u.T))
    res = max(res, rel_residual(
        np.einsum("mi,mPQ->iPQ", u, target.delta, optimize=True),
        np.einsum("ipq,Pp,Qq->iPQ", source.delta, u, u, optimize=True)))
    res = max(res, rel_residual(target.epsilon @ u, source.epsilon))
    res = max(res, rel_residual(target.antipode @ u, u @ source.antipode))
    res = max(res, rel_residual(target.star_matrix @ np.conj(u),
                                u @ source.star_matrix))
    return max(res, rel_residual(u @ source.unit_vec, target.unit_vec))
