"""Actions of weak Hopf structures on multimatrix algebras, the canonical
tower action, fixed points, balanced crossed products, minimality, and the
comparison isomorphism onto the tower ambient.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._linalg import (
    max_abs,
    null_space,
    orthonormal_columns,
    rel_residual,
    subspace_residual,
)
from .decompose import StructureAlgebra, decompose_structure_algebra
from .deform import DeformedStructure
from .errors import InvariantViolation
from .multimatrix import (
    DEFAULT_TOL,
    MultiMatrixAlgebra,
    SubalgebraEmbedding,
    subalgebra_from_basis,
)
from .report import Report
from .tower import TowerData
from .weak_hopf import WeakHopfData, canonical_involution_matrix

_PROBES = 8


@dataclass
class ActionData:
    """Left module action of a weak Hopf structure on a multimatrix algebra.

    ``tensor[b, x, y]`` is the coefficient of the y-th carrier unit in the
    action of the b-th structure unit on the x-th carrier unit.
    """

    hopf: WeakHopfData
    carrier: MultiMatrixAlgebra
    tensor: np.ndarray

    def act(self, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        return np.einsum("b,x,bxy->y", b, x, self.tensor, optimize=True)

    @property
    def on_unit(self) -> np.ndarray:
        """Matrix of b -> b acting on the carrier unit."""
        return np.einsum("bxy,x->yb", self.tensor, self.carrier.unit().vec)


@dataclass
class CrossedProduct:
    """Balanced tensor product of the carrier with the acting structure.

    The quotient basis consists of classes of elementary tensors; ``basis``
    lists the (carrier unit, structure unit) index pairs selected by pivoted
    orthogonal factorization.  ``structure`` holds the structure constants
    ``mult[s, t, k]`` over that basis, the unit and the antilinear star
    matrix ``involution``, with the batched product kernels.
    """

    action: ActionData
    basis: list
    quotient_map: np.ndarray       # (dim, carrier.dim * hopf.dim)
    structure: StructureAlgebra
    carrier_embedding: np.ndarray  # columns: classes of x (x) 1
    source_embedding: np.ndarray   # columns: classes of 1 (x) z over the source Cartan
    source_span: np.ndarray        # source Cartan coordinates used above
    algebra: MultiMatrixAlgebra = None
    to_blocks: np.ndarray = None

    @property
    def dim(self) -> int:
        return self.structure.dim

    @property
    def mult(self) -> np.ndarray:
        return self.structure.mult

    @property
    def involution(self) -> np.ndarray:
        return self.structure.involution

    @property
    def unit(self) -> np.ndarray:
        return self.structure.unit

    def product(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.structure.mul(u, v)

    def star(self, vec: np.ndarray) -> np.ndarray:
        return self.structure.star(vec)


@dataclass
class ThetaMap:
    """Linear comparison map from the crossed product onto the tower ambient."""

    matrix: np.ndarray  # (ambient.dim, crossed.dim), columns = basis images
    report: Report


# ---------------------------------------------------------------------------
# Actions.
# ---------------------------------------------------------------------------


def verify_action(action: ActionData, tol: float = DEFAULT_TOL) -> Report:
    """Module law and the three compatibility axioms, plus equality of the
    kernels of b -> b acting on 1 and of the target counital map."""
    rep = Report(tolerance=tol, title="action check")
    hopf, car, act = action.hopf, action.carrier, action.tensor
    db, dm = hopf.dim, car.dim
    mult_b = hopf.mult
    mult_m = car.mult_tensor

    lhs = np.einsum("bcm,mxy->bcxy", mult_b, act, optimize=True)
    rhs = np.einsum("cxz,bzy->bcxy", act, act, optimize=True)
    rep.add("module law", rel_residual(lhs, rhs), ref="action")
    rep.add("unit acts trivially",
            rel_residual(np.einsum("b,bxy->xy", hopf.unit_vec, act), np.eye(dm)),
            ref="action")

    lhs = np.einsum("xym,bmr->bxyr", mult_m, act, optimize=True)
    inner = np.einsum("bpq,pxz->bxqz", hopf.delta, act, optimize=True)
    paired = np.einsum("qyw,zwr->qzyr", act, mult_m, optimize=True)
    rhs = (inner.reshape(db * dm, db * dm)
           @ paired.reshape(db * dm, dm * dm)).reshape(db, dm, dm, dm)
    rep.add("action multiplicative on products", rel_residual(lhs, rhs),
            ref="axiom (1)")

    j_m = canonical_involution_matrix(car)
    starred_s = hopf.star((hopf.antipode @ np.eye(db)).T)  # rows: S(u_b)*
    lhs = np.einsum("ry,bxy->bxr", j_m, np.conj(act), optimize=True)
    rhs = np.einsum("bk,zx,kzy->bxy", starred_s, j_m, act, optimize=True)
    rep.add("action star-compatible", rel_residual(lhs, rhs), ref="axiom (2)")

    on_unit = action.on_unit
    et_unit = on_unit @ hopf.target_counital
    rep.add("unit image factors through the counital map",
            rel_residual(on_unit, et_unit), ref="axiom (3)")
    ker_act = null_space(on_unit, 1e-10)
    ker_et = null_space(hopf.target_counital, 1e-10)
    rep.add("kernel of the unit image matches the counital kernel",
            subspace_residual(ker_act, ker_et), ref="axiom (3)")
    return rep


def canonical_action(tower: TowerData, deformed: DeformedStructure,
                     tol: float = DEFAULT_TOL) -> ActionData:
    """Action of the deformed structure on the middle extension by compressed
    left multiplication against the second Jones projection."""
    alg, lam = tower.ambient, tower.lam
    hopf = deformed.hopf
    top = tower.sub_top
    b_basis = tower.rel_b.images.T
    m_basis = top.images.T
    db, dm = b_basis.shape[0], m_basis.shape[0]

    raw = tower.expect_top.apply_vec(
        alg.pairwise_mul(b_basis, alg.mul_vecs(m_basis, tower.e2.vec)))
    tensor = (1 / lam) * top.coords_vec(raw.reshape(db * dm, -1), tol)
    tensor = tensor.reshape(db, dm, dm)
    action = ActionData(hopf, top.sub, tensor)

    rep = verify_action(action, tol)
    if not rep.passed:
        worst = max(rep.failures(), key=lambda c: c.residual)
        raise InvariantViolation(
            f"canonical action invalid: {worst.name} residual {worst.residual:.3e}")

    # b x = (b_(1) |> x) b_(2) in the ambient, with the deformed legs
    bx = alg.pairwise_mul(b_basis, m_basis)
    acted = np.einsum("pxy,ay->pxa", tensor, top.images, optimize=True)
    mixed = np.einsum("bpq,pxa->bxqa", hopf.delta, acted, optimize=True)
    rhs = alg.contract_mul(mixed.reshape(db * dm, db, -1),
                           b_basis[:, None, :]).reshape(db, dm, -1)
    if rel_residual(bx, rhs) > 100 * tol:
        raise InvariantViolation(
            "canonical action fails the product decomposition identity")
    return action


def fixed_points(action: ActionData, *, rng=None,
                 tol: float = DEFAULT_TOL) -> SubalgebraEmbedding:
    """Subalgebra of carrier elements on which every structure element acts
    through its counital image."""
    hopf, act = action.hopf, action.tensor
    act_mats = act.transpose(0, 2, 1)  # [b] : matrix of x -> b |> x
    et_mats = np.einsum("kb,kxy->byx", hopf.target_counital, act, optimize=True)
    rows = (act_mats - et_mats).reshape(-1, action.carrier.dim)
    span = null_space(rows, 1e-10)
    try:
        return subalgebra_from_basis(action.carrier, span, rng=rng, tol=tol)
    except InvariantViolation as exc:
        raise InvariantViolation(f"fixed-point set is not a subalgebra: {exc}")


# ---------------------------------------------------------------------------
# Crossed products.
# ---------------------------------------------------------------------------


def crossed_product(action: ActionData, *, rng=None,
                    tol: float = DEFAULT_TOL) -> CrossedProduct:
    """Quotient of carrier (x) structure by the Cartan balancing relation,
    with product, involution and the two canonical embeddings.

    The quotient basis is chosen among classes of elementary tensors by a
    rank-revealing pivoted factorization; representative independence of the
    product and involution is checked on random relator probes.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    hopf, car = action.hopf, action.carrier
    db, dm = hopf.dim, car.dim
    mult_b, mult_m = hopf.mult, car.mult_tensor

    cartan_span = null_space(hopf.target_counital - np.eye(db), 1e-10)
    z_on_unit = (action.on_unit @ cartan_span).T  # rows: (z |> 1) in carrier

    # complement of the relator span via the positive sum of K^H K
    quad = np.zeros((dm * db, dm * db), dtype=complex)
    for z_col, z1 in zip(cartan_span.T, z_on_unit):
        rz = np.einsum("a,xay->yx", z1, mult_m)      # right multiplication by z|>1
        lz = np.einsum("a,aby->yb", z_col, mult_b)   # left multiplication by z
        quad += np.kron(rz.conj().T @ rz, np.eye(db))
        quad += np.kron(np.eye(dm), lz.conj().T @ lz)
        quad -= np.kron(rz.conj().T, lz)
        quad -= np.kron(rz, lz.conj().T)
    vals, vecs = np.linalg.eigh(quad)
    scale = max(float(vals[-1]), 1.0)
    keep = vals <= 1e-10 * scale
    complement = vecs[:, keep]
    qdim = complement.shape[1]

    # pick elementary-class representatives by pivoted QR
    proj = complement.conj().T  # class coordinates of the elementary tensors
    _, _, piv = scipy.linalg.qr(proj, pivoting=True, mode="economic")
    selected = np.sort(piv[:qdim])
    sel_mat = proj[:, selected]
    if np.linalg.cond(sel_mat) > 1e8:
        raise InvariantViolation("quotient basis selection is ill-conditioned")
    quot = np.linalg.solve(sel_mat, proj)  # coefficients over selected classes
    labels = [(int(i // db), int(i % db)) for i in selected]

    mult_q = _product_tensor(action, selected, quot)
    invol = _involution_matrix(action, selected, quot)
    unit = quot @ np.kron(car.unit().vec, hopf.unit_vec)

    carrier_emb = np.stack([quot @ np.kron(np.eye(dm)[x], hopf.unit_vec)
                            for x in range(dm)], axis=1)
    source_span = null_space(hopf.source_counital - np.eye(db), 1e-10)
    source_emb = np.stack([quot @ np.kron(car.unit().vec, source_span[:, j])
                           for j in range(source_span.shape[1])], axis=1)

    crossed = CrossedProduct(action, labels, quot,
                             StructureAlgebra(mult_q, unit, invol),
                             carrier_emb, source_emb, source_span)
    _verify_crossed(crossed, complement, rng, tol)

    crossed.algebra, crossed.to_blocks = decompose_structure_algebra(
        crossed.structure, rng=rng, tol=tol)
    return crossed


def _product_tensor(action: ActionData, selected, quot, chunk: int = 24) -> np.ndarray:
    """Structure constants over the selected elementary classes."""
    hopf, car, act = action.hopf, action.carrier, action.tensor
    db, dm = hopf.dim, car.dim
    qdim = len(selected)
    xs = selected // db
    bs = selected % db
    mult_m, mult_b = car.mult_tensor, hopf.mult

    # x (p |> y) expanded over the carrier basis, for the selected x only
    t1 = np.einsum("pyt,xtm->xpym", act, mult_m[xs], optimize=True)
    delta_sel = hopf.delta[bs]     # (s, p, q)
    gather_m = mult_b[:, bs, :]    # (q, t, n) for the q c_t products
    out = np.empty((qdim, qdim, qdim), dtype=complex)
    gm_t = gather_m.transpose(1, 0, 2)  # (t, q, n)
    for start in range(0, qdim, chunk):
        sl = slice(start, min(start + chunk, qdim))
        u = np.einsum("spq,spym->sqym", delta_sel[sl], t1[sl], optimize=True)
        left = u[:, :, xs, :]      # (s, q, t, m)
        n_s = left.shape[0]
        # batched over t: (s m, q) @ (q, n)
        lt = left.transpose(2, 0, 3, 1).reshape(qdim, n_s * dm, db)
        raw = (lt @ gm_t).reshape(qdim, n_s, dm, db).transpose(1, 0, 2, 3)
        out[sl] = (raw.reshape(n_s * qdim, dm * db) @ quot.T) \
            .reshape(n_s, qdim, qdim)
    return out


def _involution_matrix(action: ActionData, selected, quot) -> np.ndarray:
    hopf, car, act = action.hopf, action.carrier, action.tensor
    db, dm = hopf.dim, car.dim
    j_m = canonical_involution_matrix(car)
    cols = []
    for idx in selected:
        x, b = int(idx // db), int(idx % db)
        b_star = hopf.star_matrix[:, b]
        x_star = j_m[:, x]
        legs = np.einsum("k,kpq->pq", b_star, hopf.delta, optimize=True)
        acted = np.einsum("pq,x,pxy->yq", legs, x_star, act, optimize=True)
        cols.append(quot @ acted.reshape(dm * db))
    return np.stack(cols, axis=1)


def _verify_crossed(crossed: CrossedProduct, complement, rng, tol):
    action = crossed.action
    hopf, car = action.hopf, action.carrier
    db, dm = hopf.dim, car.dim
    qdim = crossed.dim
    struct = crossed.structure

    # relators vanish in the quotient
    full = np.eye(dm * db, dtype=complex)
    relator_proj = full - complement @ complement.conj().T
    if max_abs(crossed.quotient_map @ relator_proj) > 1e-6:
        raise InvariantViolation("quotient map does not kill the relators")

    # representative independence: products of relator probes with basis
    # classes vanish in the quotient on either side
    draws, which, labels = [], [], []
    for i in range(4):
        draws.append(rng.standard_normal(dm * db) + 1j * rng.standard_normal(dm * db))
        for t in rng.integers(0, qdim, 2):
            which.append(i)
            labels.append(crossed.basis[t])
    probes = (relator_proj @ np.stack(draws, axis=1)).T[which]
    left, right = _relator_products(action, probes, np.array(labels))
    if max(max_abs(crossed.quotient_map @ left.T),
           max_abs(crossed.quotient_map @ right.T)) > 1e-6:
        raise InvariantViolation("product not well defined on the balanced quotient")

    # unit, associativity and involution probes
    lu = struct.left_matrix(crossed.unit)
    ru = struct.right_matrix(crossed.unit)
    if rel_residual(lu, np.eye(qdim)) > 100 * tol or \
            rel_residual(ru, np.eye(qdim)) > 100 * tol:
        raise InvariantViolation("crossed product unit is not two-sided")
    u, v, w = np.array([[rng.standard_normal(qdim) + 1j * rng.standard_normal(qdim)
                         for _ in range(3)] for _ in range(_PROBES)]).transpose(1, 0, 2)
    uv = struct.mul(u, v)
    assoc_left = struct.mul(uv, w)
    assoc_right = struct.mul(u, struct.mul(v, w))
    star_prod = struct.star(uv)
    prod_star = struct.mul(struct.star(v), struct.star(u))
    for i in range(_PROBES):
        if rel_residual(assoc_left[i], assoc_right[i]) > 1e-6:
            raise InvariantViolation("crossed product is not associative")
        if rel_residual(star_prod[i], prod_star[i]) > 1e-6:
            raise InvariantViolation("involution is not anti-multiplicative")
    if rel_residual(crossed.involution @ np.conj(crossed.involution),
                    np.eye(qdim)) > 1e-6:
        raise InvariantViolation("involution does not square to the identity")


def _relator_products(action: ActionData, probes: np.ndarray, labels: np.ndarray):
    """Raw products of carrier (x) structure tensors before quotienting,
    ``probe * (x (x) b)`` and ``(x (x) b) * probe``, for a stack of probes
    (n, carrier.dim * hopf.dim) and elementary labels (n, 2) of (x, b).

    With (y (x) c)(x (x) b) = y (c_(1) |> x) (x) c_(2) b, one elementary
    factor keeps every intermediate at n * dim**3 entries.
    """
    hopf, car, act = action.hopf, action.carrier, action.tensor
    db, dm = hopf.dim, car.dim
    mult_m, mult_b, delta = car.mult_tensor, hopf.mult, hopf.delta
    xs, bs = labels[:, 0], labels[:, 1]
    n = len(labels)
    probes = probes.reshape(n, dm, db)

    legs = np.einsum("nyc,cpq->nypq", probes, delta, optimize=True)
    acted = np.einsum("nypq,pnz->nyqz", legs, act[:, xs, :], optimize=True)
    carried = np.einsum("nyqz,yzm->nqm", acted, mult_m, optimize=True)
    left = np.einsum("nqm,qnk->nmk", carried, mult_b[:, bs, :], optimize=True)

    acted = np.einsum("npq,pyz->nqyz", delta[bs], act, optimize=True)
    carried = np.einsum("nqyz,nzm->nqym", acted, mult_m[xs], optimize=True)
    tails = np.einsum("nyc,qck->nyqk", probes, mult_b, optimize=True)
    right = np.einsum("nqym,nyqk->nmk", carried, tails, optimize=True)
    return left.reshape(n, dm * db), right.reshape(n, dm * db)


def minimality(crossed: CrossedProduct, tol: float = DEFAULT_TOL) -> Report:
    """Commutant of the carrier image inside the crossed product, compared
    with the image of the source Cartan subalgebra."""
    rep = Report(tolerance=tol, title="minimality check")
    ops = crossed.structure.commutator_matrices(crossed.carrier_embedding.T)
    commutant = null_space(ops.reshape(-1, crossed.dim), 1e-10)

    source = orthonormal_columns(crossed.source_embedding, 1e-10)
    rep.add_flag("commutant dimension matches the source Cartan",
                 commutant.shape[1] == source.shape[1],
                 ref="Remark 6.4",
                 note=f"commutant {commutant.shape[1]}, Cartan {source.shape[1]}")
    rep.add("commutant equals the source Cartan image",
            subspace_residual(commutant, source), ref="Remark 6.4")
    rep.add_flag("action minimal",
                 commutant.shape[1] == source.shape[1]
                 and subspace_residual(commutant, source) <= 100 * tol,
                 ref="minimality")
    return rep


def theta_iso(tower: TowerData, deformed: DeformedStructure,
              crossed: CrossedProduct, tol: float = DEFAULT_TOL) -> ThetaMap:
    """Comparison map sending a class of x (x) b to x s b s^-1 in the tower
    ambient, where s is the positive square root of the antipode image of the
    index element.  Verified well defined, bijective, multiplicative and
    involution-preserving."""
    alg = tower.ambient
    hopf = deformed.hopf
    db, dm = hopf.dim, crossed.action.carrier.dim

    sh_amb = tower.rel_b.images @ deformed.antipode_of_index
    root = alg.sqrt_posdef_vec(sh_amb, tol)
    root_inv = alg.inverse_vec(root)

    top_basis = tower.sub_top.images.T
    mid = alg.mul_vecs(root, alg.mul_vecs(tower.rel_b.images.T, root_inv))
    theta_raw = alg.pairwise_mul(top_basis, mid).reshape(dm * db, alg.dim).T

    rep = Report(tolerance=tol, seed=tower.seed, title="comparison map check")
    # well definedness: the raw map factors through the balanced classes
    residual = theta_raw - _reconstruct_from_classes(theta_raw, crossed)
    rep.add("well defined on balanced classes",
            max_abs(residual) / max(max_abs(theta_raw), 1.0), ref="Prop 6.3")

    selected = [x * db + b for (x, b) in crossed.basis]
    matrix = theta_raw[:, selected]
    sv = np.linalg.svd(matrix, compute_uv=False)
    bij = sv[-1] > 1e-8 * sv[0] and matrix.shape[0] == matrix.shape[1]
    rep.add_flag("bijective", bij, ref="Prop 6.3",
                 note=f"singular value ratio {sv[-1] / sv[0]:.3e}")
    if not bij:
        raise InvariantViolation("theta not bijective")

    prods = alg.pairwise_mul(matrix.T, matrix.T)
    images = np.einsum("stk,ak->sta", crossed.mult, matrix, optimize=True)
    rep.add("multiplicative", rel_residual(prods, images), ref="Prop 6.3")

    starred = alg.adjoint_vecs(matrix.T)
    mapped = (matrix @ crossed.involution).T
    rep.add("involution-preserving", rel_residual(mapped, starred), ref="Prop 6.3")

    rep.add("unital", rel_residual(matrix @ crossed.unit, alg.unit().vec),
            ref="Prop 6.3")
    if not rep.passed:
        worst = max(rep.failures(), key=lambda c: c.residual)
        raise InvariantViolation(
            f"comparison map failed: {worst.name} residual {worst.residual:.3e}")
    return ThetaMap(matrix, rep)


def _reconstruct_from_classes(theta_raw: np.ndarray, crossed: CrossedProduct) -> np.ndarray:
    """Re-express the raw map through class coordinates; equals the raw map
    exactly when it is constant on classes."""
    db = crossed.action.hopf.dim
    selected = [x * db + b for (x, b) in crossed.basis]
    return theta_raw[:, selected] @ crossed.quotient_map