"""Recognition of reconstructed group-tower structures.

For the towers built here the commutant carrying the coalgebra dual to a full
matrix algebra is the groupoid algebra of pairs: its grouplike elements are
the duals of the minimal idempotents on the other side of the pairing, and
labeling them by their counital images produces an explicit intertwiner onto
the pair-groupoid generator (and, dually, one between the commutative side
and the dual generator).
"""

from dataclasses import dataclass

import numpy as np

from . import axioms
from ._linalg import rel_residual
from .errors import InvariantViolation
from .reconstruct import ReconstructedStructure
from .weak_hopf import (
    WeakHopfData,
    cartan_subalgebras,
    dual_algebra,
    pair_groupoid,
)


@dataclass(frozen=True)
class Intertwiner:
    """Basis change intertwining two weak Hopf structures; ``matrix`` maps
    source coordinates to target coordinates."""

    matrix: np.ndarray
    residual: float


def _minimal_cartan_projections(hopf: WeakHopfData, tol: float):
    pair = cartan_subalgebras(hopf, tol)
    target = pair.target
    if any(m != 1 for m in target.sub.blocks):
        raise InvariantViolation("target Cartan subalgebra is not abelian")
    return target.images  # columns are the minimal projections


def match_pair_groupoid(rec: ReconstructedStructure, tol: float = 1e-9):
    """Explicit intertwiners onto the pair-groupoid generator.

    Returns ``(on_a, on_b, points)``: the noncommutative side matches the
    pair groupoid on ``points`` points, the commutative side its dual.
    """
    hopf_a = rec.on_a.hopf
    hopf_b = rec.on_b.hopf
    if any(m != 1 for m in hopf_b.algebra.blocks):
        raise InvariantViolation(
            "commutant carrying the comatrix coalgebra is not commutative")
    n2 = hopf_b.dim
    n = int(round(np.sqrt(n2)))
    if n * n != n2:
        raise InvariantViolation("commutant dimension is not a perfect square")

    # grouplikes of A: dual basis of the minimal idempotents of B
    grouplikes = np.linalg.inv(rec.pairing.gram.T)  # columns, A coordinates
    d_delta = np.einsum("mi,ipq->mpq", grouplikes.T, hopf_a.delta, optimize=True)
    outer = np.einsum("pm,qm->mpq", grouplikes, grouplikes, optimize=True)
    if rel_residual(d_delta, outer) > 1e-6:
        raise InvariantViolation("dual basis elements are not grouplike")
    if rel_residual(hopf_a.epsilon @ grouplikes, np.ones(n2)) > 1e-6:
        raise InvariantViolation("grouplike counits are not normalized")

    projections = _minimal_cartan_projections(hopf_a, tol)
    if projections.shape[1] != n:
        raise InvariantViolation("Cartan subalgebra has the wrong dimension")

    def nearest(vec):
        dists = [rel_residual(vec, projections[:, i]) for i in range(n)]
        best = int(np.argmin(dists))
        if dists[best] > 1e-6:
            raise InvariantViolation("counital image is not a minimal projection")
        return best

    et = hopf_a.target_counital
    es = hopf_a.source_counital
    labels = [(nearest(et @ grouplikes[:, m]), nearest(es @ grouplikes[:, m]))
              for m in range(n2)]
    if len(set(labels)) != n2:
        raise InvariantViolation("grouplike labeling is not faithful")

    generator = pair_groupoid(n)
    perm = np.zeros((n2, n2), dtype=complex)
    for m, (i, j) in enumerate(labels):
        perm[generator.algebra.basis_index(0, i, j), m] = 1.0
    u_a = perm @ np.linalg.inv(grouplikes)
    res_a = axioms.intertwines(hopf_a, generator, u_a)

    # commutative side: minimal idempotents map to evaluation functionals
    dual_gen = dual_algebra(generator, tol)
    targets = np.linalg.solve(dual_gen.evaluation.T, np.eye(n2))
    u_b = np.zeros((n2, n2), dtype=complex)
    for m, (i, j) in enumerate(labels):
        u_b[:, m] = targets[:, generator.algebra.basis_index(0, i, j)]
    res_b = axioms.intertwines(hopf_b, dual_gen.hopf, u_b)

    return Intertwiner(u_a, res_a), Intertwiner(u_b, res_b), n
