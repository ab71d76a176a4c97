"""JSON interchange for workbench objects.

Every file is a single object ``{"format", "kind", "meta", "payload"}`` with
complex numbers stored as [re, im] pairs.  Loading validates the schema and
runs cheap invariant pre-checks; schema problems raise SchemaError, failed
invariants raise InvariantViolation (distinct exit codes in the CLI).
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from ._linalg import rel_residual
from .errors import InvariantViolation, SchemaError
from .multimatrix import (
    MultiMatrixAlgebra,
    SubalgebraEmbedding,
    TraceState,
)
from .report import Report
from .tower import TowerData
from .weak_hopf import WeakHopfData

FORMAT = "weakhopf/1"
KINDS = ("weak-hopf", "tower", "crossed-product", "report", "element", "group")
SPARSE_TOL = 1e-14  # entries at or below it are left out of a sparse listing


@dataclass
class WorkbenchObject:
    kind: str
    payload: dict
    meta: dict

    def to_json(self) -> str:
        doc = {"format": FORMAT, "kind": self.kind, "meta": self.meta,
               "payload": self.payload}
        return json.dumps(doc, sort_keys=True, indent=1)


def make_meta(tolerance: float = 1e-9, seed: int = 0) -> dict:
    return {"tool": f"weakhopf {__version__}", "tolerance": tolerance, "seed": seed}


# -- complex encoding --------------------------------------------------------


def _enc_vec(vec) -> list:
    vec = np.asarray(vec, dtype=complex)
    return np.stack([vec.real, vec.imag], -1).tolist()


_enc_mat = _enc_vec  # one list of [re, im] pairs per row


def number(value, what: str, kind=float):
    """``value`` converted by ``kind`` (float or int); a boolean, a value
    ``kind`` rejects, a non-finite one (NaN, Infinity) or a non-integral one
    for int is a SchemaError naming ``what``."""
    if isinstance(value, bool):
        raise SchemaError(f"{what} is not a number: {value!r}")
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{what} is not a number: {value!r}") from exc
    if not math.isfinite(out):
        raise SchemaError(f"{what} is not finite: {value!r}")
    if kind is int and isinstance(value, float) and out != value:
        raise SchemaError(f"{what} is not an integer: {value!r}")
    return out


def _dec_c(item) -> complex:
    if not (isinstance(item, (list, tuple)) and len(item) == 2):
        raise SchemaError("complex numbers are [re, im] pairs")
    return complex(number(item[0], "real part"), number(item[1], "imaginary part"))


def _dec_vec(data, length: int | None = None) -> np.ndarray:
    if not isinstance(data, list):
        raise SchemaError("expected a coefficient list")
    vec = np.array([_dec_c(item) for item in data], dtype=complex)
    if length is not None and vec.shape[0] != length:
        raise SchemaError(f"coefficient array has length {vec.shape[0]}, "
                          f"expected {length}")
    return vec


def _dec_mat(data, shape=None) -> np.ndarray:
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise SchemaError("expected a dense matrix")
    rows = [_dec_vec(r) for r in data]
    widths = {r.shape[0] for r in rows}
    if len(widths) > 1:
        raise SchemaError("ragged matrix rows")
    mat = np.array(rows, dtype=complex) if rows else np.zeros((0, 0), complex)
    if shape is not None and mat.shape != shape:
        raise SchemaError(f"matrix has shape {mat.shape}, expected {shape}")
    return mat


def _sparse_tensor(tensor: np.ndarray) -> list:
    idx = np.argwhere(np.abs(tensor) > SPARSE_TOL)
    values = tensor[tuple(idx.T)]
    return [i + [re, im] for i, re, im in
            zip(idx.tolist(), values.real.tolist(), values.imag.tolist())]


def _dense_tensor(entries, shape) -> np.ndarray:
    out = np.zeros(shape, dtype=complex)
    rank = len(shape)
    if not isinstance(entries, list):
        raise SchemaError("expected a sparse tensor list")
    for item in entries:
        if not isinstance(item, list) or len(item) != rank + 2:
            raise SchemaError("sparse tensor entries are [indices..., re, im]")
        idx = tuple(number(i, "sparse tensor index", int) for i in item[:rank])
        if any(i < 0 or i >= s for i, s in zip(idx, shape)):
            raise SchemaError("sparse tensor index out of range")
        out[idx] += _dec_c(item[rank:])
    return out


def _blocks(data) -> tuple:
    if not isinstance(data, list) or not data or \
            not all(isinstance(b, int) and not isinstance(b, bool) and b >= 1
                    for b in data):
        raise SchemaError("blocks must be a non-empty list of positive integers")
    return tuple(data)


def parse_group_table(payload: dict) -> list:
    """The ``table`` of a group payload, a rectangular list of lists of
    integers; whether it is a group is for ``FiniteGroup`` to decide."""
    table = payload.get("table")
    if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
        raise SchemaError("group table must be a list of rows")
    if len({len(row) for row in table}) > 1:
        raise SchemaError("ragged group table rows")
    return [[number(entry, "group table entry", int) for entry in row] for row in table]


# -- weak Hopf data ----------------------------------------------------------


def weak_hopf_payload(hopf: WeakHopfData, index_element: np.ndarray | None = None) -> dict:
    payload = {
        "blocks": list(hopf.algebra.blocks),
        "delta": _sparse_tensor(hopf.delta),
        "epsilon": _enc_vec(hopf.epsilon),
        "antipode": _enc_mat(hopf.antipode),
        "involution": "adjoint" if hopf.involution is None
        else _enc_mat(hopf.involution),
    }
    if index_element is not None:
        payload["H"] = _enc_vec(index_element)
    return payload


def parse_weak_hopf(payload: dict):
    """Returns (WeakHopfData, index element or None)."""
    if not isinstance(payload, dict):
        raise SchemaError("payload must be an object")
    algebra = MultiMatrixAlgebra(_blocks(payload.get("blocks")))
    d = algebra.dim
    delta = _dense_tensor(payload.get("delta"), (d, d, d))
    epsilon = _dec_vec(payload.get("epsilon"), d)
    antipode = _dec_mat(payload.get("antipode"), (d, d))
    involution = payload.get("involution", "adjoint")
    if involution == "adjoint":
        inv = None
    else:
        inv = _dec_mat(involution, (d, d))
    hopf = WeakHopfData(algebra, delta, epsilon, antipode, inv)
    index = None
    if "H" in payload:
        index = _dec_vec(payload["H"], d)
    return hopf, index


# -- towers ------------------------------------------------------------------


def tower_payload(tower: TowerData) -> dict:
    def emb(e: SubalgebraEmbedding) -> dict:
        return {"blocks": list(e.sub.blocks), "images": _enc_mat(e.images.T)}

    return {
        "blocks": list(tower.ambient.blocks),
        "embeddings": {"start": emb(tower.sub_start), "mid": emb(tower.sub_mid),
                       "top": emb(tower.sub_top)},
        "e1": _enc_vec(tower.e1.vec),
        "e2": _enc_vec(tower.e2.vec),
        "tau": [float(w) for w in tower.tau.weights],
        "lambda": float(tower.lam),
        "seed": tower.seed,
    }


def parse_tower(payload: dict) -> TowerData:
    if not isinstance(payload, dict):
        raise SchemaError("payload must be an object")
    ambient = MultiMatrixAlgebra(_blocks(payload.get("blocks")))
    embs = payload.get("embeddings")
    if not isinstance(embs, dict):
        raise SchemaError("tower needs an embeddings object")

    def emb(key: str) -> SubalgebraEmbedding:
        data = embs.get(key)
        if not isinstance(data, dict):
            raise SchemaError(f"missing embedding {key!r}")
        sub = MultiMatrixAlgebra(_blocks(data.get("blocks")))
        images = _dec_mat(data.get("images"), (sub.dim, ambient.dim)).T
        return SubalgebraEmbedding(sub, ambient, images)

    lam = payload.get("lambda")
    if isinstance(lam, bool) or not isinstance(lam, (int, float)) or not 0 < lam <= 1:
        raise SchemaError("lambda must be a real in (0, 1]")
    tau_w = payload.get("tau")
    if not isinstance(tau_w, list) or len(tau_w) != len(ambient.blocks):
        raise SchemaError("tau must list one weight per ambient block")
    tau = TraceState(ambient, [number(w, "tau weight") for w in tau_w])

    e1 = ambient.element(_dec_vec(payload.get("e1"), ambient.dim))
    e2 = ambient.element(_dec_vec(payload.get("e2"), ambient.dim))
    seed = number(payload.get("seed", 0), "seed", int)
    chain = {key: emb(key) for key in ("start", "mid", "top")}

    _tower_invariants(ambient, chain, e1, e2, tau, float(lam))
    return TowerData(ambient, chain["start"], chain["mid"], chain["top"],
                     e1, e2, tau, float(lam), seed=seed)


def _tower_invariants(ambient, chain, e1, e2, tau, lam):
    for name, e in (("e1", e1), ("e2", e2)):
        idem = rel_residual(ambient.mul_vecs(e.vec, e.vec), e.vec)
        adj = rel_residual(ambient.adjoint_vecs(e.vec), e.vec)
        if max(idem, adj) > 1e-6:
            raise InvariantViolation(f"{name} not a projection")
    for key, embedding in chain.items():
        if embedding.verify() > 1e-6:
            raise InvariantViolation(f"embedding {key!r} is not a subalgebra")
    top = chain["top"]
    markov = rel_residual(
        tau.values(ambient.mul_vecs(top.images.T, e2.vec)),
        lam * tau.values(top.images.T))
    if markov > 1e-6:
        raise InvariantViolation("trace not Markov")


# -- actions and crossed products -------------------------------------------


def crossed_product_payload(crossed) -> dict:
    return {
        "blocks": list(crossed.algebra.blocks),
        "dim": crossed.dim,
        # [k, x, b, re, im]: coefficient of x (x) b in the representative of
        # the k-th block matrix unit
        "representatives": _sparse_tensor(crossed.representatives.T.reshape(
            crossed.dim, crossed.action.carrier.dim, crossed.action.hopf.dim)),
    }


# -- element files -----------------------------------------------------------


def element_payload(vec) -> dict:
    return {"coefficients": _enc_vec(vec)}


def parse_element(payload: dict, dim: int | None = None) -> np.ndarray:
    if not isinstance(payload, dict):
        raise SchemaError("payload must be an object")
    return _dec_vec(payload.get("coefficients"), dim)


# -- top-level I/O -----------------------------------------------------------


def dumps(kind: str, payload: dict, tolerance: float = 1e-9, seed: int = 0) -> str:
    if kind not in KINDS:
        raise SchemaError(f"unknown kind {kind!r}")
    return WorkbenchObject(kind, payload, make_meta(tolerance, seed)).to_json()


def report_object(report: Report) -> str:
    return dumps("report", report.to_payload(), report.tolerance, report.seed)


def loads(text: str) -> WorkbenchObject:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    if doc.get("format") != FORMAT:
        raise SchemaError(f"unsupported format {doc.get('format')!r}")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"unknown kind {kind!r}")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise SchemaError("payload must be an object")
    return WorkbenchObject(kind, payload, doc.get("meta", {}))
