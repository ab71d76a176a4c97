"""The four Haar rows of the tower chain: "Haar projection is the second
Jones projection" and "Haar functional is the rescaled trace" of
``classify`` (Thm 4.17), and "Haar projection is e2 twisted by the index
element" and "Haar functional closed form" of ``deform`` (Thm 5.7).  Each
checks a closed form (``reconstruct.haar_closed_forms``) against the
identities that define the Haar integral, so each must fail when its closed
form is bent, and the solve that abstract input still runs must return
the closed form wherever the rows pass."""

import importlib

import numpy as np
import pytest

from weakhopf._linalg import rel_residual
from weakhopf.deform import deform
from weakhopf.reconstruct import classify, haar_closed_forms
from weakhopf.weak_hopf import haar_functional, haar_projection

TOL = 1e-9
E2 = "Haar projection is the second Jones projection"
TRACE = "Haar functional is the rescaled trace"
E2H = "Haar projection is e2 twisted by the index element"
TRACE_H = "Haar functional closed form"
ROWS = (E2, TRACE, E2H, TRACE_H)


def _bent_e2(forms, hopf):
    projection, functional = forms
    projection = projection.copy()
    projection[np.flatnonzero(projection)[0]] += 1.0
    return projection, functional


def _bent_trace(forms, hopf):
    projection, functional = forms
    functional = functional.copy()
    functional[0] += 1.0
    return projection, functional


def _scaled_h(h, hopf):
    """H doubled on the first block of B."""
    h = h.copy()
    h[hopf.algebra.block_slice(0)] *= 2.0
    return h


# tower, fault, the rows that must fail with their residual (None: any
# residual above 0.1); every other Haar row the tower reports must pass
WITNESSES = [
    ("z3", None, {}),
    ("s3", None, {}),
    ("c2_in_m2", None, {}),
    ("c2_in_m3_m3", None, {}),
    ("z3", "e2 entry", {E2: 0.5, E2H: 0.5}),
    ("s3", "e2 entry", {E2: 0.5, E2H: 0.5}),
    ("c2_in_m2", "e2 entry", {E2: 0.5, E2H: 0.5}),
    ("c2_in_m3_m3", "e2 entry", {E2H: 0.5}),
    ("z3", "trace entry", {TRACE: None, TRACE_H: None}),
    ("s3", "trace entry", {TRACE: None, TRACE_H: None}),
    ("c2_in_m3_m3", "trace entry", {TRACE_H: None}),
    ("c2_in_m3_m3", "H block", {E2H: 0.5, TRACE_H: 12 / 17}),
    # the open item on C[A3] < C[S3]: neither Thm 5.7 closed form is a Haar
    # integral of the deformed structure
    ("a3_in_s3", None, {E2H: 1 / 3, TRACE_H: 1 / 3}),
]


@pytest.mark.parametrize("name,fault,failing", WITNESSES,
                         ids=[f"{name}-{fault}" for name, fault, _ in WITNESSES])
def test_each_haar_row_fails_on_its_fault(get_tower, get_reconstruction, monkeypatch,
                                         name, fault, failing):
    tower, rec = get_tower(name), get_reconstruction(name)
    closed = haar_closed_forms

    def faulty(tower, hopf=None, h=None):
        if fault == "H block" and h is not None:
            h = _scaled_h(h, hopf)
        forms = closed(tower, hopf, h)
        if fault == "e2 entry":
            return _bent_e2(forms, hopf)
        if fault == "trace entry":
            return _bent_trace(forms, hopf)
        return forms

    for module in ("weakhopf.reconstruct", "weakhopf.deform"):
        monkeypatch.setattr(importlib.import_module(module), "haar_closed_forms", faulty)
    rows = {c.name: c for c in classify(tower, rec, TOL).checks}
    rows.update((c.name, c) for c in deform(rec.on_b, TOL, tower=tower)[1].checks)
    reported = {row for row in ROWS if row in rows}
    assert set(failing) <= reported
    assert reported >= {E2H, TRACE_H}
    for row in reported:
        check = rows[row]
        if row not in failing:
            assert check.passed and check.residual <= 1e-14, (row, check.residual)
        elif failing[row] is None:
            assert not check.passed and check.residual > 0.1, (row, check.residual)
        else:
            assert not check.passed, row
            assert check.residual == pytest.approx(failing[row], abs=1e-12), row


@pytest.mark.parametrize("name", ["z2", "z3", "z4", "z5", "z6", "z7", "z8", "s3",
                                  "c2_in_m2", "c2_in_m3_m3"])
def test_the_solve_returns_the_closed_forms(get_tower, get_reconstruction, name):
    # what abstract input still solves for is what the tower rows check; the
    # deformed structure is the reconstructed one at a trivial index element
    tower, rec = get_tower(name), get_reconstruction(name)
    deformed = deform(rec.on_b, TOL, tower=tower)[0]
    hinv = rec.on_b.twist(TOL)
    projection, functional = haar_closed_forms(
        tower, rec.on_b.hopf, None if hinv is None else rec.on_b.index_element)
    assert rel_residual(haar_projection(deformed.hopf, TOL).vec, projection) <= 1e-12
    assert rel_residual(haar_functional(deformed.hopf, TOL), functional) <= 1e-12
