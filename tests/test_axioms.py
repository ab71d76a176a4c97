"""Every axiom row is seen to fail: a 1e-3 perturbation of one tensor of a
valid structure pushes the row's residual above the tolerance."""

import numpy as np
import pytest

from weakhopf.deform import check_bundle, undeform
from weakhopf.reconstruct import StructureBundle
from weakhopf.weak_hopf import pair_groupoid, verify_axioms

TOL = 1e-9

# (report, check name, tensor whose perturbation breaks the row)
BREAKS = [
    ("verify_axioms", "coassociativity", "delta"),
    ("verify_axioms", "counit left", "epsilon"),
    ("verify_axioms", "counit right", "epsilon"),
    ("verify_axioms", "comultiplication multiplicative", "delta"),
    ("verify_axioms", "comultiplication star-preserving", "involution"),
    ("verify_axioms", "target counital relation", "epsilon"),
    ("verify_axioms", "target counital coproduct", "epsilon"),
    ("verify_axioms", "source counital relation", "epsilon"),
    ("verify_axioms", "source counital coproduct", "epsilon"),
    ("verify_axioms", "antipode target identity", "antipode"),
    ("verify_axioms", "antipode source identity", "antipode"),
    ("verify_axioms", "antipode anti-multiplicative", "antipode"),
    ("verify_axioms", "antipode anti-comultiplicative", "antipode"),
    ("verify_axioms", "counit antipode-invariant", "antipode"),
    ("verify_axioms", "star-antipode squared identity", "antipode"),
    ("verify_axioms", "involution squared identity", "involution"),
    ("verify_axioms", "involution anti-multiplicative", "involution"),
    ("verify_axioms", "involution fixes unit", "involution"),
    ("check_bundle", "coassociativity", "delta"),
    ("check_bundle", "counit left", "epsilon"),
    ("check_bundle", "counit right", "epsilon"),
    ("check_bundle", "twisted multiplicativity", "H"),
    ("check_bundle", "coproduct star-preserving", "involution"),
    ("check_bundle", "counital relation", "epsilon"),
    ("check_bundle", "counital coproduct absorption", "epsilon"),
    ("check_bundle", "antipode anti-homomorphism", "antipode"),
    ("check_bundle", "antipode involutive", "antipode"),
    ("check_bundle", "antipode star-compatible", "involution"),
    ("check_bundle", "twisted antipode counital identity", "H"),
    ("check_bundle", "index element positive", "H"),
    ("check_bundle", "index element central in the Cartan", "H"),
    ("check_bundle", "index element as S(1_(1)) 1_(2)", "H"),
]


def _noise(shape):
    rng = np.random.default_rng(0)
    return 1e-3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _bundle():
    hopf = pair_groupoid(2)
    h = 2.0 * hopf.algebra.basis_unit(0, 0, 0).vec \
        + 0.5 * hopf.algebra.basis_unit(0, 1, 1).vec
    return undeform(hopf, h)[0]


def _report(which, tensor=None):
    """The report of ``which`` on its valid input, with ``tensor`` perturbed."""
    if which == "verify_axioms":
        hopf, h = pair_groupoid(2), None
    else:
        bundle = _bundle()
        hopf, h = bundle.hopf, bundle.index_element
    if tensor == "H":
        h = h + _noise(h.shape)
    elif tensor == "involution":
        hopf = hopf.copy_with(involution=hopf.star_matrix + _noise((hopf.dim,) * 2))
    elif tensor is not None:
        value = getattr(hopf, tensor)
        hopf = hopf.copy_with(**{tensor: value + _noise(value.shape)})
    if which == "verify_axioms":
        return verify_axioms(hopf, TOL)
    return check_bundle(StructureBundle(hopf, h), TOL)


def test_every_row_has_a_breaking_tensor():
    for which in ("verify_axioms", "check_bundle"):
        rows = [c.name for c in _report(which).checks if "classification only"
                not in c.note]
        assert rows == [name for w, name, _ in BREAKS if w == which]


@pytest.mark.parametrize("which, name, tensor", BREAKS)
def test_row_fails_on_perturbed_tensor(which, name, tensor):
    assert _report(which)[name].residual <= TOL
    assert _report(which, tensor)[name].residual > TOL
