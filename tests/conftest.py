import numpy as np
import pytest

from weakhopf._linalg import numeric_rank
from weakhopf.actions import canonical_action, crossed_product, minimality, theta_iso
from weakhopf.deform import deform
from weakhopf.groups import cyclic, symmetric
from weakhopf.reconstruct import reconstruct
from weakhopf.tower import build_tower_from_group, build_tower_from_inclusion

GROUPS = {**{f"z{n}": (lambda n=n: cyclic(n)) for n in range(2, 9)}, "s3": lambda: symmetric(3)}
TOWER_NAMES = ["z2", "z3", "z4", "s3"]

# inclusion data (N blocks, Lambda, Markov weights on M, modulus) for
# ``build_tower_from_inclusion``: the subgroup algebras C[A3] and C[Z2] in
# C[S3] (depth 2 and depth 3), and two inclusions of C^2 into matrix blocks
INCLUSIONS = {
    "a3_in_s3": ([1, 1, 1], [[1, 1, 0], [0, 0, 1], [0, 0, 1]], [1 / 6, 1 / 6, 1 / 3], 1 / 2),
    "z2_in_s3": ([1, 1], [[1, 0, 1], [0, 1, 1]], [1 / 6, 1 / 6, 1 / 3], 1 / 3),
    "c2_in_m3_m3": ([1, 1], [[1, 2], [2, 1]], [1 / 6, 1 / 6], 1 / 9),
    "c2_in_m2": ([1, 1], [[1], [1]], [1 / 2], 1 / 2),
}


@pytest.fixture(scope="session")
def get_tower():
    """The tower of a group of ``GROUPS`` or of an inclusion of ``INCLUSIONS``."""
    cache = {}

    def build(name):
        if name not in cache:
            cache[name] = build_tower_from_group(GROUPS[name]()) if name in GROUPS \
                else build_tower_from_inclusion(*INCLUSIONS[name])
        return cache[name]

    return build


@pytest.fixture(scope="session")
def get_reconstruction(get_tower):
    cache = {}

    def build(name):
        if name not in cache:
            cache[name] = reconstruct(get_tower(name))
        return cache[name]

    return build


@pytest.fixture(scope="session")
def get_pipeline(get_tower, get_reconstruction):
    """Full deformation / action / crossed-product chain, cached per tower."""
    cache = {}

    def build(name):
        if name not in cache:
            tower = get_tower(name)
            rec = get_reconstruction(name)
            deformed, deform_report = deform(rec.on_b, tower=tower)
            action = canonical_action(tower, deformed)
            crossed = crossed_product(action, rng=np.random.default_rng(0))
            cache[name] = {
                "tower": tower,
                "rec": rec,
                "deformed": deformed,
                "deform_report": deform_report,
                "action": action,
                "crossed": crossed,
                "minimality": minimality(crossed),
                "theta": theta_iso(tower, deformed, crossed),
            }
        return cache[name]

    return build


def dense_span_dim(left, w, right):
    """Reference for ``product_span_dim``: the rank of all products x w y
    over the units x of ``left`` and y of ``right``, as one stack."""
    alg = left.ambient
    prods = alg.pairwise_mul(left.images.T, alg.mul_vecs(w, right.images.T))
    return numeric_rank(prods.reshape(-1, alg.dim).T, 1e-9)
