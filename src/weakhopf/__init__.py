"""Workbench for finite-dimensional weak Kac and weak C*-Hopf algebras."""

__version__ = "0.1.0"

from .multimatrix import (  # noqa: F401
    AlgebraElement,
    ConditionalExpectation,
    InclusionMatrix,
    JonesExtension,
    MultiMatrixAlgebra,
    SubalgebraEmbedding,
    TraceState,
    basic_construction,
    center,
    inclusion_matrix,
    markov_trace,
    relative_commutant,
    subalgebra_from_basis,
    watatani_index,
)
from .weak_hopf import (  # noqa: F401
    CartanPair,
    DualAlgebra,
    WeakHopfData,
    cartan_subalgebras,
    connectedness,
    counital_maps,
    dual_algebra,
    function_algebra,
    group_algebra,
    haar_functional,
    haar_projection,
    pair_groupoid,
    verify_axioms,
)
from .groups import FiniteGroup, cyclic, symmetric  # noqa: F401
from .report import Check, Report  # noqa: F401
from .tower import TowerData, build_tower_from_group, verify_tower_premises  # noqa: F401
from .reconstruct import (  # noqa: F401
    DualBases,
    PairingForm,
    ReconstructedStructure,
    StructureBundle,
    classify,
    dual_bases,
    identity_suite,
    pairing,
    reconstruct,
)
from .deform import DeformedStructure, check_bundle, deform, undeform  # noqa: F401
from .actions import (  # noqa: F401
    ActionData,
    CrossedProduct,
    ThetaMap,
    canonical_action,
    crossed_product,
    fixed_points,
    minimality,
    theta_iso,
    verify_action,
)
from .matching import Intertwiner, match_pair_groupoid  # noqa: F401
from .errors import (  # noqa: F401
    InconsistentReport,
    InvariantViolation,
    SchemaError,
    WorkbenchError,
)
