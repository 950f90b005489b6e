"""Exact arithmetic for dynamical systems of correspondences on the projective line.

A correspondence is a curve in P^1 x P^1 cut out by one bihomogeneous form;
it generalizes the graph of a rational self-map.  This package computes,
over exact rationals: composition, iteration and Moebius conjugation of
correspondences; Sylvester resultants over scalar and covariable-polynomial
domains; the Cayley/Clebsch-Gordan decomposition with its exact inverse;
stability classification under simultaneous conjugation; and fixed-point
multiplier forms together with the index and hyperplane identities they
satisfy.  Every identity is replayable through ``corrdyn verify``.
"""

__version__ = "0.1.0"

from .clebsch import (
    CgComponents,
    cayley_omega,
    cg_decompose,
    cg_reconstruct,
    rho_embed,
    torus_weight,
)
from .correspondence import (
    Correspondence,
    DegenerateComposition,
    MoebiusMap,
    compose,
    conjugate,
    iterate,
    moebius_graph,
)
from .forms import BiForm, BinaryForm, binary_gcd, rational_roots
from .multiplier import (
    BadPosition,
    DiagonalDerivatives,
    IndeterminateMultiplier,
    MultiplierSpectrum,
    diagonal_derivative_forms,
    dz_coordinates,
    dz_to_covariant,
    hyperplane_residual,
    index_residual,
    multiplier_form,
    nth_multiplier_form,
    rational_fixed_point_oracle,
    rho_compatibility_check,
    sigma_spectrum,
    woods_hole_residual,
    woods_hole_resultant,
)
from .resultant import (
    covariant_resultant,
    homogeneous_resultant,
    resultant_univariate,
)
from .serialization import SchemaError, parse_correspondence, serialize_correspondence
from .stability import (
    StabilityVerdict,
    Verdict,
    classify_stability,
    diagonal_multiplicity_at_least,
    max_diagonal_multiplicity,
)
from .verify import run_verify_suite

__all__ = [
    "BadPosition",
    "BiForm",
    "BinaryForm",
    "CgComponents",
    "Correspondence",
    "DegenerateComposition",
    "DiagonalDerivatives",
    "IndeterminateMultiplier",
    "MoebiusMap",
    "MultiplierSpectrum",
    "SchemaError",
    "StabilityVerdict",
    "Verdict",
    "binary_gcd",
    "cayley_omega",
    "cg_decompose",
    "cg_reconstruct",
    "classify_stability",
    "compose",
    "conjugate",
    "covariant_resultant",
    "diagonal_derivative_forms",
    "diagonal_multiplicity_at_least",
    "dz_coordinates",
    "dz_to_covariant",
    "homogeneous_resultant",
    "hyperplane_residual",
    "index_residual",
    "iterate",
    "max_diagonal_multiplicity",
    "moebius_graph",
    "multiplier_form",
    "nth_multiplier_form",
    "parse_correspondence",
    "rational_fixed_point_oracle",
    "rational_roots",
    "resultant_univariate",
    "rho_compatibility_check",
    "rho_embed",
    "run_verify_suite",
    "serialize_correspondence",
    "sigma_spectrum",
    "torus_weight",
    "woods_hole_residual",
    "woods_hole_resultant",
]
