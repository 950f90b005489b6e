"""Exact arithmetic for dynamical systems of correspondences on the projective line.

A correspondence is a curve in P^1 x P^1 cut out by one bihomogeneous form;
it generalizes the graph of a rational self-map.  This package computes,
over exact rationals: composition, iteration and Moebius conjugation of
correspondences; Sylvester resultants over scalar and covariable-polynomial
domains; the Cayley/Clebsch-Gordan decomposition with its exact inverse;
stability classification under simultaneous conjugation; and fixed-point
multiplier forms together with the index and hyperplane identities they
satisfy.  Every identity is replayable through ``corrdyn verify``.

``import corrdyn`` loads no submodule.  A public name is looked up in its
defining module on each access (PEP 562), importing that module the first
time, so ``corrdyn.compose`` is always ``corrdyn.correspondence.compose``,
even after that binding is replaced, and nothing is copied into the package
namespace.  A submodule is imported as usual (``import corrdyn.clebsch``).
"""

__version__ = "0.1.0"

import importlib

# The public names, by the submodule that defines them.
_EXPORTS = {
    "clebsch": ("CgComponents", "cayley_omega", "cg_decompose", "cg_reconstruct", "rho_embed"),
    "correspondence": ("Correspondence", "DegenerateComposition", "MoebiusMap", "compose",
                       "conjugate", "iterate", "moebius_graph"),
    "forms": ("BiForm", "BinaryForm", "binary_gcd", "rational_roots"),
    "multiplier": ("BadPosition", "DiagonalDerivatives", "IndeterminateMultiplier",
                   "MultiplierSpectrum", "diagonal_derivative_forms", "dz_coordinates",
                   "index_residual", "multiplier_form", "rational_fixed_point_oracle",
                   "sigma_spectrum", "woods_hole_resultant"),
    "resultant": ("covariant_resultant", "homogeneous_resultant"),
    "serialization": ("SchemaError", "parse_correspondence", "serialize_correspondence"),
    "stability": ("StabilityVerdict", "Verdict", "classify_stability"),
    "verify": ("run_verify_suite",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Importing a submodule binds it in this namespace; only the first use imports.
    module = globals().get(_HOME[name]) or importlib.import_module(f".{_HOME[name]}", __name__)
    return getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
