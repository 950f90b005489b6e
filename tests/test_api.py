"""The public API: exactly these names, each one importable from the package."""

import pytest

import corrdyn
import corrdyn.clebsch
import corrdyn.forms

PUBLIC = [
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


def test_all_is_exactly_the_public_names():
    assert len(PUBLIC) == 45
    assert len(set(corrdyn.__all__)) == len(corrdyn.__all__)
    assert sorted(corrdyn.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in corrdyn.__all__:
        assert getattr(corrdyn, name) is not None, name


@pytest.mark.parametrize("module", [corrdyn, corrdyn.forms, corrdyn.clebsch])
@pytest.mark.parametrize("name", ["CovariantForm", "Rational", "WeightVector", "torus_weights"])
def test_retired_names_are_gone(module, name):
    assert not hasattr(module, name)
