"""The public API: exactly these names, each one importable from the package."""

import ast
import dataclasses
from pathlib import Path

import pytest

import corrdyn
import corrdyn.clebsch
import corrdyn.correspondence
import corrdyn.forms
import corrdyn.multiplier
import corrdyn.resultant
import corrdyn.serialization
import corrdyn.stability
import corrdyn.verify

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
    "homogeneous_resultant",
    "index_residual",
    "iterate",
    "moebius_graph",
    "multiplier_form",
    "parse_correspondence",
    "rational_fixed_point_oracle",
    "rational_roots",
    "rho_compatibility_check",
    "rho_embed",
    "run_verify_suite",
    "serialize_correspondence",
    "sigma_spectrum",
    "woods_hole_resultant",
]


def test_all_is_exactly_the_public_names():
    assert len(PUBLIC) == 38
    assert len(set(corrdyn.__all__)) == len(corrdyn.__all__)
    assert sorted(corrdyn.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in corrdyn.__all__:
        assert getattr(corrdyn, name) is not None, name


RETIRED = [
    "CovariantForm",
    "Rational",
    "WeightVector",
    "torus_weights",
    "hyperplane_residual",
    "woods_hole_residual",
    "nth_multiplier_form",
    "torus_weight",
    "resultant_univariate",
    "dz_to_covariant",
    "max_diagonal_multiplicity",
]


@pytest.mark.parametrize(
    "module",
    [corrdyn, corrdyn.forms, corrdyn.clebsch, corrdyn.multiplier, corrdyn.resultant, corrdyn.verify,
     corrdyn.stability, corrdyn.correspondence, corrdyn.serialization],
)
@pytest.mark.parametrize("name", RETIRED)
def test_retired_names_are_gone(module, name):
    assert not hasattr(module, name)


def test_retired_verify_and_spectrum_members_are_gone():
    assert not hasattr(corrdyn.verify, "_Check")
    assert [f.name for f in dataclasses.fields(corrdyn.MultiplierSpectrum)] == ["sigma"]


def test_moebius_map_has_no_apply():
    assert not hasattr(corrdyn.MoebiusMap, "apply")


def test_each_result_is_stored_once():
    # The dz coefficient forms are sums of diag_x and diag_y, and the identity
    # map is MoebiusMap(1, 0, 0, 1).
    fields = [f.name for f in dataclasses.fields(corrdyn.DiagonalDerivatives)]
    assert fields == ["diag", "diag_x", "diag_y"]
    assert not hasattr(corrdyn.MoebiusMap, "identity")


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no check in the library may be one.
    found = []
    for path in sorted(Path(corrdyn.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found


def test_library_has_no_unused_imports():
    # The project runs no linter; an import left behind by a deletion fails
    # this instead, in the library (__init__.py included: it resolves its
    # public names on access and imports nothing to re-export) and in tests/.
    found = []
    for path in [*sorted(Path(corrdyn.__file__).parent.glob("*.py")),
                 *sorted(Path(__file__).parent.glob("*.py"))]:
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.parent.name}/{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used]
    assert not found


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(corrdyn))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from corrdyn import *", namespace)
    assert all(namespace[name] is getattr(corrdyn, name) for name in PUBLIC)


def test_public_names_follow_their_module_bindings(monkeypatch):
    # perfbench's tracer rebinds corrdyn.correspondence.compose and relies on
    # corrdyn.compose resolving to whatever that binding is now.
    original = corrdyn.correspondence.compose
    replacement = object()
    monkeypatch.setattr(corrdyn.correspondence, "compose", replacement)
    assert corrdyn.compose is replacement
    monkeypatch.undo()
    assert corrdyn.compose is original
    assert "compose" not in vars(corrdyn)
