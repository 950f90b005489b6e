"""Golden outputs of the exact kernels over the seeded corpus of tests/corpus.py.

Each kernel family's outputs on its corpus are hashed into one sha256, so a
mismatch names the function whose output changed.  The pinned values were
recorded before the kernels moved to integer inner loops (the stability, GCD
and substitute_pair digests before those three moved; the
diagonal_restriction, cg_decompose and rho_embed digests before the diagonal
restrictions and Cayley powers moved onto one integer kernel; cg_reconstruct
and rho_embed_scaled before the Clebsch-Gordan layer moved onto integers);
rational_roots was recorded while roots were still found by trial division.
conjugate, substitute_pair_square, dz_coordinates and
rational_fixed_point_oracle were recorded on the integer Moebius tables,
classify_stability_large while stability still restricted every chart partial,
cg_roundtrip_large while cg_reconstruct still reduced every entry by a gcd,
and compose_large while bareiss_det_poly still took a determinant at every
point of the two-variable grid.
tools/sameness.py records the same draws one case at a time.

To re-record after a deliberate change of output, print `_digest(name)` for
every name in GOLDEN; a new family goes into CASES in tests/corpus.py first.
"""

import hashlib

import pytest

from corpus import CASES, stream

GOLDEN = {
    "substitute_linear": "1fb2c00de86be73448f34185d602d9b76f867d693deb5e9ca3e63f48bee3f6f3",
    "diagonal_derivative_forms": "9ad198945503420a7b43cece7cb20989724bbecc46436a15199076f6259dbe89",
    "compose": "8da861da97b1963cb69238f3ed7943ec28519dd80a6fe7b545641c77a5f5c20c",
    "compose_large": "a488b594cad7862ca72379928c11c3ecab1c94883bc5df5762f25feca8157045",
    "covariant_resultant": "5a49c9286d094793e338144ebcc85b5bb2f62798fb02a50c1441cd85b52d50e4",
    "multiplier_form": "c1536876b571097bfa2164e3ef5588abeb216e6f8379a6fdfd7e5b12cbc8fd0a",
    "woods_hole_resultant": "44fb39ffae1f66c3c30d19e1894a15a9f0894c2a33003547e504e217eb88785f",
    "classify_stability": "d9cb91861de4aa41626ed10ffb6d70025ccc646f0e9990586faebf12077693f3",
    "classify_stability_large": "d28eddca9fb8ba062d9e40c3a3b7a7f1584604a9899c9a1bfd28d77efed3c824",
    "diagonal_multiplicity_at_least": "7f51c1ccfdb534e3117b8d637168fc579dfd8e8666a728541ab80e002247f5aa",
    "binary_gcd": "9d2ea35443a5de21e205ebad68a1456daf8d56a60aa62f02694c4fc1bcc81513",
    "substitute_pair": "c6c4520e45ffc25acca0f38c05926dfc23257c7eeac2ac7f5c74cb21b2d94f9a",
    "diagonal_restriction": "2312fad87e2f0cf4d22d4839c0f70f16f9dbafd3d8ed54456993ecd26e5fb9d0",
    "cg_decompose": "e5d44df94e90de447df1b7425ad60df585ffc702dc878f64b1ca8df10aee7ec4",
    "rho_embed": "727ed68121ebbe2b503551db0f9eb0c49be464dce929ddc7e3638ac0383d098d",
    "cg_reconstruct": "efef913183d7479bcb90f257dff8268325556a66be791dbdd5818c7c20d75ec5",
    "rho_embed_scaled": "3daa806cc566b0b85eb85b3642b18af40be62ec0147c143eaa43b66f5a1d265f",
    "cg_roundtrip_large": "145cc1d77ee942e9b2774d7f5455bc4cde4ac00245393734cb4c1231c67fed82",
    "rational_roots": "4368dc2ff44b1d6eb60aae1597e232ae2a420d3c16318bf3497a8a8a833e62fa",
    "conjugate": "a91991763d880905c21fdc17e31918e34b215ac242a40ec026c0065cf0b059fa",
    "substitute_pair_square": "e22b03b5b420338acf06e41fe14f3c18bdbae53165c486fd641a3d3314cb2e55",
    "dz_coordinates": "1dbd9235c091d7595d774d26ddddd4da84679066e60432279c4b07bbdab6130f",
    "rational_fixed_point_oracle": "03f404847a34837367a9af919ccf3b4ad28fd720d08f1d91eb5b15026143fc86",
}


def _digest(name):
    case, count = CASES[name]
    rng = stream(name)
    lines = [case(rng) for _ in range(count)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name):
    assert _digest(name) == GOLDEN[name], f"{name} output changed on the golden corpus"
