"""JSON interchange for correspondences, component lists and spectra.

Rationals travel as strings ("p" or "p/q", sign on the numerator, fully
reduced) so no floating point can enter the format; documents round-trip
byte-identically once canonicalized.  Schema violations raise SchemaError.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .correspondence import Correspondence, MoebiusMap
from .forms import BinaryForm

if TYPE_CHECKING:  # clebsch is imported where a component list is built, not here
    from .clebsch import CgComponents

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")  # ASCII digits only, whole string


class SchemaError(ValueError):
    """Malformed document: bad JSON, bad shape, or a non-exact number."""


def parse_rational(text) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise SchemaError(f"malformed rational {text!r}; expected 'p' or 'p/q'")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise SchemaError(f"zero denominator in {text!r}") from None
    except ValueError:  # more digits than int() converts
        raise SchemaError(f"rational of {len(text)} characters exceeds the digit limit") from None


def format_rational(value: Fraction) -> str:
    try:
        return str(value)
    except ValueError:  # more digits than str() converts; parse_rational could not read it back
        limit = sys.get_int_max_str_digits()
        raise SchemaError(f"a result has more digits than the {limit}-digit limit of int/str "
                          "conversion") from None


def _require_degree(doc, key) -> int:
    v = doc.get(key)
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        raise SchemaError(f"field {key!r} must be a nonnegative integer")
    return v


def correspondence_to_doc(f: Correspondence) -> dict:
    return {
        "d": f.deg_x,
        "e": f.deg_y,
        "coeffs": [[format_rational(c) for c in row] for row in f.form.coeffs],
    }


def correspondence_from_doc(doc) -> Correspondence:
    if not isinstance(doc, dict):
        raise SchemaError("correspondence document must be a JSON object")
    d = _require_degree(doc, "d")
    e = _require_degree(doc, "e")
    coeffs = doc.get("coeffs")
    if not isinstance(coeffs, list) or len(coeffs) != d + 1:
        raise SchemaError(f"'coeffs' must be a list of {d + 1} rows")
    rows = []
    for row in coeffs:
        if not isinstance(row, list) or len(row) != e + 1:
            raise SchemaError(f"each coefficient row must have {e + 1} entries")
        rows.append([parse_rational(c) for c in row])
    if all(c == 0 for row in rows for c in row):
        raise SchemaError("the zero form does not define a correspondence")
    return Correspondence.from_matrix(d, e, rows)


def parse_correspondence(text: str) -> Correspondence:
    return correspondence_from_doc(_loads(text))


def serialize_correspondence(f: Correspondence) -> str:
    return _dumps(correspondence_to_doc(f))


def binary_form_to_doc(form: BinaryForm) -> dict:
    return {"degree": form.degree, "coeffs": [format_rational(c) for c in form.coeffs]}


def binary_form_from_doc(doc) -> BinaryForm:
    if not isinstance(doc, dict):
        raise SchemaError("binary form document must be a JSON object")
    degree = _require_degree(doc, "degree")
    coeffs = doc.get("coeffs")
    if not isinstance(coeffs, list) or len(coeffs) != degree + 1:
        raise SchemaError(f"'coeffs' must list {degree + 1} entries")
    return BinaryForm(degree, [parse_rational(c) for c in coeffs])


def components_to_doc(components: CgComponents) -> dict:
    return {
        "d": components.deg_x,
        "e": components.deg_y,
        "parts": [binary_form_to_doc(p) for p in components.parts],
    }


def components_from_doc(doc) -> CgComponents:
    from .clebsch import CgComponents

    if not isinstance(doc, dict):
        raise SchemaError("component document must be a JSON object")
    d = _require_degree(doc, "d")
    e = _require_degree(doc, "e")
    parts = doc.get("parts")
    if not isinstance(parts, list) or len(parts) != min(d, e) + 1:
        raise SchemaError(f"'parts' must list {min(d, e) + 1} components")
    try:
        return CgComponents(d, e, tuple(binary_form_from_doc(p) for p in parts))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def parse_moebius(text: str) -> MoebiusMap:
    parts = text.split(",")
    if len(parts) != 4:
        raise SchemaError("moebius entries must be 'a,b,c,d'")
    a, b, c, d = (parse_rational(p.strip()) for p in parts)
    try:
        return MoebiusMap(a, b, c, d)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _loads(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise SchemaError(f"invalid JSON: {exc}") from exc


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"
