import json
import random
from fractions import Fraction as F

import pytest

from corrdyn.clebsch import cg_decompose
from corrdyn.correspondence import Correspondence
from corrdyn.forms import BiForm
from corrdyn.serialization import (
    SchemaError,
    components_from_doc,
    components_to_doc,
    correspondence_from_doc,
    correspondence_to_doc,
    parse_correspondence,
    parse_moebius,
    parse_rational,
    serialize_correspondence,
)


class TestRationals:
    def test_integers_and_fractions(self):
        assert parse_rational("3") == 3
        assert parse_rational("-7") == -7
        assert parse_rational("1/2") == F(1, 2)
        assert parse_rational("-10/4") == F(-5, 2)

    def test_malformed(self):
        for bad in ("1.5", "2e3", "a", "", "1/-2", "--3", "1/0", 3, None, "1 / 2",
                    "1\n", "\u0661/\u0662", "3/\u0662"):
            with pytest.raises(SchemaError):
                parse_rational(bad)


class TestCorrespondenceDocs:
    def test_moebius_example(self):
        doc = {"d": 1, "e": 1, "coeffs": [["1", "0"], ["-2", "1"]]}
        f = correspondence_from_doc(doc)
        assert f.form == BiForm(1, 1, [[1, 0], [-2, 1]])

    def test_zero_form_rejected(self):
        with pytest.raises(SchemaError):
            correspondence_from_doc({"d": 0, "e": 0, "coeffs": [["0"]]})

    def test_exact_half(self):
        doc = {"d": 1, "e": 1, "coeffs": [["1/2", "0"], ["0", "1"]]}
        f = correspondence_from_doc(doc)
        assert f.form.coeffs[0][0] == F(1, 2)

    def test_shape_violations(self):
        with pytest.raises(SchemaError):
            correspondence_from_doc({"d": 1, "e": 1, "coeffs": [["1", "0"]]})
        with pytest.raises(SchemaError):
            correspondence_from_doc({"d": 1, "e": 1, "coeffs": [["1"], ["0"]]})
        with pytest.raises(SchemaError):
            correspondence_from_doc({"d": -1, "e": 1, "coeffs": []})
        with pytest.raises(SchemaError):
            correspondence_from_doc({"d": True, "e": 1, "coeffs": [["1", "0"], ["0", "1"]]})
        with pytest.raises(SchemaError):
            correspondence_from_doc([1, 2, 3])

    def test_numbers_rejected(self):
        with pytest.raises(SchemaError):
            correspondence_from_doc({"d": 0, "e": 0, "coeffs": [[1]]})

    def test_bad_json(self):
        with pytest.raises(SchemaError):
            parse_correspondence("{not json")

    def test_round_trip_canonicalizes(self):
        doc = {"d": 1, "e": 1, "coeffs": [["2/4", "0"], ["-6/3", "5"]]}
        f = correspondence_from_doc(doc)
        out = json.loads(serialize_correspondence(f))
        assert out["coeffs"] == [["1/2", "0"], ["-2", "5"]]
        # canonical text is a fixed point of parse/serialize
        text = serialize_correspondence(f)
        assert serialize_correspondence(parse_correspondence(text)) == text

    def test_random_round_trips(self):
        rng = random.Random(90)
        for _ in range(20):
            d, e = rng.randint(0, 3), rng.randint(0, 3)
            rows = [
                [F(rng.randint(-30, 30), rng.randint(1, 8)) for _ in range(e + 1)]
                for _ in range(d + 1)
            ]
            if all(v == 0 for row in rows for v in row):
                rows[0][0] = F(1)
            f = Correspondence.from_matrix(d, e, rows)
            assert parse_correspondence(serialize_correspondence(f)).form == f.form


class TestComponentDocs:
    def test_round_trip(self):
        f = BiForm(2, 2, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        comp = cg_decompose(f)
        doc = components_to_doc(comp)
        assert components_from_doc(doc) == comp

    def test_profile_validation(self):
        doc = {
            "d": 1,
            "e": 1,
            "parts": [{"degree": 2, "coeffs": ["1", "0", "0"]}],
        }
        with pytest.raises(SchemaError):
            components_from_doc(doc)


class TestMoebiusParsing:
    def test_entries(self):
        g = parse_moebius("2,0,0,1")
        assert g.entries() == (2, 0, 0, 1)
        g = parse_moebius("1/2, -1, 0, 4")
        assert g.a == F(1, 2) and g.b == -1

    def test_errors(self):
        with pytest.raises(SchemaError):
            parse_moebius("1,2,3")
        with pytest.raises(SchemaError):
            parse_moebius("1,2,3,x")
        with pytest.raises(SchemaError):
            parse_moebius("2,4,1,2")  # determinant zero
