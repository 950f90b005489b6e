import hashlib
import subprocess
import sys

import pytest

import corrdyn.multiplier as multiplier_mod
import corrdyn.stability as stability_mod
import corrdyn.verify as verify_mod
from corrdyn.multiplier import DiagonalDerivatives
from corrdyn.verify import CHECK_NAMES, run_verify_suite


class TestSuite:
    def test_all_pass_on_default_corpus(self):
        report = run_verify_suite(seed=1, degree_cap=3)
        assert report.passed
        assert len(report.results) == len(CHECK_NAMES)
        assert all(r.total > 0 for r in report.results)

    def test_deterministic_reports(self):
        a = run_verify_suite(seed=5, degree_cap=2).text()
        b = run_verify_suite(seed=5, degree_cap=2).text()
        assert a == b

    def test_only_filter_replays_full_run_instances(self):
        full = run_verify_suite(seed=2, degree_cap=2)
        for name in ("resultant-equivariance", "hyperplane-residual"):
            solo = run_verify_suite(seed=2, degree_cap=2, only=name)
            assert len(solo.results) == 1
            full_result = next(r for r in full.results if r.name == name)
            assert solo.results[0] == full_result

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            run_verify_suite(seed=1, degree_cap=1)
        with pytest.raises(ValueError):
            run_verify_suite(seed=1, degree_cap=3, only="nonexistent")


class TestTranscriptDigests:
    # sha256 of the full report text, recorded before the verify-only
    # wrappers (hyperplane_residual, woods_hole_residual, torus_weight,
    # resultant_univariate) were folded into their checks.
    DIGESTS = {
        (1, 2): "5983e5285bf52a5b66360322901970f7490a11cd49a45cf1d7e2389776485606",
        (1, 3): "34b324d899004ea5649afc4a61782c847d944b8c2ec247479627342b1eee38bd",
        (2, 2): "9ff3f9cfacda137db22a9b442c0550dba955e03db22b79feabda9fe84c445cb6",
        (2, 3): "19756cb8b55ae0b1fe745b15f52f0ef41d1b79eea758369c0652a5f187eeccb0",
        (3, 2): "a77ffd8b11aba7e2b491d9c8b912faa7db99b9a64aaa3bb7d493a088058288db",
        (3, 3): "af658d006b80587e496aaa62db20754bcefc275284bd44a72e25f3954c99292a",
    }

    @pytest.mark.parametrize("seed, cap", sorted(DIGESTS))
    def test_report_text_is_pinned(self, seed, cap):
        text = run_verify_suite(seed, cap).text()
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[seed, cap]


class TestTermination:
    def test_spectrum_conjugation_redraws_an_infinite_multiplier(self):
        # At this seed the identity draws an f with an infinite multiplier,
        # which no conjugation makes finite; it must redraw f, not retry forever.
        code = (
            "from corrdyn.verify import run_verify_suite\n"
            "report = run_verify_suite(800639, 3, only='spectrum-conjugation-invariance')\n"
            "raise SystemExit(0 if report.passed else 1)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], timeout=60)
        assert proc.returncode == 0


class TestStabilityCoverage:
    """The stability identities reach the cases they are about on every seed."""

    @staticmethod
    def verdicts(monkeypatch):
        seen = []
        inner = stability_mod.classify_stability

        def recording(f):
            seen.append(inner(f))
            return seen[-1]

        monkeypatch.setattr(stability_mod, "classify_stability", recording)
        return seen

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_crosscheck_round_trips_every_witness(self, monkeypatch, seed):
        seen = self.verdicts(monkeypatch)
        roots = []
        inner = verify_mod.rational_roots
        monkeypatch.setattr(verify_mod, "rational_roots", lambda w: roots.append(w) or inner(w))
        for cap in (2, 3, 4):
            seen.clear()
            roots.clear()
            (result,) = run_verify_suite(seed, cap, only="stability-matrix-crosscheck").results
            assert result.passed and result.total == 10
            assert [r.verdict.value for r in seen] == ["Unstable"] * 10
            assert len(roots) == 10

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_conjugation_invariance_meets_every_verdict(self, monkeypatch, seed):
        seen = self.verdicts(monkeypatch)
        for cap in (2, 3):
            (result,) = run_verify_suite(seed, cap, only="stability-conjugation-invariance").results
            assert result.passed and result.total == 10
        assert {r.verdict.value for r in seen} == {"Stable", "StrictlySemistable", "Unstable"}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_monotonicity_sees_orders_above_one(self, monkeypatch, seed):
        hits = []
        inner = stability_mod.diagonal_multiplicity_at_least

        def recording(f, m):
            hit, witness = inner(f, m)
            hits.append(m if hit else 0)
            return hit, witness

        monkeypatch.setattr(stability_mod, "diagonal_multiplicity_at_least", recording)
        for cap in (2, 3):
            (result,) = run_verify_suite(seed, cap, only="multiplicity-monotonicity").results
            assert result.passed and result.total == 8
        assert max(hits) >= 3


class TestMutationSensitivity:
    def test_sign_flip_in_diag_y_breaks_index_and_hyperplane(self, monkeypatch):
        original = multiplier_mod.diagonal_derivative_forms

        def flipped(f):
            dd = original(f)
            return DiagonalDerivatives(dd.diag, dd.diag_x, -dd.diag_y)

        monkeypatch.setattr(multiplier_mod, "diagonal_derivative_forms", flipped)
        report = run_verify_suite(seed=1, degree_cap=3)
        by_name = {r.name: r for r in report.results}
        assert not by_name["index-residual"].passed
        assert not by_name["hyperplane-residual"].passed
        assert not report.passed

    def test_failure_report_carries_reproduction_command(self, monkeypatch):
        original = multiplier_mod.diagonal_derivative_forms

        def flipped(f):
            dd = original(f)
            return DiagonalDerivatives(dd.diag, dd.diag_x, -dd.diag_y)

        monkeypatch.setattr(multiplier_mod, "diagonal_derivative_forms", flipped)
        text = run_verify_suite(seed=1, degree_cap=3, only="hyperplane-residual").text()
        assert "FAIL hyperplane-residual" in text
        assert "corrdyn verify --seed 1 --degree-cap 3 --only hyperplane-residual" in text
