import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corrdyn
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
        with pytest.raises(ValueError, match="at most 32"):
            run_verify_suite(seed=1, degree_cap=33)
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


def _verify_with_fault(tmp_path, path, line, faulty):
    """``verify --seed 1 --degree-cap 3`` on a copy of the package with one line replaced.

    Returns the exit code and {identity: its failure lines, or None if it passed}.
    """
    shutil.copytree(
        Path(corrdyn.__file__).parent,
        tmp_path / "corrdyn",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    target = tmp_path / "corrdyn" / path
    text = target.read_text(encoding="utf-8")
    assert text.count(line) == 1
    target.write_text(text.replace(line, faulty), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "corrdyn", "verify", "--seed", "1", "--degree-cap", "3"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(tmp_path)),
        timeout=60,
    )
    verdicts = {}
    for row in proc.stdout.splitlines():
        if row.startswith(("PASS ", "FAIL ")):
            name = row.split()[1]
            verdicts[name] = None if row.startswith("PASS") else []
        elif row.startswith("    instance"):
            verdicts[name].append(row.strip())
    return proc.returncode, verdicts


# The identities that reach _interpolate_line, through compose or covariant_resultant.
_INTERPOLATION_USERS = (
    "covariant-specialization",
    "composition-bidegree",
    "composition-associativity",
    "moebius-graph-composition",
    "spectrum-conjugation-invariance",
    "multiplier-oracle-agreement",
    "invariant-normalized-coefficients",
    "hyperplane-residual",
    "index-residual",
    "woods-hole-residual",
)
# The identities that read classify_stability's largest multiplicity.
_STABILITY_IDENTITIES = (
    "stability-conjugation-invariance",
    "stability-odd-parity",
    "stability-matrix-crosscheck",
    "multiplicity-monotonicity",
)
_BLIND_SPOT = pytest.mark.xfail(strict=True, reason="verify blind spot, ROADMAP item 4")


class TestPlantedFaults:
    """A one-line library fault ends verify with FAIL lines and exit 1.

    ``failing`` maps each identity the fault must fail to the exception type
    its failure lines name (None: a wrong result, no exception); every other
    identity must pass.  A blind spot is a fault that no identity catches yet,
    marked xfail so that the change that closes it must flip its entry.
    """

    @pytest.mark.parametrize(
        "path, line, faulty, failing",
        [
            pytest.param(
                "multiplier.py",
                "    if r.is_zero():\n",
                "    if r.is_zero() or (d, e) == (2, 2):\n",
                dict.fromkeys(
                    (
                        "spectrum-conjugation-invariance",
                        "invariant-normalized-coefficients",
                        "hyperplane-residual",
                    ),
                    "RuntimeError",
                ),
                id="multiplier-form-refuses-bidegree-2-2",
            ),
            pytest.param(
                "clebsch.py",
                "    if m < 0 or m > min(d, e):\n",
                "    if m < 0 or m > min(d, e) or m == 1:\n",
                dict.fromkeys(
                    (
                        "cayley-linearity",
                        "cayley-explicit-monomial",
                        "derivative-linear-relations",
                        "hyperplane-residual",
                    ),
                    "ValueError",
                ),
                id="cayley-omega-refuses-order-1",
            ),
            pytest.param(
                "resultant.py",
                "    c = list(vals)\n",
                '    raise ArithmeticError("inexact divided difference")\n',
                dict.fromkeys(_INTERPOLATION_USERS, "ArithmeticError"),
                id="interpolation-raises",
            ),
            pytest.param(
                "stability.py",
                "        mult, witness = k + 1, w\n",
                "        mult, witness = k + 2, w\n",
                dict.fromkeys(_STABILITY_IDENTITIES),
                id="order-m-minus-2-partials",
            ),
            pytest.param(
                "stability.py",
                "rs = [[i * c for i, c in enumerate(r)][1:] for r in rs]",
                "rs = [r[1:] for r in rs]",
                dict.fromkeys(_STABILITY_IDENTITIES),
                id="z1-derivative-drops-its-weights",
            ),
            pytest.param(
                "stability.py",
                "        if len(w) == 1 and w[0]:\n",
                "        if len(w) == 1 and w[0] or k == 2:\n",
                dict.fromkeys(_STABILITY_IDENTITIES),
                id="scan-stops-after-order-2",
            ),
            pytest.param(
                "stability.py",
                "    if 2 * mult < n:\n",
                "    if 2 * mult < n - 1:\n",
                None,
                id="stable-read-as-unstable",
                marks=_BLIND_SPOT,
            ),
            pytest.param(
                "clebsch.py",
                "w1.scale(c1)",
                "w1.scale(c0)",
                {"hyperplane-residual": None},
                id="rho-embed-scales-omega1-by-c0",
            ),
            pytest.param(
                "correspondence.py",
                "    scale = df**dp * dg**e\n",
                "    scale = df**dp * dg**e * dg\n",
                None,
                id="compose-divides-by-extra-dg",
                marks=_BLIND_SPOT,
            ),
            pytest.param(
                "resultant.py",
                "df**g.degree * dg**f.degree",
                "df**f.degree * dg**g.degree",
                None,
                id="resultant-denominator-exponents-swapped",
                marks=_BLIND_SPOT,
            ),
            pytest.param(
                "forms.py",
                "roots.append(((b, a), mult))",
                "roots.append(((b, a), 1))",
                {"stability-matrix-crosscheck": None},
                id="rational-roots-multiplicity-1",
            ),
            pytest.param(
                "forms.py",
                "    return [list(row) for row in zip(*cols)]\n",
                "    return [list(row) for row in zip(*cols[::-1])]\n",
                dict.fromkeys(
                    (
                        "substitution-composition",
                        "resultant-equivariance",
                        "conjugation-action-law",
                        "torus-weight-scaling",
                        "stability-matrix-crosscheck",
                        "hyperplane-residual",
                    )
                ),
                id="substitution-table-swaps-powers-of-l-and-m",
            ),
            pytest.param(
                "multiplier.py",
                "        product = _times_linear(product, y, -_horner(xs, p0, p1))\n",
                "        product = _times_linear(product, y, _horner(xs, p0, p1))\n",
                {"multiplier-oracle-agreement": None},
                id="oracle-product-sign-flip",
            ),
            pytest.param(
                "multiplier.py",
                "    norm = f.form.coeffs[0][0] * f.form.coeffs[d][e]\n",
                "    norm = f.form.coeffs[0][0]\n",
                {"invariant-normalized-coefficients": None},
                id="invariant-coefficients-drop-a-de",
            ),
            pytest.param(
                "clebsch.py",
                "cayley_omega(f, 1), 1, d + e - 1, scale)",
                "cayley_omega(f, 1), 1, d + e - 1, scale[::-1])",
                {"hyperplane-residual": None},
                id="projection-swaps-scales",
            ),
        ],
    )
    def test_fault_fails_the_identities_it_reaches(self, tmp_path, path, line, faulty, failing):
        code, verdicts = _verify_with_fault(tmp_path, path, line, faulty)
        assert code == 1
        assert sorted(verdicts) == sorted(CHECK_NAMES)
        failed = {name: lines for name, lines in verdicts.items() if lines is not None}
        assert failed
        if failing is None:
            return
        assert sorted(failed) == sorted(failing)
        for name, raised in failing.items():
            if raised is not None:
                assert all(f": raised {raised}: " in row for row in failed[name])


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

        def recording(form):
            if any(form is r.witness for r in seen):
                roots.append(form)
            return inner(form)

        monkeypatch.setattr(verify_mod, "rational_roots", recording)
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
        seen = self.verdicts(monkeypatch)
        for cap in (2, 3):
            (result,) = run_verify_suite(seed, cap, only="multiplicity-monotonicity").results
            assert result.passed and result.total == 8
        assert max(r.max_multiplicity for r in seen) >= 3


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

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_off_by_one_multiplicity_breaks_odd_parity(self, monkeypatch, seed):
        (result,) = run_verify_suite(seed, 3, only="stability-odd-parity").results
        assert result.passed and result.total == 12
        original = stability_mod._scan

        def off_by_one(f, top):
            mult, witness = original(f, top)
            return mult + 1, witness

        monkeypatch.setattr(stability_mod, "_scan", off_by_one)
        (result,) = run_verify_suite(seed, 3, only="stability-odd-parity").results
        assert not result.passed
