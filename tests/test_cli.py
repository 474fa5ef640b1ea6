import argparse
import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from framecert.cli import EXIT_SUITE_FAILURE, cmd_reconstruct, main
from framecert.frames import CertifiedFrame, Frame
from framecert.operators import OperatorName
from framecert.specfile import (
    InvalidFrameError,
    LoadedSpec,
    MissingCertificateError,
    SpecFileError,
    load_spec,
    parse_rational,
    parse_vector_text,
)
from framecert.vectors import FiniteVector, VectorName
from framecert.verify import max_iterations, run_suite

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def _decimal_fraction(text: str) -> Fraction:
    """Exact value of a decimal literal of any length (int() caps digits per call)."""
    sign = -1 if text.startswith("-") else 1
    whole, _, frac = text.lstrip("-").partition(".")
    digits, n = whole + frac, 0
    for i in range(0, len(digits), 500):
        chunk = digits[i:i + 500]
        n = n * 10 ** len(chunk) + int(chunk)
    return sign * Fraction(n, 10 ** len(frac))


class TestSpecParsing:
    def test_rationals(self):
        assert parse_rational("3/4", "x") == Fraction(3, 4)
        assert parse_rational("-2", "x") == -2
        assert parse_rational(5, "x") == 5
        with pytest.raises(SpecFileError):
            parse_rational("1/0", "x")
        with pytest.raises(SpecFileError):
            parse_rational("abc", "x")

    def test_vector_text(self):
        v = parse_vector_text("0:1/2, 3:-2")
        assert v.coefficient(0) == Fraction(1, 2)
        assert v.coefficient(3) == -2
        with pytest.raises(SpecFileError):
            parse_vector_text("0:1 nope")

    def test_finite_kind(self):
        spec = load_spec(str(FIXTURES / "mercedes.json"))
        assert spec.kind == "finite"
        assert spec.section is not None and len(spec.section) == 3
        assert spec.certified is not None

    def test_onb_and_riesz_kinds(self):
        assert load_spec(str(FIXTURES / "onb.json")).declared_bounds == (1, 1)
        spec = load_spec(str(FIXTURES / "riesz_shear.json"))
        assert spec.kind == "riesz"
        assert spec.certified is not None

    def test_gallery_kinds(self):
        benign = load_spec(str(FIXTURES / "gallery_ex37_benign.json"))
        assert benign.certified is not None
        free = load_spec(str(FIXTURES / "gallery_ex37_specker.json"))
        assert free.certified is None
        with pytest.raises(MissingCertificateError):
            free.require_certified()

    def test_non_spanning_rejected(self):
        with pytest.raises(InvalidFrameError):
            load_spec(str(FIXTURES / "non_spanning.json"))

    @pytest.mark.parametrize(
        "matrix, bounds, code",
        [
            ([["1", "0"], ["0", "1"]], ["1/2", "1/2"], 3),
            ([["1", "0", "1"], ["0", "1", "1"]], ["3/2", "3"], 3),
            ([["1", "0", "1"], ["0", "1", "1"]], ["1", "2"], 3),
            # spectrum {1, 3}: tight bounds make S - A I and B I - S singular
            ([["1", "0", "1"], ["0", "1", "1"]], ["1", "3"], 0),
            ([["1", "0", "1"], ["0", "1", "1"]], ["1/2", "4"], 0),
        ],
    )
    def test_operator_bounds_checked(self, tmp_path, matrix, bounds, code):
        spec = tmp_path / "op.json"
        spec.write_text(json.dumps({"kind": "operator", "matrix": matrix, "bounds": bounds}))
        assert run_cli("bounds", str(spec))[0] == code

    def test_unknown_kind(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"kind": "mystery"}))
        with pytest.raises(SpecFileError):
            load_spec(str(p))


class TestVerifySuites:
    def test_all_suites_pass_on_mercedes(self):
        CF = load_spec(str(FIXTURES / "mercedes.json")).certified
        for name in ("duality", "projection", "gram", "rate"):
            rep = run_suite(name, CF)
            assert rep.passed, (name, rep.worst)

    def test_onb_rate_single_iteration(self):
        CF = load_spec(str(FIXTURES / "onb.json")).certified
        rep = run_suite("rate", CF)
        assert rep.passed

    def test_max_iterations_tight_case(self):
        assert max_iterations(Fraction(2), Fraction(2), Fraction(1), 40) == 1

    def test_corrupted_duality_fails(self):
        CF = load_spec(str(FIXTURES / "corrupted_dual.json")).certified
        rep = run_suite("duality", CF)
        assert not rep.passed
        assert rep.worst >= Fraction(1, 4)

    def test_gram_diagonal_line_fails_on_false_certificate(self):
        # Mercedes with T* e_0 = (2, 0, 1) instead of (1, 0, 1): the exact
        # section still solves S^-1 f_k correctly, but P = T*_false S^-1 T
        # is oblique, so ||P e_n||^2 differs from the diagonal entry
        CF = load_spec(str(FIXTURES / "mercedes.json")).certified
        T = CF.analysis_op
        false_col = VectorName.from_finite(FiniteVector.parse("0:2 2:1"))
        tampered = CertifiedFrame(
            CF.frame,
            OperatorName(lambda n: false_col if n == 0 else T.col(n), Fraction(3), T.support_bound),
            finite_section=CF.finite_section,
        )
        rep = run_suite("gram", tampered)
        diagonal = [ok for label, _, ok in rep.lines if label.endswith("energy equals diagonal")]
        assert diagonal == [False, False, False]
        assert not rep.passed


class TestCliCommands:
    def test_bounds_finite(self):
        code, out = run_cli("bounds", str(FIXTURES / "mercedes.json"))
        assert code == 0
        assert "A in [" in out and "B in [" in out

    def test_bounds_declared(self):
        code, out = run_cli("bounds", str(FIXTURES / "onb.json"))
        assert code == 0
        assert "A = B = 1 (declared)" in out

    def test_reconstruct_mercedes(self):
        code, out = run_cli(
            "reconstruct", str(FIXTURES / "mercedes.json"), "--vector", "0:1", "-p", "40"
        )
        assert code == 0
        assert "0: 1 ± 2^-40" in out
        assert "residual bound" in out

    def test_reconstruct_onb_echo(self):
        code, out = run_cli(
            "reconstruct", str(FIXTURES / "onb.json"), "--vector", "1:3/4", "-p", "20"
        )
        assert code == 0
        assert "1: 0.75 ± 2^-20" in out

    def test_analyze(self):
        code, out = run_cli(
            "analyze", str(FIXTURES / "mercedes.json"), "--vector", "0:1", "-p", "30"
        )
        assert code == 0
        assert "2: 1 ± 2^-30" in out

    def test_dual_canonical(self):
        code, out = run_cli("dual", str(FIXTURES / "mercedes.json"), "-p", "20")
        assert code == 0
        assert "canonical dual" in out and "g_2" in out

    def test_dual_bessel(self):
        code, out = run_cli(
            "dual", str(FIXTURES / "onb.json"),
            "--bessel", str(FIXTURES / "bessel_small.json"), "-p", "10",
        )
        assert code == 0
        assert "Bessel" in out

    @pytest.mark.parametrize("bound, code", [("0", 3), ("1/2", 3), ("1", 0)])
    def test_dual_bessel_bound_checked(self, tmp_path, bound, code):
        # sum_k h_k h_k^T = I on coordinates 0, 1, so a bound below 1 is false
        h = tmp_path / "h.json"
        h.write_text(json.dumps({"bound": bound, "elements": ["0:1", "1:1"]}))
        got, out = run_cli(
            "dual", str(FIXTURES / "riesz_shear.json"), "--bessel", str(h), "-p", "20"
        )
        assert got == code
        if code == 0:
            # on a Riesz basis every Bessel-parametrized dual is S^-1 f_k
            assert "g_0: (1 ± 2^-20, -1 ± 2^-20, 0 ± 2^-20," in out

    @pytest.mark.parametrize("doc", [
        {"bound": "-1", "elements": ["0:1"]},
        {"bound": "1", "elements": [3]},
    ])
    def test_malformed_bessel_exits_2(self, tmp_path, capsys, doc):
        h = tmp_path / "h.json"
        h.write_text(json.dumps(doc))
        code, out = run_cli("dual", str(FIXTURES / "onb.json"), "--bessel", str(h))
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: ")

    def test_dual_beyond_int_string_limit(self):
        # 6000 fractional digits exceed Python's default int-to-str limit
        code, out = run_cli("dual", str(FIXTURES / "mercedes.json"), "-p", "6000")
        assert code == 0
        line = next(l for l in out.splitlines() if "g_0:" in l)
        text = line.split("(", 1)[1].split(" ± ", 1)[0]
        assert abs(_decimal_fraction(text) - Fraction(2, 3)) <= Fraction(1, 2**6000)

    def test_reconstruct_beyond_int_string_limit(self):
        code, out = run_cli(
            "reconstruct", str(FIXTURES / "onb.json"), "--vector", "0:1", "-p", "20000"
        )
        assert code == 0
        assert "0: 1 ± 2^-20000" in out and "residual bound: 1/" in out

    def test_verify_pass_and_fail(self):
        code, _ = run_cli(
            "verify", str(FIXTURES / "mercedes.json"), "--suite", "gram"
        )
        assert code == 0
        code, out = run_cli(
            "verify", str(FIXTURES / "corrupted_dual.json"), "--suite", "duality"
        )
        assert code == 1
        assert "FAIL" in out

    def test_gram_detects_corrupted_adjoint(self):
        # the false adjoint rows make the range projection oblique, so the
        # energy ||P e_n||^2 no longer equals the diagonal entry
        code, out = run_cli(
            "verify", str(FIXTURES / "corrupted_dual.json"), "--suite", "gram"
        )
        assert code == 1
        assert "[FAIL] row 2 energy equals diagonal" in out

    def test_projection_detects_corrupted_adjoint(self):
        # the oblique projection of a false adjoint is idempotent but not symmetric
        code, out = run_cli(
            "verify", str(FIXTURES / "corrupted_dual.json"), "--suite", "projection"
        )
        assert code == 1
        assert "[FAIL] symmetric on e_0, e_1, e_2" in out

    def test_reconstruct_fails_on_false_bounds(self):
        # bounds (1/2, 1/2) on the identity: relaxation 2 never converges
        CF = CertifiedFrame(
            Frame(VectorName.basis, Fraction(1, 2), Fraction(1, 2)),
            OperatorName.identity(),
        )
        spec = LoadedSpec("onb", CF.frame, CF, None, None)
        args = argparse.Namespace(vector="0:1", precision=20)
        out = io.StringIO()
        assert cmd_reconstruct(spec, args, out) == EXIT_SUITE_FAILURE
        assert "residual bound: " in out.getvalue()

    def test_duality_on_two_row_operator(self, tmp_path):
        # the test vector 0:1/3 1:1 2:-1/2 loses coordinate 2, outside the span
        spec = tmp_path / "op2.json"
        spec.write_text(json.dumps({
            "kind": "operator",
            "matrix": [["1", "0", "1"], ["0", "1", "1"]],
            "bounds": ["1", "3"],
        }))
        code, out = run_cli("verify", str(spec), "--suite", "duality")
        assert code == 0, out
        assert "reconstruct 0:1/3 1:1:" in out

    def test_exit_codes(self):
        assert run_cli("bounds", str(FIXTURES / "malformed.json"))[0] == 2
        assert run_cli("bounds", str(FIXTURES / "non_spanning.json"))[0] == 3
        assert (
            run_cli(
                "reconstruct", str(FIXTURES / "gallery_ex37_specker.json"),
                "--vector", "0:1",
            )[0]
            == 4
        )

    def test_gallery_listing(self):
        code, out = run_cli("gallery")
        assert code == 0
        assert "ex3.7" in out

    def test_deterministic_output(self):
        a = run_cli("dual", str(FIXTURES / "mercedes.json"), "-p", "25")
        b = run_cli("dual", str(FIXTURES / "mercedes.json"), "-p", "25")
        assert a == b
