import argparse
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from framecert.cli import cmd_reconstruct, main
from framecert.frames import CertifiedFrame, FalseBoundsError, Frame, range_projection
from framecert import oracle
from framecert.operators import OperatorName
from framecert.oracle import eigenvalue_enclosures, projection_matrix
from framecert.specfile import (
    InvalidFrameError,
    LoadedSpec,
    MissingCertificateError,
    SpecFileError,
    load_bessel,
    load_spec,
    parse_matrix,
    parse_rational,
    parse_vector_text,
)
from framecert.vectors import FiniteVector, VectorName
from framecert.verify import TOL, max_iterations, run_suite
from fraction_matrices import is_positive_definite

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

    @pytest.mark.parametrize("text", [
        "-0", "+3", " 2/3 ", "1_000", "1.5", "1e3", "--1", "-", "1/", "/2",
        "2/0", "3/-4", "\u0663", "0x10", "-12/18", "7/" + "0" * 30 + "5", "1" * 5000,
    ])
    def test_rational_strings_read_as_fraction_reads_them(self, text):
        # the int() path for ASCII -?digits(/digits) must not change which
        # strings are accepted, their values, or the error text
        try:
            want = Fraction(text)
        except (ValueError, ZeroDivisionError) as e:
            with pytest.raises(SpecFileError) as err:
                parse_rational(text, "x")
            assert str(err.value) == f"x: invalid rational {text!r} ({e})"
        else:
            got = parse_rational(text, "x")
            assert type(got) is Fraction and got == want

    @pytest.mark.parametrize("value", [True, 1.5, None, ["1"]])
    def test_rational_rejects_other_json_values(self, value):
        with pytest.raises(SpecFileError, match=re.escape(f"x: expected a rational string, got {value!r}")):
            parse_rational(value, "x")

    def test_matrix_error_names_the_first_bad_entry(self):
        assert parse_matrix([["1", 2], ["-3/6", "1e1"]], "M") == [[1, 2], [Fraction(-1, 2), 10]]
        with pytest.raises(SpecFileError, match=re.escape("M[1][2]: invalid rational '2/0'")):
            parse_matrix([["1", "2", "3"], ["4", "5", "2/0"]], "M")
        with pytest.raises(SpecFileError, match=re.escape("M[0][1]: expected a rational string, got True")):
            parse_matrix([["1", True, "x"]], "M")

    def test_matrix_reads_integer_text_as_int(self):
        # parse_rational still returns a Fraction for the same text
        assert parse_matrix([["-2", "-3/6"]], "M") == [[Fraction(-2), Fraction(-1, 2)]]
        assert [type(q) for q in parse_matrix([["-2", "-3/6", 7]], "M")[0]] == [int, Fraction, int]
        assert type(parse_rational("-2", "x")) is Fraction

    @pytest.mark.parametrize("fixture", ["operator_spanning.json", "riesz_shear.json"])
    @pytest.mark.parametrize("argv", [["bounds"], ["dual", "-p", "20"], ["analyze", "--vector", "0:2,1:-1/3"],
                                      ["verify", "--suite", "projection"]], ids=" ".join)
    def test_integer_entries_print_as_their_fractions(self, tmp_path, fixture, argv):
        # the spec with every integer entry written "n/1" is read into Fractions
        doc = json.loads((FIXTURES / fixture).read_text())
        for key in ("matrix", "T", "T_inv"):
            if key in doc:
                doc[key] = [[q if "/" in q else f"{q}/1" for q in row] for row in doc[key]]
        as_fractions = tmp_path / fixture
        as_fractions.write_text(json.dumps(doc))
        assert run_cli(argv[0], str(as_fractions), *argv[1:]) == run_cli(argv[0], str(FIXTURES / fixture), *argv[1:])

    def test_vector_text(self):
        v = parse_vector_text("0:1/2, 3:-2")
        assert v.coefficient(0) == Fraction(1, 2)
        assert v.coefficient(3) == -2
        with pytest.raises(SpecFileError):
            parse_vector_text("0:1 nope")

    def test_vector_text_order_and_repeats(self):
        # commas or spaces, any order, and a repeated index adds up
        want = FiniteVector([(0, Fraction(1, 2)), (3, Fraction(-2))])
        for text in ("0:1/2,3:-2", "3:-2 0:1/2", "3:-1, 0:1/4 3:-1,0:1/4", " 0:1/2 3:-2 5:1 5:-1 "):
            assert parse_vector_text(text) == FiniteVector.parse(text) == want
        assert parse_vector_text("") == FiniteVector()

    @pytest.mark.parametrize("text, token", [
        ("0:1 nope", "nope"), ("x:1", "x:1"), ("0:1/0", "0:1/0"), ("-1:1", "-1:1"), ("2", "2"),
    ])
    def test_malformed_vector_text_names_field_and_token(self, text, token):
        with pytest.raises(SpecFileError, match=re.escape(f"elements[4]: bad entry {token!r}")):
            parse_vector_text(text, "elements[4]")
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli("analyze", str(FIXTURES / "onb.json"), f"--vector={text}")
        assert (code, out) == (2, "")
        assert err.getvalue().startswith(f"error: --vector: bad entry {token!r}")

    def test_finite_kind(self):
        spec = load_spec(str(FIXTURES / "mercedes.json"))
        assert spec.kind == "finite"
        assert spec.section is not None and len(spec.section) == 3
        assert spec.certified is not None

    def test_onb_and_riesz_kinds(self):
        assert load_spec(str(FIXTURES / "onb.json")).declared_bounds is None
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

    def test_rate_lines_carry_no_residual(self):
        rep = run_suite("rate", load_spec(str(FIXTURES / "mercedes.json")).certified)
        assert rep.passed and rep.worst is None
        assert [r for _, r, _ in rep.lines] == [None, None, None]
        code, out = run_cli("verify", str(FIXTURES / "mercedes.json"), "--suite", "rate")
        assert code == 0
        assert "residual" not in out and out.endswith("suite rate: pass\n")

    def test_max_iterations_tight_case(self):
        assert max_iterations(Fraction(2), Fraction(2), Fraction(1), 40) == 1

    def test_corrupted_duality_fails(self):
        CF = load_spec(str(FIXTURES / "corrupted_dual.json")).certified
        rep = run_suite("duality", CF)
        assert not rep.passed
        assert rep.worst >= Fraction(1, 4)

    def test_gram_diagonal_line_fails_on_false_certificate(self):
        # Mercedes with T* e_0 = (2, 0, 1) instead of (1, 0, 1): the true T+
        # still gives S^-1 f_k correctly, but P = T*_false S^-1 T is
        # oblique, so ||P e_n||^2 differs from the diagonal entry
        CF = load_spec(str(FIXTURES / "mercedes.json")).certified
        T = CF.analysis_op
        false_col = VectorName.from_finite(FiniteVector.parse("0:2 2:1"))
        tampered = CertifiedFrame(
            CF.frame,
            OperatorName(lambda n: false_col if n == 0 else T.col(n), Fraction(3), T.support_bound),
            finite_section=CF.finite_section,
            pinv=CF.pinv,
        )
        rep = run_suite("gram", tampered)
        diagonal = [ok for label, _, ok in rep.lines if label.endswith("energy equals diagonal")]
        assert diagonal == [False, False, False]
        assert not rep.passed

    def test_exact_lines_fail_with_exact_residuals_on_false_certificate(self):
        # the same tampered Mercedes: every column of P is exact, so the exact
        # lines carry the true gaps, with no 2^-p slack taken off
        CF = load_spec(str(FIXTURES / "mercedes.json")).certified
        T = CF.analysis_op
        false_col = VectorName.from_finite(FiniteVector.parse("0:2 2:1"))
        tampered = CertifiedFrame(
            CF.frame,
            OperatorName(lambda n: false_col if n == 0 else T.col(n), Fraction(3), T.support_bound),
            finite_section=CF.finite_section,
            pinv=CF.pinv,
        )
        # S = [[2, 1], [1, 2]], so S^-1 f_k = (2, -1)/3, (-1, 2)/3, (1, 1)/3, and
        # column k of P is sum_i (S^-1 f_k)_i T* e_i, with T* e_0 = (2, 0, 1)
        duals = [[Fraction(2, 3), Fraction(-1, 3)], [Fraction(-1, 3), Fraction(2, 3)], [Fraction(1, 3)] * 2]
        images = [[2, 0, 1], [0, 1, 1]]
        P = [[sum(g[i] * images[i][l] for i in range(2)) for g in duals] for l in range(3)]
        M = projection_matrix(CF.finite_section)
        gap = max(abs(P[l][k] - M[l][k]) for l in range(3) for k in range(3))
        assert gap == Fraction(2, 3)
        rep = run_suite("projection", tampered)
        assert ("matches exact symmetric projection", gap, False) in rep.lines
        rep = run_suite("gram", tampered)
        want = [abs(P[n][n] - sum(q * q for q in M[n])) for n in range(3)]
        assert [(r, ok) for label, r, ok in rep.lines if label.endswith("vs exact")] == [
            (w, w <= TOL) for w in want]
        assert want == [Fraction(2, 3), 0, 0]

    @pytest.mark.parametrize("fixture", ["mercedes.json", "scaled_frame.json", "operator_spanning.json"])
    def test_exact_lines_pass_with_a_staged_analysis_column(self, fixture):
        # analysis column 1 served as a staged name of the same exact column:
        # P's columns take the staged path, and the exact lines still pass
        CF = load_spec(str(FIXTURES / fixture)).certified
        T, exact = CF.analysis_op, CF.analysis_op.col(1).finite
        staged = VectorName.from_stage(lambda k: exact, exact.norm_squared() + 1, exact.support)
        SF = CertifiedFrame(
            CF.frame,
            OperatorName(lambda n: staged if n == 1 else T.col(n), T.norm_bound, T.support_bound),
            finite_section=CF.finite_section,
        )
        assert range_projection(SF).col(0).finite is None
        for suite in ("projection", "gram"):
            rep = run_suite(suite, SF)
            assert rep.passed and rep.worst <= Fraction(1, 2**32)
            assert all(r == 0 for label, r, _ in rep.lines if "exact" in label)


class TestCliCommands:
    def test_bounds_finite(self):
        code, out = run_cli("bounds", str(FIXTURES / "mercedes.json"))
        assert code == 0
        assert "A in [" in out and "B in [" in out

    def test_bounds_declared(self, tmp_path):
        # only bounds a spec states are declared; the ONB's are known exactly
        code, out = run_cli("bounds", str(FIXTURES / "onb.json"))
        assert code == 0
        assert out == "A = 1, B = 1 (certified)\n"
        spec = tmp_path / "op.json"
        spec.write_text(json.dumps({"kind": "operator", "matrix": [["1", "0"], ["0", "1"]],
                                    "bounds": ["1", "1"]}))
        assert run_cli("bounds", str(spec)) == (0, "A = B = 1 (declared)\n")

    def test_riesz_bounds_are_not_declared(self):
        # a Riesz spec declares no bounds: they are computed from T and T_inv
        assert load_spec(str(FIXTURES / "riesz_shear.json")).declared_bounds is None
        code, out = run_cli("bounds", str(FIXTURES / "riesz_shear.json"))
        assert code == 0
        assert out.endswith("(certified)\n") and "(declared)" not in out

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

    @pytest.mark.parametrize("bound, holds", [("0", False), ("2", False), ("9/4", True), ("3", True)])
    def test_bessel_load_runs_one_elimination(self, tmp_path, monkeypatch, bound, holds):
        # H H^T >= 0 holds for every H, so a load tests only bound I - H H^T >= 0;
        # here H H^T = [[2, -1/2], [-1/2, 5/4]] has eigenvalues 1 and 9/4
        h = tmp_path / "h.json"
        h.write_text(json.dumps({"bound": bound, "elements": ["0:1", "1:1", "0:1 1:-1/2"]}))
        calls = []
        bareiss = oracle._bareiss

        def counted(m, strict=None):
            calls.append(strict)
            return bareiss(m, strict)

        monkeypatch.setattr(oracle, "_bareiss", counted)
        if holds:
            assert load_bessel(str(h)).bessel_bound == Fraction(bound)
        else:
            with pytest.raises(InvalidFrameError):
                load_bessel(str(h))
        assert calls == [False]

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

    def test_bessel_json_error_gives_the_line(self, tmp_path):
        h = tmp_path / "h.json"
        h.write_text('{\n "bound": "1",\n "elements": ["0:1",]\n}\n')
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli("dual", str(FIXTURES / "onb.json"), "--bessel", str(h))
        assert (code, out) == (2, "")
        assert err.getvalue() == f"error: {h}: invalid JSON at line 3: Expecting value\n"

    @pytest.mark.parametrize("argv", [
        ("bounds", str(FIXTURES / "mercedes.json")),
        ("verify", str(FIXTURES / "onb.json"), "--suite", "rate"),
        ("gallery",),
    ])
    def test_precision_only_where_it_is_read(self, argv):
        # -p is an option of dual, reconstruct and analyze only
        assert run_cli(*argv)[0] == 0
        with redirect_stderr(io.StringIO()) as err:
            assert run_cli(*argv, "-p", "5") == (2, "")
        assert "unrecognized arguments: -p 5" in err.getvalue()

    @pytest.mark.parametrize("argv", [
        ("dual",), ("reconstruct", "--vector", "0:1"), ("analyze", "--vector", "0:1"),
    ])
    def test_precision_options(self, argv):
        code, out = run_cli(argv[0], str(FIXTURES / "onb.json"), *argv[1:], "-p", "5")
        assert code == 0 and "± 2^-5" in out and "± 2^-30" not in out
        with redirect_stderr(io.StringIO()) as err:
            assert run_cli(argv[0], str(FIXTURES / "onb.json"), *argv[1:], "-p", "-1") == (2, "")
        assert err.getvalue() == "error: precision must be nonnegative\n"

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

    @pytest.mark.parametrize("name", ["false_adjoint_oblique", "false_adjoint_symmetric"])
    def test_projection_detects_adjoint_wrong_in_last_column(self, name):
        # adjoint_rows entry (2, 3) is wrong.  In the oblique spec element 3
        # is zero, so S = T T*_c is still T T*: P is symmetric on e_0..e_2
        # and the certificate line fails.  In the symmetric spec element 3
        # is not zero, so S is not self-adjoint and the solver proves it
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli("verify", str(FIXTURES / f"{name}.json"), "--suite", "projection")
        if name == "false_adjoint_oblique":
            assert code == 1
            assert "[FAIL] analysis certificate is the adjoint on e_0..e_3" in out
        else:
            assert code == 3 and out == ""
            pattern = r"error: invalid frame: S = T T\* is not self-adjoint: step \d+ proves it\n"
            assert re.fullmatch(pattern, err.getvalue())

    def test_reconstruct_fails_on_false_bounds(self):
        # bounds (1/2, 1/2) on the identity: the first solver step refutes them
        CF = CertifiedFrame(
            Frame(VectorName.basis, Fraction(1, 2), Fraction(1, 2)),
            OperatorName.identity(),
        )
        spec = LoadedSpec("onb", CF.frame, CF, None, None)
        args = argparse.Namespace(vector="0:1", precision=20)
        with pytest.raises(FalseBoundsError):
            cmd_reconstruct(spec, args, io.StringIO())

    @pytest.mark.parametrize("suite", ["projection", "duality", "gram"])
    def test_verify_refuted_bounds_exit_3(self, suite):
        # a false adjoint_rows makes S = T T*_c, which a solver step proves
        # is not within the declared bounds: one error line, no traceback
        err = io.StringIO()
        with redirect_stderr(err):
            code, _ = run_cli("verify", str(FIXTURES / "refuted_bounds.json"), "--suite", suite)
        assert code == 3
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

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

    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds",),
            ("dual", "-p", "20"),
            ("analyze", "--vector", "0:1 1:1"),
            ("reconstruct", "--vector", "0:1"),
        ],
    )
    def test_false_adjoint_rows_exit_3(self, argv):
        # outside verify, a false adjoint_rows is rejected before any output
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(argv[0], str(FIXTURES / "corrupted_dual.json"), *argv[1:])
        assert (code, out) == (3, "")
        assert "adjoint_rows" in err.getvalue()

    def test_gallery_listing(self):
        code, out = run_cli("gallery")
        assert code == 0
        assert "ex3.7" in out

    def test_deterministic_output(self):
        a = run_cli("dual", str(FIXTURES / "mercedes.json"), "-p", "25")
        b = run_cli("dual", str(FIXTURES / "mercedes.json"), "-p", "25")
        assert a == b


# -- adjoint_rows against the exact analysis coefficients -----------------


@st.composite
def operator_specs(draw):
    """A spanning 2 x 3 matrix with exact bounds, and its adjoint_rows choice.

    For S = M M^T with eigenvalues l1 <= l2: l2 <= trace and l1 = det/l2 >=
    det/trace, so [det/trace, trace] are true bounds.
    """
    entry = st.integers(min_value=-2, max_value=2)
    M = draw(st.lists(st.lists(entry, min_size=3, max_size=3), min_size=2, max_size=2))
    S = [[sum(a * b for a, b in zip(u, v)) for v in M] for u in M]
    det, trace = S[0][0] * S[1][1] - S[0][1] ** 2, S[0][0] + S[1][1]
    if det == 0:
        M, det, trace = [[1, 0, 1], [0, 1, 1]], 3, 4
    adjoint = draw(st.sampled_from(["absent", "matrix", "transpose", "changed"]))
    adj = [row[:] for row in M]
    if adjoint == "transpose":
        adj = [list(col) for col in zip(*M)]
    elif adjoint == "changed":
        i, j = draw(st.integers(0, 1)), draw(st.integers(0, 2))
        adj[i][j] += draw(st.sampled_from([-1, 1]))
    doc = {"kind": "operator", "matrix": M, "bounds": [str(Fraction(det, trace)), str(trace)]}
    if adjoint != "absent":
        doc["adjoint_rows"] = adj
    return doc


@settings(max_examples=40, deadline=None)
@given(
    operator_specs(),
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=6), min_size=2, max_size=2),
    st.integers(min_value=1, max_value=40),
)
def test_analyze_exits_3_exactly_on_a_false_adjoint(doc, f, p):
    M = doc["matrix"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "op.json"
        path.write_text(json.dumps(doc))
        vector = " ".join(f"{i}:{q}" for i, q in enumerate(f))
        with redirect_stderr(io.StringIO()):
            code, out = run_cli("analyze", str(path), "--vector", vector, "-p", str(p))
    false = doc.get("adjoint_rows", M) != M
    assert code == (3 if false else 0)
    if false:
        return
    # coefficient k is <f, f_k> with f_k column k of M, and 0 beyond
    want = [sum(f[i] * M[i][k] for i in range(2)) for k in range(3)]
    printed = re.findall(r"^  (\d+): (\S+) ± 2\^-(\d+)$", out, re.M)
    assert len(printed) == max((i + 1 for i, q in enumerate(f) if q), default=0) + 4
    for k, value, bits in printed:
        exact = want[int(k)] if int(k) < 3 else 0
        assert int(bits) == p
        assert abs(_decimal_fraction(value) - exact) <= Fraction(1, 1 << p)


@st.composite
def spanning_operator_specs(draw):
    """A spanning 2 x 3 or 3 x 4 integer matrix with its enclosed bounds."""
    d = draw(st.sampled_from([2, 3]))
    entry = st.integers(min_value=-2, max_value=2)
    M = draw(st.lists(st.lists(entry, min_size=d + 1, max_size=d + 1), min_size=d, max_size=d))
    S = [[Fraction(sum(a * b for a, b in zip(u, v))) for v in M] for u in M]
    assume(is_positive_definite(S))
    A, _, _, B = eigenvalue_enclosures(S)
    assume(A > 0)
    return {"kind": "operator", "matrix": M, "bounds": [str(A), str(B)]}


@st.composite
def projection_specs(draw):
    """A spanning operator spec with adjoint_rows equal to its matrix or
    with one entry off by +-1."""
    doc = draw(spanning_operator_specs())
    M = doc["matrix"]
    adj = [row[:] for row in M]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, len(M) - 1)), draw(st.integers(0, len(M)))
        adj[i][j] += draw(st.sampled_from([-1, 1]))
    return {**doc, "adjoint_rows": adj}


@settings(max_examples=60, deadline=None)
@given(projection_specs())
def test_projection_suite_passes_exactly_on_a_true_adjoint(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "op.json"
        path.write_text(json.dumps(doc))
        with redirect_stderr(io.StringIO()):
            code, out = run_cli("verify", str(path), "--suite", "projection")
    if doc["adjoint_rows"] == doc["matrix"]:
        assert code == 0, out
        assert "[pass] matches exact symmetric projection: residual bound 0\n" in out
    else:
        # exit 3: a solver step refuted the bounds, which hold only for S = M M^T
        assert code in (1, 3)


# -- operator specs with a true adjoint solve by their exact pseudo-inverse ------


TRUE_ADJOINT_SPECS = {
    "absent": json.loads((FIXTURES / "operator_spanning.json").read_text()),
    "rational": {"kind": "operator", "matrix": [["1/2", "0", "1", "0"], ["0", "2", "1", "0"], ["1", "0", "0", "3"]],
                 "bounds": ["1/4", "12"],
                 "adjoint_rows": [["1/2", "0", "1", "0"], ["0", "2", "1", "0"], ["1", "0", "0", "3"]]},
}


@pytest.mark.parametrize("spec", sorted(TRUE_ADJOINT_SPECS))
@pytest.mark.parametrize("argv", [
    ("dual", "-p", "64"),
    ("reconstruct", "--vector", "0:2,1:1/3"),
    ("analyze", "--vector", "0:2,1:1/3"),
    *(("verify", "--suite", s) for s in ("duality", "projection", "gram")),
], ids=" ".join)
def test_true_adjoint_operator_runs_no_driver(monkeypatch, tmp_path, spec, argv):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(TRUE_ADJOINT_SPECS[spec]))

    def driver(*args):
        raise AssertionError("the conjugate-gradient driver ran")

    monkeypatch.setattr("framecert.frames._conjugate_gradients", driver)
    code, out = run_cli(argv[0], str(path), *argv[1:])
    assert code == 0, out


@settings(max_examples=25, deadline=None)
@given(
    spanning_operator_specs(),
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=6), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=80),
)
def test_operator_spec_prints_as_the_finite_spec_of_its_columns(doc, f, p):
    finite = {"kind": "finite", "vectors": [list(c) for c in zip(*doc["matrix"])]}
    vector = ",".join(f"{i}:{q}" for i, q in enumerate(f))
    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for name, spec in (("op", doc), ("fin", finite)):
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(spec))
            for cmd in ("reconstruct", "analyze"):
                err = io.StringIO()
                with redirect_stderr(err):
                    code, out = run_cli(cmd, str(path), "--vector", vector, "-p", str(p))
                outs.append((cmd, code, out, err.getvalue()))
    assert outs[:2] == outs[2:]


def test_python_dash_m_runs_the_cli():
    src = str(FIXTURES.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-m", "framecert", "gallery"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("gallery instances:")
