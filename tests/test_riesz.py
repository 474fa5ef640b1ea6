import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from framecert.cli import main
from framecert.frames import analysis, frame_algorithm
from framecert.operators import apply
from framecert.riesz import (
    RieszBasisName,
    renorm_from,
    renorm_to,
    riesz_as_frame,
    riesz_from_matrix,
)
from framecert.specfile import load_spec
from framecert.vectors import FiniteVector, VectorName
from fraction_matrices import is_positive_definite, mat_mul

ROOT = Path(__file__).resolve().parent.parent


def tol(n):
    return Fraction(1, 2**n)


def approx(x, n):
    return x.approx(n).as_fraction()


def vec(text):
    return VectorName.from_finite(FiniteVector.parse(text))


class TestRieszBasisName:
    def test_identity_basis(self):
        R = RieszBasisName.identity()
        assert R.elem(4).finite == FiniteVector.parse("4:1")
        assert R.T_adjoint_rows(2).finite == FiniteVector.parse("2:1")

    def test_from_matrix_roundtrip(self):
        R = riesz_from_matrix([[1, 1], [0, 1]], [[1, -1], [0, 1]])
        x = vec("0:1 1:2 3:-1")
        back = apply(R.T_inv, apply(R.T, x))
        for i in (0, 1, 3):
            q = x.finite.coefficient(i)
            assert abs(approx(back.coeff(i), 25) - q) <= 2 * tol(25)

    def test_rejects_wrong_inverse(self):
        with pytest.raises(ValueError):
            riesz_from_matrix([[2]], [[1]])


class TestRieszAsFrame:
    def test_identity_is_onb(self):
        CF = riesz_as_frame(RieszBasisName.identity())
        assert CF.lower == CF.upper == 1

    def test_diagonal_scaling_bounds(self):
        R = riesz_from_matrix([[2]], [[Fraction(1, 2)]])
        CF = riesz_as_frame(R)
        # ||T|| bound just above 2, ||T^-1|| bound 1 (the block max) -> A = 1, B >= 4
        assert CF.lower <= 1 <= 4 <= CF.upper or (CF.lower <= 4 and CF.upper >= 4)
        assert CF.lower > 0
        # x_0 = 2 e_0
        assert CF.elem(0).finite == FiniteVector.parse("0:2")

    def test_shear_analysis_certificate(self):
        R = riesz_from_matrix([[1, 1], [0, 1]], [[1, -1], [0, 1]])
        CF = riesz_as_frame(R)
        # analysis of f: coefficient k is <f, x_k>; x_0 = (1,0), x_1 = (1,1)
        c = analysis(CF, vec("0:1 1:1"))
        assert abs(approx(c.coeff(0), 25) - 1) <= 2 * tol(25)
        assert abs(approx(c.coeff(1), 25) - 2) <= 2 * tol(25)

    def test_frame_algorithm_runs_on_riesz_frame(self):
        R = riesz_from_matrix([[2]], [[Fraction(1, 2)]])
        CF = riesz_as_frame(R)
        # S = T T* = diag(4, 1, 1, ...); S^-1 e_0 = e_0 / 4
        res = frame_algorithm(CF, vec("0:1"), 12)
        assert abs(res.vector.finite.coefficient(0) - Fraction(1, 4)) <= tol(12)


class TestRenorm:
    def test_identity_renorm(self):
        R = RieszBasisName.identity()
        x = vec("0:3 2:4")
        rx = renorm_to(R, x)
        assert abs(approx(rx.tripled_norm, 25) - 5) <= 2 * tol(25)
        back = renorm_from(R, rx)
        assert abs(approx(back.coeff(0), 25) - 3) <= 2 * tol(25)

    def test_diagonal_tripled_norm(self):
        R = riesz_from_matrix([[2]], [[Fraction(1, 2)]])
        rx = renorm_to(R, VectorName.basis(0))
        assert abs(approx(rx.tripled_norm, 25) - 2) <= 2 * tol(25)

    def test_roundtrip_random_finite(self):
        R = riesz_from_matrix([[1, 1], [0, 1]], [[1, -1], [0, 1]])
        for text in ("0:1", "0:1 1:-2", "1:1/3 4:2"):
            x = vec(text)
            back = renorm_from(R, renorm_to(R, x))
            for i, q in x.finite.entries:
                assert abs(approx(back.coeff(i), 30) - q) <= 2 * tol(30)
            assert abs(approx(back.norm, 30) - approx(x.norm, 30)) <= 4 * tol(30)

    def test_norm_equivalence(self):
        R = riesz_from_matrix([[2]], [[Fraction(1, 2)]])
        x = vec("0:1 1:1")
        rx = renorm_to(R, x)
        trip = approx(rx.tripled_norm, 25)
        nrm = approx(x.norm, 25)
        inv_bound = R.T_inv.norm_bound
        assert nrm / inv_bound - tol(20) <= trip <= R.T.norm_bound * nrm + tol(20)

    def test_coefficients_preserved(self):
        R = riesz_from_matrix([[1, 1], [0, 1]], [[1, -1], [0, 1]])
        x = vec("0:1 1:2")
        rx = renorm_to(R, x)
        assert abs(approx(rx.coeff(1), 25) - 2) <= tol(25)


# -- bounds from the spectrum of M M^T (+) I ---------------------------


def gauss_jordan_inverse(M):
    """M^-1 over Fractions by Gauss-Jordan elimination, or None when M is singular."""
    n = len(M)
    rows = [[Fraction(q) for q in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(M)]
    for k in range(n):
        r = next((r for r in range(k, n) if rows[r][k]), None)
        if r is None:
            return None
        rows[k], rows[r] = rows[r], rows[k]
        pivot = rows[k][k]
        rows[k] = [x / pivot for x in rows[k]]
        for i in range(n):
            c = rows[i][k]
            if i != k and c:
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[k])]
    return [row[n:] for row in rows]


def sqrt5_between(lo: Fraction, hi: Fraction) -> bool:
    """lo <= sqrt(5) <= hi, decided on squares (0 <= lo <= hi)."""
    return 0 <= lo and lo * lo <= 5 <= hi * hi


def test_riesz_shear_bounds_enclose_its_spectrum(capsys):
    # S = M M^T (+) I with M = [[1, 1], [0, 1]]: spectrum {(3 - sqrt 5)/2, 1, (3 + sqrt 5)/2}
    assert main(["bounds", str(ROOT / "fixtures" / "riesz_shear.json")]) == 0
    out = capsys.readouterr().out
    A, B = map(Fraction, re.fullmatch(r"A = (\S+), B = (\S+) \(certified\)\n", out).groups())
    w = Fraction(1, 2**18)
    # A <= (3 - sqrt 5)/2 <= A + w and B - w <= (3 + sqrt 5)/2 <= B
    assert sqrt5_between(3 - 2 * (A + w), 3 - 2 * A)
    assert sqrt5_between(2 * (B - w) - 3, 2 * B - 3)


def test_large_diagonal_spec_bounds(tmp_path):
    # T = diag(1..80): S = diag(1, 4, ..., 6400) beyond which it is the identity
    n = 80
    spec = tmp_path / "diag80.json"
    spec.write_text(json.dumps({
        "kind": "riesz",
        "T": [[str(i + 1) if i == j else "0" for j in range(n)] for i in range(n)],
        "T_inv": [[f"1/{i + 1}" if i == j else "0" for j in range(n)] for i in range(n)],
    }))
    frame = load_spec(str(spec)).frame
    assert 1 - Fraction(1, 2**10) < frame.lower <= 1
    assert 6400 <= frame.upper < 6401


@st.composite
def invertible_blocks(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    M = [[draw(st.integers(min_value=-3, max_value=3)) for _ in range(d)] for _ in range(d)]
    M_inv = gauss_jordan_inverse(M)
    assume(M_inv is not None)
    return M, M_inv


@settings(max_examples=200, deadline=None)
@given(invertible_blocks(), st.data())
def test_riesz_from_matrix_checks_the_inverse_and_encloses_the_spectrum(block, data):
    M, M_inv = block
    d = len(M)
    CF = riesz_as_frame(riesz_from_matrix(M, M_inv))
    # one entry of the inverse changed: the same refusal
    i, j = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
    bad = [row[:] for row in M_inv]
    bad[i][j] += data.draw(st.sampled_from([1, -1, Fraction(1, 2), Fraction(-1, 7)]))
    with pytest.raises(ValueError) as e:
        riesz_from_matrix(M, bad)
    assert str(e.value) == "supplied inverse is not the exact inverse"
    # A <= min(lambda_min, 1) and B >= max(lambda_max, 1) for S = M M^T (+) I
    G = mat_mul(M, [list(c) for c in zip(*M)])
    A, B = CF.lower, CF.upper
    assert 0 < A <= 1 <= B
    assert is_positive_definite([[g - A * (r == c) for c, g in enumerate(row)] for r, row in enumerate(G)])
    assert is_positive_definite([[B * (r == c) - g for c, g in enumerate(row)] for r, row in enumerate(G)])
