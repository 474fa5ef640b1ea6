import json
from fractions import Fraction

import pytest

from framecert.duality import (
    BesselSequence,
    DualityVerificationError,
    DualPair,
    biorthogonal_dual_riesz,
    canonical_dual,
    cross_gram_operator,
    dual_from_bessel,
    dual_from_left_inverse,
    frame_from_coeff_operator,
    verify_duality,
)
from framecert.frames import Frame, frame_from_onb
from framecert.operators import OperatorName
from framecert.oracle import ExactFrame, embed, exact_frame_solve, projection_matrix
from framecert.riesz import RieszBasisName, riesz_from_matrix
from framecert.specfile import load_spec
from framecert.vectors import FiniteVector, VectorName, inner


def tol(n):
    return Fraction(1, 2**n)


def approx(x, n):
    return x.approx(n).as_fraction()


def mercedes():
    return embed(ExactFrame([[1, 0], [0, 1], [1, 1]]))


def fv(text):
    return FiniteVector.parse(text)


class TestCanonicalDual:
    def test_onb_is_self_dual(self):
        D = canonical_dual(frame_from_onb())
        assert abs(approx(D.elem(2).coeff(2), 25) - 1) <= 2 * tol(25)
        assert D.lower == D.upper == 1

    def test_mercedes_dual_elements(self):
        D = canonical_dual(mercedes())
        expected = {
            0: {0: Fraction(2, 3), 1: Fraction(-1, 3)},
            1: {0: Fraction(-1, 3), 1: Fraction(2, 3)},
            2: {0: Fraction(1, 3), 1: Fraction(1, 3)},
        }
        for k, coords in expected.items():
            for i, q in coords.items():
                assert abs(approx(D.elem(k).coeff(i), 40) - q) <= tol(40)

    def test_mercedes_dual_bounds(self):
        CF = mercedes()
        D = canonical_dual(CF)
        assert D.lower == 1 / CF.upper
        assert D.upper == 1 / CF.lower

    def test_doubled_onb_halved(self):
        from framecert.gallery import doubled_onb

        D = canonical_dual(doubled_onb())
        assert D.lower == D.upper == Fraction(1, 2)
        g0 = D.elem(0)
        assert abs(approx(g0.coeff(0), 30) - Fraction(1, 2)) <= 2 * tol(30)

    def test_dual_analysis_certificate(self):
        # column n of the dual analysis operator is T* S^-1 e_n
        CF = mercedes()
        D = canonical_dual(CF)
        sol = exact_frame_solve(CF.finite_section)
        col0 = D.analysis_op.col(0)
        # S^-1 e_0 = (2/3, -1/3); <., f_k> = (2/3, -1/3, 1/3)
        assert abs(approx(col0.coeff(0), 25) - Fraction(2, 3)) <= 2 * tol(25)
        assert abs(approx(col0.coeff(2), 25) - Fraction(1, 3)) <= 2 * tol(25)
        R, c = sol.inverse
        assert c * R[0][0] == Fraction(2, 3)


class TestDualFromLeftInverse:
    def test_canonical_synthesis_passes(self):
        CF = mercedes()
        V = canonical_dual(CF).T
        pair = dual_from_left_inverse(CF, V)
        rep = verify_duality(pair, [fv("0:1"), fv("0:2 1:-1")], tol(30))
        assert rep.passed

    def test_rejects_non_left_inverse(self):
        CF = mercedes()
        with pytest.raises(DualityVerificationError):
            dual_from_left_inverse(CF, OperatorName.zero())

    def test_two_row_operator_canonical_synthesis_passes(self, tmp_path):
        # the built-in test 0:1/3 2:1 loses coordinate 2, outside the span
        spec = tmp_path / "op2.json"
        spec.write_text(json.dumps({
            "kind": "operator",
            "matrix": [["1", "0", "1"], ["0", "1", "1"]],
            "bounds": ["1", "3"],
        }))
        CF = load_spec(str(spec)).certified
        V = canonical_dual(CF).T
        pair = dual_from_left_inverse(CF, V)
        rep = verify_duality(pair, [fv("0:1"), fv("0:1/3 1:-2")], tol(30))
        assert rep.passed, rep.worst


class TestDualFromBessel:
    def test_zero_bessel_gives_canonical(self):
        CF = mercedes()
        pair = dual_from_bessel(CF, BesselSequence.zero())
        D = canonical_dual(CF)
        for k in range(3):
            for i in range(2):
                assert abs(
                    approx(pair.dual.elem(k).coeff(i), 25)
                    - approx(D.elem(k).coeff(i), 25)
                ) <= 4 * tol(25)

    def test_onb_collapses(self):
        CF = frame_from_onb()
        h = BesselSequence(
            lambda k: VectorName.basis(0) if k == 0 else VectorName.zero(),
            Fraction(1),
        )
        pair = dual_from_bessel(CF, h)
        # g_k = e_k + h_k - <e_k, e_j> h_j = e_k
        g0 = pair.dual.elem(0)
        assert abs(approx(g0.coeff(0), 20) - 1) <= 8 * tol(20)

    def test_mercedes_alternate_dual(self):
        CF = mercedes()
        c = Fraction(1, 2)
        h = BesselSequence(
            lambda k: (
                VectorName.from_finite(FiniteVector([(0, c)]))
                if k == 0
                else VectorName.zero()
            ),
            Fraction(1),
        )
        pair = dual_from_bessel(CF, h)
        tests = [fv("0:1"), fv("1:1"), fv("0:1 1:1"), fv("0:-2 1:3")]
        rep = verify_duality(pair, tests, tol(30))
        assert rep.passed, rep.worst
        # and g differs from the canonical dual
        D = canonical_dual(CF)
        diff = abs(
            approx(pair.dual.elem(0).coeff(0), 20) - approx(D.elem(0).coeff(0), 20)
        )
        assert diff > Fraction(1, 100)


class TestVerifyDuality:
    def test_onb_canonical(self):
        CF = frame_from_onb()
        pair = DualPair(CF, canonical_dual(CF).frame)
        rep = verify_duality(pair, [fv("0:1"), fv("2:1 5:-1")], tol(30))
        assert rep.passed
        assert rep.worst <= tol(30)

    def test_corrupted_dual_fails(self):
        CF = mercedes()
        D = canonical_dual(CF)

        def bad_elem(k):
            if k == 0:
                return VectorName.from_finite(
                    FiniteVector([(0, Fraction(4, 3)), (1, Fraction(-2, 3))])
                )
            return D.elem(k)

        pair = DualPair(CF, Frame(bad_elem, D.lower, 4 * D.upper))
        rep = verify_duality(pair, [fv("0:1")], tol(30))
        assert not rep.passed
        assert rep.worst >= Fraction(1, 4)


class TestCrossGram:
    def test_onb_identity(self):
        CF = frame_from_onb()
        U = cross_gram_operator(CF, CF, Fraction(1))
        assert abs(approx(U.col(1).coeff(1), 25) - 1) <= 2 * tol(25)
        assert abs(approx(U.col(1).coeff(0), 25)) <= 2 * tol(25)

    def test_mercedes_projection_matrix(self):
        CF = mercedes()
        U = cross_gram_operator(CF, CF, Fraction(1))
        M = projection_matrix(CF.finite_section)
        for k in range(3):
            col = U.col(k)
            for l in range(3):
                assert abs(approx(col.coeff(l), 30) - M[l][k]) <= 2 * tol(30)

    def test_rejects_bad_bound(self):
        CF = frame_from_onb()
        with pytest.raises(ValueError):
            cross_gram_operator(CF, CF, Fraction(0))


class TestFrameFromCoeffOperator:
    def test_delta_rows_identity(self):
        CF = mercedes()
        F2 = frame_from_coeff_operator(
            CF, VectorName.basis, CF.lower, CF.upper
        )
        for n in range(3):
            for i in range(2):
                assert abs(
                    approx(F2.elem(n).coeff(i), 25)
                    - approx(CF.elem(n).coeff(i), 25)
                ) <= 2 * tol(25)

    def test_combined_rows(self):
        CF = frame_from_onb()
        rows = lambda n: VectorName.from_finite(
            FiniteVector([(n, Fraction(1)), (n + 1, Fraction(1, 2))])
        )
        F2 = frame_from_coeff_operator(CF, rows, Fraction(1, 4), Fraction(4))
        phi0 = F2.elem(0)
        assert abs(approx(phi0.coeff(0), 25) - 1) <= 2 * tol(25)
        assert abs(approx(phi0.coeff(1), 25) - Fraction(1, 2)) <= 2 * tol(25)


class TestBiorthogonalDual:
    def test_onb(self):
        g = biorthogonal_dual_riesz(RieszBasisName.identity())
        assert abs(approx(g(3).coeff(3), 25) - 1) <= 2 * tol(25)

    def test_diagonal_scaling(self):
        R = riesz_from_matrix([[2]], [[Fraction(1, 2)]])
        g = biorthogonal_dual_riesz(R)
        # x_0 = 2 e_0, so g_0 = e_0 / 2
        assert abs(approx(g(0).coeff(0), 25) - Fraction(1, 2)) <= 4 * tol(25)

    def test_shear_block(self):
        M = [[1, 1], [0, 1]]
        M_inv = [[1, -1], [0, 1]]
        R = riesz_from_matrix(M, M_inv)
        g = biorthogonal_dual_riesz(R)
        x = [R.elem(n) for n in range(3)]
        for n in range(3):
            for m in range(3):
                val = approx(inner(x[n], g(m)), 22)
                assert abs(val - int(n == m)) <= 16 * tol(22)
