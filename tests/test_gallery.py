import time
from fractions import Fraction
from math import isqrt

import pytest

from framecert.duality import DualPair, verify_duality
from framecert.frames import analysis, inverse_apply, synthesis
from framecert.gallery import (
    MissingNormCertificateError,
    benign_sequence,
    coeff_perturbation_rows,
    doubled_onb,
    example_upper_row,
    lower_column_operator,
    lower_column_row_data,
    parse_enumerator,
    specker_sequence,
    toeplitz_dual_element,
    toeplitz_primal_element,
    toeplitz_reciprocal,
    upper_row_analysis_coeff,
    upper_row_frame,
)
from framecert.vectors import FiniteVector, VectorName, inner, linear_combo
from framecert.realnames import RealName


def tol(n):
    return Fraction(1, 2**n)


def approx(x, n):
    return x.approx(n).as_fraction()


def sqrt_oracle(q, bits=60):
    q = Fraction(q)
    return Fraction(isqrt(q.numerator * 4**bits // q.denominator), 2**bits)


def vec(text):
    return VectorName.from_finite(FiniteVector.parse(text))


class TestSequences:
    def test_benign_values(self):
        g = benign_sequence()
        assert g.a(0).exact == 1
        assert g.a(3).exact == Fraction(1, 8)
        assert abs(approx(g.norm_name, 30) - sqrt_oracle(Fraction(4, 3))) <= 2 * tol(30)

    def test_specker_degenerate_identity(self):
        g = specker_sequence(parse_enumerator("identity"))
        assert g.a(0).exact == 1
        # a_i^2 = 2^-(i+1) for i >= 1
        a1 = approx(g.a(1), 40)
        assert abs(a1 * a1 - Fraction(1, 4)) <= tol(35)
        assert g.norm_name is None

    def test_specker_square_sum_certificate(self):
        g = specker_sequence(parse_enumerator("identity"))
        s = Fraction(1)
        for i in range(1, 20):
            a = approx(g.a(i), 50)
            s += a * a
        assert s <= g.sq_sum_upper + tol(30)

    def test_specker_rejects_duplicates(self):
        g = specker_sequence(lambda j: 5)
        g.a(1)
        with pytest.raises(ValueError):
            g.a(2)

    def test_parse_enumerator(self):
        assert parse_enumerator("squares")(2) == 9
        with pytest.raises(ValueError):
            parse_enumerator("nope")


class TestUpperRow:
    def test_columns(self):
        U = example_upper_row(benign_sequence())
        assert U.col(0).finite == FiniteVector.parse("0:1")
        c2 = U.col(2)
        assert abs(approx(c2.coeff(0), 30) - Fraction(1, 4)) <= tol(30)
        assert abs(approx(c2.coeff(2), 30) - 1) <= tol(30)

    def test_columns_available_without_norm(self):
        # the operator itself is computable even for norm-free sequences
        U = example_upper_row(specker_sequence(parse_enumerator("identity")))
        c1 = U.col(1)
        a1 = approx(c1.coeff(0), 40)
        assert abs(a1 * a1 - Fraction(1, 4)) <= tol(35)

    def test_analysis_coeff_of_delta0(self):
        # coefficientwise analysis at d_0 recovers the sequence itself
        g = benign_sequence()
        w = upper_row_analysis_coeff(g, VectorName.basis(0))
        for i in range(6):
            assert abs(approx(w.coeff(i), 30) - Fraction(1, 2**i)) <= 2 * tol(30)


class TestUpperRowFrame:
    def test_benign_certificate(self):
        CF = upper_row_frame(benign_sequence())
        assert 0 < CF.lower <= CF.upper <= 9
        # analysis norm of d_0 is the norm of (a_i) = sqrt(4/3)
        c = analysis(CF, VectorName.basis(0))
        assert abs(approx(c.norm, 30) - sqrt_oracle(Fraction(4, 3))) <= 2 * tol(30)

    def test_analysis_row_values(self):
        CF = upper_row_frame(benign_sequence())
        c = analysis(CF, VectorName.basis(0))
        for i in range(8):
            assert abs(approx(c.coeff(i), 30) - Fraction(1, 2**i)) <= 2 * tol(30)

    def test_norm_free_rejected(self):
        g = specker_sequence(parse_enumerator("identity"))
        with pytest.raises(MissingNormCertificateError):
            upper_row_frame(g)

    def test_reconstruction_roundtrip(self):
        CF = upper_row_frame(benign_sequence())
        f = vec("0:1 1:1")
        gvec = inverse_apply(CF, f)
        back = synthesis(CF.frame, analysis(CF, gvec))
        for i in (0, 1, 2):
            want = f.finite.coefficient(i)
            assert abs(approx(back.coeff(i), 12) - want) <= 8 * tol(12)


class TestLowerColumn:
    def test_benign_column(self):
        U = lower_column_operator(benign_sequence())
        c0 = U.col(0)
        assert abs(approx(c0.coeff(2), 30) - Fraction(1, 4)) <= tol(30)
        # || (1, a_1, a_2, ...) || = ||a|| since a_0 = 1
        assert abs(approx(c0.norm, 30) - sqrt_oracle(Fraction(4, 3))) <= 2 * tol(30)

    def test_norm_free_rejected_but_rows_available(self):
        g = specker_sequence(parse_enumerator("identity"))
        with pytest.raises(MissingNormCertificateError):
            lower_column_operator(g)
        rows = lower_column_row_data(g)
        a2 = approx(rows(2), 40)
        assert abs(a2 * a2 - Fraction(1, 8)) <= tol(35)


class TestCoeffPerturbationRows:
    def test_benign_row_one(self):
        rows = coeff_perturbation_rows(benign_sequence())
        r1 = rows(1)
        assert abs(approx(r1.coeff(0), 30)) <= tol(30)
        assert abs(approx(r1.coeff(1), 30) - 1) <= tol(30)
        assert abs(approx(r1.coeff(2), 30) - Fraction(1, 2)) <= tol(30)
        assert abs(approx(r1.norm, 30) - sqrt_oracle(Fraction(4, 3))) <= 2 * tol(30)

    def test_other_rows_are_basis(self):
        rows = coeff_perturbation_rows(
            specker_sequence(parse_enumerator("identity"))
        )
        assert rows(0).finite == FiniteVector.parse("0:1")
        with pytest.raises(MissingNormCertificateError):
            rows(1)


class TestToeplitz:
    def test_dual_elements_always_full(self):
        g = specker_sequence(parse_enumerator("identity"))
        f2 = toeplitz_dual_element(g, 2)
        assert abs(approx(f2.coeff(2), 30) - 1) <= tol(30)
        a1 = approx(g.a(1), 40)
        assert abs(approx(f2.coeff(1), 30) + a1) <= 2 * tol(30)

    def test_reciprocal_deep_index(self):
        # a_j = 2^-(j+1)/2 for the identity enumerator; the reference runs
        # the recurrence exactly on 200-bit square roots
        g = specker_sequence(parse_enumerator("identity"))
        start = time.time()
        got = toeplitz_reciprocal(g, 40).approx(40).as_fraction()
        assert time.time() - start <= 5
        bits = 200
        a = [Fraction(isqrt((1 << (2 * bits)) >> (j + 1)), 1 << bits) for j in range(41)]
        b = [Fraction(1)]
        for n in range(1, 41):
            b.append(-sum(a[j] * b[n - j] for j in range(1, n + 1)))
        assert abs(got - b[40]) <= tol(20)
        for i in (1, 2, 5, 12):
            assert abs(approx(toeplitz_reciprocal(g, i), 60) - b[i]) <= tol(59)

    def test_reciprocal_benign_vanishes(self):
        g = benign_sequence()
        assert toeplitz_reciprocal(g, 1).exact == Fraction(-1, 2)
        assert all(toeplitz_reciprocal(g, i).exact == 0 for i in range(2, 41))

    def test_primal_needs_norm(self):
        g = specker_sequence(parse_enumerator("identity"))
        with pytest.raises(MissingNormCertificateError):
            toeplitz_primal_element(g, 0)

    def test_benign_duality_identity(self):
        # x = sum_i <x, f_i> g_i on finite test vectors
        g = benign_sequence()
        for text in ("0:1", "0:1 1:-2", "2:1"):
            x = vec(text)
            N = 8
            s = linear_combo(
                [
                    (
                        inner(x, toeplitz_dual_element(g, i)),
                        toeplitz_primal_element(g, i),
                    )
                    for i in range(N)
                ]
            )
            resid = linear_combo(
                [
                    (RealName.from_fraction(1), x),
                    (RealName.from_fraction(-1), s),
                ]
            )
            assert approx(resid.norm, 32) <= tol(30)


class TestDoubledOnb:
    def test_tight_bounds(self):
        CF = doubled_onb()
        assert CF.lower == CF.upper == 2

    def test_elements_and_analysis(self):
        CF = doubled_onb()
        assert CF.elem(0).finite == CF.elem(1).finite == FiniteVector.parse("0:1")
        c = analysis(CF, vec("1:1"))
        assert abs(approx(c.coeff(2), 25) - 1) <= 2 * tol(25)
        assert abs(approx(c.coeff(3), 25) - 1) <= 2 * tol(25)

    def test_canonical_reconstruction(self):
        from framecert.duality import canonical_dual

        CF = doubled_onb()
        D = canonical_dual(CF)
        pair = DualPair(CF, D.frame)
        rep = verify_duality(pair, [FiniteVector.parse("0:1 1:2")], tol(30))
        assert rep.passed
