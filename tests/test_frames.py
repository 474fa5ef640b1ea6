from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from framecert.duality import canonical_dual
from framecert.frames import (
    CertifiedFrame,
    Frame,
    FrameCoeffName,
    analysis,
    analysis_coeffs,
    complete_dual_gram_row,
    frame_algorithm,
    frame_from_analysis,
    frame_from_onb,
    frame_from_operator,
    frame_operator,
    inverse_apply,
    pseudo_inverse,
    range_projection,
    reconstruct,
    richardson_steps,
    synthesis,
)
from framecert.operators import OperatorName, banded_adjoint, finite_columns
from framecert.oracle import ExactFrame, embed
from framecert.realnames import RealName
from framecert.specfile import load_spec
from framecert.vectors import FiniteVector, VectorName, sqrt_of_fraction


def tol(n):
    return Fraction(1, 2**n)


def approx(x, n):
    return x.approx(n).as_fraction()


def sqrt_oracle(q, bits=60):
    q = Fraction(q)
    return Fraction(isqrt(q.numerator * 4**bits // q.denominator), 2**bits)


def mercedes():
    return embed(ExactFrame([[1, 0], [0, 1], [1, 1]]))


def vec(text):
    return VectorName.from_finite(FiniteVector.parse(text))


class TestConstructors:
    def test_onb_frame(self):
        CF = frame_from_onb()
        assert CF.lower == CF.upper == 1
        assert CF.elem(3).finite == FiniteVector.parse("3:1")
        assert analysis(CF, vec("0:1 2:-2")).finite == FiniteVector.parse("0:1 2:-2")

    def test_from_operator_without_adjoint_is_plain(self):
        U = OperatorName(finite_columns([FiniteVector.parse("0:2"), FiniteVector.parse("1:2")]), 2)
        F = frame_from_operator(U, Fraction(2))
        assert isinstance(F, Frame) and not isinstance(F, CertifiedFrame)
        assert F.lower == 4

    def test_from_operator_with_adjoint(self):
        U = OperatorName(finite_columns([FiniteVector.parse("0:1"), FiniteVector.parse("1:1")]), 1)
        CF = frame_from_operator(U, Fraction(1), adjoint=OperatorName.identity())
        assert isinstance(CF, CertifiedFrame)
        got = analysis(CF, vec("1:5")).finite
        assert got == FiniteVector.parse("1:5")

    def test_certified_frames_are_frames(self):
        F = Frame(VectorName.basis, 1, 2)
        CF = CertifiedFrame(F, OperatorName.identity())
        # the element memo and the bounds are shared, not wrapped again
        assert CF.elem is F.elem
        assert (CF.lower, CF.upper) == (F.lower, F.upper)
        onb = frame_from_onb()
        for G in (CF, onb, mercedes(), canonical_dual(onb), canonical_dual(mercedes())):
            assert isinstance(G, Frame) and isinstance(G, CertifiedFrame)
            assert G.frame is G

    def test_rejects_bad_certificates(self):
        with pytest.raises(ValueError):
            Frame(VectorName.basis, 2, 1)
        with pytest.raises(ValueError):
            Frame(VectorName.basis, 0, 1)
        with pytest.raises(ValueError):
            frame_from_operator(OperatorName.identity(), Fraction(0))


class TestSynthesisAnalysis:
    def test_mercedes_synthesis(self):
        CF = mercedes()
        # 1*f0 + 2*f2 = (3, 2)
        out = synthesis(CF.frame, vec("0:1 2:2"))
        assert out.finite == FiniteVector.parse("0:3 1:2")

    def test_mercedes_analysis(self):
        CF = mercedes()
        got = analysis(CF, vec("0:1 1:1")).finite
        assert got == FiniteVector.parse("0:1 1:1 2:2")

    def test_analysis_coeffs_weak(self):
        CF = mercedes()
        w = analysis_coeffs(CF.frame, vec("0:1"))
        assert approx(w.coeff(2), 30) == 1
        assert w.norm_upper >= sqrt_oracle(2)

    def test_frame_operator_columns(self):
        S = frame_operator(mercedes())
        assert S.col(0).finite == FiniteVector.parse("0:2 1:1")
        assert S.col(1).finite == FiniteVector.parse("0:1 1:2")
        assert S.norm_bound >= 3


class TestFrameAlgorithm:
    def test_tight_frame_single_step(self):
        # A = B = 1 (orthonormal): one iteration, g = f
        CF = frame_from_onb()
        res = frame_algorithm(CF, vec("0:1 1:-2"), 20)
        assert res.iterations == 1
        assert res.vector.finite == FiniteVector.parse("0:1 1:-2")

    def test_mercedes_inverse_accuracy(self):
        CF = mercedes()
        expected = [Fraction(2, 3), Fraction(-1, 3)]  # S^-1 e_0, S = [[2, 1], [1, 2]]
        for target in (8, 24):
            res = frame_algorithm(CF, vec("0:1"), target)
            v = res.vector.finite
            err_sq = sum(
                (v.coefficient(i) - expected[i]) ** 2 for i in range(2)
            )
            assert err_sq <= tol(target) ** 2

    def test_section_drops_coordinates_outside_span(self):
        # e_2 lies outside the span of the Mercedes frame; S^-1 sees only e_0
        CF = mercedes()
        exact = inverse_apply(CF, vec("0:1 2:1")).finite
        assert exact == FiniteVector.parse("0:2/3 1:-1/3")
        for target in (10, 20):
            v = frame_algorithm(CF, vec("0:1 2:1"), target).vector.finite
            assert v.coefficient(2) == 0
            assert FiniteVector.combination([(1, v), (-1, exact)]).norm_squared() <= tol(target) ** 2


class TestInverseApply:
    def test_mercedes_name_of_inverse(self):
        CF = mercedes()
        g = inverse_apply(CF, vec("0:1"))
        for n in (10, 25):
            assert abs(approx(g.coeff(0), n) - Fraction(2, 3)) <= 2 * tol(n)
            assert abs(approx(g.coeff(1), n) - Fraction(-1, 3)) <= 2 * tol(n)
        # ||(2/3, -1/3)|| = sqrt(5)/3
        assert abs(approx(g.norm, 25) - sqrt_oracle(Fraction(5, 9))) <= 4 * tol(25)

    def test_reconstruction_identity(self):
        # S (S^-1 f) = f via synthesis of analysis coefficients
        CF = mercedes()
        f = vec("0:2 1:-1")
        g = inverse_apply(CF, f)
        back = synthesis(CF.frame, analysis(CF, g))
        for n in (10, 20):
            assert abs(approx(back.coeff(0), n) - 2) <= 4 * tol(n)
            assert abs(approx(back.coeff(1), n) + 1) <= 4 * tol(n)


class TestPseudoInverse:
    def test_mercedes_coefficients(self):
        CF = mercedes()
        c = pseudo_inverse(CF, vec("0:1"))
        # <f, S^-1 f_k> for f = e0: (2/3, -1/3, 1/3)
        expected = [Fraction(2, 3), Fraction(-1, 3), Fraction(1, 3)]
        for k, q in enumerate(expected):
            assert abs(approx(c.coeff(k), 20) - q) <= 4 * tol(20)
        assert abs(approx(c.energy, 20) - Fraction(6, 9)) <= 8 * tol(20)

    def test_reconstruct_roundtrip(self):
        CF = mercedes()
        f = vec("0:1 1:2")
        c = pseudo_inverse(CF, f)
        back = reconstruct(CF, c)
        for n in (10, 18):
            assert abs(approx(back.coeff(0), n) - 1) <= 8 * tol(n)
            assert abs(approx(back.coeff(1), n) - 2) <= 8 * tol(n)

    def test_is_a_vector_name_with_energy_norm_squared(self):
        shear = load_spec(str(Path(__file__).resolve().parent.parent / "fixtures" / "riesz_shear.json"))
        for CF, f in ((mercedes(), vec("0:1 1:2")), (shear.certified, vec("0:1 1:-1/2"))):
            c = pseudo_inverse(CF, f)
            assert isinstance(c, VectorName) and c.as_vector_name() is c
            for n in (10, 30):
                # |a^2 - b| <= tol(n + 10) (2 |a| + 1) + 2^-n for a within 2^-(n+10) of ||c||
                a = approx(c.norm, n + 10)
                assert abs(approx(c.energy, n) - a * a) <= tol(n) + tol(n + 10) * (2 * abs(a) + 1)

    def test_coeff_name_from_vector(self):
        c = FrameCoeffName.from_vector_name(vec("0:3 1:4"))
        assert c.energy.exact == 25
        assert c.as_vector_name().norm.exact is not None


class TestFrameFromAnalysis:
    def test_recovers_mercedes(self):
        CF = mercedes()
        norms = {0: Fraction(1), 1: Fraction(1), 2: Fraction(2)}

        def norm_oracle(i):
            return sqrt_of_fraction(norms.get(i, Fraction(0)))

        CF2 = frame_from_analysis(
            CF.analysis_op, norm_oracle, CF.lower, CF.upper
        )
        f2 = CF2.elem(2)
        assert abs(approx(f2.coeff(0), 25) - 1) <= tol(25)
        assert abs(approx(f2.coeff(1), 25) - 1) <= tol(25)
        assert abs(approx(f2.norm, 25) - sqrt_oracle(2)) <= 2 * tol(25)


class TestCompleteDualGramRow:
    def test_matches_diagonal(self):
        # energy of a dual-Gram row equals its diagonal entry p
        for p in (Fraction(2, 3), Fraction(1, 3), Fraction(1), Fraction(0)):
            e = complete_dual_gram_row(
                lambda n, p=p: RealName.from_fraction(p), 0
            )
            assert abs(approx(e, 30) - p) <= tol(30)

    def test_mercedes_row_energy(self):
        # exact oracle: row 0 of the projection matrix has energy 2/3
        from framecert.oracle import ExactFrame, projection_matrix

        M = projection_matrix(ExactFrame([[1, 0], [0, 1], [1, 1]]))
        p = M[0][0]
        row_energy = sum(q * q for q in [M[0][k] for k in range(3)])
        assert row_energy == p  # sanity on the closed form
        e = complete_dual_gram_row(lambda n: RealName.from_fraction(p), 0)
        assert abs(approx(e, 30) - row_energy) <= tol(30)


class TestRangeProjection:
    def test_mercedes_column_values(self):
        CF = mercedes()
        P = range_projection(CF)
        M = [
            [Fraction(2, 3), Fraction(-1, 3), Fraction(1, 3)],
            [Fraction(-1, 3), Fraction(2, 3), Fraction(1, 3)],
            [Fraction(1, 3), Fraction(1, 3), Fraction(2, 3)],
        ]
        col1 = P.col(1)
        for i in range(3):
            assert abs(approx(col1.coeff(i), 16) - M[i][1]) <= 4 * tol(16)

    def test_onb_projection_is_identity(self):
        P = range_projection(frame_from_onb())
        assert abs(approx(P.col(2).coeff(2), 20) - 1) <= 2 * tol(20)
        assert abs(approx(P.col(2).coeff(0), 20)) <= 2 * tol(20)
        assert P.norm_bound == 1


class TestGenericPath:
    def test_frame_without_finite_section(self):
        # Mercedes wired by hand through banded_adjoint: exercises the
        # inexact S-application path rather than the exact fast path.
        vecs = {0: "0:1", 1: "1:1", 2: "0:1 1:1"}

        def elem(i):
            return vec(vecs[i]) if i in vecs else VectorName.zero()

        def rows(n):
            cols = {0: "0:1 2:1", 1: "1:1 2:1"}
            return vec(cols[n]) if n in cols else VectorName.zero()

        Tstar = banded_adjoint(rows, sqrt_upper_3())
        CF = CertifiedFrame(
            Frame(elem, Fraction(1, 2), Fraction(7, 2)), Tstar
        )
        res = frame_algorithm(CF, vec("0:1"), 10)
        v = res.vector.finite
        err_sq = (v.coefficient(0) - Fraction(2, 3)) ** 2 + (
            v.coefficient(1) + Fraction(1, 3)
        ) ** 2
        assert err_sq <= tol(10) ** 2


def sqrt_upper_3():
    from framecert.dyadic import sqrt_upper

    return sqrt_upper(Fraction(3))


@settings(max_examples=150, deadline=None)
@given(
    st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=40),
    st.fractions(min_value=1, max_value=20, max_denominator=40),
    st.fractions(min_value=0, max_value=2**70, max_denominator=2**12),
)
def test_richardson_steps_is_the_smallest_exact_power(A, ratio, goal):
    # the smallest J >= 1 with r^J >= goal, r = (B+A)/(B-A), found by exact
    # powers one at a time; B/A <= 20 keeps r >= 21/19, so J stays below 500
    B = A * ratio
    if A == B:
        assert richardson_steps(A, B, goal) == 1
        return
    r = (B + A) / (B - A)
    J, power = 1, r
    while power < goal:
        J, power = J + 1, power * r
    assert richardson_steps(A, B, goal) == J


@pytest.mark.parametrize("A, B, J", [(1, 3, 1), (1, 3, 100), (1, 5, 7), (1, 5, 300), (2, 7, 150)])
def test_richardson_steps_at_an_exact_power(A, B, J):
    # goal = r^J itself: no rounded power can decide it, the exact test does
    r = Fraction(B + A, B - A)
    assert richardson_steps(Fraction(A), Fraction(B), r**J) == J
    assert richardson_steps(Fraction(A), Fraction(B), r**J + Fraction(1, 10**9)) == J + 1
