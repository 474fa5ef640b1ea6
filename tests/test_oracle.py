from fractions import Fraction

import random

import pytest

from framecert.oracle import (
    ExactFrame,
    NonSpanningError,
    cross_gram_matrix,
    eigenvalue_enclosures,
    embed,
    exact_frame_solve,
    frame_operator_matrix,
    is_positive_semidefinite,
    mat_mul,
    projection_matrix,
)


def mercedes():
    return ExactFrame([[1, 0], [0, 1], [1, 1]])


class TestExactFrame:
    def test_rejects_non_spanning(self):
        with pytest.raises(NonSpanningError):
            ExactFrame([[1, 0], [2, 0]])

    def test_rejects_empty_and_ragged(self):
        with pytest.raises(ValueError):
            ExactFrame([])
        with pytest.raises(ValueError):
            ExactFrame([[1], [1, 2]])


class TestFrameOperator:
    def test_mercedes_matrix(self):
        S = frame_operator_matrix(mercedes())
        assert S == [[2, 1], [1, 2]]

    def test_onb_identity(self):
        S = frame_operator_matrix(ExactFrame([[1, 0], [0, 1]]))
        assert S == [[1, 0], [0, 1]]


class TestSemidefinite:
    def test_small_cases(self):
        assert is_positive_semidefinite([[1, 1], [1, 1]])
        assert is_positive_semidefinite([[0, 0], [0, 2]])
        assert not is_positive_semidefinite([[0, 1], [1, 0]])
        assert not is_positive_semidefinite([[1, 2], [2, 1]])
        assert not is_positive_semidefinite([[0, 0], [0, -1]])

    def test_singular_gram_matrices(self):
        # G = V V^T with 3 x 2 integer V: PSD with a zero eigenvalue
        rng = random.Random(3)
        for _ in range(25):
            V = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(3)]
            G = [[Fraction(sum(a * b for a, b in zip(u, v))) for v in V] for u in V]
            assert is_positive_semidefinite(G)
            shifted = [[G[i][j] - Fraction(1, 1000) * (i == j) for j in range(3)] for i in range(3)]
            assert not is_positive_semidefinite(shifted)


class TestEigenvalueEnclosures:
    def test_mercedes_eigenvalues(self):
        # spectrum of [[2,1],[1,2]] is {1, 3}
        am, ap, bm, bp = eigenvalue_enclosures([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]])
        w = Fraction(1, 2**20)
        assert am < 1 <= ap and ap - am <= w
        assert bm <= 3 < bp and bp - bm <= w

    def test_diagonal(self):
        am, ap, bm, bp = eigenvalue_enclosures(
            [[Fraction(1, 4), Fraction(0)], [Fraction(0), Fraction(5)]]
        )
        assert am < Fraction(1, 4) <= ap
        assert bm <= 5 < bp

    def test_soundness_outer_endpoints(self):
        # char poly of the enclosure endpoints has determined sign outside
        S = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]]
        from framecert.oracle import char_poly_at

        am, _, _, bp = eigenvalue_enclosures(S)
        # det(am*I - S) has sign (-1)^n below the spectrum; positive above
        assert char_poly_at(S, am) > 0  # n = 2, below lambda_min
        assert char_poly_at(S, bp) > 0  # above lambda_max


class TestExactSolve:
    def test_mercedes_inverse_and_dual(self):
        sol = exact_frame_solve(mercedes())
        third = Fraction(1, 3)
        assert sol.S_inv == [[2 * third, -third], [-third, 2 * third]]
        assert sol.dual == [
            [2 * third, -third],
            [-third, 2 * third],
            [third, third],
        ]
        assert sol.lower < 1 < 3 < sol.upper

    def test_dual_reconstruction_identity(self):
        # sum_k <x, dual_k> f_k = x for every x in Q^2
        F = mercedes()
        sol = exact_frame_solve(F)
        for x in ([Fraction(1), Fraction(0)], [Fraction(2), Fraction(-3)]):
            out = [Fraction(0), Fraction(0)]
            for v, g in zip(F.vectors, sol.dual):
                c = sum(x[i] * g[i] for i in range(2))
                for i in range(2):
                    out[i] += c * v[i]
            assert out == x


class TestProjectionMatrix:
    def test_idempotent_and_symmetric(self):
        F = mercedes()
        M = projection_matrix(F)
        assert M == [list(row) for row in zip(*M)]
        assert mat_mul(M, M) == M

    def test_mercedes_values(self):
        M = projection_matrix(mercedes())
        third = Fraction(1, 3)
        assert M[0][0] == 2 * third
        assert M[2][2] == 2 * third
        assert M[0][2] == third

    def test_onb_projection_is_identity(self):
        M = projection_matrix(ExactFrame([[1, 0], [0, 1]]))
        assert M == [[1, 0], [0, 1]]


class TestCrossGram:
    def test_same_frame_matches_projection(self):
        F = mercedes()
        assert cross_gram_matrix(F, F) == projection_matrix(F)

    def test_onb_against_mercedes(self):
        F = mercedes()
        Phi = ExactFrame([[1, 0], [0, 1]])
        u = cross_gram_matrix(F, Phi)
        sol = exact_frame_solve(F)
        # row l is just dual_k coordinate l
        for l in range(2):
            for k in range(3):
                assert u[l][k] == sol.dual[k][l]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cross_gram_matrix(mercedes(), ExactFrame([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


class TestEmbed:
    def test_elements_and_bounds(self):
        CF = embed(mercedes())
        assert CF.elem(2).finite.entries == ((0, Fraction(1)), (1, Fraction(1)))
        assert CF.elem(9).finite.entries == ()
        assert CF.lower < 1 and CF.upper > 3

    def test_analysis_columns(self):
        CF = embed(mercedes())
        # column n of T* lists coordinate n of every frame vector
        col0 = CF.analysis_op.col(0)
        assert col0.finite.entries == ((0, Fraction(1)), (2, Fraction(1)))
        assert CF.analysis_op.col(5).finite.entries == ()
