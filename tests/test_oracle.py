from fractions import Fraction
from itertools import combinations

import random

import pytest
from hypothesis import given, settings, strategies as st

from framecert.oracle import (
    ExactFrame,
    NonSpanningError,
    cross_gram_matrix,
    determinant,
    eigenvalue_enclosures,
    embed,
    exact_frame_solve,
    frame_bounds_hold,
    is_positive_definite,
    is_positive_semidefinite,
    mat_inv,
    mat_mul,
    projection_matrix,
    shift,
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
        assert mercedes().S == [[2, 1], [1, 2]]

    def test_onb_identity(self):
        assert ExactFrame([[1, 0], [0, 1]]).S == [[1, 0], [0, 1]]

    def test_formed_once(self):
        F = ExactFrame([[1, 0], [0, 1], [1, 1]])
        sol = exact_frame_solve(F)  # cached per equal frame
        assert sol.S is sol.frame.S


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
        # det(S - lam I) has a determined sign outside the spectrum
        S = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]]
        am, _, _, bp = eigenvalue_enclosures(S)
        # both eigenvalues of S - lam I are positive below lambda_min
        # and both are negative above lambda_max: n = 2, so det > 0
        assert determinant(shift(S, am)) > 0
        assert determinant(shift(S, bp)) > 0


class TestExactSolve:
    def test_mercedes_inverse_and_dual(self):
        sol = exact_frame_solve(mercedes())
        third = Fraction(1, 3)
        assert sol.S_inv == [[2 * third, -third], [-third, 2 * third]]
        assert [sol.solve(v) for v in mercedes().vectors] == [
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
            for v in F.vectors:
                g = sol.solve(v)
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
                assert u[l][k] == sol.solve(F.vectors[k])[l]

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


# -- both modes of the elimination kernel against cofactor expansion ----


def cofactor_det(m) -> Fraction:
    """Laplace expansion along the first row: the independent reference."""
    if not m:
        return Fraction(1)
    return sum(
        (
            (-1) ** j * m[0][j] * cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
            for j in range(len(m))
        ),
        Fraction(0),
    )


def submatrix(m, idx):
    return [[m[i][j] for j in idx] for i in idx]


# small integers plus shifts with mixed denominators, so clearing them
# takes an lcm; plain ints stand for integer input
entries = st.builds(
    lambda a, k, q: Fraction(a) + Fraction(k, q),
    st.integers(-3, 3),
    st.sampled_from([0, 0, 0, 1, -1, 2]),
    st.sampled_from([2, 3, 4, 6]),
)
int_entries = st.integers(-3, 3)


@st.composite
def square(draw, n=None, symmetric=False, entry=entries):
    n = n or draw(st.integers(1, 4))
    m = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if symmetric:
        m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            m[i][i] = 0
    if draw(st.booleans()):
        # a zero row and column: a zero pivot with nothing beyond it
        r = draw(st.integers(0, n - 1))
        for i in range(n):
            m[r][i] = m[i][r] = 0
    return m


@st.composite
def low_rank(draw, symmetric=False):
    # V W with inner size r < n (or V V^T), shifted by a small dyadic
    n = draw(st.integers(1, 4))
    r = draw(st.integers(0, n - 1))
    V = [[draw(entries) for _ in range(r)] for _ in range(n)]
    W = [list(c) for c in zip(*V)] if symmetric else [[draw(entries) for _ in range(n)] for _ in range(r)]
    shift = draw(st.sampled_from([0, 0, Fraction(1, 8), Fraction(-1, 8)]))
    return [
        [sum((V[i][k] * W[k][j] for k in range(r)), Fraction(0)) + shift * (i == j) for j in range(n)]
        for i in range(n)
    ]


matrices = st.one_of(square(), square(entry=int_entries), low_rank())
symmetric_matrices = st.one_of(
    square(symmetric=True), square(symmetric=True, entry=int_entries), low_rank(symmetric=True)
)


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices)
def test_positive_definite_iff_leading_minors_positive(m):
    n = len(m)
    expected = all(cofactor_det(submatrix(m, range(k))) > 0 for k in range(1, n + 1))
    assert is_positive_definite(m) == expected


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices)
def test_positive_semidefinite_iff_principal_minors_nonnegative(m):
    n = len(m)
    expected = all(
        cofactor_det(submatrix(m, idx)) >= 0
        for k in range(1, n + 1)
        for idx in combinations(range(n), k)
    )
    assert is_positive_semidefinite(m) == expected


@settings(max_examples=300, deadline=None)
@given(matrices)
def test_determinant_matches_cofactor_expansion(m):
    assert determinant(m) == cofactor_det(m)


def test_determinant_needs_row_swaps():
    # zero leading entries force a swap at every column; each swap flips the sign
    m = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert determinant([[Fraction(q) for q in row] for row in m]) == -1 == cofactor_det(m)


@settings(max_examples=300, deadline=None)
@given(matrices)
def test_inverse_or_singular(m):
    n = len(m)
    if cofactor_det(m) == 0:
        with pytest.raises(NonSpanningError):
            mat_inv(m)
        return
    inv = mat_inv(m)
    product = [[sum(inv[i][k] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert product == [[int(i == j) for j in range(n)] for i in range(n)]


@st.composite
def vector_lists(draw):
    d = draw(st.integers(1, 3))
    K = draw(st.integers(1, 4))
    vecs = [[draw(entries) for _ in range(d)] for _ in range(K)]
    if K > 1 and draw(st.booleans()):
        # a multiple of the first vector keeps the rank from growing
        c = draw(entries)
        vecs[-1] = [c * q for q in vecs[0]]
    return vecs


@settings(max_examples=300, deadline=None)
@given(vector_lists())
def test_exact_frame_spans_iff_some_full_minor(vecs):
    d = len(vecs[0])
    spans = any(cofactor_det([vecs[i] for i in rows]) != 0 for rows in combinations(range(len(vecs)), d))
    if spans:
        assert ExactFrame(vecs).d == d
    else:
        with pytest.raises(NonSpanningError):
            ExactFrame(vecs)


@settings(max_examples=300, deadline=None)
@given(vector_lists(), st.data())
def test_frame_bounds_hold_matches_shifted_frame_operator(vecs, data):
    # M holds the vectors as columns; the bounds are drawn near S's
    # diagonal, so both sides of each inequality occur
    M = [list(row) for row in zip(*vecs)]
    S = mat_mul(M, vecs)
    near = st.sampled_from(sorted({S[i][i] for i in range(len(S))} | {Fraction(0)}))
    A = data.draw(near) + data.draw(st.sampled_from([0, Fraction(-1, 4), Fraction(1, 3)]))
    B = data.draw(near) + data.draw(st.sampled_from([0, Fraction(-1, 4), Fraction(1, 3), 8]))
    expected = is_positive_semidefinite(shift(S, A)) and is_positive_semidefinite(
        [[-q for q in row] for row in shift(S, B)]
    )
    assert frame_bounds_hold(M, A, B) == expected
