import json
import math
import random
import re
import tempfile
from contextlib import redirect_stderr
from fractions import Fraction
from io import StringIO
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from framecert import oracle
from framecert.cli import main
from framecert.oracle import (
    ENCLOSURE_WIDTH,
    ExactFrame,
    NonSpanningError,
    cross_gram_columns,
    cross_gram_matrix,
    eigenvalue_enclosures,
    embed,
    exact_frame_solve,
    frame_bounds_hold,
    mat_inv,
    projection_matrix,
)
from framecert.specfile import InvalidFrameError, load_spec
from framecert.vectors import FiniteVector
from fraction_matrices import cofactor_det, ldlt_positive_definite, mat_mul, mat_vec
from test_cli_golden import COMMANDS, run
from test_oracle_golden import seeded_S


MERCEDES = [[1, 0], [0, 1], [1, 1]]


def mercedes():
    return ExactFrame(MERCEDES)


def definite(m, strict: bool) -> bool:
    """The symmetric kernel on m cleared: positive (semi)definiteness."""
    return oracle._bareiss(oracle._cleared(m)[0], strict=strict) > 0


def shift(S, lam):
    """S - lam*I."""
    return [[q - lam * (i == j) for j, q in enumerate(row)] for i, row in enumerate(S)]


def negated(m):
    return [[-q for q in row] for row in m]


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
        assert exact_frame_solve(F) is F  # the solution lives on the frame
        assert F.inverse is F.inverse


class TestSemidefinite:
    def test_small_cases(self):
        assert definite([[1, 1], [1, 1]], strict=False)
        assert definite([[0, 0], [0, 2]], strict=False)
        assert not definite([[0, 1], [1, 0]], strict=False)
        assert not definite([[1, 2], [2, 1]], strict=False)
        assert not definite([[0, 0], [0, -1]], strict=False)

    def test_singular_gram_matrices(self):
        # G = V V^T with 3 x 2 integer V: PSD with a zero eigenvalue
        rng = random.Random(3)
        for _ in range(25):
            V = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(3)]
            G = [[Fraction(sum(a * b for a, b in zip(u, v))) for v in V] for u in V]
            assert definite(G, strict=False)
            assert not definite(shift(G, Fraction(1, 1000)), strict=False)


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

    @pytest.mark.parametrize("S", [[[-1]], [[0]], [[-5, 0], [0, 1]], [[1, 2], [2, 1]], [[0, 0], [0, 3]]])
    def test_refuses_matrices_not_positive_definite(self, S):
        # traces -1, 0, -4 (no grid to search), then an indefinite and a singular one
        with pytest.raises(NonSpanningError, match="^frame operator is not positive definite$"):
            eigenvalue_enclosures([[Fraction(q) for q in row] for row in S])

    def test_soundness_outer_endpoints(self):
        # det(S - lam I) has a determined sign outside the spectrum
        S = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]]
        am, _, _, bp = eigenvalue_enclosures(S)
        # both eigenvalues of S - lam I are positive below lambda_min
        # and both are negative above lambda_max: n = 2, so det > 0
        assert cofactor_det(shift(S, am)) > 0
        assert cofactor_det(shift(S, bp)) > 0


def canonical_dual(F: ExactFrame) -> list[list[Fraction]]:
    """S^-1 f_k for each k, as the columns of (T+)* that embed(F) carries."""
    Vstar = embed(F).pinv[1]
    return [Vstar.col(k).finite.dense(F.d) for k in range(len(F))]


class TestExactSolve:
    def test_mercedes_inverse_and_dual(self):
        sol = exact_frame_solve(mercedes())
        third = Fraction(1, 3)
        R, c = sol.inverse
        assert [[c * x for x in row] for row in R] == [[2 * third, -third], [-third, 2 * third]]
        assert canonical_dual(sol) == [
            [2 * third, -third],
            [-third, 2 * third],
            [third, third],
        ]
        assert sol.lower < 1 < 3 < sol.upper

    def test_dual_reconstruction_identity(self):
        # sum_k <x, dual_k> f_k = x for every x in Q^2
        F = mercedes()
        duals = canonical_dual(exact_frame_solve(F))
        for x in ([Fraction(1), Fraction(0)], [Fraction(2), Fraction(-3)]):
            out = [Fraction(0), Fraction(0)]
            for v, g in zip(MERCEDES, duals):
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
        duals = canonical_dual(F)
        # row l is just dual_k coordinate l
        for l in range(2):
            for k in range(3):
                assert u[l][k] == duals[k][l]

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

    def test_pseudo_inverse_columns(self):
        F = mercedes()
        CF = embed(F)
        V, Vstar = CF.pinv
        # nothing is inverted until a column is read
        assert F._inverse is None
        third = Fraction(1, 3)
        # column n of V is coordinate n of every S^-1 f_k, zero past d = 2
        assert V.col(0).finite.dense(3) == [2 * third, -third, third]
        assert V.col(1).finite.dense(3) == [-third, 2 * third, third]
        assert V.col(2).finite.entries == () and V.support_bound == 3
        # column k of V* is S^-1 f_k, zero past K = 3
        assert Vstar.col(2).finite.dense(2) == [third, third]
        assert Vstar.col(3).finite.entries == () and Vstar.support_bound == 2
        # ||T+||^2 = 1/lambda_min(S) <= 1/A
        assert V.norm_bound == Vstar.norm_bound and V.norm_bound**2 >= 1 / F.lower


# -- both modes of the elimination kernel against cofactor expansion ----


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
    assert definite(m, strict=True) == expected


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices)
def test_positive_semidefinite_iff_principal_minors_nonnegative(m):
    n = len(m)
    expected = all(
        cofactor_det(submatrix(m, idx)) >= 0
        for k in range(1, n + 1)
        for idx in combinations(range(n), k)
    )
    assert definite(m, strict=False) == expected


@settings(max_examples=300, deadline=None)
@given(matrices)
def test_determinant_matches_cofactor_expansion(m):
    # the Gauss-Jordan mode returns det N for m = N / D
    N, D = oracle._cleared(m)
    assert Fraction(oracle._bareiss(N), D ** len(m)) == cofactor_det(m)


def test_determinant_needs_row_swaps():
    # zero leading entries force a swap at every column; each swap flips the sign
    m = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert oracle._bareiss([list(row) for row in m]) == -1 == cofactor_det(m)


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


@st.composite
def non_spanning_vectors(draw):
    """Vectors in Q^d, d = 1..8, that do not span it: in a drawn hyperplane,
    or fewer than d vectors repeated; either with a zero vector among them."""
    d = draw(st.integers(1, 8))
    if draw(st.booleans()):
        # v - (v.u / u.u) u is orthogonal to the drawn normal u != 0
        u = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any))
        vecs = []
        for _ in range(draw(st.integers(1, d + 3))):
            v = [draw(entries) for _ in range(d)]
            c = sum((a * b for a, b in zip(v, u)), Fraction(0)) / sum(b * b for b in u)
            vecs.append([a - c * b for a, b in zip(v, u)])
    else:
        base = [[draw(entries) for _ in range(d)] for _ in range(draw(st.integers(0, d - 1)))]
        vecs = base * draw(st.integers(1, 3))
    if not vecs or draw(st.booleans()):
        vecs.insert(draw(st.integers(0, len(vecs))), [Fraction(0)] * d)
    return vecs


@settings(max_examples=150, deadline=None)
@given(non_spanning_vectors())
def test_non_spanning_frames_are_refused(vecs):
    # the enclosure search decides the span: each reader refuses with its own message
    d = len(vecs[0])
    with pytest.raises(NonSpanningError, match=f"^{re.escape(f'vectors do not span Q^{d}')}$"):
        ExactFrame(vecs)
    S = [[sum((v[i] * v[j] for v in vecs), Fraction(0)) for j in range(d)] for i in range(d)]
    with pytest.raises(NonSpanningError, match="^frame operator is not positive definite$"):
        eigenvalue_enclosures(S)
    err = StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stderr(err):
        spec = Path(tmp) / "spec.json"
        spec.write_text(json.dumps({"kind": "finite", "vectors": [[str(q) for q in v] for v in vecs]}))
        assert main(["bounds", str(spec)]) == 3
    assert err.getvalue() == f"error: invalid frame: vectors do not span Q^{d}\n"


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
    expected = definite(shift(S, A), strict=False) and definite(
        [[-q for q in row] for row in shift(S, B)], strict=False
    )
    assert frame_bounds_hold(M, A, B) == expected


# -- frame-bound enclosures against plain bisection --------------------


def bisected_enclosures(S):
    """The enclosures by bisection of [0, trace + 1] from scratch, one exact
    test per level, the lower side on until A- > 0: the reference the
    started search must reproduce."""
    N, D = oracle._cleared(S)
    T = sum(N[i][i] for i in range(len(N))) + D

    def bracket(sign):
        a, e = 0, 0
        while Fraction(T, D << e) > ENCLOSURE_WIDTH or (sign > 0 and a == 0):
            a, e = 2 * a, e + 1
            c = (a + 1) * T
            m = [[sign * ((q << e) - c * (i == j)) for j, q in enumerate(r)]
                 for i, r in enumerate(N)]
            if (oracle._bareiss(m, strict=True) > 0) == (sign > 0):
                a += 1
        return Fraction(a * T, D << e), Fraction((a + 1) * T, D << e)

    return bracket(1) + bracket(-1)


@st.composite
def spanning_vectors(draw):
    d = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["integer", "rational", "repeated", "tight", "doubled-onb"]))
    if kind in ("tight", "doubled-onb"):
        # c times copies of an orthonormal basis, rotated by a Pythagorean
        # rotation in one coordinate plane for "tight": S = m c^2 I
        c = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 3), Fraction(5, 4)]))
        basis = [[c * (i == j) for j in range(d)] for i in range(d)]
        if kind == "tight" and d > 1:
            for v in basis:
                v[0], v[1] = (3 * v[0] - 4 * v[1]) / 5, (4 * v[0] + 3 * v[1]) / 5
        vecs = basis * (2 if kind == "doubled-onb" else draw(st.integers(1, 3)))
    else:
        entry = st.integers(-9, 9) if kind == "integer" else entries
        vecs = [[draw(entry) for _ in range(d)] for _ in range(d + draw(st.integers(0, 3)))]
        if kind == "repeated":
            vecs += vecs[: draw(st.integers(1, len(vecs)))]
    try:
        ExactFrame(vecs)
    except NonSpanningError:
        assume(False)
    return vecs


def spanning_frames():
    return spanning_vectors().map(ExactFrame)


@st.composite
def diagonal_on_grid(draw):
    # trace + 1 = 2^k, so the grid step is a power of two and every dyadic
    # with a small denominator, each diagonal entry included, is a grid point
    d = draw(st.integers(1, 8))
    head = [Fraction(draw(st.integers(1, 8)), draw(st.sampled_from([1, 2, 4, 1024]))) for _ in range(d - 1)]
    k = (math.ceil(sum(head)) + 1).bit_length() + draw(st.integers(0, 3))
    diag = head + [2**k - 1 - sum(head)]
    return [[diag[i] * (i == j) for j in range(d)] for i in range(d)]


@settings(max_examples=200, deadline=None)
@given(spanning_frames())
def test_enclosures_match_bisection_on_frames(F):
    S = F.S
    am, ap, bm, bp = expected = bisected_enclosures(S)
    assert eigenvalue_enclosures(S) == expected == F.bounds_enclosure
    assert am > 0
    # bisected_enclosures shares _bareiss with the search; LDL^T in Fractions does not
    assert ldlt_positive_definite(shift(S, am)) and not ldlt_positive_definite(shift(S, ap))
    assert ldlt_positive_definite(negated(shift(S, bp))) and not ldlt_positive_definite(negated(shift(S, bm)))


@settings(max_examples=100, deadline=None)
@given(diagonal_on_grid())
def test_enclosures_match_bisection_on_grid_points(S):
    am, ap, bm, bp = expected = bisected_enclosures(S)
    assert eigenvalue_enclosures(S) == expected
    assert ap == min(S[i][i] for i in range(len(S)))  # lambda_min on the grid: A+ = lambda_min
    assert bm == max(S[i][i] for i in range(len(S)))  # and B- = lambda_max


HINT_MATRICES = [
    [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]],
    [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(6)]],  # trace + 1 = 8: both on the grid
    seeded_S(8, rational=False),
    seeded_S(6, rational=True),
]

# fake witness pairs (lambda_min side, lambda_max side) as functions of N;
# "swapped" and "2^1000" wrap the real estimate
REAL_ESTIMATE = oracle._estimate
WITNESSES = {
    "0": lambda N: ([0] * len(N),) * 2,  # no witness
    "e_0": lambda N: ([1] + [0] * (len(N) - 1),) * 2,
    # the all-ones line is orthogonal to the lambda_min eigenvector (1, -1) of [[2, 1], [1, 2]]
    "-1": lambda N: ([-1] * len(N),) * 2,
    "swapped": lambda N: REAL_ESTIMATE(N)[::-1],
    "2^1000": lambda N: tuple([(x << 980) + 1 for x in w] for w in REAL_ESTIMATE(N)),
    "nan": lambda N: ([math.nan] * len(N),) * 2,
    "inf": lambda N: ([math.inf] * len(N),) * 2,
    "-inf": lambda N: ([1] * (len(N) - 1) + [-math.inf],) * 2,
    "raises": lambda N: 1 / 0.0,
}


@pytest.mark.parametrize("hint", WITNESSES)
@pytest.mark.parametrize("k", range(len(HINT_MATRICES)))
def test_enclosures_do_not_depend_on_the_estimate(monkeypatch, hint, k):
    S = HINT_MATRICES[k]
    expected = eigenvalue_enclosures(S)
    monkeypatch.setattr(oracle, "_estimate", WITNESSES[hint])
    assert eigenvalue_enclosures(S) == expected == bisected_enclosures(S)
    F = ExactFrame(S)  # the frame of S's rows: its span is decided with the fake too
    assert F.bounds_enclosure == bisected_enclosures(F.S)


def test_enclosures_when_the_estimate_underflows(tmp_path, capsys):
    # scaled by 10^170, S has the column tail (1e-170, 1e-170): the Householder
    # step's divisor s (s + |x_0|) ~ 3e-340 rounds to 0, and the float estimate
    # fails; the exact search then starts from 0
    vectors = [[10**85, 0, 0], [1, 1, 0], [1, 0, 1]]
    F = ExactFrame(vectors)
    am, ap, bm, bp = expected = bisected_enclosures(F.S)
    assert eigenvalue_enclosures(F.S) == expected
    assert F.bounds_enclosure == expected
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "finite", "vectors": [[str(q) for q in v] for v in vectors]}))
    assert main(["bounds", str(spec)]) == 0
    assert capsys.readouterr().out == (f"A in [{am}, {ap}] (width <= 2^-20)\n"
                                       f"B in [{bm}, {bp}] (width <= 2^-20)\n")


@pytest.mark.parametrize("small", [Fraction(1, 2000), Fraction(1, 10**6), Fraction(1, 2**40)])
def test_lambda_min_below_one_grid_step_is_certified(tmp_path, capsys, small):
    # lambda_min = small^2 is below the 2^-20 grid step: the lower side
    # moves to the first finer level whose index 1 lies below it
    vectors = [[1, 0], [0, small]]
    F = ExactFrame(vectors)
    am, ap, bm, bp = expected = bisected_enclosures(F.S)
    assert eigenvalue_enclosures(F.S) == expected == F.bounds_enclosure
    assert 0 < am < small**2 <= ap == 2 * am
    assert bm <= 1 < bp
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "finite", "vectors": [[str(q) for q in v] for v in vectors]}))
    assert main(["bounds", str(spec)]) == 0
    assert capsys.readouterr().out.startswith(f"A in [{am}, {ap}] (width <= 2^-20)\n")
    assert main(["dual", str(spec)]) == 0
    assert f"g_1: (0 ± 2^-30, {1 / small} ± 2^-30" in capsys.readouterr().out


@pytest.mark.parametrize("d", [8, 12, 16])
def test_enclosures_take_few_eliminations(monkeypatch, d):
    # plain bisection takes 65, 67 and 69 here; the witnesses leave one
    # elimination per side, and the search decides the span with them
    calls = []
    bareiss = oracle._bareiss
    monkeypatch.setattr(oracle, "_bareiss", lambda *a, **k: calls.append(1) or bareiss(*a, **k))
    eigenvalue_enclosures(seeded_S(d, rational=False))
    assert len(calls) <= 2


@pytest.mark.parametrize("fixture", ["mercedes.json", "scaled_frame.json", "non_spanning.json"])
def test_finite_loads_take_two_eliminations(monkeypatch, fixture):
    # loading a finite spec decides its span and both bounds in one search
    calls = []
    bareiss = oracle._bareiss
    monkeypatch.setattr(oracle, "_bareiss", lambda *a, **k: calls.append(1) or bareiss(*a, **k))
    try:
        load_spec(f"fixtures/{fixture}").section.bounds_enclosure
    except InvalidFrameError:
        assert fixture == "non_spanning.json"
    assert len(calls) <= 2


# -- the integer form: a frame is cleared once, and its readers agree ----


@settings(max_examples=200, deadline=None)
@given(spanning_vectors())
def test_integer_form_matches_fractions(vecs):
    # every reader of the kept integers against the same value from Fractions
    F = ExactFrame(vecs)
    d = len(vecs[0])
    S = [[sum((Fraction(v[i]) * v[j] for v in vecs), Fraction(0)) for j in range(d)] for i in range(d)]
    assert F.S == S
    assert [[Fraction(n, F.D) for n in row] for row in F.N] == [[Fraction(q) for q in v] for v in vecs]
    assert F.bounds_enclosure == eigenvalue_enclosures(S)
    R, c = F.inverse
    assert [[c * x for x in row] for row in R] == mat_inv(S)
    CF = embed(F)
    assert [CF.elem(k).finite for k in range(len(vecs))] == [FiniteVector(enumerate(v)) for v in vecs]
    assert [CF.analysis_op.col(i).finite for i in range(d)] == [
        FiniteVector(enumerate(c)) for c in zip(*vecs)]


@settings(max_examples=100, deadline=None)
@given(spanning_vectors(), st.data())
def test_projection_columns_match_the_fraction_matrices(vecs, data):
    F, d = ExactFrame(vecs), len(vecs[0])
    cols = F.projection
    assert cols is F.projection
    assert all(type(n) is int for v in cols for n in v.nums.values())
    M = [[v.coefficient(l) for v in cols] for l in range(len(vecs))]
    assert M == projection_matrix(F) == cross_gram_matrix(F, F)
    # the orthogonal projection onto the range of T*: symmetric, idempotent,
    # of rank d, and fixing each analysis image T* e_i = (f_l[i])_l
    assert M == [list(row) for row in zip(*M)] and mat_mul(M, M) == M
    assert sum(M[k][k] for k in range(len(M))) == d
    for i in range(d):
        image = [Fraction(v[i]) for v in vecs]
        assert mat_vec(M, image) == image
    # against the standard basis, column k is S^-1 f_k; against any other
    # frame Phi, entry l is <phi_l, S^-1 f_k>
    onb = ExactFrame([[int(i == j) for j in range(d)] for i in range(d)])
    duals = cross_gram_columns(F, onb)
    S = [[sum((Fraction(v[i]) * v[j] for v in vecs), Fraction(0)) for j in range(d)] for i in range(d)]
    assert [mat_vec(S, g.dense(d)) for g in duals] == [[Fraction(q) for q in v] for v in vecs]
    phi = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d), max_size=3))
    phi += [[int(i == j) for j in range(d)] for i in range(d)]
    assert cross_gram_matrix(F, ExactFrame(phi)) == [
        [sum((p[i] * g.coefficient(i) for i in range(d)), Fraction(0)) for g in duals] for p in phi]


@pytest.mark.parametrize("fixture", ["mercedes.json", "scaled_frame.json"])
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_each_command_clears_the_frame_once(monkeypatch, fixture, command):
    # a Bessel file is a second matrix, cleared once to check its bound
    cleared, calls = oracle._cleared, []
    monkeypatch.setattr(oracle, "_cleared", lambda m: calls.append(m) or cleared(m))
    run([command[0], f"fixtures/{fixture}", *command[1:]])
    assert len(calls) == 1 + ("--bessel" in command)


def test_shared_factor_is_divided_out():
    # D = 6 and N^T N = [[22, 0], [0, 18]]: gcd(36, 22, 18) = 2
    F = ExactFrame([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(-1, 2)], [Fraction(1, 3), 0]])
    assert (F.N, F.D) == (((3, 3), (3, -3), (2, 0)), 6)
    assert (F.G, F.E) == (((11, 0), (0, 9)), 18)
    assert F.S == [[Fraction(11, 18), 0], [0, Fraction(1, 2)]]
