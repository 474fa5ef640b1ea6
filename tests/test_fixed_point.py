"""The certified fixed-point driver, its Richardson fallback and the S contract.

The driver runs conjugate gradients on integer mantissas on one grid
2^-G and returns an iterate once an exact residual certificate holds.
These tests check its answers against exact Fractions from
``framecert.oracle`` and from closed forms, on finite frames, on Riesz
blocks whose columns beyond the block are read through stages, and on
the benign gallery frame; the Richardson fallback from a CG iterate; the
guard against false frame bounds; the column reader of the benign frame
against its l2 budget; and the rounding of one step.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from framecert import frames
from framecert.dyadic import clog2, round_fraction
from framecert.frames import (
    GUARD_BITS,
    CertifiedFrame,
    Frame,
    _columns,
    frame_algorithm,
    frame_operator,
    inverse_apply,
)
from framecert.gallery import benign_sequence, upper_row_frame
from framecert.operators import OperatorName
from framecert.oracle import ExactFrame, NonSpanningError, determinant, embed, mat_inv, mat_vec
from framecert.realnames import RealName
from framecert.riesz import riesz_as_frame, riesz_from_matrix
from framecert.vectors import FiniteVector, VectorName, linear_combo

LADDER = (32, 64, 128)


@st.composite
def spanning_frames(draw, max_d=6, entry=st.integers(min_value=-3, max_value=3)):
    """A random spanning frame in Q^d, d <= max_d, with entries drawn from ``entry``."""
    d = draw(st.integers(min_value=1, max_value=max_d))
    K = draw(st.integers(min_value=d, max_value=d + 3))
    rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=K, max_size=K))
    try:
        section = ExactFrame(rows)
    except NonSpanningError:
        assume(False)
    return embed(section), section


def signal(draw, d: int) -> list[Fraction]:
    q = st.fractions(min_value=-4, max_value=4, max_denominator=9)
    return draw(st.lists(q, min_size=d, max_size=d))


def err_sq(v: FiniteVector, exact: list[Fraction]) -> Fraction:
    assert v.support <= len(exact)
    return sum(((a - b) ** 2 for a, b in zip(v.dense(len(exact)), exact)), Fraction(0))


def hidden(q: Fraction) -> RealName:
    """A name of q that hides its exact value, so inverse_apply iterates."""
    return RealName(lambda n: round_fraction(q, n), abs(q))


def finite_name(f: list[Fraction]) -> VectorName:
    return VectorName.from_finite(FiniteVector([(i, q) for i, q in enumerate(f) if q]))


# -- the cases: (frame, signal name, exact squared error of a finite vector)


@st.composite
def finite_cases(draw):
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    CF, section = draw(spanning_frames(entry=st.integers(min_value=-3, max_value=3) | rationals))
    f = signal(draw, section.d)
    exact = mat_vec(mat_inv(section.S), f)
    # hidden entries make inverse_apply iterate instead of solving exactly
    fv = linear_combo([(hidden(q), VectorName.basis(i)) for i, q in enumerate(f)])
    return CF, fv, lambda v: err_sq(v, exact)


def staged_beyond(CF: CertifiedFrame, d: int) -> CertifiedFrame:
    """CF with analysis columns n >= d given by stages (1 - 2^-(k+1)) e_n,
    not as finite vectors, so the driver reads S e_n = e_n through stages."""
    rows = CF.analysis_op

    def col(n: int) -> VectorName:
        if n < d:
            return rows.col(n)
        return VectorName.from_stage(
            lambda k: FiniteVector([(n, 1 - Fraction(1, 1 << (k + 1)))]), Fraction(1)
        )

    return CertifiedFrame(CF.frame, OperatorName(col, rows.norm_bound))


@st.composite
def riesz_cases(draw):
    d = draw(st.integers(min_value=1, max_value=3))
    q = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    M = draw(st.lists(st.lists(q, min_size=d, max_size=d), min_size=d, max_size=d))
    assume(determinant(M) != 0)
    CF = staged_beyond(riesz_as_frame(riesz_from_matrix(M, mat_inv(M))), d)
    # S = M M^T on the block and the identity beyond it
    n = d + 2
    S = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(d):
        for j in range(d):
            S[i][j] = sum((M[i][k] * M[j][k] for k in range(d)), Fraction(0))
    f = signal(draw, n)
    exact = mat_vec(mat_inv(S), f)
    return CF, finite_name(f), lambda v: err_sq(v, exact)


@st.composite
def benign_cases(draw):
    # a_i = 2^-i: S^-1 f = h - a' h_0 with h = f - e_0 (a'.f), from
    # U^-1 = I - e_0 a'^T; past f's support it is -2^-j h_0
    f = signal(draw, draw(st.integers(min_value=1, max_value=5)))
    h0 = f[0] - sum((q / (1 << j) for j, q in enumerate(f) if j >= 1), Fraction(0))

    def err(v: FiniteVector) -> Fraction:
        N = max(v.support, len(f))
        exact = [h0] + [(f[j] if j < len(f) else 0) - h0 / (1 << j) for j in range(1, N)]
        tail = h0 * h0 * Fraction(4, 3) / (1 << (2 * N))
        return err_sq(v, exact) + tail

    return upper_row_frame(benign_sequence()), finite_name(f), err


cases = st.one_of(finite_cases(), riesz_cases(), benign_cases())


# -- answers against the exact oracle ---------------------------------


@settings(max_examples=80, deadline=None)
@given(cases, st.integers(min_value=1, max_value=256))
def test_frame_algorithm_against_oracle(case, p):
    CF, f, err = case
    assert err(frame_algorithm(CF, f, p).vector.finite) <= Fraction(1, 1 << (2 * p))


@settings(max_examples=40, deadline=None)
@given(cases)
def test_inverse_apply_ladder_against_oracle(case):
    CF, f, err = case
    x = inverse_apply(CF, f)
    for p in LADDER:
        # stage p-1 of the limit is the rung solved at p, each started from
        # the one before
        assert err(x.stage(p - 1)) <= Fraction(1, 1 << (2 * p))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_richardson_fallback_from_a_cg_iterate(data):
    # with the CG cap at `cap` steps, the run continues with Richardson
    # from the CG iterate, for the step count of its certified error
    CF, section = data.draw(spanning_frames(max_d=4))
    assume(CF.upper <= 64 * CF.lower)
    f = signal(data.draw, section.d)
    exact = mat_vec(mat_inv(section.S), f)
    cap = data.draw(st.integers(min_value=0, max_value=2))
    p = data.draw(st.integers(min_value=1, max_value=64))
    runs = []
    run = frames._richardson

    def logged(CF, f, g, J, target):
        runs.append((bool(g), J))
        return run(CF, f, g, J, target)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frames, "CG_STEPS", cap)
        mp.setattr(frames, "_richardson", logged)
        res = frame_algorithm(CF, finite_name(f), p)
    assert err_sq(res.vector.finite, exact) <= Fraction(1, 1 << (2 * p))
    # iterations counts the CG steps, at most cap, plus the fallback's J
    J = sum(j for _, j in runs)
    assert len(runs) <= 1 and res.iterations - J <= cap


def test_fallback_warm_starts_from_the_cg_iterate(monkeypatch):
    # the Mercedes frame needs two CG steps; after one, Richardson runs from
    # that iterate (nonzero), and the answer is within 2^-40
    CF = embed(ExactFrame([[1, 0], [0, 1], [1, 1]]))
    runs = []
    run = frames._richardson

    def logged(CF, f, g, J, target):
        runs.append((bool(g), J))
        return run(CF, f, g, J, target)

    monkeypatch.setattr(frames, "CG_STEPS", 1)
    monkeypatch.setattr(frames, "_richardson", logged)
    res = frame_algorithm(CF, VectorName.basis(0), 40)
    (warm, J), = runs
    assert warm and res.iterations == 1 + J
    assert err_sq(res.vector.finite, [Fraction(2, 3), Fraction(-1, 3)]) <= Fraction(1, 1 << 80)


def test_false_bounds_run_cold_richardson(monkeypatch):
    # bounds (1/2, 1/2) on the identity: p.q = p.p lies above B p.p = p.p/2
    # by far more than the slack, so the run is the parent's cold Richardson
    # run: one step of relaxation 2, g = 2 f
    CF = CertifiedFrame(
        Frame(VectorName.basis, Fraction(1, 2), Fraction(1, 2)), OperatorName.identity()
    )
    runs = []
    run = frames._richardson

    def logged(CF, f, g, J, target):
        runs.append((g, J, target))
        return run(CF, f, g, J, target)

    monkeypatch.setattr(frames, "_richardson", logged)
    res = frame_algorithm(CF, VectorName.from_finite(FiniteVector.parse("0:1 1:-1/4")), 20)
    assert runs == [({}, 1, 20)]
    assert res.iterations == 1
    assert res.vector.finite == FiniteVector.parse("0:2 1:-1/2")


# -- the benign frame's columns ----------------------------------------


def benign_s(x: dict[int, Fraction], j: int) -> Fraction:
    """(Sx)_j for S = U U*, U = I + e_0 a'^T, a_i = 2^-i (square sum 4/3)."""
    x0 = x.get(0, Fraction(0))
    if j == 0:
        return x0 * Fraction(4, 3) + sum((q / (1 << i) for i, q in x.items() if i >= 1), Fraction(0))
    return x0 / (1 << j) + x.get(j, Fraction(0))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_benign_columns_within_budget(data):
    # column 0 of S is read at a stage and every other one exactly, all over
    # one denominator D > 1, so the output is rounded onto the grid; draw
    # (m, G, budget) and check ||y - S x|| <= budget
    s_action = _columns(frame_operator(upper_row_frame(benign_sequence())))
    k = data.draw(st.integers(min_value=10, max_value=140))
    budget = Fraction(data.draw(st.integers(min_value=1, max_value=1000)), 1 << k)
    G = clog2(1 / budget) + GUARD_BITS + data.draw(st.integers(min_value=0, max_value=8))
    size = 1 << (G + 3)
    m = data.draw(st.dictionaries(
        st.integers(min_value=1, max_value=40), st.integers(min_value=-size, max_value=size), max_size=8
    ))
    # |x_0| in [2^-8, 8] or 0: the tail a_j x_0 reaches far past the budget
    x0 = st.integers(min_value=size >> 11, max_value=size)
    m[0] = data.draw(st.just(0) | x0 | x0.map(lambda v: -v))
    y = s_action(m, G, budget)
    assert all(isinstance(v, int) for v in y.values())
    x = {i: Fraction(v, 1 << G) for i, v in m.items()}
    x0 = x.get(0, Fraction(0))
    # past both supports y_j = 0 and (Sx)_j = a_j x_0, whose squares sum to x_0^2 * 4^-N * 4/3
    N = max([*m, *y], default=0) + 1
    err = sum((Fraction(y.get(j, 0), 1 << G) - benign_s(x, j)) ** 2 for j in range(N))
    err += x0 * x0 * Fraction(4, 3) / 4**N
    assert err <= budget * budget


# -- one step of the driver ------------------------------------------


def test_step_rounds_to_nearest():
    # S = 7 on Q^1 with A = B = 7: one step g = f/7 on the grid, never a tie;
    # rounding to nearest is odd, so -f gives exactly -g
    section = ExactFrame([[1], [2], [1], [1]])
    E = embed(section)
    CF = CertifiedFrame(Frame(E.elem, 7, 7), E.analysis_op, finite_section=section)
    for q in (Fraction(1), Fraction(3), Fraction(-5, 3)):
        for p in (1, 20, 64):
            g = frame_algorithm(CF, VectorName.from_finite(FiniteVector([(0, q)])), p)
            minus = frame_algorithm(CF, VectorName.from_finite(FiniteVector([(0, -q)])), p)
            assert g.iterations == 1
            assert minus.vector.finite.coefficient(0) == -g.vector.finite.coefficient(0)
            assert abs(g.vector.finite.coefficient(0) - q / 7) <= Fraction(1, 1 << p)
