"""The certified fixed-point driver, its step budget and the S contract.

The driver runs conjugate gradients on integer mantissas on one grid
2^-G, restarted from the true residual, and returns an iterate only once
an exact residual certificate holds.  These tests check its answers
against exact Fractions from ``framecert.oracle`` and from closed forms,
on finite frames, on Riesz blocks whose columns beyond the block are
read through stages, on the benign gallery frame and on diagonal frames
with B/A up to 160^2; the errors raised on refuted frame bounds, on an S
that is not self-adjoint and on a spent step budget; a cycle made to lose
ground, which the run abandons for its first step; the column reader of
the benign frame against its l2 budget; the integer kernel (column
accumulation, the rounded update) against Fraction models; the rounding
of one step; the claim of a run's certificate on signals given by stages
alone; and the grid a frame keeps against its Fraction formulas.
"""

from fractions import Fraction
from math import floor, isqrt
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from framecert import frames
from framecert.dyadic import clog2, clog2_ratio, div_nearest, round_fraction
from framecert.frames import (
    GUARD_BITS,
    CertifiedFrame,
    FalseBoundsError,
    Frame,
    _bounds_test,
    _columns,
    _combine,
    _driver_grid,
    frame_algorithm,
    frame_operator,
    inverse_apply,
)
from framecert.gallery import benign_sequence, upper_row_frame
from framecert.operators import OperatorName, finite_columns
from framecert.oracle import ExactFrame, NonSpanningError, embed, mat_inv
from framecert.realnames import RealName
from framecert.riesz import riesz_as_frame, riesz_from_matrix
from framecert.specfile import load_spec
from framecert.vectors import FiniteVector, VectorName, linear_combo
from framecert.verify import max_iterations
from driver_frames import riesz_shear_by_driver
from fraction_matrices import cofactor_det, mat_vec

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
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
    """A name of q that hides its exact value."""
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
    # without its pseudo-inverse the frame leaves inverse_apply to the driver, and
    # hidden entries keep the signal from being a finite vector
    fv = linear_combo([(hidden(q), VectorName.basis(i)) for i, q in enumerate(f)])
    return CertifiedFrame(CF, CF.analysis_op), fv, lambda v: err_sq(v, exact)


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
    assume(cofactor_det(M) != 0)
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


# -- signals read through stages, at the certificate's scale ----------


def off_by_a_stage(x: dict[int, Fraction], j: int) -> VectorName:
    """x given by stages alone, stage k = x + 2^-k e_j: each a full 2^-k from x,
    as tests/test_section_stages.py draws its signals."""

    def stage(k: int) -> FiniteVector:
        y = dict(x)
        y[j] = y.get(j, 0) + Fraction(1, 1 << k)
        return FiniteVector(sorted((i, q) for i, q in y.items() if q))

    return VectorName.from_stage(stage, sum((abs(q) for q in x.values()), Fraction(1)))


@settings(max_examples=60, deadline=None)
@given(spanning_frames(), st.integers(min_value=0, max_value=60), st.data())
def test_staged_signal_is_solved_within_half_the_target(frame, t, data):
    # the certificate's claim: a run returns x within 2^-(t+1) of S^-1 f.  The
    # signal sits at the scale of its threshold 7 A 2^-(t+4), where a run may
    # return at its first check, so little of the claim is left to spare
    section_frame, section = frame
    CF = CertifiedFrame(section_frame, section_frame.analysis_op)
    u = CF.lower / (1 << (t + 4))
    q = st.fractions(min_value=-12, max_value=12, max_denominator=8)
    x = data.draw(st.dictionaries(st.integers(min_value=0, max_value=section.d - 1), q))
    x = {i: c * u for i, c in x.items() if c}
    j = data.draw(st.integers(min_value=0, max_value=section.d - 1))
    g = frame_algorithm(CF, off_by_a_stage(x, j), t).vector.finite
    exact = mat_vec(mat_inv(section.S), [x.get(i, Fraction(0)) for i in range(section.d)])
    assert err_sq(g, exact) <= Fraction(1, 4 ** (t + 1))


@pytest.mark.parametrize("rows", [[[1]], [[1], [2]], [[2], [2], [1]]])
@pytest.mark.parametrize("t", [0, 7, 30])
def test_first_check_on_a_staged_signal_is_within_half_the_target(rows, t):
    # S = s on Q^1 and x = -c A 2^-(t+4), each stage's error against x's sign.
    # For c up to about 7 plus that error over A 2^-(t+4), the run returns 0 at
    # its first check, x/s away: within 2^-(t+1) only because f is read within
    # A 2^-(t+4).  Read within A 2^-(t+2), some c > 8 s/A would return 0 too
    section = ExactFrame(rows)
    E = embed(section)
    CF = CertifiedFrame(E, E.analysis_op)
    s = section.S[0][0]
    for c in range(8 * 14):
        x = -Fraction(c, 8) * CF.lower / (1 << (t + 4))
        g = frame_algorithm(CF, off_by_a_stage({0: x} if x else {}, 0), t).vector.finite
        assert err_sq(g, [x / s]) <= Fraction(1, 4 ** (t + 1)), c


def diagonal_frame(d: int) -> CertifiedFrame:
    """f_i = (i+1) e_i in Q^d, so B/A = d^2; frame_algorithm runs the driver on it."""
    return embed(ExactFrame([[i + 1 if j == i else 0 for j in range(d)] for i in range(d)]))


@pytest.mark.parametrize("d", [40, 80, 160])
def test_diagonal_frames_certify_within_the_rate_ceiling(d):
    # S^-1 (sum e_i) = sum e_i / (i+1)^2; conjugate gradients need about
    # d steps here, where the Richardson count runs to 10^4-10^6
    CF = diagonal_frame(d)
    f = VectorName.from_finite(FiniteVector([(i, 1) for i in range(d)]))
    for p in (20, 60, 200):
        res = frame_algorithm(CF, f, p)
        v = res.vector.finite
        assert v.support <= d
        assert all(abs(v.coefficient(i) - Fraction(1, (i + 1) ** 2)) <= Fraction(1, 1 << p)
                   for i in range(d))
        assert res.iterations <= max_iterations(CF.lower, CF.upper, f.norm.mag, p)


def test_non_self_adjoint_s_raises():
    # the fixture's adjoint_rows differ from the matrix's rows in one entry
    # that meets a nonzero element, so S = T T*_c is not self-adjoint.
    # Conjugate gradients still converge on it, but not within target + 2
    # steps, and the second step of the next cycle proves it
    CF = load_spec(str(FIXTURES / "false_adjoint_symmetric.json")).certified
    f = VectorName.from_finite(FiniteVector.parse("0:1 1:1"))
    with pytest.raises(FalseBoundsError, match=r"not self-adjoint: step \d+ proves it"):
        frame_algorithm(CF, f, 20)


def test_spent_budget_raises_and_names_it(monkeypatch):
    # read every Richardson count as 1: cap and budget are then target + 2
    # = 22 steps, and the d = 80 diagonal needs 91 at p = 20.  The run
    # takes exactly the budget's steps (one bounds test each) and raises
    monkeypatch.setattr(frames, "richardson_steps", lambda A, B, goal: 1)
    tests = []
    bounds_test = frames._bounds_test

    def counted(A, B, s):
        holds = bounds_test(A, B, s)
        return lambda pp, pq: tests.append(1) or holds(pp, pq)

    monkeypatch.setattr(frames, "_bounds_test", counted)
    f = VectorName.from_finite(FiniteVector([(i, 1) for i in range(80)]))
    with pytest.raises(FalseBoundsError, match="22 steps spent the budget of 22 without"):
        frame_algorithm(diagonal_frame(80), f, 20)
    assert len(tests) == 22


def test_a_cycle_that_loses_ground_goes_back_to_its_first_step(monkeypatch):
    # double the iterate at the first cycle's second step: the recursive
    # residual does not see it, the check that ends the cycle fails, and
    # its energy gain (x - x_s).(r_s + r) is negative, so the run steps on
    # from the first step's iterate x_1 and still certifies
    CF = load_spec(str(FIXTURES / "riesz_shear.json")).certified
    f = VectorName.from_finite(FiniteVector.parse("0:1 1:-1/3 2:2/7"))
    starts, outs = [], []
    combine = frames._combine

    def doubling(u, v, a, c):
        starts.append(u)
        out = combine(u, v, a, c)
        if len(outs) == 3:
            out = {i: 2 * m for i, m in out.items()}
        outs.append(out)
        return out

    monkeypatch.setattr(frames, "_combine", doubling)
    res = frame_algorithm(CF, f, 64)
    assert any(u is outs[0] for u in starts[4:])
    exact = [Fraction(4, 3), Fraction(-5, 3), Fraction(2, 7)]
    assert err_sq(res.vector.finite, exact) <= Fraction(1, 1 << 128)


def test_false_bounds_raise():
    # bounds (1/2, 1/2) on the identity: p.q = p.p lies above B p.p = p.p/2
    # by far more than the slack, so the first step refutes the bounds
    CF = CertifiedFrame(
        Frame(VectorName.basis, Fraction(1, 2), Fraction(1, 2)), OperatorName.identity()
    )
    f = VectorName.from_finite(FiniteVector.parse("0:1 1:-1/4"))
    with pytest.raises(FalseBoundsError, match="step 1"):
        frame_algorithm(CF, f, 20)


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
    # (m, G, budget), pass the budget in grid steps and check ||y - S x|| <= budget
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
    y = s_action(m, budget * (1 << G))
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
    # rounding to nearest is odd, so -f gives exactly -g.  (At p = 1 the
    # run certifies g = 0 for |f| <= 3/2: 1/7 is within 1/2 of 0.)
    section = ExactFrame([[1], [2], [1], [1]])
    E = embed(section)
    CF = CertifiedFrame(Frame(E.elem, 7, 7), E.analysis_op, finite_section=section)
    for q in (Fraction(1), Fraction(3), Fraction(-5, 3)):
        for p in (2, 20, 64):
            g = frame_algorithm(CF, VectorName.from_finite(FiniteVector([(0, q)])), p)
            minus = frame_algorithm(CF, VectorName.from_finite(FiniteVector([(0, -q)])), p)
            assert g.iterations == 1
            assert minus.vector.finite.coefficient(0) == -g.vector.finite.coefficient(0)
            assert abs(g.vector.finite.coefficient(0) - q / 7) <= Fraction(1, 1 << p)


# -- the integer kernel ----------------------------------------------


DENS = (1, 2, 4, 1 << 40, 3, 6, 10, 3 << 20)


@st.composite
def integer_columns(draw):
    """Up to 6 columns over indices 0..5, each in lowest terms over a
    dyadic, a non-dyadic or a unit denominator; some are the negation of
    an earlier one, so that their entries cancel."""
    cols = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        if cols and draw(st.booleans()):
            prev = cols[draw(st.integers(min_value=0, max_value=len(cols) - 1))]
            cols.append(FiniteVector.over(((i, -n) for i, n in prev.nums.items()), prev.den))
            continue
        nums = draw(st.dictionaries(
            st.integers(min_value=0, max_value=5), st.integers(min_value=-50, max_value=50), max_size=5
        ))
        cols.append(FiniteVector.over(nums.items(), draw(st.sampled_from(DENS))))
    return cols


def rational_apply(cols: list[FiniteVector], m: dict[int, int]) -> dict[int, int]:
    """sum_n m_n col_n as one rational combination, each entry rounded by div_nearest."""
    y = FiniteVector.combination((v, cols[n]) for n, v in m.items())
    return {i: div_nearest(v, y.den) for i, v in y.nums.items()}


@settings(max_examples=200, deadline=None)
@given(integer_columns(), st.data())
def test_columns_round_as_the_rational_combination(cols, data):
    # three applications on one table: later ones read new columns, whose
    # denominators may grow the common one
    apply_s = _columns(OperatorName(finite_columns(cols), Fraction(1)))
    mantissa = st.integers(min_value=-(1 << 80), max_value=1 << 80).filter(bool)
    for _ in range(3):
        m = data.draw(st.dictionaries(
            st.integers(min_value=0, max_value=len(cols) - 1), mantissa, max_size=len(cols)
        ))
        y = apply_s(m, Fraction(1 << 20))
        assert all(type(v) is int for v in y.values())
        want = rational_apply(cols, m)
        assert {i: v for i, v in y.items() if v} == {i: v for i, v in want.items() if v}


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.integers(min_value=0, max_value=8), st.integers(min_value=-(1 << 70), max_value=1 << 70)),
    st.dictionaries(st.integers(min_value=0, max_value=8), st.integers(min_value=-(1 << 70), max_value=1 << 70)),
    st.integers(min_value=-(1 << 90), max_value=1 << 90),
    st.sampled_from([1, 2, 4, 6]) | st.integers(min_value=1, max_value=1 << 90),
)
def test_combine_rounds_as_div_nearest(u, v, a, c):
    u = {i: t for i, t in u.items() if t}
    want = dict(u)
    for i, w in v.items():
        want[i] = want.get(i, 0) + div_nearest(a * w, c)
    assert _combine(u, v, a, c) == {i: t for i, t in want.items() if t}


def test_combine_rounds_ties_up():
    # a w / c = k + 1/2 rounds to k + 1, for either sign of a
    assert _combine({}, {0: 1, 1: 3, 2: -1}, 1, 2) == {0: 1, 1: 2}
    assert _combine({0: 5}, {0: 1, 1: 3}, -1, 2) == {0: 5, 1: -1}
    assert _combine({0: 1}, {0: -3}, 1, 6) == {0: 1}


positive = st.fractions(min_value=Fraction(1, 1 << 40), max_value=1 << 20, max_denominator=1 << 40)


@settings(max_examples=300, deadline=None)
@given(positive, positive, positive, st.integers(min_value=0, max_value=1 << 200), st.data())
def test_bounds_test_is_the_rational_test(A, B, s, pp, data):
    # pq is drawn around both ends of [A pp - c s, B pp + c s], so the
    # integer test is checked at its boundary, not only far from it
    A, B = min(A, B), max(A, B)
    c = isqrt(pp - 1) + 1 if pp else 0
    lo, hi = A * pp - c * s, B * pp + c * s
    end = data.draw(st.sampled_from([lo, hi]))
    pq = floor(end) + data.draw(st.integers(min_value=-2, max_value=2))
    assert _bounds_test(A, B, s)(pp, pq) == (lo <= pq <= hi)


# -- the grid, computed once per frame --------------------------------


def grid_in_fractions(A: Fraction, B: Fraction, target: int) -> dict:
    """The driver's grid at one target from its Fraction formulas: the reference for _driver_grid."""
    kappa = -(-B.numerator * A.denominator // (B.denominator * A.numerator))
    b = A / (1 << (target + 4 + kappa.bit_length()))
    bd = b if A + B >= 1 else (A + B) * b
    G = clog2(max(Fraction(1), (A + B) / 2) / bd) + GUARD_BITS
    bound = (A * Fraction(7, 1 << (target + 4)) - 5 * b / 4) * (1 << G)
    return {
        "G": G, "f_stage": max(0, clog2(1 / (A / (1 << (target + 4))))), "kappa": kappa,
        "b": b, "bd": bd, "sigma": -(-b.numerator << G) // b.denominator,
        "sd": -(-bd.numerator << G) // bd.denominator + 1, "bound": bound,
        "num": bound.numerator**2, "den": bound.denominator**2,
    }


@settings(max_examples=300, deadline=None)
@given(positive, positive, st.integers(min_value=0, max_value=300), st.data())
def test_driver_grid_is_the_fraction_grid(A, B, target, data):
    A, B = min(A, B), max(A, B)
    want = grid_in_fractions(A, B, target)
    gshift, fshift, kappa, unit, unit_d, sigma, sd, within_bounds, bound, num, den = _driver_grid(A, B)
    G = target + gshift
    assert (G, max(0, target + fshift), kappa) == (want["G"], want["f_stage"], want["kappa"])
    assert (unit, unit_d) == (want["b"] * (1 << G), want["bd"] * (1 << G))
    assert (sigma, sd, bound, num, den) == tuple(want[k] for k in ("sigma", "sd", "bound", "num", "den"))
    pp = data.draw(st.integers(min_value=0, max_value=1 << 200))
    pq = data.draw(st.integers(min_value=-(1 << 200), max_value=1 << 200))
    assert within_bounds(pp, pq) == _bounds_test(A, B, want["sd"])(pp, pq)
    # the stage _columns reads for a mass of mantissas, with the budget in grid steps
    mass = data.draw(st.integers(min_value=1, max_value=1 << (G + 64)))
    for budget, real in ((unit, want["b"]), (unit_d, want["bd"])):
        k = clog2_ratio(2 * mass * budget.denominator, budget.numerator)
        assert k == clog2(Fraction(2 * mass, 1 << G) / real)


def test_a_frame_computes_its_grid_once(monkeypatch):
    # a second run, at another target, reads the grid the first one kept;
    # a fresh frame with the same elements and bounds computes it again
    calls = []
    driver_grid = frames._driver_grid
    monkeypatch.setattr(frames, "_driver_grid", lambda A, B: calls.append((A, B)) or driver_grid(A, B))
    CF = riesz_shear_by_driver()
    f = VectorName.from_finite(FiniteVector.parse("0:1 1:-1/3 2:2/7"))
    first = frame_algorithm(CF, f, 20)
    kept = CF._grid
    frame_algorithm(CF, f, 64)
    assert calls == [(CF.lower, CF.upper)] and CF._grid is kept
    again = frame_algorithm(riesz_shear_by_driver(), f, 20)
    assert len(calls) == 2 and again.vector.finite == first.vector.finite


def test_warmed_benign_run_builds_no_finite_vector(monkeypatch):
    # once S holds its columns and stages, a run applies S in plain
    # integers: no FiniteVector.combination per application
    CF = upper_row_frame(benign_sequence())
    f = VectorName.from_finite(FiniteVector.parse("0:1 1:-1/3 2:2/7"))
    want = frame_algorithm(CF, f, 128)
    calls = []
    combination = FiniteVector.combination

    def counted(terms):
        calls.append(1)
        return combination(terms)

    monkeypatch.setattr(FiniteVector, "combination", staticmethod(counted))
    res = frame_algorithm(CF, f, 128)
    assert calls == []
    assert res.iterations == want.iterations == 3
    assert res.vector.finite == want.vector.finite
