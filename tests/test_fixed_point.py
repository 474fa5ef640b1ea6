"""The fixed-point Richardson driver and the grid contract of ``s_action``.

The driver keeps its iterate as integer mantissas on one grid 2^-G.
These tests check its answers against exact Fractions from
``framecert.oracle``, both ways of applying S to the benign gallery
frame (its closed-form ``s_action`` and its columns) against their l2
budget, and the rounding of one step.
"""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

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
from framecert.oracle import ExactFrame, NonSpanningError, embed, mat_inv, mat_vec
from framecert.realnames import RealName
from framecert.vectors import FiniteVector, VectorName, linear_combo

LADDER = (32, 64, 96, 128)


@st.composite
def spanning_frames(draw):
    """A random spanning integer frame in Q^d, d <= 4, with B/A <= 64."""
    d = draw(st.integers(min_value=1, max_value=4))
    K = draw(st.integers(min_value=d, max_value=d + 3))
    entry = st.integers(min_value=-3, max_value=3)
    rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=K, max_size=K))
    try:
        section = ExactFrame(rows)
    except NonSpanningError:
        assume(False)
    CF = embed(section)
    assume(CF.upper <= 64 * CF.lower)
    return CF, section


def signal(draw, d: int) -> list[Fraction]:
    q = st.fractions(min_value=-4, max_value=4, max_denominator=9)
    return draw(st.lists(q, min_size=d, max_size=d))


def err_sq(v: FiniteVector, exact: list[Fraction]) -> Fraction:
    assert v.support <= len(exact)
    return sum(((a - b) ** 2 for a, b in zip(v.dense(len(exact)), exact)), Fraction(0))


def hidden(q: Fraction) -> RealName:
    """A name of q that hides its exact value, so inverse_apply iterates."""
    return RealName(lambda n: round_fraction(q, n), abs(q))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_frame_algorithm_against_oracle(data):
    CF, section = data.draw(spanning_frames())
    f = signal(data.draw, section.d)
    p = data.draw(st.integers(min_value=1, max_value=160))
    exact = mat_vec(mat_inv(section.S), f)
    fv = VectorName.from_finite(FiniteVector([(i, q) for i, q in enumerate(f) if q]))
    v = frame_algorithm(CF, fv, p).vector.finite
    assert err_sq(v, exact) <= Fraction(1, 1 << (2 * p))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_inverse_apply_ladder_against_oracle(data):
    CF, section = data.draw(spanning_frames())
    f = signal(data.draw, section.d)
    exact = mat_vec(mat_inv(section.S), f)
    x = inverse_apply(CF, linear_combo([(hidden(q), VectorName.basis(i)) for i, q in enumerate(f)]))
    for p in LADDER:
        # stage p-1 of the limit is the rung solved at p, each warm-started
        # from the one before
        assert err_sq(x.stage(p - 1), exact) <= Fraction(1, 1 << (2 * p))


# -- the benign frame's s_action -------------------------------------


def benign_s(x: dict[int, Fraction], j: int) -> Fraction:
    """(Sx)_j for S = U U*, U = I + e_0 a'^T, a_i = 2^-i (square sum 4/3)."""
    x0 = x.get(0, Fraction(0))
    if j == 0:
        return x0 * Fraction(4, 3) + sum((q / (1 << i) for i, q in x.items() if i >= 1), Fraction(0))
    return x0 / (1 << j) + x.get(j, Fraction(0))


def check_benign_within_budget(data, s_action):
    """Draw (m, G, budget), check ||s_action(m, G, budget) - S x|| <= budget."""
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
    return m, G, budget, y


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_benign_s_action_within_budget(data):
    CF = upper_row_frame(benign_sequence())
    m, G, budget, y = check_benign_within_budget(data, CF.s_action)
    assert all(v != 0 for v in y.values())
    # row 0 is read at the smallest k >= 0 with 5 2^-k sum |x_i| <= budget/2,
    # and y adds no coordinate at or past that stage's support
    mass = sum(abs(Fraction(v, 1 << G)) for v in m.values())
    k = 0
    while 5 * mass > budget / 2 * (1 << k):
        k += 1
    N = CF.analysis_op.col(0).stage(k).support
    assert all(j < N for j in y.keys() - m.keys())


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_benign_columns_within_budget(data):
    # column 0 of S is read at a stage and every other one exactly, all over
    # one denominator D > 1, so the output is rounded onto the grid
    CF = upper_row_frame(benign_sequence())
    bare = CertifiedFrame(CF.frame, CF.analysis_op)
    check_benign_within_budget(data, _columns(frame_operator(bare)))


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
