"""Cauchy stages: truncation reads a stage, and precision stays linear.

Every internally built vector name carries stage(k) within 2^-k of the
point; truncate answers from it instead of certifying a tail through a
square root of the norm, which would double the bits asked for at every
nesting level.
"""

from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from framecert.dyadic import Dyadic, round_fraction
from framecert.frames import analysis, inverse_apply, pseudo_inverse, synthesis
from framecert.oracle import ExactFrame, embed, exact_frame_solve, mat_inv
from framecert.realnames import ONE_NAME, RealName
from framecert.riesz import riesz_as_frame, riesz_from_matrix
from framecert.specfile import load_spec
from framecert.vectors import FiniteVector, VectorName, linear_combo, sqrt_of_fraction, truncate
from driver_frames import riesz_shear_by_driver
from fraction_matrices import mat_vec

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def recorded_signal(asked: list[int]) -> VectorName:
    """Oracle-given x_i = (3/2) 4^-i (no stage); every query's n lands in ``asked``."""

    def coeff(i: int) -> RealName:
        q = Fraction(3, 2) / 4**i

        def fn(n: int) -> Dyadic:
            asked.append(n)
            return round_fraction(q, n)

        return RealName(fn, q)

    sq = Fraction(12, 5)  # ||x||^2 = (9/4) * 16/15

    def norm(n: int) -> Dyadic:
        asked.append(n)
        k = n + 1
        return Dyadic(isqrt(sq.numerator * (1 << (2 * k)) // sq.denominator), -k)

    return VectorName(coeff, RealName(norm, 2))


@pytest.mark.parametrize("fixture", ["riesz_shear.json", "gallery_ex37_benign.json"])
@pytest.mark.parametrize("p", [16, 24, 34])
def test_precision_amplification_ceiling(fixture, p):
    CF = load_spec(str(FIXTURES / fixture)).certified
    asked: list[int] = []
    got = pseudo_inverse(CF, recorded_signal(asked)).coeff(1).approx(p)
    # both frames leave coordinate 1 of the signal in place: (T^-1 x)_1 = x_1
    assert abs(got.as_fraction() - Fraction(3, 8)) <= Fraction(1, 1 << p)
    assert max(asked) <= 2 * p + 64
    # and exactly these bits, which pins every stage index on the way
    assert max(asked) == 2 * p + 18


def staged_signal(asked: list[int]) -> VectorName:
    """The same x_i = (3/2) 4^-i given by a Cauchy stage; every k asked lands in ``asked``.

    Stage k keeps x_0..x_{N-1} exactly, N = k//2 + 1: the tail's norm
    sqrt(12/5) 4^-N is at most 2^-k.
    """

    def stage(k: int) -> FiniteVector:
        asked.append(k)
        return FiniteVector([(i, Fraction(3, 2) / 4**i) for i in range(k // 2 + 1)])

    return VectorName.from_stage(stage, Fraction(2))


@pytest.mark.parametrize("fixture", ["riesz_shear.json", "gallery_ex37_benign.json"])
@pytest.mark.parametrize("p", [16, 64, 256])
def test_staged_input_amplification_is_additive(fixture, p):
    # a staged input is asked for p + O(1) bits, not the 2p + O(1) that
    # certifying a tail through the norm costs above
    CF = load_spec(str(FIXTURES / fixture)).certified
    asked: list[int] = []
    got = pseudo_inverse(CF, staged_signal(asked)).coeff(1).approx(p)
    assert abs(got.as_fraction() - Fraction(3, 8)) <= Fraction(1, 1 << p)
    assert max(asked) <= p + 16
    assert max(asked) == p + 3


# -- truncate on staged names against the exact oracle ---------------


def generic(q: Fraction) -> RealName:
    """A name of q that hides its exact value, so nothing shortcuts."""
    return RealName(lambda n: round_fraction(q, n), abs(q))


@st.composite
def frames(draw):
    """A finite frame (identity plus extra rows) or a unit-triangular Riesz block.

    Returns the certified frame, the block size d and the exact frame
    operator S on the first d coordinates; both kinds keep every vector
    supported there.
    """
    d = draw(st.integers(min_value=2, max_value=3))
    entry = st.integers(min_value=-1, max_value=1)
    if draw(st.booleans()):
        extra = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=1, max_size=2))
        rows = [[int(i == j) for j in range(d)] for i in range(d)] + extra
        section = ExactFrame(rows)
        return embed(section), d, exact_frame_solve(section).S
    M = [[1 if i == j else (draw(entry) if j > i else 0) for j in range(d)] for i in range(d)]
    R = riesz_from_matrix(M, mat_inv(M))
    columns = [[M[i][n] for i in range(d)] for n in range(d)]
    return riesz_as_frame(R), d, exact_frame_solve(ExactFrame(columns)).S


def _dense(v: FiniteVector, d: int) -> list[Fraction]:
    assert v.support <= d
    return v.dense(d)


@settings(max_examples=30, deadline=None)
@given(
    frames(),
    st.lists(st.sampled_from(["inverse", "frame_op", "combo"]), min_size=1, max_size=3),
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=8), min_size=4, max_size=4),
    st.integers(min_value=0, max_value=30),
)
def test_truncate_of_staged_name_is_within_eps(frame, ops, qs, k):
    CF, d, S = frame
    x = linear_combo([(generic(qs[0]), VectorName.basis(0)), (generic(qs[1]), VectorName.basis(1))])
    exact = [qs[0], qs[1]] + [Fraction(0)] * (d - 2)
    for op in ops:
        if op == "inverse":
            x = inverse_apply(CF, x)
            exact = mat_vec(mat_inv(S), exact)
        elif op == "frame_op":
            x = synthesis(CF.frame, analysis(CF, x))
            exact = mat_vec(S, exact)
        else:
            x = linear_combo([(generic(qs[2]), x), (generic(qs[3]), VectorName.basis(d - 1))])
            exact = [qs[2] * e for e in exact]
            exact[d - 1] += qs[3]
        assert x.stage is not None
    v, _ = truncate(x, Fraction(1, 1 << k))
    err_sq = sum((a - b) ** 2 for a, b in zip(_dense(v, d), exact))
    assert err_sq <= Fraction(1, 1 << (2 * k))


@st.composite
def oracle_names(draw):
    """A name given as coefficients plus a norm, every exact value hidden.

    Returns the name, a function i -> its exact coefficient, its exact
    tail energy sum_{i >= M} x_i^2 as a function of M, and the list that
    records the precision of every coefficient query.  The vector is a
    finite list (with or without a support bound) or c r^i for r = 1/2,
    1/4 or 3/4, whose squared norm is c^2 / (1 - r^2).
    """
    asked: list[int] = []
    if draw(st.booleans()):
        q = draw(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=9), max_size=5))
        exact = lambda i: q[i] if i < len(q) else Fraction(0)
        tail = lambda M: sum((c * c for c in q[M:]), Fraction(0))
        bound = draw(st.sampled_from([None, len(q), len(q) + 2]))
    else:
        c = draw(st.fractions(min_value=-2, max_value=2, max_denominator=9))
        r = draw(st.sampled_from([Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)]))
        exact = lambda i: c * r**i
        tail = lambda M: c * c * r ** (2 * M) / (1 - r * r)
        bound = None
    sq = tail(0)

    def coeff(i: int) -> RealName:
        def fn(n: int) -> Dyadic:
            asked.append(n)
            return round_fraction(exact(i), n)

        return RealName(fn, abs(exact(i)))

    def norm(n: int) -> Dyadic:
        return Dyadic(isqrt(sq.numerator * (1 << (2 * n)) // sq.denominator), -n)

    x = VectorName(coeff, RealName(norm, isqrt(int(sq)) + 1), support_bound=bound)
    return x, exact, tail, asked


@settings(max_examples=60, deadline=None)
@given(oracle_names(), st.integers(min_value=0, max_value=40))
def test_oracle_name_stages_are_within_precision(name, k):
    x, exact, tail, asked = name
    eps = Fraction(1, 1 << k)
    v, n = truncate(x, eps)
    assert n == v.support and v is x.stage(k)
    err_sq = sum(((v.coefficient(i) - exact(i)) ** 2 for i in range(n)), Fraction(0)) + tail(n)
    assert err_sq <= eps * eps
    before = len(asked)
    assert truncate(x, eps) == (v, n)
    assert len(asked) == before


def test_slowly_decaying_oracle_name_certifies_its_cut():
    # x_i = sqrt(1 / ((i+1)(i+2))): ||x|| = 1 and tail(N)^2 = 1/(N+1), so
    # the cut must reach N = 4^(k+1); the bound's excess is at most
    # 4^-(k+1) / 8, so it stops by 2 4^(k+1), where tail^2 < 4^-(k+1) / 2.
    # Over this x a precision that does not grow with N never certifies
    # once k is large: the excess grows like ln N
    x = VectorName(lambda i: sqrt_of_fraction(Fraction(1, (i + 1) * (i + 2))), ONE_NAME)
    for k in range(6):
        v = x.stage(k)
        assert 4 ** (k + 1) <= v.support + 1 and v.support <= 2 * 4 ** (k + 1)
        # ||x - v||^2 = ||v||^2 - 2 <v, x> + 1, and 0 <= lo_i <= x_i, v_i > 0
        assert min(v.nums.values()) > 0
        b = 2 * k + 40
        lo = sum(
            n * isqrt((1 << (2 * b)) // ((i + 1) * (i + 2))) for i, n in v.nums.items()
        )
        assert v.norm_squared() - 2 * Fraction(lo, v.den << b) + 1 <= Fraction(1, 4**k)


@pytest.mark.parametrize("k", [0, 3, 10, 30])
def test_tail_cut_holds_against_oracles_that_spend_their_error(k):
    # x = (1, x_1) with x_1^2 just above 4^-(k+1), so N = 1 must not be
    # the cut.  The coefficient oracle errs up and the norm oracle down,
    # each by (almost) all of its 2^-n, which shrinks U as far as they may;
    # a bound without its e margins would then pass N = 1
    x1 = Fraction(1 + (1 << 10), 1 << (k + 11))
    sq = 1 + x1 * x1
    G = 20

    def coeff(i: int) -> RealName:
        q = (Fraction(1), x1)[i] if i < 2 else Fraction(0)
        # within 2^-n above q: floor((q + 2^-n) 2^(n+G)) / 2^(n+G)
        return RealName(lambda n: Dyadic((q.numerator << (n + G)) // q.denominator + (1 << G), -(n + G)), q)

    def norm(n: int) -> Dyadic:
        # within 2^-n below ||x||
        r = isqrt((sq.numerator << (2 * (n + G))) // sq.denominator)
        return Dyadic(r - (1 << G) + 1, -(n + G))

    v = VectorName(coeff, RealName(norm, 2)).stage(k)
    assert v.support == 2


def test_finite_norm_is_lazy_and_unchanged():
    v = FiniteVector.parse("0:1 1:1")
    x = VectorName.from_finite(v)
    assert x._norm is None
    assert x.norm.mag == 2  # sqrt_of_fraction(2): a sqrt_name with mag max(1, 2)
    assert x._norm is x.norm
    assert VectorName.from_finite(FiniteVector.parse("0:3 1:4")).norm.exact == 5
    assert truncate(x, Fraction(1, 1 << 40)) == (v, 2)


# -- names read from their stages ------------------------------------


def _within_sqrt(a: Fraction, q: Fraction, e: Fraction) -> bool:
    """|a - sqrt(q)| <= e, decided exactly."""
    return (a - e <= 0 or (a - e) ** 2 <= q) and q <= (a + e) ** 2


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=9), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.fractions(min_value=-1, max_value=1, max_denominator=16),
)
def test_from_stage_reads_coefficients_and_norm_within_precision(v, j, l, s):
    # stage(k) = v + delta_k with delta_k = s 2^-k (3/5 e_j + 4/5 e_l) when
    # j != l, and s 2^-k e_j otherwise: ||delta_k|| <= 2^-k
    weights = {j: Fraction(3, 5), l: Fraction(4, 5)} if j != l else {j: Fraction(1)}
    exact = FiniteVector(enumerate(v))

    def stage(k: int) -> FiniteVector:
        delta = FiniteVector(sorted((i, s * w / (1 << k)) for i, w in weights.items()))
        return FiniteVector.combination([(1, exact), (1, delta)])

    x = VectorName.from_stage(stage, sum(abs(q) for q in v))
    for n in (0, 1, 5, 17, 40):
        e = Fraction(1, 1 << n)
        for i in range(len(v) + 3):
            assert abs(x.coeff(i).approx(n).as_fraction() - exact.coefficient(i)) <= e
        assert _within_sqrt(x.norm.approx(n).as_fraction(), exact.norm_squared(), e)


def test_inverse_apply_runs_only_the_stages_read(monkeypatch):
    # building S^-1 f and its analysis image runs nothing; one coefficient
    # at 2^-30 reads stage 31 of S^-1 f, which is one run at target 31
    import framecert.frames as frames_module

    CF = riesz_shear_by_driver()
    targets: list[int] = []
    run = frames_module._conjugate_gradients

    def logged(CF, f, g, target):
        targets.append(target)
        return run(CF, f, g, target)

    monkeypatch.setattr(frames_module, "_conjugate_gradients", logged)
    g = inverse_apply(CF, VectorName.from_finite(FiniteVector.parse("0:2 1:1/3")))
    analysis(CF, g)
    assert targets == []
    g.coeff(0).approx(30)
    assert targets == [31]


def test_inverse_apply_reuses_a_finer_run(monkeypatch):
    # a run at target 43 is within 2^-40 already, so stage 40 reads it
    import framecert.frames as frames_module

    CF = riesz_shear_by_driver()
    f = VectorName.from_finite(FiniteVector.parse("0:2 1:1/3"))
    targets: list[int] = []
    run = frames_module._conjugate_gradients

    def logged(CF, f, g, target):
        targets.append(target)
        return run(CF, f, g, target)

    monkeypatch.setattr(frames_module, "_conjugate_gradients", logged)
    g = inverse_apply(CF, f)
    g.coeff(0).approx(42)
    assert targets == [43]
    got = g.coeff(1).approx(39).as_fraction()
    assert targets == [43]
    fresh = inverse_apply(CF, f).coeff(1).approx(39).as_fraction()
    assert targets == [43, 40]
    assert abs(got - fresh) <= Fraction(2, 1 << 39)
