"""Frames with certified bounds, synthesis/analysis, and S^-1 by iteration.

A :class:`Frame` carries rational frame bounds as caller-supplied
certificates; a :class:`CertifiedFrame` additionally carries a full
operator name for the analysis operator.  Without that certificate only
coefficientwise analysis is available (a :class:`WeakVectorName`): the
type system encodes the boundary between what is and is not computable
from frame data alone.

S^-1 f is computed by one driver, :func:`_conjugate_gradients`, behind
:func:`frame_algorithm` and every stage of :func:`inverse_apply`.  It
runs conjugate gradients in fixed point on one integer grid and returns
an iterate once an exact residual certificate holds (S >= A I, so g is
within ||f - S g|| / A of S^-1 f).  Otherwise it ends with Richardson
steps on the same grid, whose count is set a priori by the geometric
rate (B-A)/(B+A).  S is applied one way, through the columns of
:func:`frame_operator` (:func:`_columns`): finite columns exactly, any
other at a Cauchy stage; the frame keeps S, so every run on it shares
them.  Each step is plain integer arithmetic: S x is one integer
accumulation over the columns' common denominator, rounded once (a shift
when that is a power of two), and the update, the inner products and the
test of the declared bounds build no FiniteVector and no Fraction.  A
step that proves the declared bounds false raises
:class:`FalseBoundsError`.  A finite vector on a finite section is
solved exactly.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from itertools import repeat
from math import isqrt, lcm
from operator import mul
from typing import Callable, Optional

from .dyadic import Immutable, _smallest, clog2, div_nearest, sqrt_upper
from .realnames import RealName, _memoized, lift_arith
from .operators import OperatorName, apply
from .vectors import (
    FiniteVector,
    VectorName,
    WeakVectorName,
    inner,
    strengthen,
    truncate,
)


class Frame(Immutable):
    """Element oracle plus rational frame bounds 0 < A <= B."""

    __slots__ = ("_elem", "lower", "upper")

    def __init__(self, elem: Callable[[int], VectorName], lower, upper):
        object.__setattr__(self, "_elem", _memoized(elem))
        object.__setattr__(self, "lower", Fraction(lower))
        object.__setattr__(self, "upper", Fraction(upper))
        if not 0 < self.lower <= self.upper:
            raise ValueError("frame bounds must satisfy 0 < A <= B")

    def elem(self, i: int) -> VectorName:
        if i < 0:
            raise ValueError("negative frame index")
        return self._elem(i)


class CertifiedFrame(Immutable):
    """Frame plus an operator name for its analysis operator T*.

    ``finite_section`` optionally carries the exact rational vectors of
    an embedded finite-dimensional frame: :func:`inverse_apply` solves
    finite vectors on it exactly, and the verify suites compare with its
    exact projection.  The frame keeps S once :func:`frame_operator`
    builds it, so every solver run on it shares S's columns and stages.
    """

    __slots__ = ("frame", "analysis_op", "finite_section", "_S")

    def __init__(self, frame: Frame, analysis_op: OperatorName, finite_section=None):
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "analysis_op", analysis_op)
        object.__setattr__(self, "finite_section", finite_section)
        object.__setattr__(self, "_S", None)

    def elem(self, i: int) -> VectorName:
        return self.frame.elem(i)

    @property
    def lower(self) -> Fraction:
        return self.frame.lower

    @property
    def upper(self) -> Fraction:
        return self.frame.upper


class FrameCoeffName(VectorName):
    """Frame-coefficient name: the l2 name of k -> <f, S^-1 f_k>.

    It is a :class:`VectorName`; its energy is norm * norm.
    """

    __slots__ = ()

    @property
    def energy(self) -> RealName:
        return lift_arith("mul", self.norm, self.norm)

    def as_vector_name(self) -> VectorName:
        """The coefficient sequence as a full l2 name: the name itself."""
        return self

    @staticmethod
    def from_vector_name(v: VectorName) -> "FrameCoeffName":
        return FrameCoeffName(v._coeff, v._norm, v.finite, v.support_bound, v.stage)


# -- constructors ----------------------------------------------------


def frame_from_onb() -> CertifiedFrame:
    """The orthonormal frame (e_i): A = B = 1, analysis = identity."""
    return CertifiedFrame(
        Frame(VectorName.basis, 1, 1), OperatorName.identity()
    )


def frame_from_operator(
    U: OperatorName,
    C: Fraction,
    adjoint: Optional[OperatorName] = None,
) -> Frame | CertifiedFrame:
    """Frame (U e_k) from a surjective operator with ||U* f|| >= C ||f||.

    Surjectivity is not decidable; C is the caller's certificate.  With
    an adjoint supplied, the analysis columns are exactly the adjoint's
    columns, so the result is certified.
    """
    C = Fraction(C)
    if C <= 0:
        raise ValueError("surjectivity constant must be positive")
    frame = Frame(U.col, C * C, U.norm_bound * U.norm_bound)
    if adjoint is None:
        return frame
    analysis_op = OperatorName(
        adjoint.col, U.norm_bound, support_bound=adjoint.support_bound
    )
    return CertifiedFrame(frame, analysis_op)


def restrict_to_span(CF: CertifiedFrame, v: FiniteVector) -> FiniteVector:
    """v without its coordinates at or past the span dimension d, when known.

    d is the largest support bound of the frame's elements, known when the
    analysis operator's support bound says there are finitely many and
    each element's support bound is set (for an embedded finite frame,
    the dimension of its section).
    """
    K = CF.analysis_op.support_bound
    if K is None:
        return v
    bounds = [CF.elem(k).support_bound for k in range(K)]
    if None in bounds:
        return v
    d = max(bounds, default=0)
    return FiniteVector.over(((i, n) for i, n in v.nums.items() if i < d), v.den)


# -- synthesis / analysis --------------------------------------------


def bessel_synthesis(
    elem: Callable[[int], VectorName],
    bessel_bound: Fraction,
    c: VectorName,
) -> VectorName:
    """Name of sum_k c_k h_k for a Bessel family; tails absorbed by sqrt(D)."""
    return apply(OperatorName(elem, sqrt_upper(Fraction(bessel_bound))), c)


def synthesis(F: Frame, c: VectorName) -> VectorName:
    """Name of sum_k c_k f_k (the synthesis operator applied to c)."""
    return bessel_synthesis(F.elem, F.upper, c)


def synthesis_operator(F: Frame) -> OperatorName:
    return OperatorName(F.elem, sqrt_upper(F.upper))


def analysis_coeffs(F: Frame, f: VectorName) -> WeakVectorName:
    """Coefficientwise analysis: computable without any certificate."""
    return WeakVectorName(
        lambda i: inner(f, F.elem(i)),
        sqrt_upper(F.upper) * f.norm.mag,
    )


def analysis(CF: CertifiedFrame, f: VectorName) -> VectorName:
    """Full l2 name of (<f, f_i>)_i, via the certified analysis operator."""
    return apply(CF.analysis_op, f)


def frame_operator(CF: CertifiedFrame) -> OperatorName:
    """S = T T* with norm bound B: column n is T applied to T* e_n.

    Built on first read and kept on CF (two threads may both build it),
    so each column and each of its stages is computed once per frame.
    The columns hold T and T*, not CF: no cycle keeps a dropped frame.
    """
    if CF._S is None:
        T, Tstar = synthesis_operator(CF.frame), CF.analysis_op
        object.__setattr__(CF, "_S", OperatorName(lambda n: apply(T, Tstar.col(n)), CF.upper))
    return CF._S


# -- the frame algorithm ---------------------------------------------


class FrameAlgorithmResult(Immutable):
    """Outcome of one frame-algorithm run: the iterate and its step count."""

    __slots__ = ("vector", "iterations")

    def __init__(self, vector, iterations):
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "iterations", iterations)


class FalseBoundsError(ValueError):
    """A step of the driver proved the declared frame bounds false."""


# Guard bits of the driver's grid beyond the step budget b: with
# 2^-G <= b 2^-GUARD_BITS, rounding n <= 2^64 coordinates to the nearest
# multiples of 2^-G costs at most sqrt(n) 2^-(G+1) <= 2^-(G-31) <= b/4.
GUARD_BITS = 33


def frame_algorithm(CF: CertifiedFrame, f: VectorName, target: int) -> FrameAlgorithmResult:
    """Approximate S^-1 f within 2^-target from g_0 = 0.

    One run of :func:`_conjugate_gradients`; ``iterations`` counts all its steps.
    """
    if target < 0:
        raise ValueError("target precision must be nonnegative")
    g, steps = _conjugate_gradients(CF, f, FiniteVector(), target)
    return FrameAlgorithmResult(VectorName.from_finite(g), steps)


# Conjugate-gradient steps before a run turns to its Richardson tail.
CG_STEPS = 64


def _conjugate_gradients(
    CF: CertifiedFrame, f: VectorName, g: FiniteVector, target: int
) -> tuple[FiniteVector, int]:
    """S^-1 f within 2^-target, from g: (iterate, steps).

    Grid.  The step budget is b = A 2^-(target+3) and the grid 2^-G, with
    G = clog2(max(1, (A+B)/2) / b) + GUARD_BITS, so rounding onto it costs
    at most min(1, 2/(A+B)) b/4.  f_G is f truncated within b/2 and
    rounded onto the grid, without the coordinates n whose analysis
    column T* e_n is exactly zero: e_n is orthogonal to every f_k, so
    S e_n = 0 and each step would add them again.  S is read from the
    columns of ``frame_operator(CF)`` (:func:`_columns`), and residual(m)
    is m(f_G) - m(y) for y within b of S (m 2^-G).

    Conjugate gradients.  Hestenes-Stiefel steps in fixed point: the
    iterate x, the residual r and the direction p are integer mantissas,
    and each coordinate update is one integer ``div_nearest`` by p.q or
    r.r, where q is S p from the S contract.  The steps only steer; the
    answer is certified a posteriori.

    Certificate.  Let f' be f without the coordinates whose analysis
    column is exactly zero.  Hypothesis: S is self-adjoint with S >= A I
    on a space holding f' and every iterate (combinations of f_G and
    images under S).  Then ||S^-1 f' - x|| <= ||f' - S x|| / A.  f_G is
    within b/2 + b/4 = 3b/4 of f', and y = S x from the contract is
    within b of S x, so ||f' - S x|| <= ||f_G - y|| + 7b/4.  The run
    returns x once the integer N = ||m(f_G) - m(y)||^2 satisfies
    N <= ((A 2^-(target+1) - 7b/4) 2^G)^2, that is ||f_G - y|| <= 9b/4,
    decided exactly; x is then within 2^-(target+1) of S^-1 f'.  The
    check costs one application of S, so it runs only once the recursive
    residual r.r passes the same test; a failed check replaces r by
    m(f_G) - m(y) and restarts the directions.  A warm start's first
    residual is such a check.

    Refuted bounds.  With true bounds, A p.p - s <= p.q <= B p.p + s for
    the slack s = ceil(sqrt(p.p)) (b 2^G + 1) of q's error; a step outside
    that range raises :class:`FalseBoundsError`.  A, B and b 2^G + 1 are
    split into numerator and denominator once per run, and the test is
    decided by integer cross-multiplication.

    Richardson tail.  The certificate's 9b/4 lies below the computed
    residual floor of a converged fixed-point iteration, about
    (9/4) b (1 + B/A), so conjugate gradients alone need not stop.  After
    CG_STEPS steps without a certificate, or at p.q <= 0, the run takes
    J steps x <- x + w (f_G - y), w = 2/(A+B), on the same grid and
    columns.  Each errs from the exact step by at most w b (from f_G) +
    w b (from S) + w b/4 (rounding); they contract by r = (B-A)/(B+A) and
    1/(1-r) = 1/(w A), so the errors add up to at most
    (9/4) b/A < 2^-(target+1).  The certified
    err = (ceil(sqrt(N)) 2^-G + 7b/4)/A bounds ||S^-1 f' - x||, and J is
    the smallest with r^J err <= 2^-(target+2) (:func:`richardson_steps`):
    x ends within 2^-target.
    """
    A, B = CF.lower, CF.upper
    b = A * Fraction(1, 1 << (target + 3))
    G = clog2(max(Fraction(1), (A + B) / 2) / b) + GUARD_BITS
    f_fin, _ = truncate(f, b / 2)
    fm = {i: m for i, m in _to_grid(f_fin, G).items() if not _outside_span(CF, i)}
    apply_s = _columns(frame_operator(CF))

    def residual(m: dict[int, int]) -> dict[int, int]:
        out = dict(fm)
        for i, w in apply_s(m, G, b).items():
            t = out.get(i, 0) - w
            if t:
                out[i] = t
            else:
                out.pop(i, None)
        return out

    within_bounds = _bounds_test(A, B, b * (1 << G) + 1)
    bound = (A / (1 << (target + 1)) - 7 * b / 4) * (1 << G)
    num, den = bound.numerator**2, bound.denominator**2
    x = _to_grid(g, G)
    r = p = residual(x)
    rr, checked, steps = _dot(r, r), True, 0
    while steps < CG_STEPS:
        if rr * den <= num:
            if checked:
                return FiniteVector.over(x.items(), 1 << G), steps
            r = p = residual(x)
            rr, checked = _dot(r, r), True
            continue
        q = apply_s(p, G, b)
        pp, pq = _dot(p, p), _dot(p, q)
        if not within_bounds(pp, pq):
            raise FalseBoundsError(
                f"declared frame bounds A = {A}, B = {B} are false: "
                f"<p, S p> lies outside [A, B] ||p||^2 at step {steps + 1}"
            )
        if pq <= 0:
            break
        x, r = _combine(x, p, rr, pq), _combine(r, q, -rr, pq)
        rr, old = _dot(r, r), rr
        p, checked, steps = _combine(r, p, rr, old), False, steps + 1
    if not checked:
        r = residual(x)
        rr = _dot(r, r)
    err = (Fraction(_ceil_sqrt(rr), 1 << G) + 7 * b / 4) / A
    J, w = richardson_steps(A, B, err * (1 << (target + 2))), Fraction(2) / (A + B)
    for _ in range(J):
        x = _combine(x, residual(x), w.numerator, w.denominator)
    return FiniteVector.over(x.items(), 1 << G), steps + J


def richardson_steps(A: Fraction, B: Fraction, goal: Fraction) -> int:
    """The smallest J >= 1 with ((B+A)/(B-A))^J >= goal, and 1 when A = B.

    Each test is exact, without forming the power (J times the ratio's
    bits; J passes 10^6 at B/A = 4*10^4) unless its roundings down and up
    on 2^-q, q doubling, never put goal on one side."""
    if A == B:
        return 1
    r = (B + A) / (B - A)
    n, d = r.numerator, r.denominator

    def at_least(J: int) -> bool:
        q = 64
        while q < J * n.bit_length():
            lo = hi = 1 << q
            for bit in bin(J)[2:]:
                lo, hi = lo * lo >> q, -(-hi * hi >> q)
                if bit == "1":
                    lo, hi = lo * n // d, -(-hi * n // d)
            if lo >= goal * (1 << q) or hi < goal * (1 << q):
                return lo >= goal * (1 << q)
            q *= 2
        return r**J >= goal

    return _smallest(at_least)


def _combine(u: dict[int, int], v: dict[int, int], a: int, c: int) -> dict[int, int]:
    """Nonzero entries of u + round(a v / c) for c > 0, rounded within 1/2
    as ``div_nearest`` rounds: (2 a w + c) // 2c."""
    out, a2, c2 = dict(u), 2 * a, 2 * c
    for i, w in v.items():
        t = out.get(i, 0) + (a2 * w + c) // c2
        if t:
            out[i] = t
        else:
            out.pop(i, None)
    return out


def _bounds_test(A: Fraction, B: Fraction, s: Fraction) -> Callable[[int, int], bool]:
    """The test (pp, pq) -> A pp - c s <= pq <= B pp + c s, c = ceil(sqrt(pp)),
    decided in integers: each side times the denominators of A (or B) and s."""
    (an, ad), (bn, bd), (sn, sd) = A.as_integer_ratio(), B.as_integer_ratio(), s.as_integer_ratio()
    lo_p, lo_c, lo_q = an * sd, sn * ad, ad * sd
    hi_p, hi_c, hi_q = bn * sd, sn * bd, bd * sd

    def holds(pp: int, pq: int) -> bool:
        c = _ceil_sqrt(pp)
        return lo_p * pp - lo_c * c <= lo_q * pq and hi_q * pq <= hi_p * pp + hi_c * c

    return holds


def _ceil_sqrt(n: int) -> int:
    return isqrt(n - 1) + 1 if n else 0


def _dot(u: dict[int, int], v: dict[int, int]) -> int:
    return sum(map(mul, u.values(), map(v.get, u, repeat(0))))


def _to_grid(v: FiniteVector, G: int) -> dict[int, int]:
    """Nonzero mantissas of the nearest multiples of 2^-G to v's entries."""
    return {i: m for i, n in v.nums.items() if (m := div_nearest(n << G, v.den))}


def _outside_span(CF: CertifiedFrame, n: int) -> bool:
    """Whether the analysis column T* e_n is exactly the zero vector."""
    col = CF.analysis_op.col(n).finite
    return col is not None and not col.nums


def _columns(S: OperatorName):
    """The one way to apply S in the driver, read from its columns.

    The contract is a callable (m, G, budget) -> y taking integer
    mantissas m of x = m 2^-G (a dict index -> int) to mantissas y on the
    same grid with ||y 2^-G - S x|| <= budget in l2; callers keep
    G >= clog2(1/budget) + GUARD_BITS, so rounding onto the grid fits in
    the budget.  Column n of S is read on first use, and kept as its
    integer numerators over its denominator: exactly when it is a finite
    vector, else at stage k, where 2^-k sum |x_n| <= budget/2 with the sum
    over the columns that are not finite, so their errors add up to at
    most budget/2; it is read again at a finer stage when a later x needs
    one.  sum_n m_n col_n is accumulated in plain integers over the lcm L
    of the denominators of the columns read so far, which is S x 2^G L up
    to the stages' error, and each entry v is rounded once onto the grid,
    as (2v + L) // 2L, or (v + 2^(s-1)) >> s when L = 2^s (every stage of
    an inexact name is dyadic); any common denominator rounds to the same
    integer, and rounding costs at most budget/4 under the GUARD_BITS
    rule, and nothing when L = 1.  No FiniteVector is built per call.  The
    table is per run; S memoizes the columns and stages for every run on
    its frame.
    """
    # column n as its (index, numerator) pairs over dens[n], and the factor
    # L // dens[n] for the lcm L of the denominators held
    cols: dict[int, tuple[tuple[int, int], ...]] = {}
    dens: dict[int, int] = {}
    scale: dict[int, int] = {}
    staged: dict[int, int] = {}  # stage held in cols[n] for each column that is not finite
    L = 1

    def apply_s(x: dict[int, int], G: int, budget: Fraction) -> dict[int, int]:
        nonlocal L
        read: dict[int, FiniteVector] = {}
        for n in x.keys() - cols.keys() - staged.keys():
            c = S.col(n).finite
            if c is None:
                staged[n] = -1
            else:
                read[n] = c
        if staged:
            mass = sum(abs(x[n]) for n in staged if n in x)
            k = max(0, clog2(Fraction(2 * mass, 1 << G) / budget)) if mass else 0
            for n, held in staged.items():
                if held < k and n in x:
                    read[n], staged[n] = S.col(n).stage(k), k
        if read:
            for n, c in read.items():
                cols[n], dens[n] = tuple(c.nums.items()), c.den
            grown = lcm(L, *(c.den for c in read.values()))
            for n in read if grown == L else dens:
                scale[n] = grown // dens[n]
            L = grown
        acc: dict[int, int] = {}
        get = acc.get
        for n, m in x.items():
            m *= scale[n]
            for i, v in cols[n]:
                acc[i] = get(i, 0) + m * v
        if L == 1:
            return acc
        if L & (L - 1):
            L2 = 2 * L
            return {i: (2 * v + L) // L2 for i, v in acc.items()}
        s = L.bit_length() - 1
        half = 1 << (s - 1)
        return {i: (v + half) >> s for i, v in acc.items()}

    return apply_s


def inverse_apply(CF: CertifiedFrame, f: VectorName) -> VectorName:
    """Genuine name of S^-1 f: stage k is a frame-algorithm run at target >= k.

    A finite f on a frame with a finite section is solved exactly; its
    coordinates from the section's dimension d on lie outside the frame's
    space and are dropped.  Otherwise nothing runs until a stage is read
    (||S^-1 f|| <= ||f||/A bounds it beforehand), and coefficients and
    norm are read from the stages.  Stage k is the run at the smallest
    target t >= k already computed, being within 2^-t <= 2^-k; without
    one, a certified run at target k (:func:`_conjugate_gradients`)
    starts from the finest run computed so far.
    """
    section = CF.finite_section
    if section is not None and f.finite is not None:
        return VectorName.from_finite(section.solve(f.finite))

    cache: dict[int, FiniteVector] = {}
    lock = threading.Lock()

    def stage(k: int) -> FiniteVector:
        with lock:
            finer = [t for t in cache if t >= k]
            if finer:
                k = min(finer)
            else:
                g = cache[max(cache)] if cache else FiniteVector()
                cache[k], _ = _conjugate_gradients(CF, f, g, k)
        return cache[k]

    return VectorName.from_stage(
        stage, f.norm.mag / CF.lower, None if section is None else section.d
    )


# -- representation converters and recovery ---------------------------


def pseudo_inverse(CF: CertifiedFrame, f: VectorName) -> FrameCoeffName:
    """T+ f = (<f, S^-1 f_k>)_k with its energy, as a frame-coefficient name."""
    tilde_f = inverse_apply(CF, f)
    coeffs = analysis(CF, tilde_f)
    return FrameCoeffName.from_vector_name(coeffs)


def frame_name_of(CF: CertifiedFrame, f: VectorName) -> FrameCoeffName:
    """Representation converter: Fourier-style name to frame-coefficient name."""
    return pseudo_inverse(CF, f)


def reconstruct(CF: CertifiedFrame, c: FrameCoeffName) -> VectorName:
    """Decode a frame-coefficient name: f = sum_k c_k f_k."""
    return synthesis(CF.frame, c)


def frame_from_analysis(
    Tstar: OperatorName,
    norms: Callable[[int], RealName],
    lower: Fraction,
    upper: Fraction,
) -> CertifiedFrame:
    """Recover a certified frame from its analysis operator and element norms.

    Coefficient n of f_i is coefficient i of T*(e_n); the norm oracle
    upgrades each coefficientwise row to a full vector name.
    """
    norms = _memoized(norms)

    def elem(i: int) -> VectorName:
        w = WeakVectorName(
            lambda n: Tstar.col(n).coeff(i), norms(i).mag
        )
        return strengthen(w, norms(i))

    return CertifiedFrame(Frame(elem, lower, upper), Tstar)


def complete_dual_gram_row(row: Callable[[int], RealName], n: int) -> RealName:
    """Energy of a dual-Gram row from its diagonal entry alone.

    Row n of the dual Gram matrix, <f_m, S^-1 f_n>, is column n of the
    orthogonal projection P onto the range of T*, so its energy
    ||P e_n||^2 = <P e_n, e_n> is exactly the diagonal entry row(n).
    """
    return row(n)


def range_projection(CF: CertifiedFrame) -> OperatorName:
    """Orthogonal projection of l2 onto the range of T*.

    It is the cross-Gram operator of CF with itself: column k is the
    analysis image of the canonical-dual element S^-1 f_k.
    """
    from .duality import cross_gram_operator

    return cross_gram_operator(CF, CF, Fraction(1))
