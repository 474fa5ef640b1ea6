"""Frames with certified bounds, synthesis/analysis, and S^-1 by iteration.

A :class:`Frame` is an element oracle n -> f_n, memoized, with rational
frame bounds as caller-supplied certificates; a :class:`CertifiedFrame`
is a frame that also carries a full operator name for the analysis
operator T*.  Without that certificate only coefficientwise analysis is
available (a :class:`WeakVectorName`): the type system encodes the
boundary between what is and is not computable from frame data alone.

S^-1 f is computed by one driver, :func:`_conjugate_gradients`, behind
:func:`frame_algorithm` and every stage of :func:`inverse_apply`: one
loop of conjugate gradients in fixed point, restarted from the true
residual, that returns an iterate only once an exact residual
certificate holds.  A step that refutes S = S* with A <= S <= B, or a
run that spends its proved step budget, raises :class:`FalseBoundsError`.
A finite vector on a finite section is solved exactly.
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
    """Element oracle plus rational frame bounds 0 < A <= B.

    ``elem`` is the memoized oracle i -> f_i itself (see :func:`_memoized`).
    """

    __slots__ = ("elem", "lower", "upper")

    def __init__(self, elem: Callable[[int], VectorName], lower, upper):
        object.__setattr__(self, "elem", _memoized(elem))
        object.__setattr__(self, "lower", Fraction(lower))
        object.__setattr__(self, "upper", Fraction(upper))
        if not 0 < self.lower <= self.upper:
            raise ValueError("frame bounds must satisfy 0 < A <= B")


class CertifiedFrame(Frame):
    """A frame that also carries an operator name for its analysis operator T*.

    It takes the element oracle and bounds of ``frame`` as they are, so
    both frames share one element memo.  ``finite_section`` optionally
    carries the exact rational vectors of an embedded finite-dimensional
    frame: :func:`inverse_apply` solves finite vectors on it exactly, and
    the verify suites compare with its exact projection.  The frame keeps
    S once :func:`frame_operator` builds it, so every solver run on it
    shares S's columns and stages.
    """

    __slots__ = ("analysis_op", "finite_section", "_S")

    def __init__(self, frame: Frame, analysis_op: OperatorName, finite_section=None):
        for name in Frame.__slots__:
            object.__setattr__(self, name, getattr(frame, name))
        object.__setattr__(self, "analysis_op", analysis_op)
        object.__setattr__(self, "finite_section", finite_section)
        object.__setattr__(self, "_S", None)

    @property
    def frame(self) -> "CertifiedFrame":
        """The frame itself, for perfbench/client.py, which reads ``.frame``."""
        return self


class FrameCoeffName(VectorName):
    """Frame-coefficient name: the l2 name of k -> <f, S^-1 f_k>.

    It is a :class:`VectorName`; its energy is norm * norm.
    """

    __slots__ = ()

    @property
    def energy(self) -> RealName:
        return lift_arith("mul", self.norm, self.norm)

    def as_vector_name(self) -> VectorName:
        """The coefficient sequence as a full l2 name: the name itself, for
        perfbench/client.py, which reads it."""
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
        T, Tstar = synthesis_operator(CF), CF.analysis_op
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
    """A run of the driver refuted its hypothesis: S self-adjoint, A <= S <= B."""


# Guard bits of the driver's grid beyond a budget d of S's contract: with
# 2^-G <= d 2^-GUARD_BITS, rounding n <= 2^64 coordinates to the nearest
# multiples of 2^-G costs at most sqrt(n) 2^-(G+1) <= 2^-(G-31) <= d/4.
GUARD_BITS = 33


def frame_algorithm(CF: CertifiedFrame, f: VectorName, target: int) -> FrameAlgorithmResult:
    """Approximate S^-1 f within 2^-target from g_0 = 0.

    One run of :func:`_conjugate_gradients`; ``iterations`` counts all its steps.
    """
    if target < 0:
        raise ValueError("target precision must be nonnegative")
    g, steps = _conjugate_gradients(CF, f, FiniteVector(), target)
    return FrameAlgorithmResult(VectorName.from_finite(g), steps)


def _conjugate_gradients(
    CF: CertifiedFrame, f: VectorName, g: FiniteVector, target: int
) -> tuple[FiniteVector, int]:
    """S^-1 f within 2^-target, from g: (iterate, steps).

    Grid.  With k = ceil(B/A), b = A 2^-(target+4+clog2(1+k)) and bd =
    min(1, A+B) b, the grid is 2^-G, G = clog2(max(1, (A+B)/2)/bd) +
    GUARD_BITS: rounding onto it costs at most bd/4, and S times that at
    most b/2.  f_G is f truncated within A 2^-(target+4), on the grid,
    without the coordinates n whose analysis column T* e_n is exactly zero
    (S e_n = 0, so each step would add them again).  :func:`_columns`
    reads S within b for a check's y = S x, within bd for a step's q = S p.

    Steps.  Hestenes-Stiefel steps on integer mantissas of x, the residual
    r and the direction p.  A check sets p = r = m(f_G) - m(y) and starts
    a cycle: at the run's start, once r.r passes the test below, at p.q <=
    0 and after cap steps.  Hypothesis: S = S* with A <= S <= B on a space
    holding f' (f without the dropped coordinates), f_G and all vectors.  So
    ||S^-1 f' - x|| <= (||f_G - y|| + A 2^-(target+4) + 5b/4)/A, and a
    check returns x, within 2^-(target+1) of S^-1 f', once ||m(f_G) -
    m(y)||^2 <= (theta 2^G)^2, theta = 7 A 2^-(target+4) - 5b/4.  It also
    gives A p.p - e <= p.q <= B p.p + e, e = ceil(sqrt(p.p)) (bd 2^G + 1),
    and |p0.q - p.q0| <= ceil(sqrt(2 (p.p + p0.p0))) (bd 2^G + 1) at a
    cycle's second step, for the first's p0, q0 (tested from step target +
    2 on); a step outside either raises :class:`FalseBoundsError`.

    Budget.  Let E(x) = ||S^-1 f_G - x||_S, rho = f_G - S x, c = (B-A)/(B+A),
    c' = 1 - 1/(5 + 5B/A).  A cycle starts at a failed check at x_s, so
    mu = b/(theta - b) <= 1/(5 + 5B/A) bounds b/||rho||, |r.(r - rho)| <=
    r.r/10 and |r.(q - S r)| <= A r.r/5.  Its first step x_1 = x_s + a r +
    e, a = r.r/r.q, is steepest descent: a = (1+t) a* with |t| <= 2/5 for
    the line minimum a* = r.rho/r.S r, so E(x_s + a r)^2 = E^2 - (1 - t^2)
    (r.rho)^2/r.S r; (r.rho)^2/r.S r >= (16/25) (rho.rho)^2/rho.S rho >=
    (16/25)(1 - c^2) E^2 (Kantorovich); and sqrt(B) ||e|| <= b/(2 sqrt(B))
    < (mu/2) E.  So E(x_1) <= (1 - (1/4)(1 - c^2) + mu/2) E(x_s) <= c'
    E(x_s).  The check ending the cycle at x keeps x only if (x - x_s).(r_s
    + r) - 2b ||x - x_s|| >= D/2, D = (r.r)^2/r.q the first step's gain,
    and else checks x_1; as S = S*, the left side is at most E(x_s)^2 -
    E(x)^2 = (x - x_s).(rho_s + rho), and D >= (2/5)(1 - c^2) E(x_s)^2, so
    then E(x) <= c' E(x_s) too.  The first check has E <= (R_0 +
    b)/sqrt(A), R_0 = ||r||, and a check certifies once sqrt(B) E + b <=
    theta: at most K = richardson_steps(A, 10B + 9A, goal) cycles run,
    c'^-K >= goal = sqrt(k) (R_0 + b)/(theta - b).  A cycle takes at most
    cap = max(L, target + 2) steps, L = richardson_steps(A, sqrt(AB), 2
    goal) the Chebyshev count of exact conjugate gradients from the first
    check, so a run certifies within the budget K cap, and one that spends
    it refutes the hypothesis and raises; cap and budget, both at least
    target + 2, are read only from step target + 2 on.
    """
    A, B = CF.lower, CF.upper
    kappa = -(-B.numerator * A.denominator // (B.denominator * A.numerator))
    b = A / (1 << (target + 4 + kappa.bit_length()))
    bd = b if A + B >= 1 else (A + B) * b
    G = clog2(max(Fraction(1), (A + B) / 2) / bd) + GUARD_BITS
    f_fin, _ = truncate(f, A / (1 << (target + 4)))
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

    sigma, sd = -(-b.numerator << G) // b.denominator, -(-bd.numerator << G) // bd.denominator + 1
    within_bounds = _bounds_test(A, B, sd)
    bound = (A * Fraction(7, 1 << (target + 4)) - 5 * b / 4) * (1 << G)
    num, den = bound.numerator**2, bound.denominator**2
    x, first, steps, k, held, goal = _to_grid(g, G), 0, 0, -1, None, None
    cap = budget = target + 2  # lower bounds of both, until a run reaches them
    while True:
        if goal is None and steps >= budget:
            goal = Fraction(_ceil_sqrt(kappa) * (_ceil_sqrt(first) + sigma)) / (bound - sigma)
            cap = max(richardson_steps(A, sqrt_upper(A * B), 2 * goal), target + 2)
            budget = cap * richardson_steps(A, 10 * B + 9 * A, goal)
        if k < 0:
            r = p = residual(x)
            rr, k = _dot(r, r), 0
            if rr * den <= num:
                return FiniteVector.over(x.items(), 1 << G), steps
            if held:
                x1, rr1, pq1 = held
                dx = _combine(x, xs, -1, 1)
                gain = _dot(dx, rs) + _dot(dx, r) - 2 * sigma * _ceil_sqrt(_dot(dx, dx))
                if 2 * pq1 * gain < rr1 * rr1:
                    x, k, held = x1, -1, None
                    continue
            xs, rs, held, first = x, r, None, first or rr
        elif rr * den <= num or k >= cap:
            k = -1
            continue
        if steps >= budget:
            raise FalseBoundsError(
                f"declared frame bounds A = {A}, B = {B} are false or S is not self-adjoint: "
                f"{steps} steps spent the budget of {budget} without a certificate"
            )
        q = apply_s(p, G, bd)
        pp, pq = _dot(p, p), _dot(p, q)
        if not within_bounds(pp, pq):
            raise FalseBoundsError(
                f"declared frame bounds A = {A}, B = {B} are false: "
                f"<p, S p> lies outside [A, B] ||p||^2 at step {steps + 1}"
            )
        if k == 1 and goal and abs(_dot(p0, q) - _dot(p, q0)) > _ceil_sqrt(2 * (pp + pp0)) * sd:
            raise FalseBoundsError(f"S = T T* is not self-adjoint: step {steps + 1} proves it")
        if pq <= 0:
            k = -1
            continue
        x, r = _combine(x, p, rr, pq), _combine(r, q, -rr, pq)
        if k == 0:
            held, p0, q0, pp0 = (x, rr, pq), p, q, pp
        rr, old = _dot(r, r), rr
        p, k, steps = _combine(r, p, rr, old), k + 1, steps + 1


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
    return synthesis(CF, c)


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
