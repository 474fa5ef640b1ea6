"""Frames with certified bounds, synthesis/analysis, and S^-1 by iteration.

A :class:`Frame` carries rational frame bounds as caller-supplied
certificates; a :class:`CertifiedFrame` additionally carries a full
operator name for the analysis operator.  Without that certificate only
coefficientwise analysis is available (a :class:`WeakVectorName`): the
type system encodes the boundary between what is and is not computable
from frame data alone.

S^-1 f is certified a posteriori: since S >= A I, an iterate g is within
||f - S g|| / A of S^-1 f, and that residual is checked exactly on an
integer grid.  Conjugate gradients in fixed point produce the iterate
(:func:`_conjugate_gradients`, behind :func:`frame_algorithm` and every
stage of :func:`inverse_apply`); relaxed Richardson iteration, with its
a-priori geometric rate (B-A)/(B+A), is the fallback.  Both apply S one
way, through the columns of :func:`frame_operator` (:func:`_columns`):
finite columns exactly, any other at a Cauchy stage.  A finite vector on
a finite section is solved exactly.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import isqrt, lcm
from typing import Callable, Optional

from .dyadic import _smallest, clog2, div_nearest, sqrt_upper
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


class Frame:
    """Element oracle plus rational frame bounds 0 < A <= B."""

    __slots__ = ("_elem", "lower", "upper")

    def __init__(self, elem: Callable[[int], VectorName], lower, upper):
        object.__setattr__(self, "_elem", _memoized(elem))
        object.__setattr__(self, "lower", Fraction(lower))
        object.__setattr__(self, "upper", Fraction(upper))
        if not 0 < self.lower <= self.upper:
            raise ValueError("frame bounds must satisfy 0 < A <= B")

    def __setattr__(self, name, value):
        raise AttributeError("Frame is immutable")

    def elem(self, i: int) -> VectorName:
        if i < 0:
            raise ValueError("negative frame index")
        return self._elem(i)


class CertifiedFrame:
    """Frame plus an operator name for its analysis operator T*.

    ``finite_section`` optionally carries the exact rational vectors of
    an embedded finite-dimensional frame: :func:`inverse_apply` solves
    finite vectors on it exactly, and the verify suites compare with its
    exact projection.
    """

    __slots__ = ("frame", "analysis_op", "finite_section")

    def __init__(self, frame: Frame, analysis_op: OperatorName, finite_section=None):
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "analysis_op", analysis_op)
        object.__setattr__(self, "finite_section", finite_section)

    def __setattr__(self, name, value):
        raise AttributeError("CertifiedFrame is immutable")

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


def span_dim(CF: CertifiedFrame) -> Optional[int]:
    """Span dimension: the largest support bound of the frame's elements.

    Known when the analysis operator's support bound says there are
    finitely many elements and each element's support bound is set (for
    an embedded finite frame, the dimension of its section); else None.
    """
    K = CF.analysis_op.support_bound
    if K is None:
        return None
    bounds = [CF.elem(k).support_bound for k in range(K)]
    if any(b is None for b in bounds):
        return None
    return max(bounds, default=0)


def restrict_to_span(CF: CertifiedFrame, v: FiniteVector) -> FiniteVector:
    """v without its coordinates at or past :func:`span_dim`, when known."""
    d = span_dim(CF)
    if d is None:
        return v
    return FiniteVector([(i, q) for i, q in v.entries if i < d])


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
    """S = T T* with norm bound B: column n is T applied to T* e_n."""
    T = synthesis_operator(CF.frame)
    return OperatorName(lambda n: apply(T, CF.analysis_op.col(n)), CF.upper)


# -- the frame algorithm ---------------------------------------------


class FrameAlgorithmResult:
    """Outcome of one frame-algorithm run."""

    __slots__ = ("vector", "iterations", "relaxation", "contraction", "target")

    def __init__(self, vector, iterations, relaxation, contraction, target):
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "iterations", iterations)
        object.__setattr__(self, "relaxation", relaxation)
        object.__setattr__(self, "contraction", contraction)
        object.__setattr__(self, "target", target)

    def __setattr__(self, name, value):
        raise AttributeError("FrameAlgorithmResult is immutable")


# Guard bits of the drivers' grid beyond the step budget b: with
# 2^-G <= b 2^-GUARD_BITS, rounding n <= 2^64 coordinates to the nearest
# multiples of 2^-G costs at most sqrt(n) 2^-(G+1) <= 2^-(G-31) <= b/4.
GUARD_BITS = 33


def iteration_budget(A: Fraction, B: Fraction, f_mag: Fraction, target: int) -> int:
    """Smallest J >= 1 with r^J * ||f||/A <= 2^-(target+2), r = (B-A)/(B+A)."""
    return _step_count((B - A) / (B + A), max(f_mag, Fraction(1)) / A, target)


def _step_count(r: Fraction, err: Fraction, target: int) -> int:
    """Smallest J >= 1 with r^J * err <= 2^-(target+2); 1 when r = 0.

    r^J * err decreases in J, so the search of :func:`_smallest` is exact.
    """
    goal = Fraction(1, 1 << (target + 2))
    return _smallest(lambda J: r**J * err <= goal)


def frame_algorithm(CF: CertifiedFrame, f: VectorName, target: int) -> FrameAlgorithmResult:
    """Approximate S^-1 f within 2^-target from g_0 = 0.

    One run of :func:`_conjugate_gradients`; ``iterations`` counts its
    steps, including any Richardson steps it falls back to.
    ``relaxation`` and ``contraction`` are those of the fallback.
    """
    if target < 0:
        raise ValueError("target precision must be nonnegative")
    A, B = CF.lower, CF.upper
    g, steps = _conjugate_gradients(CF, f, {}, target)
    vec = VectorName.from_finite(FiniteVector(sorted(g.items())))
    return FrameAlgorithmResult(vec, steps, Fraction(2) / (A + B), (B - A) / (B + A), target)


# Conjugate-gradient steps before a run falls back to Richardson.
CG_STEPS = 64


def _conjugate_gradients(
    CF: CertifiedFrame, f: VectorName, g: dict[int, Fraction], target: int
) -> tuple[dict[int, Fraction], int]:
    """S^-1 f within 2^-target, from g: (iterate, steps including any fallback).

    Conjugate gradients (Hestenes-Stiefel) in fixed point on the grid of
    :func:`_setup`, with its step budget b = A 2^-(target+3): the iterate
    x, the residual r and the direction p are integer mantissas, and each
    coordinate update is one integer ``div_nearest`` by p.q or r.r, where
    q is S p from the S contract.  The steps only steer; the answer is
    certified a posteriori.

    Certificate.  Let f' be f without the coordinates whose analysis
    column is exactly zero.  Hypothesis: S is self-adjoint with S >= A I
    on a space holding f' and every iterate (combinations of f_G and
    images under S).  Then ||S^-1 f' - x|| <= ||f' - S x|| / A.  f_G is
    within b/2 + b/4 = 3b/4 of f', and y = S x from the contract is
    within b of S x, so ||f' - S x|| <= ||f_G - y|| + 7b/4.  The run
    returns x once the integer N = ||m(f_G) - m(y)||^2 satisfies
    N <= ((A 2^-(target+1) - 7b/4) 2^G)^2, decided exactly; x is then
    within 2^-(target+1) of S^-1 f'.  The check costs one application of
    S, so it runs only once the recursive residual r.r passes the same
    test; a failed check replaces r by m(f_G) - m(y) and restarts the
    directions.  A warm start's first residual is such a check.

    Fallback.  After CG_STEPS steps without a certificate, or at
    p.q <= 0, the run continues with :func:`_richardson` from x, whose
    proof needs only err >= ||S^-1 f' - x||: the certified
    err = (ceil(sqrt(N)) 2^-G + 7b/4) / A sets its step count.  With true
    bounds, A p.p - s <= p.q <= B p.p + s for the slack
    s = ceil(sqrt(p.p)) (b 2^G + 1) of q's error; a step outside that
    range proves the declared bounds false, and the run is then the cold
    Richardson run of :func:`iteration_budget` steps.
    """
    A, B = CF.lower, CF.upper
    b, G, apply_s, residual = _setup(CF, f, target)
    bound = (A / (1 << (target + 1)) - 7 * b / 4) * (1 << G)
    num, den = bound.numerator**2, bound.denominator**2
    x = _to_grid(g.items(), G)
    r = p = residual(x)
    rr, checked, steps = _dot(r, r), True, 0
    while steps < CG_STEPS:
        if rr * den <= num:
            if checked:
                return _from_grid(x, G), steps
            r = p = residual(x)
            rr, checked = _dot(r, r), True
            continue
        q = apply_s(p, G, b)
        pp, pq = _dot(p, p), _dot(p, q)
        slack = _ceil_sqrt(pp) * (b * (1 << G) + 1)
        if not A * pp - slack <= pq <= B * pp + slack:
            J = iteration_budget(A, B, f.norm.mag, target)
            return _richardson(CF, f, {}, J, target), J
        if pq <= 0:
            break
        x, r = _combine(x, p, rr, pq), _combine(r, q, -rr, pq)
        rr, old = _dot(r, r), rr
        p, checked, steps = _combine(r, p, rr, old), False, steps + 1
    if not checked:
        r = residual(x)
        rr = _dot(r, r)
    err = (Fraction(_ceil_sqrt(rr), 1 << G) + 7 * b / 4) / A
    J = _step_count((B - A) / (B + A), err, target)
    return _richardson(CF, f, _from_grid(x, G), J, target), steps + J


def _richardson(
    CF: CertifiedFrame, f: VectorName, g: dict[int, Fraction], J: int, target: int
) -> dict[int, Fraction]:
    """J steps of g <- g + w (f - S g), w = 2/(A+B), from g, aiming at 2^-target.

    On the grid of :func:`_setup`, one step is
    m_i <- m_i + round(w (f_i - y_i)) with y within b of S g, and rounding
    costs at most min(1, w) b/4 in l2.  So each step errs from the exact
    one by at most w b (from f, within 3b/4) + w b (from S) + w b/4.
    Iterating contracts by r = (B-A)/(B+A) and 1/(1-r) = 1/(w A), so the
    errors add up to at most (9/4) b/A < 2^-(target+1) on top of the
    geometric iteration error r^J ||S^-1 f - g||, which the caller's J
    keeps below 2^-(target+2).  A start on a coarser grid converts exactly.
    """
    w = Fraction(2) / (CF.lower + CF.upper)
    _, G, _, residual = _setup(CF, f, target)
    m = _to_grid(g.items(), G)
    for _ in range(J):
        m = _combine(m, residual(m), w.numerator, w.denominator)
    return _from_grid(m, G)


def _setup(CF: CertifiedFrame, f: VectorName, target: int):
    """(b, G, S contract, residual) of one run: step budget b = A 2^-(target+3)
    and grid 2^-G, G = clog2(max(1, (A+B)/2) / b) + GUARD_BITS, so rounding
    onto it costs at most min(1, 2/(A+B)) b/4.  f_G is f truncated within
    b/2 and rounded onto the grid, without the coordinates n whose analysis
    column T* e_n is exactly zero: e_n is orthogonal to every f_k, so
    S e_n = 0 and each step would add them again.  S is read from the
    columns of ``frame_operator(CF)`` (:func:`_columns`), and residual(m) is
    m(f_G) - m(y) for y within b of S (m 2^-G).
    """
    A, B = CF.lower, CF.upper
    b = A * Fraction(1, 1 << (target + 3))
    G = clog2(max(Fraction(1), (A + B) / 2) / b) + GUARD_BITS
    f_fin, _ = truncate(f, b / 2)
    fm = _to_grid(((i, q) for i, q in f_fin.entries if not _outside_span(CF, i)), G)
    apply_s = _columns(frame_operator(CF))

    def residual(m: dict[int, int]) -> dict[int, int]:
        return _combine(fm, apply_s(m, G, b), -1, 1)

    return b, G, apply_s, residual


def _combine(u: dict[int, int], v: dict[int, int], a: int, c: int) -> dict[int, int]:
    """Nonzero entries of u + round(a v / c) for c > 0, rounded within 1/2."""
    out = dict(u)
    for i, w in v.items():
        t = out.get(i, 0) + div_nearest(a * w, c)
        if t:
            out[i] = t
        else:
            out.pop(i, None)
    return out


def _ceil_sqrt(n: int) -> int:
    return isqrt(n - 1) + 1 if n else 0


def _dot(u: dict[int, int], v: dict[int, int]) -> int:
    return sum(w * v.get(i, 0) for i, w in u.items())


def _to_grid(entries, G: int) -> dict[int, int]:
    """Nonzero mantissas of the nearest multiples of 2^-G to rational entries."""
    out = {}
    for i, q in entries:
        v = div_nearest(q.numerator << G, q.denominator)
        if v:
            out[i] = v
    return out


def _from_grid(m: dict[int, int], G: int) -> dict[int, Fraction]:
    return {i: Fraction(v, 1 << G) for i, v in m.items()}


def _outside_span(CF: CertifiedFrame, n: int) -> bool:
    """Whether the analysis column T* e_n is exactly the zero vector."""
    col = CF.analysis_op.col(n).finite
    return col is not None and not col.entries


def _columns(S: OperatorName):
    """The one way to apply S in the drivers, read from its columns.

    The contract is a callable (m, G, budget) -> y taking integer
    mantissas m of x = m 2^-G (a dict index -> int) to mantissas y on the
    same grid with ||y 2^-G - S x|| <= budget in l2; callers keep
    G >= clog2(1/budget) + GUARD_BITS, so rounding onto the grid fits in
    the budget.  Column n of S is read on first use: exactly when it is a
    finite vector, else at stage k, where 2^-k sum |x_n| <= budget/2 with
    the sum over the columns that are not finite, so their errors add up
    to at most budget/2; it is read again at a finer stage when a later x
    needs one.  All columns are kept as integers over one common
    denominator D, which grows when a column brings a new denominator.
    The integer combination y of them is S x D 2^G (up to the stages'
    error), and y / D is rounded once onto the grid, which costs at most
    budget/4 under the GUARD_BITS rule (nothing when D = 1).
    """
    cols: dict[int, dict[int, int]] = {}
    staged: dict[int, int] = {}  # stage held in cols[n] for each column that is not finite
    D = 1

    def apply_s(x: dict[int, int], G: int, budget: Fraction) -> dict[int, int]:
        nonlocal D
        new = {}
        for n in x:
            if n not in cols and n not in staged:
                c = S.col(n).finite
                if c is None:
                    staged[n] = -1
                else:
                    new[n] = c
        if staged:
            mass = sum(abs(x[n]) for n in staged if n in x)
            k = max(0, clog2(Fraction(2 * mass, 1 << G) / budget)) if mass else 0
            for n, held in staged.items():
                if held < k and n in x:
                    new[n], staged[n] = S.col(n).stage(k), k
        if new:
            L = lcm(D, *(q.denominator for c in new.values() for _, q in c.entries))
            if L != D:
                scale = L // D
                for c in cols.values():
                    for i in c:
                        c[i] *= scale
                D = L
            for n, c in new.items():
                cols[n] = {i: q.numerator * (D // q.denominator) for i, q in c.entries}
        y: dict[int, int] = {}
        for n, v in x.items():
            for i, s in cols[n].items():
                y[i] = y.get(i, 0) + s * v
        if D > 1:
            y = {i: div_nearest(v, D) for i, v in y.items()}
        return y

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
        from .oracle import exact_frame_solve

        y = exact_frame_solve(section).solve(f.finite.dense(section.d))
        return VectorName.from_finite(
            FiniteVector([(i, q) for i, q in enumerate(y) if q != 0])
        )

    cache: dict[int, dict[int, Fraction]] = {}
    lock = threading.Lock()

    def stage(k: int) -> FiniteVector:
        with lock:
            finer = [t for t in cache if t >= k]
            if finer:
                k = min(finer)
            else:
                g = cache[max(cache)] if cache else {}
                cache[k], _ = _conjugate_gradients(CF, f, g, k)
        return FiniteVector(sorted(cache[k].items()))

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
