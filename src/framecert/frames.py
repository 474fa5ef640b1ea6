"""Frames with certified bounds, synthesis/analysis, and S^-1 by iteration.

A :class:`Frame` carries rational frame bounds as caller-supplied
certificates; a :class:`CertifiedFrame` additionally carries a full
operator name for the analysis operator.  Without that certificate only
coefficientwise analysis is available (a :class:`WeakVectorName`): the
type system encodes the boundary between what is and is not computable
from frame data alone.

The frame operator is inverted by relaxed Richardson iteration with
relaxation 2/(A+B), which converges at the explicit geometric rate
(B-A)/(B+A); the rational bounds turn directly into a modulus of
convergence, which is exactly what a name of S^-1 f needs.  One driver
serves :func:`frame_algorithm` (one cold start) and :func:`inverse_apply`
(every precision, warm-started); a tight frame is its case r = 0 and
takes one step.  The driver runs in fixed point: the iterate is integer
mantissas on one grid 2^-G, GUARD_BITS finer than the step budget, and
Fractions appear only at its input and output.  It applies S through one
contract, (m, G, budget) -> mantissas on 2^-G within budget: the frame's
closed-form ``s_action`` when it has one, and otherwise the columns of
:func:`frame_operator` (:func:`_columns`), kept as integers over one
common denominator so that a step is one sparse integer mat-vec and one
rounding.  A finite column (finite sections, Riesz and operator specs)
is read exactly; any other column is read at a Cauchy stage fine enough
for the step budget.  A finite vector on a finite section is solved
exactly.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import lcm
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
    exact projection.  It does not select how the frame algorithm
    applies S.  ``s_action`` optionally supplies a closed form of S for
    frames that have one; without it the frame algorithm reads S from
    the columns of :func:`frame_operator`, through :func:`_columns`.
    Both keep one contract: a callable (m, G, budget) -> y taking
    integer mantissas m of x = m 2^-G (a dict index -> int) to mantissas
    y on the same grid with ||y 2^-G - S x|| <= budget in l2.  Callers
    keep G >= clog2(1/budget) + GUARD_BITS, so rounding onto the grid
    fits in the budget.
    """

    __slots__ = ("frame", "analysis_op", "finite_section", "s_action")

    def __init__(
        self,
        frame: Frame,
        analysis_op: OperatorName,
        finite_section=None,
        s_action=None,
    ):
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "analysis_op", analysis_op)
        object.__setattr__(self, "finite_section", finite_section)
        object.__setattr__(self, "s_action", s_action)

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


# Guard bits of the Richardson grid beyond the step budget b: with
# 2^-G <= b 2^-GUARD_BITS, rounding n <= 2^64 coordinates to the nearest
# multiples of 2^-G costs at most sqrt(n) 2^-(G+1) <= 2^-(G-31) <= b/4.
GUARD_BITS = 33


def iteration_budget(
    A: Fraction, B: Fraction, f_mag: Fraction, target: int
) -> int:
    """Smallest J >= 1 with r^J * ||f||/A <= 2^-(target+2), r = (B-A)/(B+A)."""
    return _step_count((B - A) / (B + A), max(f_mag, Fraction(1)) / A, target)


def _step_count(r: Fraction, err: Fraction, target: int) -> int:
    """Smallest J >= 1 with r^J * err <= 2^-(target+2); 1 when r = 0.

    r^J * err decreases in J, so the search of :func:`_smallest` is exact.
    """
    goal = Fraction(1, 1 << (target + 2))
    return _smallest(lambda J: r**J * err <= goal)


def frame_algorithm(
    CF: CertifiedFrame, f: VectorName, target: int
) -> FrameAlgorithmResult:
    """Approximate S^-1 f within 2^-target by relaxed Richardson iteration.

    g_{j+1} = g_j + (2/(A+B)) (f - S g_j) from g_0 = 0, for the
    :func:`iteration_budget` number of steps: one when A = B, where the
    contraction r is 0.
    """
    if target < 0:
        raise ValueError("target precision must be nonnegative")
    A, B = CF.lower, CF.upper
    J = iteration_budget(A, B, f.norm.mag, target)
    g = _richardson(CF, f, {}, J, target)
    vec = VectorName.from_finite(FiniteVector(sorted(g.items())))
    return FrameAlgorithmResult(vec, J, Fraction(2) / (A + B), (B - A) / (B + A), target)


def _richardson(
    CF: CertifiedFrame,
    f: VectorName,
    g: dict[int, Fraction],
    J: int,
    target: int,
) -> dict[int, Fraction]:
    """J steps of g <- g + w (f - S g), w = 2/(A+B), from g, aiming at 2^-target.

    The iterate is held as integer mantissas m, g = m 2^-G, on one grid
    fixed for the run: G = clog2(max(1, 1/w) / b) + GUARD_BITS for the
    step budget b = A 2^-(target+3).  One step is
    m_i <- m_i + round(w (f_i - y_i)) with y within b of S g.  Rounding
    n <= 2^64 coordinates to the grid costs at most sqrt(n) 2^-(G+1)
    <= min(1, w) b/4 in l2.  f is truncated within b/2 and rounded onto
    the grid once.  So each step errs from the exact one by at most
    w b (from f) + w b (from S) + w b/4 (rounding).  Iterating contracts
    by r = (B-A)/(B+A) and 1/(1-r) = 1/(w A), so the errors add up to at
    most (9/4) b/A < 2^-(target+1) on top of the geometric iteration
    error r^J ||S^-1 f - g||, which the caller's J keeps below
    2^-(target+2).  A warm start from a coarser run lies on a coarser
    grid and converts exactly.  Coordinates n of f whose analysis column
    T* e_n is exactly zero are dropped: e_n is orthogonal to every f_k,
    so S e_n = 0 and each step would add them again.

    S g comes from the frame's ``s_action`` when it has one, and
    otherwise from the columns of ``frame_operator(CF)``
    (:func:`_columns`); both return mantissas on the grid within b.
    """
    A, B = CF.lower, CF.upper
    omega = Fraction(2) / (A + B)
    step_budget = A * Fraction(1, 1 << (target + 3))
    G = clog2(max(Fraction(1), 1 / omega) / step_budget) + GUARD_BITS
    f_fin, _ = truncate(f, step_budget / 2)
    fm = _to_grid(((i, q) for i, q in f_fin.entries if not _outside_span(CF, i)), G)
    m = _to_grid(g.items(), G)
    apply_s = CF.s_action or _columns(frame_operator(CF))

    # round(w (f_i - y_i)) = floor((a (f_i - y_i) + half) / den) for w = a/den,
    # half = floor(den/2): off by at most 1/2, also for odd den
    a, den = omega.numerator, omega.denominator
    half = den // 2
    fa = {i: a * v for i, v in fm.items()}
    for _ in range(J):
        y = apply_s(m, G, step_budget)
        nxt = dict(m)
        for i in fa.keys() | y.keys():
            v = nxt.get(i, 0) + (fa.get(i, 0) - a * y.get(i, 0) + half) // den
            if v:
                nxt[i] = v
            else:
                nxt.pop(i, None)
        m = nxt
    return _from_grid(m, G)


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
    """S as an ``s_action`` (see :class:`CertifiedFrame`), read from its columns.

    Column n of S is read on first use: exactly when it is a finite
    vector, else at stage k, where 2^-k sum |x_n| <= budget/2 with the
    sum over the columns that are not finite, so their errors add up to
    at most budget/2; it is read again at a finer stage when a later x
    needs one.  All columns are kept as integers over one common
    denominator D, which grows when a column brings a new denominator.
    The integer combination y of them is S x D 2^G (up to the stages'
    error), and y / D is rounded once onto the grid, which costs at most
    budget/4 under the GUARD_BITS rule (nothing when D = 1).
    """
    cols: dict[int, dict[int, int]] = {}
    staged: dict[int, int] = {}  # stage held in cols[n] for each column that is not finite
    D = 1

    def s_action(x: dict[int, int], G: int, budget: Fraction) -> dict[int, int]:
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

    return s_action


def inverse_apply(CF: CertifiedFrame, f: VectorName) -> VectorName:
    """Genuine name of S^-1 f: stage k is a frame-algorithm run at target >= k.

    A finite f on a frame with a finite section is solved exactly; its
    coordinates from the section's dimension d on lie outside the frame's
    space and are dropped.  Otherwise nothing runs until a stage is read
    (||S^-1 f|| <= ||f||/A bounds it beforehand), and coefficients and
    norm are read from the stages.  Stage k is the run at the smallest
    target t >= k already computed, being within 2^-t <= 2^-k; without
    one, a run at target k warm-starts from the finest coarser run, so
    the total iteration count across all queried precisions stays close
    to a single run at the finest one.
    """
    section = CF.finite_section
    if section is not None and f.finite is not None:
        from .oracle import exact_frame_solve

        y = exact_frame_solve(section).solve(f.finite.dense(section.d))
        return VectorName.from_finite(
            FiniteVector([(i, q) for i, q in enumerate(y) if q != 0])
        )

    A, B = CF.lower, CF.upper
    r = (B - A) / (B + A)
    cache: dict[int, dict[int, Fraction]] = {}
    lock = threading.Lock()

    def stage(k: int) -> FiniteVector:
        with lock:
            finer = [t for t in cache if t >= k]
            if finer:
                k = min(finer)
            else:
                warm = [t for t in cache if t < k]
                if warm:
                    t = max(warm)
                    g, J = cache[t], _step_count(r, Fraction(1, 1 << t), k)
                else:
                    g, J = {}, iteration_budget(A, B, f.norm.mag, k)
                cache[k] = _richardson(CF, f, g, J, k)
        return FiniteVector(sorted(cache[k].items()))

    return VectorName.from_stage(
        stage, f.norm.mag / A, None if section is None else section.d
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
