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
takes one step.  A finite vector on a finite section is solved exactly.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from typing import Callable, Optional

from .dyadic import clog2, round_fraction, sqrt_upper
from .realnames import RealName, _memoized, lift_arith
from .operators import OperatorName, apply, compose
from .vectors import (
    FiniteVector,
    VectorName,
    WeakVectorName,
    inner,
    limit_vectors,
    linear_combo,
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
    an embedded finite-dimensional frame; the frame algorithm uses it as
    a fast exact path.  ``s_action`` optionally supplies a structural
    application of the frame operator: a callable mapping (entries dict,
    budget) to a finite entries dict within that l2 budget of S applied
    to the input — used by frames whose S has a known closed form.
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


class FrameCoeffName:
    """Frame-coefficient name: oracle k -> <f, S^-1 f_k> plus the energy."""

    __slots__ = ("_coeff", "energy", "_vector")

    def __init__(
        self,
        coeff: Callable[[int], RealName],
        energy: RealName,
        _vector: Optional[VectorName] = None,
    ):
        object.__setattr__(self, "_coeff", _memoized(coeff))
        object.__setattr__(self, "energy", energy)
        object.__setattr__(self, "_vector", _vector)

    def __setattr__(self, name, value):
        raise AttributeError("FrameCoeffName is immutable")

    def coeff(self, k: int) -> RealName:
        if k < 0:
            raise ValueError("negative coefficient index")
        return self._coeff(k)

    def as_vector_name(self) -> VectorName:
        """The coefficient sequence as a full l2 name (norm = sqrt(energy))."""
        if self._vector is not None:
            return self._vector
        from .realnames import sqrt_name

        return VectorName(self.coeff, sqrt_name(self.energy))

    @staticmethod
    def from_vector_name(v: VectorName) -> "FrameCoeffName":
        return FrameCoeffName(
            v.coeff, lift_arith("mul", v.norm, v.norm), _vector=v
        )


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
    """S = T T* with norm bound B."""
    S = compose(synthesis_operator(CF.frame), CF.analysis_op)
    return OperatorName(S.col, CF.upper, support_bound=S.support_bound)


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


def iteration_budget(
    A: Fraction, B: Fraction, f_mag: Fraction, target: int
) -> int:
    """Smallest J >= 1 with r^J * ||f||/A <= 2^-(target+2), r = (B-A)/(B+A)."""
    return _step_count((B - A) / (B + A), max(f_mag, Fraction(1)) / A, target)


def _step_count(r: Fraction, err: Fraction, target: int) -> int:
    """Smallest J >= 1 with r^J * err <= 2^-(target+2); 1 when r = 0."""
    goal = Fraction(1, 1 << (target + 2))
    J = 1
    err *= r
    while err > goal:
        err *= r
        J += 1
    return J


def _round_entries(entries: dict[int, Fraction], budget: Fraction) -> dict[int, Fraction]:
    """Round to a dyadic grid with total l2 perturbation <= budget."""
    if not entries:
        return {}
    per = budget / (len(entries) + 1)
    grid = max(0, clog2(1 / per))
    out = {}
    for i, q in entries.items():
        d = round_fraction(q, grid).as_fraction()
        if d != 0:
            out[i] = d
    return out


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
    """J steps of g <- g + (2/(A+B)) (f - S g) from g, aiming at 2^-target.

    Each step applies S with absolute error at most A * 2^-(target+3) and
    rounds with the same budget; f is truncated within it once.  The
    accumulated error then stays below 2^-(target+1) on top of the
    geometric iteration error r^J * ||S^-1 f - g||, which the caller's J
    keeps below 2^-(target+2).  On a finite section, as in the exact
    solve, coordinates of f from d on lie outside the frame's space and
    are dropped: S is zero there, so each step would add them again.
    """
    A, B = CF.lower, CF.upper
    omega = Fraction(2) / (A + B)
    step_budget = A * Fraction(1, 1 << (target + 3))
    f_fin, _ = truncate(f, step_budget)
    section = CF.finite_section
    fd = {i: q for i, q in f_fin.entries if section is None or i < section.d}
    for _ in range(J):
        if section is not None:
            y = _apply_section(section, g)
        elif CF.s_action is not None:
            y = CF.s_action(g, step_budget)
        else:
            y = _apply_frame_operator_inexact(CF, g, step_budget)
        nxt = dict(g)
        for i, q in fd.items():
            nxt[i] = nxt.get(i, Fraction(0)) + omega * q
        for i, q in y.items():
            if q != 0:
                nxt[i] = nxt.get(i, Fraction(0)) - omega * q
        g = _round_entries(nxt, step_budget)
    return g


def _apply_section(section, g: dict[int, Fraction]) -> dict[int, Fraction]:
    """Exact S g for an embedded finite frame (g supported on the span)."""
    d = section.d
    dense = [Fraction(0)] * d
    for i, q in g.items():
        dense[i] = q
    out = [Fraction(0)] * d
    for v in section.vectors:
        c = sum((v[i] * dense[i] for i in range(d) if dense[i]), Fraction(0))
        if c:
            for i in range(d):
                if v[i]:
                    out[i] += c * v[i]
    return {i: q for i, q in enumerate(out) if q != 0}


def _apply_frame_operator_inexact(
    CF: CertifiedFrame, g: dict[int, Fraction], budget: Fraction
) -> dict[int, Fraction]:
    """Finite vector within budget of S g, via analysis then synthesis."""
    gv = VectorName.from_finite(FiniteVector(sorted(g.items())))
    c = apply(CF.analysis_op, gv)
    sqB = sqrt_upper(CF.upper)
    c_fin, _ = truncate(c, (budget / 2) / sqB)
    y = linear_combo(
        [(RealName.from_fraction(q), CF.elem(i)) for i, q in c_fin.entries]
    )
    y_fin, _ = truncate(y, budget / 2)
    return dict(y_fin.entries)


def inverse_apply(CF: CertifiedFrame, f: VectorName) -> VectorName:
    """Genuine name of S^-1 f: the frame algorithm run at every precision.

    A finite f on a frame with a finite section is solved exactly; its
    coordinates from the section's dimension d on lie outside the frame's
    space and are dropped.  Otherwise successive precision stages
    warm-start from the finest solution already computed, so the total
    iteration count across all queried precisions stays close to a single
    run at the finest one.
    """
    section = CF.finite_section
    if section is not None and f.finite is not None:
        from .oracle import exact_frame_solve, mat_vec

        y = mat_vec(exact_frame_solve(section).S_inv, f.finite.dense(section.d))
        return VectorName.from_finite(
            FiniteVector([(i, q) for i, q in enumerate(y) if q != 0])
        )

    A, B = CF.lower, CF.upper
    r = (B - A) / (B + A)
    cache: dict[int, dict[int, Fraction]] = {}
    lock = threading.Lock()

    def solve(k: int) -> dict[int, Fraction]:
        with lock:
            if k not in cache:
                warm = [t for t in cache if t < k]
                if warm:
                    t = max(warm)
                    g, J = cache[t], _step_count(r, Fraction(1, 1 << t), k)
                else:
                    g, J = {}, iteration_budget(A, B, f.norm.mag, k)
                cache[k] = _richardson(CF, f, g, J, k)
            return cache[k]

    return limit_vectors(
        lambda k: VectorName.from_finite(FiniteVector(sorted(solve(k).items()))),
        support_bound=None if section is None else section.d,
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
    return synthesis(CF.frame, c.as_vector_name())


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

    Column k is the analysis image of the canonical-dual element S^-1 f_k.
    """

    def col(k: int) -> VectorName:
        return analysis(CF, inverse_apply(CF, CF.elem(k)))

    return OperatorName(col, Fraction(1), support_bound=CF.analysis_op.support_bound)
