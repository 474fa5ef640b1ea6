"""Dual frames: canonical, parametrized, and verified.

The canonical dual (S^-1 f_k) is computable from an analysis certificate;
every other computable dual arises from it by perturbing with a Bessel
sequence (h_k), or equivalently as the columns of a left inverse of the
analysis operator.  Hypotheses such as "V is a left inverse" are not
decidable, so they are checked on finite built-in test sets and the
results are labelled accordingly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .dyadic import Immutable, clog2, sqrt_upper
from .frames import (
    CertifiedFrame,
    Frame,
    analysis,
    bessel_synthesis,
    inverse_apply,
    restrict_to_span,
    synthesis,
)
from .operators import OperatorName, apply
from .realnames import RealName, _memoized
from .vectors import FiniteVector, VectorName, distance_bound, inner, linear_combo


class DualityVerificationError(ValueError):
    """A claimed duality property failed on a built-in test vector."""


class BesselSequence(Immutable):
    """Sequence oracle, memoized as ``elem``, with a rational Bessel bound certificate."""

    __slots__ = ("elem", "bessel_bound")

    def __init__(self, elem: Callable[[int], VectorName], bessel_bound):
        object.__setattr__(self, "elem", _memoized(elem))
        object.__setattr__(self, "bessel_bound", Fraction(bessel_bound))
        if self.bessel_bound < 0:
            raise ValueError("Bessel bound must be nonnegative")

    @staticmethod
    def zero() -> "BesselSequence":
        return BesselSequence(lambda k: VectorName.zero(), Fraction(0))


class DualPair(Immutable):
    """A frame together with one of its dual frames."""

    __slots__ = ("primal", "dual")

    def __init__(self, primal: CertifiedFrame, dual: Frame):
        object.__setattr__(self, "primal", primal)
        object.__setattr__(self, "dual", dual)


class DualityReport(Immutable):
    """Residual bounds of f - sum_k <f, g_k> f_k over a test set."""

    __slots__ = ("passed", "residual_bounds", "worst", "tolerance")

    def __init__(self, passed, residual_bounds, worst, tolerance):
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "residual_bounds", tuple(residual_bounds))
        object.__setattr__(self, "worst", worst)
        object.__setattr__(self, "tolerance", tolerance)


def canonical_dual(CF: CertifiedFrame) -> CertifiedFrame:
    """The canonical dual (S^-1 f_k), certified with bounds (1/B, 1/A).

    The dual's analysis operator is T* S^-1: its column n is the primal
    analysis image of S^-1 e_n, and ||T* S^-1 f||^2 = <S^-1 f, f> <=
    ||f||^2 / A bounds its norm.  On a frame with a finite section both
    oracles reach the exact solve in :func:`inverse_apply`.
    """
    A, B = CF.lower, CF.upper

    def elem(k: int) -> VectorName:
        return inverse_apply(CF, CF.elem(k))

    def col(n: int) -> VectorName:
        return analysis(CF, inverse_apply(CF, VectorName.basis(n)))

    analysis_op = OperatorName(col, sqrt_upper(1 / A))
    return CertifiedFrame(Frame(elem, 1 / B, 1 / A), analysis_op)


_BUILTIN_TESTS = (
    FiniteVector.parse("0:1"),
    FiniteVector.parse("1:1"),
    FiniteVector.parse("0:1 1:-2"),
    FiniteVector.parse("0:1/3 2:1"),
)


def dual_from_left_inverse(CF: CertifiedFrame, V: OperatorName) -> DualPair:
    """Dual (V delta_k) from a certified left inverse V of the analysis operator.

    Left-inverse-ness is undecidable; V T* = I is checked within 2^-30 on
    built-in test vectors and a failure raises DualityVerificationError.
    """
    tol = Fraction(1, 2**30)
    p = clog2(4 / tol)
    for t in [restrict_to_span(CF, u) for u in _BUILTIN_TESTS]:
        f = VectorName.from_finite(t)
        bound = distance_bound(f, apply(V, analysis(CF, f)), p)
        if bound > tol:
            raise DualityVerificationError(
                f"V is not a left inverse on {t.format()!r}: "
                f"residual bound {bound} > {tol}"
            )
    lower = 1 / CF.upper
    upper = max(V.norm_bound * V.norm_bound, lower)
    return DualPair(CF, Frame(V.col, lower, upper))


def dual_from_bessel(CF: CertifiedFrame, h: BesselSequence) -> DualPair:
    """The dual family g_k = S^-1 f_k + h_k - sum_j <S^-1 f_k, f_j> h_j.

    Every computable dual of the frame arises this way from some Bessel
    sequence; h = 0 gives back the canonical dual.
    """
    A, B = CF.lower, CF.upper
    tilde = canonical_dual(CF)

    def elem(k: int) -> VectorName:
        fk_dual = tilde.elem(k)
        row = analysis(CF, fk_dual)
        corr = bessel_synthesis(h.elem, h.bessel_bound, row)
        return linear_combo(
            [
                (RealName.from_fraction(1), fk_dual),
                (RealName.from_fraction(1), h.elem(k)),
                (RealName.from_fraction(-1), corr),
            ]
        )

    # ||g_k|| <= 1/sqrt(A) + sqrt(D) (1 + sqrt(B/A)) gives the upper bound
    sqD = sqrt_upper(h.bessel_bound)
    u = sqrt_upper(1 / A) + sqD * (1 + sqrt_upper(B / A))
    upper = max(Fraction(u * u), 1 / B)
    return DualPair(CF, Frame(elem, 1 / B, upper))


def verify_duality(
    pair: DualPair,
    tests: Sequence[FiniteVector],
    tol: Fraction = Fraction(1, 2**30),
) -> DualityReport:
    """Bound ||f - sum_k <f, g_k> f_k|| for each test f against tol.

    Partial sums over increasing k-ranges; a test passes as soon as some
    range certifies a residual bound at most tol.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    p = max(2, clog2(4 / tol))
    if pair.primal.finite_section is not None:
        caps = [len(pair.primal.finite_section)]
    else:
        caps = [4, 16, 64]

    bounds = []
    for t in tests:
        f = VectorName.from_finite(t)
        best = None
        for N in caps:
            s = linear_combo(
                [
                    (inner(f, pair.dual.elem(k)), pair.primal.elem(k))
                    for k in range(N)
                ]
            )
            bound = distance_bound(f, s, p)
            best = bound if best is None else min(best, bound)
            if best <= tol:
                break
        bounds.append(best)

    worst = max(bounds) if bounds else Fraction(0)
    return DualityReport(all(b <= tol for b in bounds), bounds, worst, tol)


def cross_gram_operator(
    F: CertifiedFrame, Phi: CertifiedFrame, s: Fraction
) -> OperatorName:
    """Operator on l2 with entries u_{lk} = <phi_l, S^-1 f_k>.

    s is a caller-certified rational upper bound on the operator norm.
    """
    s = Fraction(s)
    if s <= 0:
        raise ValueError("norm bound must be positive")

    tilde = canonical_dual(F)

    def col(k: int) -> VectorName:
        return analysis(Phi, tilde.elem(k))

    return OperatorName(col, s, support_bound=Phi.analysis_op.support_bound)


def frame_from_coeff_operator(
    F: CertifiedFrame,
    U_adjoint_rows: Callable[[int], VectorName],
    lower: Fraction,
    upper: Fraction,
) -> Frame:
    """Frame (phi_n) with phi_n = sum_k u_{nk} f_k from the rows of U*.

    The rows must be full l2 names; the frame bounds of (phi_n) are the
    caller's certificate.
    """
    rows = _memoized(U_adjoint_rows)
    return Frame(lambda n: synthesis(F, rows(n)), lower, upper)


def biorthogonal_dual_riesz(R) -> Callable[[int], VectorName]:
    """The unique biorthogonal family of a Riesz basis (x_k) = (T e_k).

    g_k = (T^-1)* e_k = S^-1 x_k, so the family is the canonical dual of
    the basis viewed as a frame.
    """
    from .riesz import riesz_as_frame

    dual = canonical_dual(riesz_as_frame(R))
    return dual.elem
