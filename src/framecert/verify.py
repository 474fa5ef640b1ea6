"""Property suites run against a loaded frame: duality, projection,
Gram completion, and iteration-rate checks.

Each suite produces a deterministic report of labelled residual bounds;
finite frames are additionally checked against the exact rational
ground truth.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, log2

from .dyadic import clog2
from .duality import DualPair, canonical_dual, verify_duality
from .frames import (
    CertifiedFrame,
    analysis,
    complete_dual_gram_row,
    frame_algorithm,
    range_projection,
    restrict_to_span,
)
from .operators import apply
from .vectors import FiniteVector, VectorName, distance_bound, inner

DEFAULT_TOL = Fraction(1, 2**30)


class SuiteReport:
    """Outcome of one suite: labelled residual bounds and a verdict."""

    __slots__ = ("suite", "passed", "lines", "worst")

    def __init__(self, suite, passed, lines, worst):
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "lines", tuple(lines))
        object.__setattr__(self, "worst", worst)

    def __setattr__(self, name, value):
        raise AttributeError("SuiteReport is immutable")


def _report(suite, lines):
    worst = max((r for _, r, _ in lines), default=Fraction(0))
    return SuiteReport(suite, all(ok for _, _, ok in lines), lines, worst)


def _test_vectors(CF: CertifiedFrame) -> list[FiniteVector]:
    """Deterministic small test vectors inside the frame's span."""
    base = ["0:1", "1:1", "0:1 1:-2", "0:1/3 1:1 2:-1/2"]
    return [restrict_to_span(CF, FiniteVector.parse(text)) for text in base]


def duality_suite(CF: CertifiedFrame, tol: Fraction = DEFAULT_TOL) -> SuiteReport:
    """Canonical-dual reconstruction residuals on the built-in test set."""
    pair = DualPair(CF, canonical_dual(CF).frame)
    tests = _test_vectors(CF)
    rep = verify_duality(pair, tests, tol)
    lines = [
        (f"reconstruct {t.format() or '0'}", r, r <= tol)
        for t, r in zip(tests, rep.residual_bounds)
    ]
    return _report("duality", lines)


def projection_suite(CF: CertifiedFrame, tol: Fraction = DEFAULT_TOL) -> SuiteReport:
    """P idempotent, symmetric (against exact ground truth when present,
    else entrywise on e_0..e_2), and identity on analysis images."""
    p = max(2, clog2(4 / tol))
    P = range_projection(CF)
    lines = []

    cs = ["0:1", "1:1", "0:1 2:-1"]
    for text in cs:
        c = VectorName.from_finite(FiniteVector.parse(text))
        Pc = apply(P, c)
        r = distance_bound(apply(P, Pc), Pc, p)
        lines.append((f"idempotent on {text}", r, r <= tol))

    if CF.finite_section is not None:
        from .oracle import projection_matrix

        M = projection_matrix(CF.finite_section)
        K = len(CF.finite_section)
        worst = Fraction(0)
        for k in range(K):
            col = P.col(k)
            for l in range(K):
                got = col.coeff(l).approx(p).as_fraction()
                worst = max(worst, abs(got - M[l][k]) - Fraction(1, 1 << p))
        worst = max(worst, Fraction(0))
        lines.append(("matches exact symmetric projection", worst, worst <= tol))
    else:
        # P is symmetric only when the analysis certificate is a true adjoint
        worst = Fraction(0)
        for n in range(1, 3):
            for m in range(n):
                a = P.col(m).coeff(n).approx(p).as_fraction()
                b = P.col(n).coeff(m).approx(p).as_fraction()
                worst = max(worst, abs(a - b) - Fraction(1, 1 << (p - 1)))
        lines.append(("symmetric on e_0, e_1, e_2", worst, worst <= tol))

    for text in ("0:1", "0:2 1:-1"):
        f = VectorName.from_finite(restrict_to_span(CF, FiniteVector.parse(text)))
        cf = analysis(CF, f)
        r = distance_bound(apply(P, cf), cf, p)
        lines.append((f"fixes analysis image of {text}", r, r <= tol))

    return _report("projection", lines)


def gram_suite(CF: CertifiedFrame, tol: Fraction = DEFAULT_TOL) -> SuiteReport:
    """Row energy of the dual Gram matrix equals its diagonal entry.

    Row n of the dual Gram matrix, <f_m, S^-1 f_n>, is column P e_n of
    the range projection P; the diagonal entry p_n = <f_n, S^-1 f_n>
    determines the whole row energy in closed form.  Compare it against
    the independently computed energy ||P e_n||^2, which equals p_n only
    when P is the orthogonal projection (a true adjoint certificate),
    and for finite frames also against the exact ground truth.
    """
    p = max(2, clog2(4 / tol))
    K, exact_M = 4, None
    if CF.finite_section is not None:
        from .oracle import projection_matrix

        exact_M = projection_matrix(CF.finite_section)
        K = len(exact_M)

    lines = []
    P = range_projection(CF)
    for n in range(min(K, 10)):
        Pe = P.col(n)
        got = complete_dual_gram_row(Pe.coeff, n).approx(p).as_fraction()
        if exact_M is not None:
            want = sum(q * q for q in exact_M[n])
            r = max(abs(got - want) - Fraction(1, 1 << p), Fraction(0))
            lines.append((f"row {n} energy vs exact", r, r <= tol))
        energy = inner(Pe, Pe).approx(p).as_fraction()
        r = max(abs(got - energy) - Fraction(1, 1 << (p - 1)), Fraction(0))
        lines.append((f"row {n} energy equals diagonal", r, r <= tol))
    return _report("gram", lines)


def max_iterations(A: Fraction, B: Fraction, f_mag: Fraction, p: int) -> int:
    """Ceiling on frame-algorithm steps at precision p: the Richardson budget's."""
    if A == B:
        return 1
    ratio = float((B + A) / (B - A))
    arg = float(max(f_mag, Fraction(1)) / A)
    return ceil((p + log2(arg) + 4) / log2(ratio))


def rate_suite(CF: CertifiedFrame, tol: Fraction = DEFAULT_TOL) -> SuiteReport:
    """Iteration counts stay within the geometric-rate budget."""
    lines = []
    f = VectorName.from_finite(restrict_to_span(CF, FiniteVector.parse("0:1 1:1")))
    for p in (20, 40, 60):
        res = frame_algorithm(CF, f, p)
        cap = max_iterations(CF.lower, CF.upper, f.norm.mag, p)
        ok = res.iterations <= cap
        if CF.lower == CF.upper:
            ok = ok and res.iterations == 1
        lines.append(
            (f"p={p}: {res.iterations} iterations (cap {cap})",
             Fraction(res.iterations), ok)
        )
    return _report("rate", lines)


SUITES = {
    "duality": duality_suite,
    "projection": projection_suite,
    "gram": gram_suite,
    "rate": rate_suite,
}


def run_suite(name: str, CF: CertifiedFrame, tol: Fraction = DEFAULT_TOL) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](CF, tol)
