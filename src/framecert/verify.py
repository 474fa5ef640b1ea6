"""Property suites run against a loaded frame: duality, projection,
Gram completion, and iteration-rate checks.

Each suite produces a deterministic report of labelled lines: residual
bounds held to the one tolerance :data:`TOL`, or, in the rate suite,
iteration counts held to their cap.  Finite frames are additionally
checked against the exact rational ground truth.
"""

from __future__ import annotations

from fractions import Fraction

from .dyadic import Immutable, clog2
from .duality import DualPair, canonical_dual, verify_duality
from .frames import (
    CertifiedFrame,
    analysis,
    complete_dual_gram_row,
    frame_algorithm,
    range_projection,
    restrict_to_span,
    richardson_steps,
)
from .operators import apply
from .vectors import FiniteVector, VectorName, distance_bound, inner

TOL = Fraction(1, 2**30)


class SuiteReport(Immutable):
    """Outcome of one suite: (label, residual bound, ok) lines and a verdict;
    a rate line has no bound (None), and ``worst`` is None without one."""

    __slots__ = ("suite", "passed", "lines", "worst")

    def __init__(self, suite, passed, lines, worst):
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "lines", tuple(lines))
        object.__setattr__(self, "worst", worst)


def _report(suite, lines):
    worst = max((r for _, r, _ in lines if r is not None), default=None)
    return SuiteReport(suite, all(ok for _, _, ok in lines), lines, worst)


def _test_vectors(CF: CertifiedFrame) -> list[FiniteVector]:
    """Deterministic small test vectors inside the frame's span."""
    base = ["0:1", "1:1", "0:1 1:-2", "0:1/3 1:1 2:-1/2"]
    return [restrict_to_span(CF, FiniteVector.parse(text)) for text in base]


def duality_suite(CF: CertifiedFrame) -> SuiteReport:
    """Canonical-dual reconstruction residuals on the built-in test set."""
    pair = DualPair(CF, canonical_dual(CF))
    tests = _test_vectors(CF)
    rep = verify_duality(pair, tests, TOL)
    lines = [
        (f"reconstruct {t.format() or '0'}", r, r <= TOL)
        for t, r in zip(tests, rep.residual_bounds)
    ]
    return _report("duality", lines)


def projection_suite(CF: CertifiedFrame) -> SuiteReport:
    """P idempotent, symmetric (against exact ground truth when present,
    else entrywise on e_0..e_{K-1}, K <= 10, with the analysis certificate
    checked there as the adjoint), and identity on analysis images."""
    p = clog2(4 / TOL)
    P = range_projection(CF)
    lines = []

    cs = ["0:1", "1:1", "0:1 2:-1"]
    for text in cs:
        c = VectorName.from_finite(FiniteVector.parse(text))
        Pc = apply(P, c)
        r = distance_bound(apply(P, Pc), Pc, p)
        lines.append((f"idempotent on {text}", r, r <= TOL))

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
        lines.append(("matches exact symmetric projection", worst, worst <= TOL))
    else:
        K = min(CF.analysis_op.support_bound or 3, 10)

        def gap(pairs) -> Fraction:
            return max([abs(a.approx(p).as_fraction() - b.approx(p).as_fraction())
                        - Fraction(1, 1 << (p - 1)) for a, b in pairs] + [Fraction(0)])

        # coefficient k of the analysis image T* e_n must be <e_n, f_k>
        worst = gap((CF.analysis_op.col(n).coeff(k), CF.elem(k).coeff(n))
                    for n in range(K) for k in range(K))
        lines.append((f"analysis certificate is the adjoint on e_0..e_{K - 1}", worst, worst <= TOL))
        worst = gap((P.col(m).coeff(n), P.col(n).coeff(m)) for n in range(K) for m in range(n))
        lines.append((f"symmetric on {', '.join(f'e_{n}' for n in range(K))}", worst, worst <= TOL))

    for text in ("0:1", "0:2 1:-1"):
        f = VectorName.from_finite(restrict_to_span(CF, FiniteVector.parse(text)))
        cf = analysis(CF, f)
        r = distance_bound(apply(P, cf), cf, p)
        lines.append((f"fixes analysis image of {text}", r, r <= TOL))

    return _report("projection", lines)


def gram_suite(CF: CertifiedFrame) -> SuiteReport:
    """Row energy of the dual Gram matrix equals its diagonal entry.

    Row n of the dual Gram matrix, <f_m, S^-1 f_n>, is column P e_n of
    the range projection P; the diagonal entry p_n = <f_n, S^-1 f_n>
    determines the whole row energy in closed form.  Compare it against
    the independently computed energy ||P e_n||^2, which equals p_n
    whenever P is an orthogonal projection, and for finite frames also
    against the exact ground truth.  A false adjoint certificate that keeps
    S = T T* self-adjoint makes P oblique, which this can catch.
    """
    p = clog2(4 / TOL)
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
            lines.append((f"row {n} energy vs exact", r, r <= TOL))
        energy = inner(Pe, Pe).approx(p).as_fraction()
        r = max(abs(got - energy) - Fraction(1, 1 << (p - 1)), Fraction(0))
        lines.append((f"row {n} energy equals diagonal", r, r <= TOL))
    return _report("gram", lines)


def max_iterations(A: Fraction, B: Fraction, f_mag: Fraction, p: int) -> int:
    """The rate suite's ceiling at precision p, below the driver's proved budget: the
    smallest J >= 1 with r^J >= 2^(p+4) max(||f||, 1) / A, r = (B+A)/(B-A)."""
    return richardson_steps(A, B, max(f_mag, Fraction(1)) / A * 2 ** (p + 4))


def rate_suite(CF: CertifiedFrame) -> SuiteReport:
    """Iteration counts stay within the geometric-rate budget."""
    lines = []
    f = VectorName.from_finite(restrict_to_span(CF, FiniteVector.parse("0:1 1:1")))
    for p in (20, 40, 60):
        res = frame_algorithm(CF, f, p)
        cap = max_iterations(CF.lower, CF.upper, f.norm.mag, p)
        ok = res.iterations <= cap
        if CF.lower == CF.upper:
            ok = ok and res.iterations == 1
        lines.append((f"p={p}: {res.iterations} iterations (cap {cap})", None, ok))
    return _report("rate", lines)


SUITES = {
    "duality": duality_suite,
    "projection": projection_suite,
    "gram": gram_suite,
    "rate": rate_suite,
}


def run_suite(name: str, CF: CertifiedFrame) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](CF)
