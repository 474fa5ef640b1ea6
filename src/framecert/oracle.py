"""Exact rational ground truth for finitely many frame vectors in Q^d.

Everything here is computed with exact Fractions: the frame operator,
its inverse, the canonical dual, Gram/projection matrices, and
frame-bound enclosures by bisection.  Two eliminations do all the work.
A symmetric one without pivoting decides (semi)definiteness: the span
test of ExactFrame (the vectors span Q^d exactly when S is positive
definite), each bisection step, and checks of declared frame bounds.
A Gauss-Jordan with row pivoting gives inverses and determinants.  The
kernel is validated against this module, so nothing in it may rely on
floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .dyadic import sqrt_upper

Matrix = list[list[Fraction]]


class NonSpanningError(ValueError):
    """The supplied vectors do not span Q^d."""


class ExactFrame:
    """Finite list of rational vectors in Q^d, required to span.

    ``S`` is the exact frame operator V^T V, formed once here for the
    span test and read by everything that needs it.
    """

    __slots__ = ("vectors", "d", "S")

    def __init__(self, vectors: Sequence[Sequence[Fraction]]):
        vecs = tuple(tuple(Fraction(q) for q in v) for v in vectors)
        if not vecs:
            raise ValueError("frame needs at least one vector")
        d = len(vecs[0])
        if d == 0 or any(len(v) != d for v in vecs):
            raise ValueError("vectors must share a positive dimension")
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "S", mat_mul([list(col) for col in zip(*vecs)], vecs))
        # the vectors span Q^d exactly when S = sum v v^T is positive definite
        if not is_positive_definite(self.S):
            raise NonSpanningError(f"vectors do not span Q^{d}")

    def __setattr__(self, name, value):
        raise AttributeError("ExactFrame is immutable")

    def __len__(self) -> int:
        return len(self.vectors)

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactFrame) and self.vectors == other.vectors

    def __hash__(self) -> int:
        return hash(self.vectors)


class FrameSolution:
    """Exact S, S^-1, canonical dual, and rational frame-bound enclosure."""

    __slots__ = ("frame", "S", "S_inv", "dual", "bounds_enclosure")

    def __init__(self, frame, S, S_inv, dual, bounds_enclosure):
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "S_inv", S_inv)
        object.__setattr__(self, "dual", dual)
        object.__setattr__(self, "bounds_enclosure", bounds_enclosure)

    def __setattr__(self, name, value):
        raise AttributeError("FrameSolution is immutable")

    @property
    def lower(self) -> Fraction:
        return self.bounds_enclosure[0]

    @property
    def upper(self) -> Fraction:
        return self.bounds_enclosure[3]


# -- exact linear algebra --------------------------------------------


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def shift(S: Matrix, lam: Fraction) -> Matrix:
    """S - lam*I."""
    return [[q - lam * (i == j) for j, q in enumerate(row)] for i, row in enumerate(S)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def mat_vec(a: Matrix, v: Sequence[Fraction]) -> list[Fraction]:
    return [sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in a]


def _gauss_jordan(m: Matrix) -> tuple[Matrix, Fraction]:
    """Reduce the left square block of the n rows m to I by row pivoting.

    Returns the reduced rows and the determinant of that block, the
    signed product of the pivots; both stop at the first column without
    a pivot, where the determinant is 0.
    """
    m = [list(row) for row in m]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return m, Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        piv = m[col][col]
        det *= piv
        m[col] = [q / piv for q in m[col]]
        for r in range(n):
            factor = m[r][col]
            if r != col and factor != 0:
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return m, det


def mat_inv(m: Matrix) -> Matrix:
    n = len(m)
    rows, det = _gauss_jordan([list(r) + e for r, e in zip(m, identity(n))])
    if det == 0:
        raise NonSpanningError("singular matrix")
    return [row[n:] for row in rows]


def determinant(m: Matrix) -> Fraction:
    return _gauss_jordan(m)[1]


def _definite(m: Matrix, strict: bool) -> bool:
    """Symmetric elimination without pivoting.

    Pivot k is D_{k+1} / D_k, the ratio of consecutive leading principal
    minors, so the strict test (every pivot > 0) is Sylvester's
    criterion.  The semidefinite test admits a zero pivot only with a
    zero row beyond it.
    """
    m = [list(row) for row in m]
    n = len(m)
    for k in range(n):
        piv = m[k][k]
        if piv < 0 or (piv == 0 and (strict or any(m[k][k + 1:]))):
            return False
        if piv == 0:
            continue
        for i in range(k + 1, n):
            factor = m[i][k] / piv
            if factor:
                m[i][k + 1:] = [a - factor * b for a, b in zip(m[i][k + 1:], m[k][k + 1:])]
    return True


def is_positive_definite(m: Matrix) -> bool:
    """Sylvester's criterion: every leading principal minor is > 0."""
    return _definite(m, strict=True)


def is_positive_semidefinite(m: Matrix) -> bool:
    """For symmetric m: every principal minor is >= 0."""
    return _definite(m, strict=False)


def frame_bounds_hold(M: Matrix, A: Fraction, B: Fraction) -> bool:
    """A*I <= M M^T <= B*I, decided exactly (M holds synthesis columns)."""
    S = mat_mul(M, [list(col) for col in zip(*M)])
    return is_positive_semidefinite(shift(S, A)) and is_positive_semidefinite(
        shift([[-q for q in row] for row in S], -B)
    )


def char_poly_at(S: Matrix, lam: Fraction) -> Fraction:
    """det(lam*I - S), evaluated exactly."""
    return (-1) ** len(S) * determinant(shift(S, lam))


# -- the oracle ------------------------------------------------------


def frame_operator_matrix(F: ExactFrame) -> Matrix:
    """S = sum_k f_k f_k^T = V^T V for the rows V of F."""
    return F.S


# Width of each bisected enclosure of eigenvalue_enclosures.
ENCLOSURE_WIDTH = Fraction(1, 2**20)


def eigenvalue_enclosures(S: Matrix) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(A-, A+, B-, B+) with A- < lambda_min <= A+ and B- <= lambda_max < B+.

    Bisection with the exact positive-definiteness predicate; the outer
    endpoints are strictly outside the spectrum, so char-poly signs at
    them are determined.
    """
    if not is_positive_definite(S):
        raise NonSpanningError("frame operator is not positive definite")
    top = sum((S[i][i] for i in range(len(S))), Fraction(0)) + 1
    neg = [[-q for q in row] for row in S]

    def bracket(below) -> tuple[Fraction, Fraction]:
        lo, hi = Fraction(0), top
        while hi - lo > ENCLOSURE_WIDTH:
            mid = (lo + hi) / 2
            if below(mid):
                lo = mid
            else:
                hi = mid
        return lo, hi

    # pd(S - lam I) iff lam < lambda_min; pd(lam I - S) iff lam > lambda_max
    a_minus, a_plus = bracket(lambda lam: is_positive_definite(shift(S, lam)))
    b_minus, b_plus = bracket(lambda lam: not is_positive_definite(shift(neg, -lam)))
    return a_minus, a_plus, b_minus, b_plus


@lru_cache(maxsize=128)
def exact_frame_solve(F: ExactFrame) -> FrameSolution:
    S = F.S
    S_inv = mat_inv(S)
    dual = [mat_vec(S_inv, list(v)) for v in F.vectors]
    bounds = eigenvalue_enclosures(S)
    if bounds[0] <= 0:
        raise NonSpanningError("could not certify a positive lower frame bound")
    return FrameSolution(F, S, S_inv, dual, bounds)


def projection_matrix(F: ExactFrame) -> Matrix:
    """M[n][k] = <f_n, S^-1 f_k>, the orthogonal projection onto the range of T*."""
    return cross_gram_matrix(F, F)


def cross_gram_matrix(F: ExactFrame, Phi: ExactFrame) -> Matrix:
    """u[l][k] = <phi_l, S^-1 f_k> for the cross-frame coefficient operator."""
    if Phi.d != F.d:
        raise ValueError("frames must share the ambient dimension")
    sol = exact_frame_solve(F)
    return [
        [
            sum(
                (Phi.vectors[l][i] * sol.dual[k][i] for i in range(F.d)),
                Fraction(0),
            )
            for k in range(len(F))
        ]
        for l in range(len(Phi))
    ]


def embed(F: ExactFrame):
    """Bridge to the name world: a certified frame over the span of e_0..e_{d-1}."""
    from .frames import CertifiedFrame, Frame
    from .operators import OperatorName, finite_columns
    from .vectors import FiniteVector

    sol = exact_frame_solve(F)
    elem = finite_columns([FiniteVector.from_dense(v) for v in F.vectors])
    analysis_col = finite_columns([FiniteVector.from_dense(c) for c in zip(*F.vectors)])
    analysis_op = OperatorName(
        analysis_col, sqrt_upper(sol.upper), support_bound=len(F)
    )
    frame = Frame(elem, sol.lower, sol.upper)
    return CertifiedFrame(frame, analysis_op, finite_section=F)
