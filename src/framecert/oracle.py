"""Exact rational ground truth for finitely many frame vectors in Q^d.

Everything here is computed with exact Fractions: the frame operator,
its inverse, the canonical dual, Gram/projection matrices, and
frame-bound enclosures by bisection with exact positive-definiteness
tests.  The kernel is validated against this module, so nothing in it
may rely on floating point.
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
    """Finite list of rational vectors in Q^d, required to span."""

    __slots__ = ("vectors", "d")

    def __init__(self, vectors: Sequence[Sequence[Fraction]]):
        vecs = tuple(tuple(Fraction(q) for q in v) for v in vectors)
        if not vecs:
            raise ValueError("frame needs at least one vector")
        d = len(vecs[0])
        if d == 0 or any(len(v) != d for v in vecs):
            raise ValueError("vectors must share a positive dimension")
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "d", d)
        if _rank([list(v) for v in vecs]) < d:
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


def _rank(m: Matrix) -> int:
    m = [row[:] for row in m]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        pivot = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        m[row] = [q * inv for q in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        row += 1
        rank += 1
        if row == len(m):
            break
    return rank


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def mat_vec(a: Matrix, v: Sequence[Fraction]) -> list[Fraction]:
    return [sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in a]


def mat_inv(m: Matrix) -> Matrix:
    n = len(m)
    aug = [list(m[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise NonSpanningError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [q * inv for q in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def determinant(m: Matrix) -> Fraction:
    n = len(m)
    m = [row[:] for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def is_positive_definite(m: Matrix) -> bool:
    """Sylvester criterion with exact leading principal minors."""
    n = len(m)
    for k in range(1, n + 1):
        minor = [row[:k] for row in m[:k]]
        if determinant(minor) <= 0:
            return False
    return True


def is_positive_semidefinite(m: Matrix) -> bool:
    """Exact symmetric elimination; a zero pivot needs a zero row beyond it."""
    m = [row[:] for row in m]
    n = len(m)
    for k in range(n):
        piv = m[k][k]
        if piv < 0 or (piv == 0 and any(m[k][k + 1:])):
            return False
        if piv == 0:
            continue
        for i in range(k + 1, n):
            factor = m[i][k] / piv
            if factor:
                m[i][k + 1:] = [a - factor * b for a, b in zip(m[i][k + 1:], m[k][k + 1:])]
    return True


def char_poly_at(S: Matrix, lam: Fraction) -> Fraction:
    """det(lam*I - S), evaluated exactly."""
    n = len(S)
    m = [
        [(lam if i == j else Fraction(0)) - S[i][j] for j in range(n)]
        for i in range(n)
    ]
    return determinant(m)


# -- the oracle ------------------------------------------------------


def frame_operator_matrix(F: ExactFrame) -> Matrix:
    d = F.d
    S = [[Fraction(0)] * d for _ in range(d)]
    for v in F.vectors:
        for i in range(d):
            if v[i] == 0:
                continue
            for j in range(d):
                S[i][j] += v[i] * v[j]
    return S


def eigenvalue_enclosures(
    S: Matrix, width: Fraction = Fraction(1, 2**20)
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(A-, A+, B-, B+) with A- < lambda_min <= A+ and B- <= lambda_max < B+.

    Bisection with the exact positive-definiteness predicate; the outer
    endpoints are strictly outside the spectrum, so char-poly signs at
    them are determined.
    """
    n = len(S)
    trace = sum((S[i][i] for i in range(n)), Fraction(0))
    top = trace + 1

    def shifted(lam: Fraction, flip: bool) -> Matrix:
        # flip=False: S - lam I ; flip=True: lam I - S
        sgn = -1 if not flip else 1
        return [
            [
                sgn * ((lam if i == j else Fraction(0)) - S[i][j])
                for j in range(n)
            ]
            for i in range(n)
        ]

    # lambda_min: pd(S - lam I) iff lam < lambda_min
    lo, hi = Fraction(0), top
    if not is_positive_definite(S):
        raise NonSpanningError("frame operator is not positive definite")
    while hi - lo > width:
        mid = (lo + hi) / 2
        if is_positive_definite(shifted(mid, flip=False)):
            lo = mid
        else:
            hi = mid
    a_minus, a_plus = lo, hi

    # lambda_max: pd(lam I - S) iff lam > lambda_max
    lo, hi = Fraction(0), top
    while hi - lo > width:
        mid = (lo + hi) / 2
        if is_positive_definite(shifted(mid, flip=True)):
            hi = mid
        else:
            lo = mid
    b_minus, b_plus = lo, hi
    return a_minus, a_plus, b_minus, b_plus


@lru_cache(maxsize=128)
def exact_frame_solve(F: ExactFrame) -> FrameSolution:
    S = frame_operator_matrix(F)
    S_inv = mat_inv(S)
    dual = [mat_vec(S_inv, list(v)) for v in F.vectors]
    bounds = eigenvalue_enclosures(S)
    if bounds[0] <= 0:
        raise NonSpanningError("could not certify a positive lower frame bound")
    return FrameSolution(F, S, S_inv, dual, bounds)


def projection_matrix(F: ExactFrame, sol: FrameSolution | None = None) -> Matrix:
    """Gram-type matrix M with M[n][k] = <f_n, S^-1 f_k>; idempotent, symmetric."""
    sol = sol or exact_frame_solve(F)
    K = len(F)
    return [
        [
            sum(
                (F.vectors[n][i] * sol.dual[k][i] for i in range(F.d)),
                Fraction(0),
            )
            for k in range(K)
        ]
        for n in range(K)
    ]


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
    from .operators import OperatorName
    from .vectors import FiniteVector, VectorName

    sol = exact_frame_solve(F)
    K, d = len(F), F.d
    elements = [
        VectorName.from_finite(
            FiniteVector([(i, q) for i, q in enumerate(v) if q != 0])
        )
        for v in F.vectors
    ]

    def elem(i: int) -> VectorName:
        return elements[i] if i < K else VectorName.zero()

    def analysis_col(n: int) -> VectorName:
        if n >= d:
            return VectorName.zero()
        return VectorName.from_finite(
            FiniteVector(
                [(i, F.vectors[i][n]) for i in range(K) if F.vectors[i][n] != 0]
            )
        )

    analysis_op = OperatorName(
        analysis_col, sqrt_upper(sol.upper), support_bound=K
    )
    frame = Frame(elem, sol.lower, sol.upper)
    return CertifiedFrame(frame, analysis_op, finite_section=F)
