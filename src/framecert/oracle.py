"""Exact rational ground truth for finitely many frame vectors in Q^d.

The frame operator, its inverse (and so the canonical dual), Gram/projection
matrices and frame-bound enclosures by bisection are exact: Fractions
go in and come out, and in between a matrix's denominators are cleared
once and one fraction-free (Bareiss) elimination runs on integers.  Its
symmetric mode without pivoting decides (semi)definiteness: the span
test of ExactFrame (the vectors span Q^d exactly when S is positive
definite), each bisection step, and checks of declared frame bounds.
Its Gauss-Jordan mode with row pivoting gives determinants and
adjugates.  The kernel is validated against this module, so nothing in
it may rely on floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
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
        N, D = _cleared(vecs)
        cols = list(zip(*N))
        G = [[sum(map(mul, u, v)) for v in cols] for u in cols]
        object.__setattr__(self, "S", [[Fraction(g, D * D) for g in row] for row in G])
        # the vectors span Q^d exactly when S = sum v v^T is positive definite
        if not _bareiss(G, strict=True):
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
    """Exact S, S^-1 (as ``inverse`` = (R, c): S^-1 = c R, R integer)
    and rational frame-bound enclosure."""

    __slots__ = ("frame", "S", "inverse", "bounds_enclosure")

    def __init__(self, frame, S, inverse, bounds_enclosure):
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "inverse", inverse)
        object.__setattr__(self, "bounds_enclosure", bounds_enclosure)

    def __setattr__(self, name, value):
        raise AttributeError("FrameSolution is immutable")

    @property
    def lower(self) -> Fraction:
        return self.bounds_enclosure[0]

    @property
    def upper(self) -> Fraction:
        return self.bounds_enclosure[3]

    @property
    def S_inv(self) -> Matrix:
        return _scaled(*self.inverse)

    def solve(self, v: Sequence[Fraction]) -> list[Fraction]:
        """S^-1 v: one integer product, then one Fraction per coordinate."""
        R, c = self.inverse
        (n,), d = _cleared([v])
        return [Fraction(c.numerator * sum(map(mul, row, n)), c.denominator * d) for row in R]


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


def _cleared(m) -> tuple[list[list[int]], int]:
    """Integer rows N and the lcm D of the entries' denominators: m = N / D."""
    D = lcm(*(q.denominator for row in m for q in row))
    return [[q.numerator * (D // q.denominator) for q in row] for row in m], D


def _bareiss(m: list[list[int]], strict: bool | None = None) -> int:
    """Fraction-free (Bareiss) elimination of the integer rows m, in place.

    Every division is exact, and pivot k is the leading principal minor
    of order k+1 of the rows as pivoted.  Returns the last pivot, or 0
    where it stops.  With strict None: Gauss-Jordan with row pivoting
    over the left square block; a swap negates one row, so this is the
    block's determinant (0 at a column without pivot), and the columns
    right of the block end as det * block^-1 times their start.  Else
    symmetric, unpivoted, on the upper triangle: it stops at a pivot < 0,
    or = 0 when strict or with a nonzero row beyond it; a zero pivot with
    a zero row drops that row and column and keeps the previous divisor.
    """
    n, prev = len(m), 1
    for k in range(n):
        if strict is None:
            r = next((r for r in range(k, n) if m[r][k]), k)
            if not m[r][k]:
                return 0
            if r != k:
                m[k], m[r] = m[r], [-x for x in m[k]]
        elif m[k][k] < 0 or (m[k][k] == 0 and (strict or any(m[k][k + 1:]))):
            return 0
        elif m[k][k] == 0:
            continue
        p, top = m[k][k], m[k]
        for i in range(n) if strict is None else range(k + 1, n):
            if i != k:
                row = m[i]
                a, j = (row[k], k + 1) if strict is None else (top[i], i)
                row[j:] = [(x * p - a * y) // prev for x, y in zip(row[j:], top[j:])]
        prev = p
    return prev


def _inverse(m: Matrix) -> tuple[list[list[int]], Fraction]:
    """(R, c) with R integer and m^-1 = c R: R = adj N and c = D / det N for m = N / D."""
    n = len(m)
    N, D = _cleared(m)
    rows = [row + [int(i == j) for j in range(n)] for i, row in enumerate(N)]
    det = _bareiss(rows)
    if det == 0:
        raise NonSpanningError("singular matrix")
    return [row[n:] for row in rows], Fraction(D, det)


def _scaled(R: list[list[int]], c: Fraction) -> Matrix:
    return [[c * x for x in row] for row in R]


def mat_inv(m: Matrix) -> Matrix:
    return _scaled(*_inverse(m))


def determinant(m: Matrix) -> Fraction:
    N, D = _cleared(m)
    return Fraction(_bareiss(N), D ** len(m))


def is_positive_definite(m: Matrix) -> bool:
    """For symmetric m, Sylvester's criterion: every leading principal minor is > 0."""
    return _bareiss(_cleared(m)[0], strict=True) > 0


def is_positive_semidefinite(m: Matrix) -> bool:
    """For symmetric m: every principal minor is >= 0."""
    return _bareiss(_cleared(m)[0], strict=False) > 0


def frame_bounds_hold(M: Matrix, A: Fraction, B: Fraction) -> bool:
    """A*I <= M M^T <= B*I, decided exactly (M holds synthesis columns).

    M = N / D is cleared once, so D^2 M M^T is the integer G = N N^T, and
    a bound q = a/c holds on one side when +-(c G - a D^2 I) >= 0.
    """
    N, D = _cleared(M)
    G = [[sum(map(mul, u, v)) for v in N] for u in N]
    return all(
        _bareiss([[s * (q.denominator * g - q.numerator * D * D * (i == j)) for j, g in enumerate(row)]
                  for i, row in enumerate(G)], strict=False) > 0
        for q, s in ((A, 1), (B, -1))
    )


# -- the oracle ------------------------------------------------------


# Width of each bisected enclosure of eigenvalue_enclosures.
ENCLOSURE_WIDTH = Fraction(1, 2**20)


def eigenvalue_enclosures(S: Matrix) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(A-, A+, B-, B+) with A- < lambda_min <= A+ and B- <= lambda_max < B+.

    Bisection of [0, trace + 1] with the exact positive-definiteness
    predicate; the outer endpoints are strictly outside the spectrum, so
    char-poly signs at them are determined.  For S = N / D and trace + 1
    = T / D, step e tests lam = a T / (D 2^e) on the integer matrix
    +-(2^e N - a T I) = +-D 2^e (S - lam I).
    """
    N, D = _cleared(S)
    if not _bareiss([list(row) for row in N], strict=True):
        raise NonSpanningError("frame operator is not positive definite")
    T = sum(N[i][i] for i in range(len(N))) + D

    def bracket(sign: int) -> tuple[Fraction, Fraction]:
        a, e = 0, 0
        while Fraction(T, D << e) > ENCLOSURE_WIDTH:
            a, e = 2 * a, e + 1
            c = (a + 1) * T
            m = [[sign * ((q << e) - c * (i == j)) for j, q in enumerate(r)]
                 for i, r in enumerate(N)]
            # pd(S - lam I) iff lam < lambda_min; pd(lam I - S) iff lam > lambda_max
            if (_bareiss(m, strict=True) > 0) == (sign > 0):
                a += 1
        return Fraction(a * T, D << e), Fraction((a + 1) * T, D << e)

    return bracket(1) + bracket(-1)


@lru_cache(maxsize=128)
def exact_frame_solve(F: ExactFrame) -> FrameSolution:
    bounds = eigenvalue_enclosures(F.S)
    if bounds[0] <= 0:
        raise NonSpanningError("could not certify a positive lower frame bound")
    return FrameSolution(F, F.S, _inverse(F.S), bounds)


def projection_matrix(F: ExactFrame) -> Matrix:
    """M[n][k] = <f_n, S^-1 f_k>, the orthogonal projection onto the range of T*."""
    return cross_gram_matrix(F, F)


def cross_gram_matrix(F: ExactFrame, Phi: ExactFrame) -> Matrix:
    """u[l][k] = <phi_l, S^-1 f_k> for the cross-frame coefficient operator.

    With S^-1 = c R, F = N / D and Phi = P / E on integers, u[l][k] is
    c (P_l . R N_k) / (D E): integer products, then one Fraction per entry.
    """
    if Phi.d != F.d:
        raise ValueError("frames must share the ambient dimension")
    R, c = exact_frame_solve(F).inverse
    (N, D), (P, E) = _cleared(F.vectors), _cleared(Phi.vectors)
    dual = [[sum(map(mul, row, n)) for row in R] for n in N]
    num, den = c.numerator, c.denominator * D * E
    return [[Fraction(num * sum(map(mul, p, g)), den) for g in dual] for p in P]


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
