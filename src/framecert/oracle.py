"""Exact rational ground truth for finitely many frame vectors in Q^d.

The frame operator, its inverse (and so the canonical dual), Gram/projection
matrices and frame-bound enclosures are exact: Fractions go in and come out
(finite vectors for ``solve`` and the projection's columns), and in between
a matrix's denominators are cleared once (an ExactFrame's at construction,
kept as its integer form) and one fraction-free (Bareiss) elimination runs
on integers.  Its symmetric mode without pivoting decides (semi)definiteness:
the span test of ExactFrame (S positive definite), each step of the
enclosure search (also on a Riesz block's M M^T, for its norm bounds), and
checks of declared frame bounds; its Gauss-Jordan mode with row pivoting
gives determinants and adjugates.
The kernel is validated against this module, so every value it returns
is decided exactly; floating point only picks the grid point where the
enclosure search starts (a bad start costs tests, not correctness).

A frame's solution (bound enclosure, inverse, the projection's integer
columns) lives on its ExactFrame, computed on first read, never shared.
"""

from __future__ import annotations

from fractions import Fraction
from math import copysign, gcd, hypot, lcm
from operator import mul
from typing import Sequence

from .dyadic import Immutable, _smallest, sqrt_upper
from .vectors import FiniteVector

Matrix = list[list[Fraction]]


class NonSpanningError(ValueError):
    """The supplied vectors do not span Q^d."""


class ExactFrame(Immutable):
    """Rational (int or Fraction) vectors spanning Q^d, cleared once into
    the integers every reader uses: the rows of ``N`` over ``D``, and S =
    N^T N / D^2 as ``G`` over ``E`` (cut by their gcd, which nothing read
    depends on).  ``bounds_enclosure``, ``inverse`` = (R, c), S^-1 = c R with
    R integer, and ``projection`` are computed on first read (by one thread or two).
    """

    __slots__ = ("N", "D", "d", "G", "E", "_bounds", "_inverse", "_projection")

    def __init__(self, vectors: Sequence[Sequence[Fraction]]):
        N, D = _cleared(vectors)
        if not N:
            raise ValueError("frame needs at least one vector")
        d = len(N[0])
        if d == 0 or any(len(v) != d for v in N):
            raise ValueError("vectors must share a positive dimension")
        cols = list(zip(*N))
        G = [[sum(map(mul, u, v)) for v in cols] for u in cols]
        # the vectors span Q^d exactly when S = sum v v^T is positive definite
        if not _bareiss([list(row) for row in G], strict=True):
            raise NonSpanningError(f"vectors do not span Q^{d}")
        g = gcd(D * D, *(x for row in G for x in row))
        G = tuple(tuple(x // g for x in row) for row in G)
        for k, v in (("N", tuple(map(tuple, N))), ("D", D), ("d", d), ("G", G), ("E", D * D // g),
                     ("_bounds", None), ("_inverse", None), ("_projection", None)):
            object.__setattr__(self, k, v)

    def __len__(self) -> int:
        return len(self.N)

    @property
    def S(self) -> Matrix:
        return [[Fraction(x, self.E) for x in row] for row in self.G]

    @property
    def bounds_enclosure(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        if self._bounds is None:
            # S proven definite above
            object.__setattr__(self, "_bounds", _enclosures(self.G, self.E))
        return self._bounds

    @property
    def inverse(self) -> tuple[list[list[int]], Fraction]:
        if self._inverse is None:
            object.__setattr__(self, "_inverse", _inverse(self.G, self.E))
        return self._inverse

    @property
    def projection(self) -> tuple[FiniteVector, ...]:
        """Column k of the projection onto the range of T*: (<f_l, S^-1 f_k>)_l."""
        if self._projection is None:
            object.__setattr__(self, "_projection", cross_gram_columns(self, self))
        return self._projection

    @property
    def lower(self) -> Fraction:
        return self.bounds_enclosure[0]

    @property
    def upper(self) -> Fraction:
        return self.bounds_enclosure[3]

    def solve(self, v: FiniteVector) -> FiniteVector:
        """S^-1 v, v's coordinates from d on dropped: one integer product."""
        R, c = self.inverse
        n = [v.nums.get(i, 0) for i in range(self.d)]
        m = [c.numerator * sum(map(mul, row, n)) for row in R]
        return FiniteVector.over(enumerate(m), c.denominator * v.den)


# -- exact linear algebra --------------------------------------------


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


def _inverse(N: Sequence[Sequence[int]], D: int) -> tuple[list[list[int]], Fraction]:
    """(R, c) with R integer and (N / D)^-1 = c R: R = adj N and c = D / det N."""
    n = len(N)
    rows = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(N)]
    det = _bareiss(rows)
    if det == 0:
        raise NonSpanningError("singular matrix")
    return [row[n:] for row in rows], Fraction(D, det)


def mat_inv(m: Matrix) -> Matrix:
    R, c = _inverse(*_cleared(m))
    return [[c * x for x in row] for row in R]


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


# Width of each enclosure of eigenvalue_enclosures.
ENCLOSURE_WIDTH = Fraction(1, 2**20)


def eigenvalue_enclosures(S: Matrix) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(A-, A+, B-, B+) with 0 < A- < lambda_min <= A+ and B- <= lambda_max < B+.

    The endpoints are neighbours on a grid of [0, trace + 1] of step at
    most ENCLOSURE_WIDTH, each side decided by exact positive-definiteness
    tests; the outer endpoints are strictly outside the spectrum, so
    char-poly signs at them are determined.  Where lambda_min is at most
    one step, the lower pair is (s, 2 s), s the largest step / 2^k below it.
    """
    N, D = _cleared(S)
    if not _bareiss([list(row) for row in N], strict=True):
        raise NonSpanningError("frame operator is not positive definite")
    return _enclosures(N, D)


def _enclosures(N: Sequence[Sequence[int]], D: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """eigenvalue_enclosures of S = N / D, for integer N positive definite.

    For trace + 1 = T / D, level E is the first with step T / (D 2^E) <=
    ENCLOSURE_WIDTH.  Index a stands for lam = a T / (D 2^E), tested on
    the integer matrix +-(2^E N - a T I) = +-D 2^E (S - lam I).  Each side
    returns the unique largest a with lam < lambda_min (resp. lam <=
    lambda_max), so its enclosure is fixed by S alone; the search starts
    from _estimate's index and finds a by doubling and then bisection.
    A lower a = 0 moves to the first finer level whose index 1 is below
    lambda_min (levels found by doubling and bisection too), where a = 1.
    """
    T = sum(N[i][i] for i in range(len(N))) + D
    E = 0
    while D << E < T << 20:
        E += 1

    def below(a: int, sign: int, e: int = E) -> bool:
        c = a * T
        m = [[sign * ((q << e) - c * (i == j)) for j, q in enumerate(r)]
             for i, r in enumerate(N)]
        # pd(S - lam I) iff lam < lambda_min; pd(lam I - S) iff lam > lambda_max
        return (_bareiss(m, strict=True) > 0) == (sign > 0)

    try:
        starts = [min(max(round(x), 0), (1 << E) - 1) for x in _estimate(N, T, E)]
    except (ArithmeticError, ValueError):  # overflow, underflow to a zero divisor, NaN
        starts = [0, 0]
    out = ()
    for sign, h in zip((1, -1), starts):
        if below(h, sign):
            a = h + _smallest(lambda k: not below(h + k, sign)) - 1
        else:
            a = h - _smallest(lambda k: below(h - k, sign))
        out += (Fraction(a * T, D << E), Fraction((a + 1) * T, D << E))
    if not out[0]:  # lambda_min <= one step: index 1 of the first finer level below it
        e = E + _smallest(lambda k: below(1, 1, E + k))
        out = (Fraction(T, D << e), Fraction(2 * T, D << e)) + out[2:]
    return out


def _estimate(N: Sequence[Sequence[int]], T: int, E: int) -> tuple[float, float]:
    """Float estimates of lambda_min(N) and lambda_max(N) in units of T / 2^E.

    N scaled by its largest entry is reduced to a tridiagonal matrix by
    Householder reflections, whose extreme eigenvalues a Sturm count
    brackets by bisection to a quarter unit.  The estimate only chooses
    where the exact search of _enclosures starts.
    """
    n = len(N)
    top = max(abs(q) for row in N for q in row)
    a = [[q / top for q in row] for row in N]
    diag, off2 = [], [0.0]
    for k in range(n - 1):
        x = [a[i][k] for i in range(k + 1, n)]
        s = hypot(*x)
        diag.append(a[k][k])
        off2.append(s * s)
        if k == n - 2 or s == 0:
            continue
        # H = I - v v^T / h maps x to -sign(x_0) s e_0; A <- H A H on rows/columns > k
        v = [x[0] + copysign(s, x[0])] + x[1:]
        h = s * (s + abs(x[0]))
        rows = range(k + 1, n)
        p = [sum(map(mul, a[i][k + 1:], v)) / h for i in rows]
        K = sum(map(mul, v, p)) / (2 * h)
        w = [pi - K * vi for pi, vi in zip(p, v)]
        for i, vi, wi in zip(rows, v, w):
            a[i][k + 1:] = [q - vi * wj - wi * vj for q, vj, wj in zip(a[i][k + 1:], v, w)]
    diag.append(a[n - 1][n - 1])

    def count(t: float) -> int:
        """Eigenvalues below t: negative pivots of the tridiagonal minus t I."""
        c, q = 0, 1.0
        for dk, ek in zip(diag, off2):
            q = dk - t - ek / q
            if q < 0:
                c += 1
            elif q == 0:
                q = 1e-300
        return c

    unit = (top << E) / T  # grid units per scaled unit

    def eigenvalue(k: int) -> float:
        """The k-th smallest, in grid units."""
        lo, hi = 0.0, float(n)  # N / top is definite with entries in [-1, 1]
        while (hi - lo) * unit > 0.25 and lo < (lo + hi) / 2 < hi:
            mid = (lo + hi) / 2
            if count(mid) > k:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2 * unit

    return eigenvalue(0), eigenvalue(n - 1)


def exact_frame_solve(F: ExactFrame) -> ExactFrame:
    """F, with its bound enclosure and inverse computed."""
    F.bounds_enclosure, F.inverse
    return F


def projection_matrix(F: ExactFrame) -> Matrix:
    """M[n][k] = <f_n, S^-1 f_k>, the orthogonal projection onto the range of T*."""
    return cross_gram_matrix(F, F)


def cross_gram_matrix(F: ExactFrame, Phi: ExactFrame) -> Matrix:
    """u[l][k] = <phi_l, S^-1 f_k>, read from F.projection when Phi is F."""
    cols = F.projection if Phi is F else cross_gram_columns(F, Phi)
    return [[v.coefficient(l) for v in cols] for l in range(len(Phi))]


def cross_gram_columns(F: ExactFrame, Phi: ExactFrame) -> tuple[FiniteVector, ...]:
    """Column k = (<phi_l, S^-1 f_k>)_l of the cross-frame coefficient operator.

    With S^-1 = c R and the frames' integer forms N / D and P / E, entry l
    is c (P_l . R N_k) / (D E): one integer product, each column over one denominator.
    """
    if Phi.d != F.d:
        raise ValueError("frames must share the ambient dimension")
    R, c = F.inverse
    dual = [[sum(map(mul, row, n)) for row in R] for n in F.N]
    num, den = c.numerator, c.denominator * F.D * Phi.D
    return tuple(FiniteVector.over(((l, num * sum(map(mul, p, g))) for l, p in enumerate(Phi.N)), den)
                 for g in dual)


def embed(F: ExactFrame):
    """Bridge to the name world: a certified frame over the span of e_0..e_{d-1}."""
    from .frames import CertifiedFrame, Frame
    from .operators import OperatorName, finite_columns

    elem = finite_columns([FiniteVector.over(enumerate(v), F.D) for v in F.N])
    analysis_col = finite_columns([FiniteVector.over(enumerate(c), F.D) for c in zip(*F.N)])
    analysis_op = OperatorName(analysis_col, sqrt_upper(F.upper), support_bound=len(F))
    return CertifiedFrame(Frame(elem, F.lower, F.upper), analysis_op, finite_section=F)
