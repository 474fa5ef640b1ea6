"""Exact rational ground truth for finitely many frame vectors in Q^d.

The frame operator, its inverse (and so the canonical dual), Gram/projection
matrices and frame-bound enclosures are exact: Fractions go in and come out
(finite vectors for the projection's columns), and in between
a matrix's denominators are cleared once (an ExactFrame's at construction,
kept as its integer form) and fraction-free (Bareiss) eliminations run on
integers.  Its symmetric mode without pivoting decides (semi)definiteness:
the end of each side of the enclosure search (which is also ExactFrame's
span test, and bounds a Riesz block's M M^T), and checks of declared frame
bounds that the enclosure does not settle; its Gauss-Jordan mode with row
pivoting gives determinants and adjugates.  The kernel is validated against this module, so every value it
returns is decided exactly; floating point only picks the witness vectors
whose exact Rayleigh quotients settle the rest of the enclosure search (a
bad witness costs tests, not correctness).

A frame's bound enclosure is computed at construction, its inverse and the
projection's integer columns on first read; none is shared between frames.
:func:`embed` gives the frame its pseudo-inverse T+, read off the canonical dual.
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
    depends on).  ``bounds_enclosure`` is computed here, and its search
    refuses vectors that do not span; ``inverse`` = (R, c), S^-1 = c R with
    R integer, and ``projection`` are computed on first read (by one thread or two).
    """

    __slots__ = ("N", "D", "d", "G", "E", "bounds_enclosure", "_inverse", "_projection")

    def __init__(self, vectors: Sequence[Sequence[Fraction]]):
        N, D = _cleared(vectors)
        if not N:
            raise ValueError("frame needs at least one vector")
        d = len(N[0])
        if d == 0 or any(len(v) != d for v in N):
            raise ValueError("vectors must share a positive dimension")
        cols = list(zip(*N))
        G = [[sum(map(mul, u, v)) for v in cols] for u in cols]
        g = gcd(D * D, *(x for row in G for x in row))
        G, E = tuple(tuple(x // g for x in row) for row in G), D * D // g
        # the vectors span Q^d exactly when S = sum v v^T is positive definite
        bounds = _enclosures(G, E, f"vectors do not span Q^{d}")
        for k, v in (("N", tuple(map(tuple, N))), ("D", D), ("d", d), ("G", G), ("E", E),
                     ("bounds_enclosure", bounds), ("_inverse", None), ("_projection", None)):
            object.__setattr__(self, k, v)

    def __len__(self) -> int:
        return len(self.N)

    @property
    def S(self) -> Matrix:
        return [[Fraction(x, self.E) for x in row] for row in self.G]

    @property
    def inverse(self) -> tuple[list[list[int]], Fraction]:
        if self._inverse is None:
            object.__setattr__(self, "_inverse", _inverse(self.G, self.E))
        return self._inverse

    def dual(self, k: int) -> tuple[list[int], int]:
        """(x, m) with S^-1 f_k = x / m: for S^-1 = c R, c = a/b, and f_k =
        N_k / D, x = a R N_k and m = b D, one integer product."""
        R, c = self.inverse
        return [c.numerator * sum(map(mul, row, self.N[k])) for row in R], c.denominator * self.D

    @property
    def projection(self) -> tuple[FiniteVector, ...]:
        """Column k of the projection onto the range of T*: (<f_l, S^-1 f_k>)_l."""
        if self._projection is None:
            object.__setattr__(self, "_projection", cross_gram_columns(self, self))
        return self._projection

    def bounds_hold(self, A: Fraction, B: Fraction) -> bool:
        """A I <= S <= B I, decided exactly: by the enclosure for a bound
        outside it (A <= A- holds and A > A+ fails, B >= B+ holds and B <
        B- fails), else by one elimination for that side."""
        a_lo, a_hi, b_lo, b_hi = self.bounds_enclosure
        if A > a_hi or B < b_lo:
            return False
        return ((A <= a_lo or _bound_holds(self.G, self.E, A, 1))
                and (B >= b_hi or _bound_holds(self.G, self.E, B, -1)))

    @property
    def lower(self) -> Fraction:
        return self.bounds_enclosure[0]

    @property
    def upper(self) -> Fraction:
        return self.bounds_enclosure[3]


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
    a bound q = a/c holds on one side when +-(c G - a D^2 I) >= 0.  A
    Gram matrix is >= 0, so A <= 0 (a Bessel bound's check) takes no test.
    """
    N, D = _cleared(M)
    G = [[sum(map(mul, u, v)) for v in N] for u in N]
    return all(_bound_holds(G, D * D, q, s) for q, s in ((A, 1), (B, -1)) if s < 0 or q > 0)


def _bound_holds(G: Sequence[Sequence[int]], E: int, q: Fraction, s: int) -> bool:
    """q I <= G / E (s = 1) or G / E <= q I (s = -1) for symmetric integer G
    and E > 0: s (q.den G - q.num E I) >= 0, by one elimination."""
    a, c = q.numerator * E, q.denominator
    return _bareiss([[s * (c * g - a * (i == j)) for j, g in enumerate(row)]
                     for i, row in enumerate(G)], strict=False) > 0


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
    NonSpanningError where S is not positive definite.
    """
    return _enclosures(*_cleared(S))


def _enclosures(N: Sequence[Sequence[int]], D: int, refusal: str = "frame operator is not positive definite"
                ) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """eigenvalue_enclosures of S = N / D for symmetric integer N, or
    NonSpanningError(refusal) where S is not positive definite.

    For trace + 1 = T / D, level E is the first with step T / (D 2^E) <=
    ENCLOSURE_WIDTH.  Index a stands for lam = a T / (D 2^E), tested on
    the integer matrix +-(2^E N - a T I) = +-D 2^E (S - lam I).  Each side
    returns the unique largest a with lam < lambda_min (resp. lam <=
    lambda_max), so its enclosure is fixed by S alone.  The Rayleigh
    quotient q / n = x^T N x / x^T x of _estimate's witness x for the side
    settles every index beyond it with no test: 2^E q - a T n <= 0 proves
    lam >= lambda_min, and >= 0 proves lam <= lambda_max.  The search
    starts there and finds a by doubling and then bisection (one test per
    side for a good witness, and the same a for any).  A trace <= 0 or a
    lower a = -1 (lambda_min <= 0) refuses S.  A lower a = 0 moves to the
    first finer level whose index 1 is below lambda_min, found alike.
    """
    T = sum(N[i][i] for i in range(len(N))) + D
    if T <= D:
        raise NonSpanningError(refusal)
    E = 0
    while D << E < T << 20:
        E += 1
    try:
        xs = [[int(v) for v in x] for x in _estimate(N)]
    except (ArithmeticError, ValueError):  # overflow, underflow to a zero divisor, NaN
        xs = [[], []]
    # (x^T N x, x^T x) for each side; (0, 0) settles nothing
    rayleigh = [(sum(v * sum(map(mul, r, x)) for v, r in zip(x, N)), sum(v * v for v in x)) for x in xs]

    def below(a: int, sign: int, e: int = E) -> bool:
        q, n = rayleigh[sign < 0]
        if n and sign * ((q << e) - a * T * n) <= 0 or a < 0:
            return sign < 0 or a < 0  # settled by the quotient, or lam < 0
        c = a * T
        m = [[sign * ((g << e) - c * (i == j)) for j, g in enumerate(r)]
             for i, r in enumerate(N)]
        # pd(S - lam I) iff lam < lambda_min; pd(lam I - S) iff lam > lambda_max
        return (_bareiss(m, strict=True) > 0) == (sign > 0)

    out = ()
    for sign, (q, n) in zip((1, -1), rayleigh):
        h = (q << E) // (T * n) if n else 0
        if below(h, sign):
            a = h + _smallest(lambda k: not below(h + k, sign)) - 1
        else:
            a = h - _smallest(lambda k: below(h - k, sign))
        if a < 0:
            raise NonSpanningError(refusal)
        out += (Fraction(a * T, D << E), Fraction((a + 1) * T, D << E))
    if not out[0]:  # lambda_min <= one step: index 1 of the first finer level below it
        e = E + _smallest(lambda k: below(1, 1, E + k))
        out = (Fraction(T, D << e), Fraction(2 * T, D << e)) + out[2:]
    return out


def _estimate(N: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """Integer approximations of eigenvectors of lambda_min(N) and lambda_max(N).

    N scaled by its largest entry is reduced to a tridiagonal matrix by
    Householder reflections.  Twelve steps of bisection on a Sturm count,
    from a bracket read off the tridiagonal, put a shift near each extreme
    eigenvalue; three steps of inverse iteration from there find its
    eigenvector, and the reflections carry that back.  The estimate only
    chooses where the exact search of _enclosures starts.
    """
    n = len(N)
    top = max(abs(q) for row in N for q in row)
    a = [[q / top for q in row] for row in N]
    diag, off, reflections = [], [0.0], []
    for k in range(n - 1):
        diag.append(a[0][0])
        x, a = a[0][1:], [row[1:] for row in a[1:]]
        s = hypot(*x)
        if len(x) == 1 or s == 0:
            off.append(x[0])
            continue
        # H = I - v v^T / h maps x to -sign(x_0) s e_0; a <- H a H
        v = [x[0] + copysign(s, x[0])] + x[1:]
        h = s * (s + abs(x[0]))
        off.append(-copysign(s, x[0]))
        reflections.append((k + 1, v, h))
        p = [sum(map(mul, row, v)) / h for row in a]
        K = sum(map(mul, v, p)) / (2 * h)
        w = [pi - K * vi for pi, vi in zip(p, v)]
        a = [[q - vi * wj - wi * vj for q, vj, wj in zip(row, v, w)] for row, vi, wi in zip(a, v, w)]
    diag.append(a[0][0])

    def count(t: float) -> int:
        """Eigenvalues below t: negative pivots of the tridiagonal minus t I."""
        c, q = 0, 1.0
        for dk, ek in zip(diag, off):
            q = dk - t - ek * ek / q or 1e-300
            c += q < 0
        return c

    def vector(k: int, lo: float, hi: float) -> list[int]:
        """Eigenvector of the k-th smallest eigenvalue (in [lo, hi]), to 2^-20 of its largest entry."""
        for _ in range(12):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if count(mid) > k else (mid, hi)
        t, y = (lo + hi) / 2, [1.0 + i / n for i in range(n)]  # not all ones: see [[2, 1], [1, 2]]
        for _ in range(3):
            # y <- (tridiagonal - t I)^-1 y, unpivoted, a zero pivot made tiny
            p = [diag[0] - t or 1e-300]
            for i in range(1, n):
                r = off[i] / p[-1]
                p.append(diag[i] - t - r * off[i] or 1e-300)
                y[i] -= r * y[i - 1]
            y[n - 1] /= p[n - 1]
            for i in range(n - 2, -1, -1):
                y[i] = (y[i] - off[i + 1] * y[i + 1]) / p[i]
            m = max(map(abs, y))
            y = [c / m for c in y]
        for j, v, h in reversed(reflections):
            f = sum(map(mul, y[j:], v)) / h
            y[j:] = [c - f * vi for c, vi in zip(y[j:], v)]
        m = 2**20 / max(map(abs, y))
        return [round(c * m) for c in y]

    # lambda_min <= the least diagonal entry <= the largest <= lambda_max <= a Gershgorin bound
    gershgorin = max(map(lambda dk, e, f: dk + abs(e) + abs(f), diag, off, off[1:] + [0.0]))
    return vector(0, 0.0, min(diag)), vector(n - 1, max(diag), gershgorin)


def exact_frame_solve(F: ExactFrame) -> ExactFrame:
    """F, with its inverse computed; its bound enclosure was computed with F."""
    F.inverse
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

    With F's canonical dual x_k / m and Phi's integer form P / E, entry l
    is (P_l . x_k) / (m E): one integer product, each column over one denominator.
    """
    if Phi.d != F.d:
        raise ValueError("frames must share the ambient dimension")
    return tuple(FiniteVector.over(((l, sum(map(mul, p, x))) for l, p in enumerate(Phi.N)), m * Phi.D)
                 for x, m in map(F.dual, range(len(F))))


def embed(F: ExactFrame):
    """Bridge to the name world: a certified frame over the span of e_0..e_{d-1}.

    It carries F as its section and (V, V*) = (T+, (T+)*), norms 1/sqrt(A),
    built a column at a time on first read: V* e_k = S^-1 f_k and V e_n =
    (<f_k, S^-1 e_n>)_k, S^-1 e_n being row n of S^-1; zero past K and d.
    """
    from .frames import CertifiedFrame, Frame
    from .operators import OperatorName, finite_columns
    from .vectors import VectorName

    elem = finite_columns([FiniteVector.over(enumerate(v), F.D) for v in F.N])
    analysis_col = finite_columns([FiniteVector.over(enumerate(c), F.D) for c in zip(*F.N)])
    analysis_op = OperatorName(analysis_col, sqrt_upper(F.upper), support_bound=len(F))

    def pinv_col(n: int) -> VectorName:
        R, c = F.inverse
        x = [c.numerator * sum(map(mul, R[n], v)) for v in F.N] if n < F.d else []
        return VectorName.from_finite(FiniteVector.over(enumerate(x), c.denominator * F.D))

    def dual_col(k: int) -> VectorName:
        x, m = F.dual(k) if k < len(F) else ([], 1)
        return VectorName.from_finite(FiniteVector.over(enumerate(x), m))

    bound = sqrt_upper(1 / F.lower)
    V = OperatorName(pinv_col, bound, support_bound=len(F))
    Vstar = OperatorName(dual_col, bound, support_bound=F.d)
    return CertifiedFrame(Frame(elem, F.lower, F.upper), analysis_op, finite_section=F, pinv=(V, Vstar))
