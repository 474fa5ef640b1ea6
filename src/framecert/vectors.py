"""Names of points of l2: Cauchy stages, coefficient oracles and a norm name.

A vector name gives the basis coefficients together with a real name of
the norm.  The norm component is what makes tail bounds -- and hence
every infinite sum in the frame calculus -- computable.  An equivalent
name is a Cauchy name: for each k a finite rational vector ``stage(k)``
within 2^-k of the point.  Finite vectors are exact, and every other
vector computed here (finite linear combinations, operator images,
limits, S^-1 f) is built from its stage by :meth:`VectorName.from_stage`,
which reads the coefficients and the norm from it; :func:`truncate`
reads the stage directly.  Only names that arrive as coefficients plus a
norm -- caller or gallery oracles, :func:`strengthen` -- are truncated
through the norm, by certifying the tail sqrt(||x||^2 - sum_{i<N} x_i^2);
that costs about twice the bits asked for at every nesting level, where
a stage costs a constant.

A :class:`WeakVectorName` deliberately lacks a norm: it models
coefficientwise data whose norm carries no certificate, and nothing
here will synthesize against one.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Callable, Optional, Sequence

from .dyadic import Dyadic, clog2, round_fraction
from .realnames import (
    RealName,
    ZERO_NAME,
    limit_fast,
    lift_arith,
    sqrt_name,
    _memoized,
)


class FiniteVector:
    """Exact finitely supported vector: ascending (index, rational) pairs."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[tuple[int, Fraction]] = ()):
        cleaned = []
        last = -1
        for i, q in entries:
            q = Fraction(q)
            if i < 0:
                raise ValueError("negative index in finite vector")
            if i <= last:
                raise ValueError("indices must be strictly ascending")
            last = i
            if q != 0:
                cleaned.append((i, q))
        object.__setattr__(self, "entries", tuple(cleaned))

    def __setattr__(self, name, value):
        raise AttributeError("FiniteVector is immutable")

    def coefficient(self, i: int) -> Fraction:
        for j, q in self.entries:
            if j == i:
                return q
        return Fraction(0)

    @property
    def support(self) -> int:
        """One past the largest nonzero index (0 for the zero vector)."""
        return self.entries[-1][0] + 1 if self.entries else 0

    def norm_squared(self) -> Fraction:
        return sum((q * q for _, q in self.entries), Fraction(0))

    def dot(self, other: "FiniteVector") -> Fraction:
        small, big = self, other
        if len(big.entries) < len(small.entries):
            small, big = big, small
        lookup = dict(big.entries)
        return sum(
            (q * lookup[i] for i, q in small.entries if i in lookup), Fraction(0)
        )

    def add(self, other: "FiniteVector") -> "FiniteVector":
        acc = dict(self.entries)
        for i, q in other.entries:
            acc[i] = acc.get(i, Fraction(0)) + q
        return FiniteVector(sorted(acc.items()))

    def scaled(self, c: Fraction) -> "FiniteVector":
        c = Fraction(c)
        return FiniteVector([(i, c * q) for i, q in self.entries])

    def sub(self, other: "FiniteVector") -> "FiniteVector":
        return self.add(other.scaled(Fraction(-1)))

    @staticmethod
    def combination(terms) -> "FiniteVector":
        """sum_k q_k v_k over (rational q_k, FiniteVector v_k) pairs, in one pass."""
        acc: dict[int, Fraction] = {}
        for q, v in terms:
            for i, x in v.entries:
                acc[i] = acc.get(i, 0) + q * x
        return FiniteVector(sorted(acc.items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteVector):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"FiniteVector({list(self.entries)!r})"

    # textual form: whitespace-separated "index:rational", ascending
    def format(self) -> str:
        return " ".join(f"{i}:{q}" for i, q in self.entries)

    @staticmethod
    def parse(text: str) -> "FiniteVector":
        entries = []
        for tok in text.split():
            head, sep, tail = tok.partition(":")
            if not sep:
                raise ValueError(f"bad finite-vector token {tok!r}")
            entries.append((int(head), Fraction(tail)))
        return FiniteVector(entries)

    @staticmethod
    def from_dense(values: Sequence[Fraction]) -> "FiniteVector":
        return FiniteVector([(i, Fraction(q)) for i, q in enumerate(values)])

    def dense(self, length: Optional[int] = None) -> list[Fraction]:
        n = self.support if length is None else length
        out = [Fraction(0)] * n
        for i, q in self.entries:
            if i < n:
                out[i] = q
        return out


class VectorName:
    """Full l2 name: coefficient oracle plus a name of the norm.

    ``stage``, when present, is a Cauchy name of the same point:
    ``stage(k)`` is a finite rational vector with ||x - stage(k)|| <= 2^-k
    for every k >= 0.  :func:`truncate` reads it in place of a tail bound,
    so its builder passes it memoized.  A computed name is built by
    :meth:`from_stage` and its coefficients and norm are read from the
    stage; the constructor itself serves names given as coefficients
    plus a norm.
    ``finite`` is an optional exact payload: when present the vector is
    exactly that finite rational vector, every stage is the payload, and
    operations may shortcut.  A finite name may be built with ``norm``
    None; its norm is then computed on first read.  ``support_bound``,
    when set, promises coefficient i = 0 for every i >= support_bound.
    """

    __slots__ = ("_coeff", "_norm", "finite", "support_bound", "stage")

    def __init__(
        self,
        coeff: Callable[[int], RealName],
        norm: Optional[RealName],
        finite: Optional[FiniteVector] = None,
        support_bound: Optional[int] = None,
        stage: Optional[Callable[[int], FiniteVector]] = None,
    ):
        if norm is None and finite is None:
            raise ValueError("a norm name is required without a finite payload")
        object.__setattr__(self, "_coeff", _memoized(coeff))
        object.__setattr__(self, "_norm", norm)
        object.__setattr__(self, "finite", finite)
        if finite is not None:
            stage = lambda k: finite
            if support_bound is None:
                support_bound = finite.support
        object.__setattr__(self, "stage", stage)
        object.__setattr__(self, "support_bound", support_bound)

    def __setattr__(self, name, value):
        raise AttributeError("VectorName is immutable")

    @property
    def norm(self) -> RealName:
        norm = self._norm
        if norm is None:
            norm = sqrt_of_fraction(self.finite.norm_squared())
            object.__setattr__(self, "_norm", norm)
        return norm

    def coeff(self, i: int) -> RealName:
        if i < 0:
            raise ValueError("negative coefficient index")
        if self.support_bound is not None and i >= self.support_bound:
            return ZERO_NAME
        return self._coeff(i)

    @staticmethod
    def from_finite(v: FiniteVector) -> "VectorName":
        return VectorName(
            lambda i: RealName.from_fraction(v.coefficient(i)), None, finite=v
        )

    @staticmethod
    def from_stage(
        stage: Callable[[int], FiniteVector],
        mag: Fraction,
        support_bound: Optional[int] = None,
    ) -> "VectorName":
        """Name of the x with ||x - stage(k)|| <= 2^-k and ||x|| <= mag.

        Coefficient i at 2^-n is stage(n+1)_i rounded to 2^-(n+1), off by
        at most 2^-(n+1) + 2^-(n+2); the norm is the limit of ||stage(j)||.
        """
        stage = _memoized(stage)

        def coeff(i: int) -> RealName:
            return RealName(
                lambda n: round_fraction(stage(n + 1).coefficient(i), n + 1), mag
            )

        norm = limit_fast(lambda j: sqrt_of_fraction(stage(j).norm_squared()), mag)
        return VectorName(coeff, norm, support_bound=support_bound, stage=stage)

    @staticmethod
    def basis(i: int) -> "VectorName":
        return VectorName.from_finite(FiniteVector([(i, Fraction(1))]))

    @staticmethod
    def zero() -> "VectorName":
        return VectorName.from_finite(FiniteVector())

    def __repr__(self) -> str:
        if self.finite is not None:
            return f"VectorName(finite={self.finite.format()!r})"
        return f"VectorName(norm_mag={self.norm.mag})"


class WeakVectorName:
    """Coefficient oracle with only a rational upper bound on the norm."""

    __slots__ = ("_coeff", "norm_upper")

    def __init__(self, coeff: Callable[[int], RealName], norm_upper: Fraction):
        object.__setattr__(self, "_coeff", _memoized(coeff))
        object.__setattr__(self, "norm_upper", Fraction(norm_upper))

    def __setattr__(self, name, value):
        raise AttributeError("WeakVectorName is immutable")

    def coeff(self, i: int) -> RealName:
        if i < 0:
            raise ValueError("negative coefficient index")
        return self._coeff(i)


def sum_names(names: Sequence[RealName]) -> RealName:
    """Balanced summation; keeps query-precision inflation logarithmic."""
    items = list(names)
    if not items:
        return ZERO_NAME
    while len(items) > 1:
        nxt = [
            lift_arith("add", items[j], items[j + 1])
            if j + 1 < len(items)
            else items[j]
            for j in range(0, len(items), 2)
        ]
        items = nxt
    return items[0]


def sqrt_of_fraction(q: Fraction) -> RealName:
    """Name of sqrt(q) for an exact rational q >= 0."""
    if q < 0:
        raise ValueError("negative square norm")
    if q == 0:
        return ZERO_NAME
    r = _exact_sqrt(q)
    if r is not None:
        return RealName.from_fraction(r)
    return sqrt_name(RealName.from_fraction(q))


def _exact_sqrt(q: Fraction) -> Optional[Fraction]:
    rn = isqrt(q.numerator)
    rd = isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def tail_norm(x: VectorName, N: int) -> RealName:
    """Name of ||x - P_N x|| = sqrt(||x||^2 - sum_{i<N} x_i^2)."""
    if x.support_bound is not None and N >= x.support_bound:
        return ZERO_NAME
    energy = sum_names(
        [lift_arith("mul", x.coeff(i), x.coeff(i)) for i in range(N)]
    )
    sq = lift_arith("sub", lift_arith("mul", x.norm, x.norm), energy)
    return sqrt_name(sq)


def truncate(x: VectorName, eps: Fraction) -> tuple[FiniteVector, int]:
    """Exact finite v and N with ||x - v|| <= eps; terminates for valid names.

    A staged name answers with stage(clog2(1/eps)).  A name without a
    stage is cut where its certified tail norm drops below eps/2, and the
    coordinates before the cut are rounded within the other eps/2.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if x.stage is not None:
        v = x.stage(max(0, clog2(1 / eps)))
        return v, v.support

    if x.support_bound is not None:
        N = x.support_bound
        tail_budget = Fraction(0)
    else:
        p = max(0, clog2(8 / eps))
        N = 1
        while True:
            t = tail_norm(x, N).approx(p)
            if t.as_fraction() + Fraction(1, 1 << p) <= eps / 2:
                break
            N *= 2
        tail_budget = eps / 2

    coord_budget = eps - tail_budget
    if N == 0:
        return FiniteVector(), 0
    # per-coordinate error e with sqrt(N) * e <= coord_budget
    pc = max(0, clog2(2 * Fraction(isqrt(N) + 1) / coord_budget))
    entries = []
    for i in range(N):
        d = x.coeff(i).approx(pc)
        if d.mantissa != 0:
            entries.append((i, d.as_fraction()))
    return FiniteVector(entries), N


def inner(x: VectorName, y: VectorName) -> RealName:
    """Name of the inner product, via budgeted truncation + Cauchy-Schwarz."""
    if x.finite is not None and y.finite is not None:
        return RealName.from_fraction(x.finite.dot(y.finite))
    mx, my = x.norm.mag, y.norm.mag

    def fn(n: int) -> Dyadic:
        eps = min(Fraction(1), Fraction(1, 1 << (n + 2)) / (mx + my + 1))
        u, _ = truncate(x, eps)
        v, _ = truncate(y, eps)
        return round_fraction(u.dot(v), n + 2)

    return RealName(fn, mx * my)


def finite_stage(terms: Sequence[tuple[RealName, VectorName]], j: int) -> FiniteVector:
    """Finite vector within 2^-j of sum_k scalar_k * vector_k.

    Each term gets budget 2^-j / len(terms): an exact scalar is used as
    is, and any other is rounded so that |s - sd| (||v|| + e) + |s| e
    stays within it, for a truncation of v within e.
    """
    if not terms:
        return FiniteVector()
    half = Fraction(1, 1 << (j + 1)) / len(terms)
    parts = []
    for s, v in terms:
        sd = s.exact
        if sd is None:
            sd = s.approx(max(0, clog2(2 * (v.norm.mag + 1) / half))).as_fraction()
        parts.append((sd, truncate(v, half / (s.mag + 1))[0]))
    return FiniteVector.combination(parts)


def linear_combo(terms: Sequence[tuple[RealName, VectorName]]) -> VectorName:
    """Name of sum_k scalar_k * vector_k (finite list).

    Exact when every scalar and vector is; otherwise stage j is
    :func:`finite_stage` at j.
    """
    terms = list(terms)
    if all(s.exact is not None and v.finite is not None for s, v in terms):
        return VectorName.from_finite(
            FiniteVector.combination((s.exact, v.finite) for s, v in terms)
        )
    bounds = [v.support_bound for _, v in terms]
    return VectorName.from_stage(
        lambda j: finite_stage(terms, j),
        sum((s.mag * v.norm.mag for s, v in terms), Fraction(0)),
        None if None in bounds else max(bounds),
    )


def distance_bound(x: VectorName, y: VectorName, p: int) -> Fraction:
    """Rational upper bound on ||x - y||: the norm of x - y at 2^-p, plus 2^-p."""
    resid = linear_combo(
        [(RealName.from_fraction(1), x), (RealName.from_fraction(-1), y)]
    )
    return resid.norm.approx(p).as_fraction() + Fraction(1, 1 << p)


def limit_vectors(
    s: Callable[[int], VectorName],
    support_bound: Optional[int] = None,
) -> VectorName:
    """Full name of L from vectors with ||s(k) - L|| <= 2^-k.

    Stage k of L is a 2^-(k+1) truncation of s(k+1), which is within
    2^-(k+1) + 2^-(k+1) = 2^-k of L, and ||L|| <= ||s(0)|| + 1.
    """
    return VectorName.from_stage(
        lambda k: truncate(s(k + 1), Fraction(1, 1 << (k + 1)))[0],
        s(0).norm.mag + 1,
        support_bound,
    )


def strengthen(w: WeakVectorName, norm: RealName) -> VectorName:
    """Upgrade coefficientwise data with a caller-certified norm name."""
    if norm.mag > w.norm_upper + 1:
        raise ValueError("norm certificate contradicts the weak upper bound")
    return VectorName(w.coeff, norm)
