"""Names of points of l2: one representation, a Cauchy name with its coefficients and norm.

Every :class:`VectorName` carries a Cauchy stage: for each k a finite
rational vector ``stage(k)`` within 2^-k of the point, together with
coefficient names and a real name of the norm.  The norm is what makes
tail bounds -- and hence every infinite sum in the frame calculus --
computable, and a name given as coefficients plus a norm is computably
equivalent to a Cauchy name.  Finite vectors are exact, and every other
vector computed here (finite linear combinations, operator images,
limits, S^-1 f) is built from its stage by :meth:`VectorName.from_stage`,
which reads the coefficients and the norm from it.  A name that arrives
as coefficients plus a norm -- caller or gallery oracles,
:func:`strengthen` -- is converted once, by the constructor: its stage k
cuts at the first N = 1, 2, 4, ... where the squared tail ||x||^2 -
sum_{i<N} x_i^2 is at most 4^-(k+1), certified by one rational upper
bound read from the norm and the coefficients at a precision that grows
with k and N (:func:`_oracle_stage` proves that the search ends), and
rounds the coordinates before the cut.  :func:`truncate` reads a stage,
so there is one truncation mechanism.  :func:`tail_norm` names the same
tail as a real, for callers that want it.

A :class:`FiniteVector` -- every stage, and every exact vector -- is
integer numerators over one common denominator in lowest terms.  Stages
of inexact names are dyadic (denominators 2^k), so combining them is
integer multiply-adds over one lcm with one gcd at the end, not a
Fraction (and its gcd) per entry.

A :class:`WeakVectorName` deliberately lacks a norm: it models
coefficientwise data whose norm carries no certificate, and nothing
here will synthesize against one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd, isqrt, lcm
from operator import countOf
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .dyadic import ZERO, Dyadic, Immutable, clog2, clog2_ratio, nearest, round_fraction, round_ratio
from .realnames import (
    RealName,
    ZERO_NAME,
    limit_fast,
    lift_arith,
    sqrt_name,
    _memoized,
)


class FiniteVector(Immutable):
    """Exact finitely supported vector: integer numerators over one denominator.

    Entry i is nums[i] / den: ``nums`` is a read-only mapping from each
    nonzero entry's index, ascending, to an integer, den > 0, and
    gcd(den, nums) = 1, so equal vectors have equal nums and den, which
    ``==`` and ``hash`` compare.
    The constructor's (index, rational) pairs and :attr:`entries` are the
    boundary; :meth:`over` builds the integer form directly.
    """

    __slots__ = ("nums", "den")

    def __init__(self, entries: Iterable[tuple[int, Fraction]] = ()):
        pairs, last = [], -1
        for i, q in entries:
            if i < 0:
                raise ValueError("negative index in finite vector")
            if i <= last:
                raise ValueError("indices must be strictly ascending")
            last = i
            q = q if isinstance(q, Fraction) else Fraction(q)
            if q:
                pairs.append((i, q))
        # the lcm of reduced denominators leaves the numerators coprime to it
        D = lcm(*(q.denominator for _, q in pairs))
        nums = {i: q.numerator * (D // q.denominator) for i, q in pairs}
        object.__setattr__(self, "nums", MappingProxyType(nums))
        object.__setattr__(self, "den", D)

    @staticmethod
    def over(pairs: Iterable[tuple[int, int]], den: int = 1) -> "FiniteVector":
        """The vector with entry i = n / den for (index i, integer n) pairs,
        indices distinct and den > 0, reduced to lowest terms."""
        nums = {i: n for i, n in sorted(pairs) if n}
        g = gcd(den, *nums.values())
        if g > 1:
            nums, den = {i: n // g for i, n in nums.items()}, den // g
        v = object.__new__(FiniteVector)
        object.__setattr__(v, "nums", MappingProxyType(nums))
        object.__setattr__(v, "den", den)
        return v

    @property
    def entries(self) -> tuple[tuple[int, Fraction], ...]:
        """Ascending (index, rational) pairs of the nonzero entries."""
        return tuple((i, Fraction(n, self.den)) for i, n in self.nums.items())

    def coefficient(self, i: int) -> Fraction:
        return Fraction(self.nums.get(i, 0), self.den)

    @property
    def support(self) -> int:
        """One past the largest nonzero index (0 for the zero vector)."""
        return next(reversed(self.nums)) + 1 if self.nums else 0

    def norm_squared(self) -> Fraction:
        return Fraction(sum(n * n for n in self.nums.values()), self.den**2)

    def dot(self, other: "FiniteVector") -> Fraction:
        small, big = sorted((self.nums, other.nums), key=len)
        total = sum(n * big[i] for i, n in small.items() if i in big)
        return Fraction(total, self.den * other.den)

    @staticmethod
    def combination(terms, den: int = 1) -> "FiniteVector":
        """sum_k q_k v_k / den over (rational q_k, FiniteVector v_k) pairs: integer
        multiply-adds over the lcm L of the terms' denominators, reduced once."""
        scaled, L = [], 1
        for q, v in terms:
            if q and v.nums:
                d = q.denominator * v.den
                L = lcm(L, d)
                scaled.append((q.numerator, d, v.nums))
        acc: dict[int, int] = {}
        for a, d, nums in scaled:
            f = a * (L // d)
            for i, n in nums.items():
                acc[i] = acc.get(i, 0) + f * n
        return FiniteVector.over(acc.items(), L * den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteVector):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.den, tuple(self.nums.items())))

    def __repr__(self) -> str:
        return f"FiniteVector({list(self.entries)!r})"

    # textual form: whitespace-separated "index:rational", ascending
    def format(self) -> str:
        return " ".join(f"{i}:{q}" for i, q in self.entries)

    @staticmethod
    def parse(text: str) -> "FiniteVector":
        """The vector of "i:p/q" tokens, separated by spaces or commas, in any
        order; the entries of a repeated index add up.  A malformed token
        raises ValueError naming it."""
        acc: dict[int, Fraction] = {}
        for tok in text.replace(",", " ").split():
            head, _, tail = tok.partition(":")
            try:
                i, q = int(head), Fraction(tail)
            except (ValueError, ZeroDivisionError):
                i = -1
            if i < 0:
                raise ValueError(f"bad entry {tok!r}, expected i:p/q with i >= 0")
            acc[i] = acc.get(i, 0) + q
        return FiniteVector(sorted(acc.items()))

    def dense(self, length: Optional[int] = None) -> list[Fraction]:
        n = self.support if length is None else length
        return [self.coefficient(i) for i in range(n)]


class VectorName(Immutable):
    """Full l2 name: a Cauchy stage, a coefficient oracle and a norm name.

    ``stage(k)`` is a finite rational vector with ||x - stage(k)|| <= 2^-k
    for every k >= 0, and :func:`truncate` reads it.  A computed name is
    built by :meth:`from_stage` and its coefficients and norm are read
    from the stage.  A name given as coefficients plus a norm, without a
    stage, gets one from the constructor (:func:`_oracle_stage`,
    memoized).  ``finite`` is an optional exact payload: when present the
    vector is exactly that finite rational vector, every stage is the
    payload, and operations may shortcut.  A finite name may be built
    with ``norm`` None; its norm is then computed on first read.
    ``support_bound``, when set, promises coefficient i = 0 for every
    i >= support_bound, and :meth:`coeff` answers those indices without
    the memoized oracle, which takes every other one.
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
        stage = stage or _memoized(partial(_oracle_stage, self))
        object.__setattr__(self, "stage", stage)
        object.__setattr__(self, "support_bound", support_bound)

    @property
    def norm(self) -> RealName:
        norm = self._norm
        if norm is None:
            norm = sqrt_of_fraction(self.finite.norm_squared())
            object.__setattr__(self, "_norm", norm)
        return norm

    def coeff(self, i: int) -> RealName:
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
            def fn(n: int) -> Dyadic:
                v = stage(n + 1)
                return round_ratio(v.nums.get(i, 0), v.den, n + 1)

            return RealName(fn, mag)

        norm = limit_fast(lambda j: sqrt_of_fraction(stage(j).norm_squared()), mag)
        return VectorName(coeff, norm, support_bound=support_bound, stage=stage)

    @staticmethod
    def basis(i: int) -> "VectorName":
        if i < 0:
            raise ValueError("negative index in finite vector")
        return VectorName.from_finite(FiniteVector.over(((i, 1),)))

    @staticmethod
    def zero() -> "VectorName":
        return VectorName.from_finite(FiniteVector())

    def __repr__(self) -> str:
        if self.finite is not None:
            return f"VectorName(finite={self.finite.format()!r})"
        return f"VectorName(norm_mag={self.norm.mag})"


class WeakVectorName(Immutable):
    """Coefficient oracle with only a rational upper bound on the norm;
    ``coeff`` is the memoized oracle itself."""

    __slots__ = ("coeff", "norm_upper")

    def __init__(self, coeff: Callable[[int], RealName], norm_upper: Fraction):
        object.__setattr__(self, "coeff", _memoized(coeff))
        object.__setattr__(self, "norm_upper", Fraction(norm_upper))


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
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return RealName.from_fraction(Fraction(rn, rd))
    return sqrt_name(RealName.from_fraction(q))


def tail_norm(x: VectorName, N: int) -> RealName:
    """Name of ||x - P_N x|| = sqrt(||x||^2 - sum_{i<N} x_i^2)."""
    if x.support_bound is not None and N >= x.support_bound:
        return ZERO_NAME
    energy = sum_names(
        [lift_arith("mul", x.coeff(i), x.coeff(i)) for i in range(N)]
    )
    sq = lift_arith("sub", lift_arith("mul", x.norm, x.norm), energy)
    return sqrt_name(sq)


def _oracle_stage(x: VectorName, k: int) -> FiniteVector:
    """Stage k of a name given as coefficients plus a norm.

    It cuts at the support bound when there is one, and otherwise at the
    first N = 1, 2, 4, ... whose certified tail is at most 2^-(k+1); the
    coordinates before the cut are rounded within the rest of 2^-k.  The
    certificate is one rational: with e = 2^-m, nu = ||x|| at 2^-m and
    c_i = x_i at 2^-m,

        U(N) = (|nu| + e)^2 - sum_{i<N} (|c_i| - e)_+^2 >= tail(N)^2,

    as |nu| + e >= ||x|| and |c_i| - e <= |x_i|.  Its excess is at most
    4 e ||x|| (1 + sqrt N) + 4 e^2: the norm term gives 4 e ||x|| + 4 e^2,
    and since (|c_i| - e)_+ >= (|x_i| - 2e)_+, term i gives at most
    4 e |x_i|, which Cauchy-Schwarz sums to 4 e sqrt(N) ||x||.  So
    m = 2k + 7 + clog2((mag + 1)(isqrt(N) + 2)), with mag the norm's
    bound, keeps the excess within 4^-(k+1) / 8, and the search ends at
    the first doubling with tail(N)^2 <= (7/8) 4^-(k+1): for every x, as
    tail(N) -> 0, however slowly.  The sum is carried from N to 2N and
    read again only when m grows.
    """
    N, b = x.support_bound, k
    if N is None:
        N, b = _tail_cut(x, k), k + 1
    # per-coordinate error 2^-pc: sqrt(N) 2^-pc <= 2^-(b+1), half the budget 2^-b
    pc = b + 1 + isqrt(N).bit_length()
    ds = [x.coeff(i).approx(pc) for i in range(N)]
    e = min([0] + [d.exponent for d in ds])  # the stage's denominator is 2^-e
    pairs = ((i, d.mantissa << (d.exponent - e)) for i, d in enumerate(ds))
    return FiniteVector.over(pairs, 1 << -e)


def _tail_cut(x: VectorName, k: int) -> int:
    """The first N = 1, 2, 4, ... with U(N) <= 4^-(k+1) (see :func:`_oracle_stage`)."""
    goal, mag = Dyadic(1, -2 * k - 2), x.norm.mag + 1
    N, m, read = 1, -1, 0
    while True:
        need = 2 * k + 7 + clog2_ratio(mag.numerator * (isqrt(N) + 2), mag.denominator)
        if need > m:
            m, read, energy = need, 0, ZERO
            e = Dyadic(1, -m)
            top = abs(x.norm.approx(m)) + e
            top = top * top
        for i in range(read, N):
            low = abs(x.coeff(i).approx(m)) - e
            if low.mantissa > 0:
                energy = energy + low * low
        read = N
        if top - energy <= goal:
            return N
        N *= 2


def truncate(x: VectorName, eps: Fraction) -> tuple[FiniteVector, int]:
    """Exact finite v and its support N with ||x - v|| <= eps: stage clog2(1/eps) of x."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    v = x.stage(max(0, clog2(1 / eps)))
    return v, v.support


def inner(x: VectorName, y: VectorName) -> RealName:
    """Name of the inner product, via budgeted truncation + Cauchy-Schwarz."""
    if x.finite is not None and y.finite is not None:
        return RealName.from_fraction(x.finite.dot(y.finite))
    mx, my = x.norm.mag, y.norm.mag
    c = 2 + clog2(mx + my + 1)  # stage n + c is within 2^-(n+2) / (mx + my + 1)

    def fn(n: int) -> Dyadic:
        return round_fraction(x.stage(n + c).dot(y.stage(n + c)), n + 2)

    return RealName(fn, mx * my)


def finite_stage(terms: Sequence[tuple[RealName, VectorName]], j: int) -> FiniteVector:
    """Finite vector within 2^-j of sum_k scalar_k * vector_k.

    Each term gets budget (3/4) 2^-j / len(terms): an exact scalar is
    used as is, and any other is rounded so that |s - sd| (||v|| + e) +
    |s| e stays within it, for a truncation of v within e.  The
    combination is rounded by :func:`on_grid`, within 2^-j / 4, so nested
    stages do not pile up their scalars' bits.
    """
    if not terms:
        return FiniteVector()
    parts, n = [], len(terms)  # a term's half budget is 2^-(j+1) / n
    for s, v in terms:
        sd = s.exact
        if sd is None:
            sd = s.approx(j + 2 + clog2((v.norm.mag + 1) * n)).as_fraction()
        parts.append((sd, v.stage(j + 1 + clog2((s.mag + 1) * n))))
    v = FiniteVector.combination(parts)
    return on_grid(v.nums, v.den, j)


def on_grid(nums: Mapping[int, int], den: int, j: int) -> FiniteVector:
    """The vector i -> nums[i] / den as a stage within 2^-j / 4 of it: exact
    when its denominator in lowest terms is at most 2^g, g = j + 1 +
    clog2(isqrt(N) + 2) for its N nonzero entries, else its entries rounded
    onto 2^-g by :func:`nearest`, within sqrt(N) 2^-(g+1) < 2^-j / 4."""
    g = j + 1 + clog2(isqrt(len(nums) - countOf(nums.values(), 0)) + 2)
    if den <= 1 << g or den // gcd(den, *nums.values()) <= 1 << g:
        return FiniteVector.over(nums.items(), den)
    return FiniteVector.over(nearest(nums, den, g).items(), 1 << g)


def exact_combo(terms, den: int = 1) -> Optional[VectorName]:
    """The finite name of sum_k q_k v_k / den over (rational or None, VectorName)
    pairs if no q_k is None and every v_k is finite, else None (exactness rule)."""
    if all(q is not None and v.finite is not None for q, v in terms):
        return VectorName.from_finite(FiniteVector.combination(((q, v.finite) for q, v in terms), den))


def linear_combo(terms: Sequence[tuple[RealName, VectorName]]) -> VectorName:
    """Name of sum_k scalar_k * vector_k (finite list).

    Exact (:func:`exact_combo`) when every scalar and vector is; otherwise
    stage j is :func:`finite_stage` at j.
    """
    terms = list(terms)
    bounds = [v.support_bound for _, v in terms]
    return exact_combo([(s.exact, v) for s, v in terms]) or VectorName.from_stage(
        partial(finite_stage, terms),
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
        lambda k: s(k + 1).stage(k + 1),
        s(0).norm.mag + 1,
        support_bound,
    )


def strengthen(w: WeakVectorName, norm: RealName) -> VectorName:
    """Upgrade coefficientwise data with a caller-certified norm name."""
    if norm.mag > w.norm_upper + 1:
        raise ValueError("norm certificate contradicts the weak upper bound")
    return VectorName(w.coeff, norm)
