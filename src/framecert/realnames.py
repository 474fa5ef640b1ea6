"""Names of real numbers with explicit 2^-n convergence moduli.

A :class:`RealName` packages an approximation oracle together with a
rational magnitude bound.  The bound is what makes the modulus of
multiplication (and every norm computation downstream) locally
computable; plain approximation oracles do not carry enough data.

Every oracle here is pure, so names are immutable values that can be
queried concurrently from several threads.  An exact name (see
:meth:`RealName.from_fraction`) is computed on each query: it rounds its
rational and keeps no cache.  Any other name memoizes its approximants
in a plain dict, as :func:`_memoized` memoizes a sequence, and takes no
lock: ``dict.get`` and ``dict.setdefault`` on an integer key are each
atomic (one step under the GIL, and under the per-object lock of a
free-threaded build), so two callers racing on one precision may both
compute, but both receive the first value stored.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Callable, Optional

from .dyadic import Dyadic, ZERO, clog2, round_fraction

RationalLike = Fraction | int


class RealName:
    """Oracle ``n -> Dyadic`` within 2^-n of a real, plus ``|x| <= mag``.

    ``exact`` records that the represented real is a known rational: it
    is set by :meth:`from_fraction` and None otherwise; arithmetic
    propagates it so that finite computations over rational data stay
    exact end to end.
    """

    __slots__ = ("_fn", "mag", "exact", "_cache")

    def __init__(self, fn: Callable[[int], Dyadic], mag: RationalLike):
        self._fn = fn
        self.mag = mag if isinstance(mag, Fraction) else Fraction(mag)
        self.exact = None
        if self.mag < 0:
            raise ValueError("magnitude bound must be nonnegative")
        self._cache: dict[int, Dyadic] = {}

    # -- evaluation --------------------------------------------------

    def approx(self, n: int) -> Dyadic:
        """Dyadic within 2^-n of the represented real; deterministic."""
        if n < 0:
            raise ValueError("precision must be nonnegative")
        if self.exact is not None:
            return round_fraction(self.exact, n)
        hit = self._cache.get(n)
        if hit is None:
            hit = self._cache.setdefault(n, self._fn(n))
        return hit

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_fraction(q: RationalLike) -> "RealName":
        """The exact name of q, built directly (mag = |q|: nothing to check);
        it has no oracle and no cache."""
        x = object.__new__(RealName)
        x.exact = q if isinstance(q, Fraction) else Fraction(q)
        x._fn, x.mag, x._cache = None, abs(x.exact), None
        return x

    # -- operator sugar (lift_arith under the hood) -------------------

    def __add__(self, other: "RealName") -> "RealName":
        return lift_arith("add", self, other)

    def __sub__(self, other: "RealName") -> "RealName":
        return lift_arith("sub", self, other)

    def __mul__(self, other: "RealName") -> "RealName":
        return lift_arith("mul", self, other)

    def __neg__(self) -> "RealName":
        if self.exact is not None:
            return RealName.from_fraction(-self.exact)
        return RealName(lambda n: -self.approx(n), self.mag)

    def __repr__(self) -> str:
        if self.exact is not None:
            return f"RealName(exact={self.exact})"
        return f"RealName(mag={self.mag})"


ZERO_NAME = RealName.from_fraction(0)
ONE_NAME = RealName.from_fraction(1)


def lift_arith(op: str, x: RealName, y: RealName) -> RealName:
    """Lift add/sub/mul to names, with guard bits sized from the mags."""
    if op not in ("add", "sub", "mul"):
        raise ValueError(f"unsupported operation {op!r}")
    if x.exact is not None and y.exact is not None:
        if op == "add":
            return RealName.from_fraction(x.exact + y.exact)
        if op == "sub":
            return RealName.from_fraction(x.exact - y.exact)
        return RealName.from_fraction(x.exact * y.exact)

    if op in ("add", "sub"):
        sign = 1 if op == "add" else -1

        def fn(n: int) -> Dyadic:
            a = x.approx(n + 2)
            b = y.approx(n + 2)
            s = a + b if sign == 1 else a - b
            return round_fraction(s.as_fraction(), n + 1)

        return RealName(fn, x.mag + y.mag)

    # mul: raise the query precision enough for the cross terms
    guard = max(0, clog2(x.mag + y.mag + 2)) + 1

    def fn(n: int) -> Dyadic:
        m = n + 1 + guard
        prod = x.approx(m) * y.approx(m)
        return round_fraction(prod.as_fraction(), n + 1)

    return RealName(fn, x.mag * y.mag)


def scale(q: RationalLike, x: RealName) -> RealName:
    return lift_arith("mul", RealName.from_fraction(q), x)


def recip(x: RealName, lower_witness: RationalLike) -> RealName:
    """Name of 1/x given the apartness certificate |x| >= lower_witness > 0."""
    w = Fraction(lower_witness)
    if w <= 0:
        raise ValueError("lower witness must be positive")
    if x.exact is not None:
        if abs(x.exact) < w:
            raise ValueError("lower witness exceeds |x|")
        return RealName.from_fraction(1 / x.exact)
    guard = max(clog2(2 / (w * w)), clog2(2 / w), 0)

    def fn(n: int) -> Dyadic:
        m = n + 2 + guard
        a = x.approx(m)
        return round_fraction(1 / a.as_fraction(), n + 1)

    return RealName(fn, 1 / w)


def sqrt_name(x: RealName) -> RealName:
    """Name of sqrt(x) for x >= 0; approximants may dip below zero."""

    def fn(n: int) -> Dyadic:
        a = x.approx(2 * n + 4)
        q = a.as_fraction()
        if q <= 0:
            return ZERO
        # |sqrt(q) - sqrt(x)| <= sqrt(|q - x|) <= 2^-(n+2)
        k = n + 2
        scaled = q.numerator * (1 << (2 * k)) // q.denominator
        return Dyadic(isqrt(scaled), -k)

    return RealName(fn, max(Fraction(1), x.mag))


def limit_fast(
    s: Callable[[int], RealName], mag: Optional[RationalLike] = None
) -> RealName:
    """Name of lim s(k), where |s(k) - L| <= 2^-k for every k."""
    memo = _memoized(s)
    if mag is None:
        mag = memo(0).mag + 1
    return RealName(lambda n: memo(n + 1).approx(n + 1), mag)


def _memoized(f: Callable[[int], object]) -> Callable[[int], object]:
    """f on the indices k >= 0, with its values kept by index: concurrent
    callers of one k may each run f(k), but all receive the first value
    stored.  A negative k raises ValueError naming it; the check runs on
    a miss only, as no negative key is ever stored.  A callable this
    already returned comes back unchanged, so one memo serves every
    holder of it (every wrapper runs one code object)."""
    cache: dict[int, object] = {}

    def wrapped(k: int):
        hit = cache.get(k)
        if hit is None:
            if k < 0:
                raise ValueError(f"negative index {k}")
            hit = cache.setdefault(k, f(k))
        return hit

    return f if getattr(f, "__code__", None) is wrapped.__code__ else wrapped
