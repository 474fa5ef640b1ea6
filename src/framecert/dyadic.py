"""Exact dyadic rationals m * 2^e and rounding helpers.

Dyadics are the dense approximation set used by every name in this
package: halving a dyadic is exact, which matches the 2^-n error
ladder, and no gcd work is ever needed.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Callable, Mapping


class Immutable:
    """Base of the package's value types: attributes are set once, in
    ``__init__`` (or on a lazy first read) through ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Dyadic(Immutable):
    """Immutable dyadic rational ``mantissa * 2**exponent``.

    Canonical form: the mantissa is odd or zero, and zero is stored as
    ``0 * 2**0``.  Equality and hashing therefore coincide with numeric
    equality.
    """

    __slots__ = ("mantissa", "exponent")

    def __init__(self, mantissa: int, exponent: int = 0):
        mantissa = int(mantissa)
        exponent = int(exponent)
        if mantissa == 0:
            exponent = 0
        else:
            shift = (mantissa & -mantissa).bit_length() - 1
            mantissa >>= shift
            exponent += shift
        object.__setattr__(self, "mantissa", mantissa)
        object.__setattr__(self, "exponent", exponent)

    # -- conversions -------------------------------------------------

    def as_fraction(self) -> Fraction:
        if self.exponent >= 0:
            return Fraction(self.mantissa << self.exponent)
        return Fraction(self.mantissa, 1 << -self.exponent)

    def __float__(self) -> float:
        return self.mantissa * 2.0 ** self.exponent

    # -- arithmetic (always exact) -----------------------------------

    def __add__(self, other: "Dyadic") -> "Dyadic":
        e = min(self.exponent, other.exponent)
        m = (self.mantissa << (self.exponent - e)) + (
            other.mantissa << (other.exponent - e)
        )
        return Dyadic(m, e)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        return self + (-other)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.mantissa, self.exponent)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic(self.mantissa * other.mantissa, self.exponent + other.exponent)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.mantissa), self.exponent)

    # -- comparisons -------------------------------------------------

    def _cmp_key(self, other: "Dyadic"):
        e = min(self.exponent, other.exponent)
        return (
            self.mantissa << (self.exponent - e),
            other.mantissa << (other.exponent - e),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dyadic):
            return NotImplemented
        return self.mantissa == other.mantissa and self.exponent == other.exponent

    def __lt__(self, other: "Dyadic") -> bool:
        a, b = self._cmp_key(other)
        return a < b

    def __le__(self, other: "Dyadic") -> bool:
        a, b = self._cmp_key(other)
        return a <= b

    def __gt__(self, other: "Dyadic") -> bool:
        return not self <= other

    def __ge__(self, other: "Dyadic") -> bool:
        return not self < other

    def __hash__(self) -> int:
        return hash(self.as_fraction())

    def __bool__(self) -> bool:
        return self.mantissa != 0

    # -- text form: "m*2^e" ------------------------------------------

    def __str__(self) -> str:
        return f"{self.mantissa}*2^{self.exponent}"

    def __repr__(self) -> str:
        return f"Dyadic({self.mantissa}, {self.exponent})"

    @staticmethod
    def parse(text: str) -> "Dyadic":
        head, sep, tail = text.strip().partition("*2^")
        if not sep:
            raise ValueError(f"not a dyadic literal: {text!r}")
        return Dyadic(int(head), int(tail))


ZERO = Dyadic(0)


def round_fraction(q: Fraction, n: int) -> Dyadic:
    """Nearest multiple of 2^-n to ``q`` (ties to even); error <= 2^-(n+1)."""
    return round_ratio(q.numerator, q.denominator, n)


def round_ratio(num: int, den: int, n: int) -> Dyadic:
    """Nearest multiple of 2^-n to num/den for den > 0 (ties to even), in integers."""
    num, den = (num << n, den) if n >= 0 else (num, den << -n)
    m, rem = divmod(num, den)
    # round half to even on the scaled value
    twice = 2 * rem
    if twice > den or (twice == den and m % 2 == 1):
        m += 1
    return Dyadic(m, -n)


def div_nearest(num: int, den: int) -> int:
    """Nearest integer to num/den for den > 0 (ties up); error <= 1/2."""
    return (2 * num + den) // (2 * den)


def nearest(nums: Mapping[int, int], den: int, g: int = 0) -> dict[int, int]:
    """The nonzero nearest integers to n 2^g / den for the entries i -> n of
    ``nums``, den > 0 and g >= 0, rounded as :func:`div_nearest` rounds:
    one shift (n + 2^(s-1)) >> s when den = 2^(g+s)."""
    if den & (den - 1):
        den2 = 2 * den
        return {i: m for i, n in nums.items() if (m := ((n << (g + 1)) + den) // den2)}
    s = den.bit_length() - 1 - g
    if s <= 0:
        return {i: n << -s for i, n in nums.items() if n}
    half = 1 << (s - 1)
    return {i: m for i, n in nums.items() if (m := (n + half) >> s)}


def clog2(q: Fraction) -> int:
    """Smallest integer g with 2**g >= q (q > 0)."""
    if q <= 0:
        raise ValueError("clog2 requires a positive argument")
    return clog2_ratio(q.numerator, q.denominator)


def clog2_ratio(num: int, den: int) -> int:
    """Smallest integer g with 2**g >= num/den (num, den > 0), in integers."""
    g = num.bit_length() - den.bit_length()  # so 2**(g-1) < num/den < 2**(g+1)
    fits = (den << g) >= num if g >= 0 else den >= (num << -g)
    return g if fits else g + 1


def _smallest(fits: Callable[[int], bool]) -> int:
    """Smallest N >= 1 with fits(N), by doubling and then bisection.

    fits(N) holds throughout the bisection, so the answer fits even where
    fits is not monotone (and is then the smallest one that bisection
    finds).
    """
    N = 1
    while not fits(N):
        N *= 2
    lo = N // 2
    while N - lo > 1:
        mid = (lo + N) // 2
        if fits(mid):
            N = mid
        else:
            lo = mid
    return N


def sqrt_upper(q: Fraction, bits: int = 24) -> Fraction:
    """Dyadic upper bound on sqrt(q) within 2^-bits (q >= 0)."""
    if q < 0:
        raise ValueError("sqrt_upper requires a nonnegative argument")
    scale = 1 << (2 * bits)
    n = q.numerator * scale
    d = q.denominator
    r = isqrt(-(-n // d)) + 1  # ceil division, then +1 to stay above
    return Fraction(r, 1 << bits)


def sqrt_lower(q: Fraction, bits: int = 24) -> Fraction:
    """Dyadic lower bound on sqrt(q) within 2^-bits (q >= 0)."""
    if q < 0:
        raise ValueError("sqrt_lower requires a nonnegative argument")
    scale = 1 << (2 * bits)
    r = isqrt(q.numerator * scale // q.denominator)
    return Fraction(r, 1 << bits)


def decimal_string(d: Dyadic) -> str:
    """Exact decimal expansion of a dyadic (finite by construction)."""
    m, e = d.mantissa, d.exponent
    sign = "-" if m < 0 else ""
    m = abs(m)
    if e >= 0:
        return f"{sign}{int_string(m << e)}"
    scaled = m * 5 ** (-e)  # m * 10^-e / 2^-e... m*2^e = m*5^-e * 10^e
    digits = int_string(scaled).rjust(-e + 1, "0")
    return f"{sign}{digits[:e]}.{digits[e:]}"


_CHUNK_DIGITS = 600  # below 640, the least int-to-str digit limit Python allows
_CHUNK = 10**_CHUNK_DIGITS


def int_string(n: int) -> str:
    """str(n) for an integer of any size, in chunks of _CHUNK_DIGITS digits."""
    sign = "-" if n < 0 else ""
    n, chunks = abs(n), []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(str(low).rjust(_CHUNK_DIGITS, "0"))
    chunks.append(str(n))
    return sign + "".join(reversed(chunks))


def fraction_string(q: Fraction) -> str:
    """str(q) for a Fraction of any size."""
    if q.denominator == 1:
        return int_string(q.numerator)
    return f"{int_string(q.numerator)}/{int_string(q.denominator)}"
