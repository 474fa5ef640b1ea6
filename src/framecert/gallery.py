"""Parametric operator families sitting on the computability boundary.

All of them are driven by a positive sequence (a_i) with a_0 = 1 and
square-sum below 2.  With a norm certificate for (a_i) the induced
frames are fully computable end to end; without one (the Specker-style
instantiation, whose l2 norm is a left-c.e. real) the coefficientwise
data is still available but no analysis certificate can be built — the
constructors that need one reject the input at the type level.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Callable, Optional

from .dyadic import Dyadic, Immutable, _smallest, clog2, round_fraction, sqrt_upper
from .frames import CertifiedFrame, Frame
from .operators import OperatorName
from .realnames import ONE_NAME, ZERO_NAME, RealName, _memoized, lift_arith
from .vectors import (
    FiniteVector,
    VectorName,
    WeakVectorName,
    linear_combo,
    sqrt_of_fraction,
)


class MissingNormCertificateError(ValueError):
    """The construction needs a norm name the generator does not carry."""


class SequenceGen(Immutable):
    """Positive sequence (a_i), a_0 = 1, with square-sum certificate.

    ``a`` is the memoized oracle i -> a_i itself.  norm_name (a name of
    the l2 norm of (a_i)) is present only for instances whose norm is
    actually computable.  sq_tail(N), when given, bounds the tail sum of
    a_i^2 over i >= N: it gives the sequence's names a Cauchy stage
    cheaper than the one certified through the norm.
    """

    __slots__ = ("a", "sq_sum_upper", "norm_name", "sq_tail")

    def __init__(
        self,
        a: Callable[[int], RealName],
        sq_sum_upper: Fraction,
        norm_name: Optional[RealName] = None,
        sq_tail: Optional[Callable[[int], Fraction]] = None,
    ):
        object.__setattr__(self, "a", _memoized(a))
        object.__setattr__(self, "sq_sum_upper", Fraction(sq_sum_upper))
        object.__setattr__(self, "norm_name", norm_name)
        object.__setattr__(self, "sq_tail", sq_tail)
        if not 0 < self.sq_sum_upper < 2:
            raise ValueError("square-sum bound must lie in (0, 2)")


def benign_sequence() -> SequenceGen:
    """Fully computable instance a_i = 2^-i (square sum 4/3)."""
    return SequenceGen(
        lambda i: RealName.from_fraction(Fraction(1, 1 << i)),
        Fraction(4, 3),
        sqrt_of_fraction(Fraction(4, 3)),
        # sum_{i >= N} 4^-i = 4^-N * 4/3
        sq_tail=lambda N: Fraction(4, 3) / (1 << (2 * N)),
    )


def specker_sequence(enumerator: Callable[[int], int]) -> SequenceGen:
    """Norm-free instance from an injective enumeration of a c.e. set.

    a_0 = 1 and a_i^2 = 2^-(w+2) for w = enumerator(i-1), i >= 1.  The
    square sum is at most 1 + sum 2^-(w+2) <= 3/2, but its exact value
    encodes the enumerated set, so no norm name is attached.  Detected
    duplicate enumerations are rejected: ``seen.setdefault`` is atomic,
    so of two indices that enumerate one value, racing or not, the one
    that stores it second raises.
    """
    seen: dict[int, int] = {}

    def a(i: int) -> RealName:
        if i == 0:
            return ONE_NAME
        w = enumerator(i - 1)
        if w < 0:
            raise ValueError("enumerator must produce naturals")
        if seen.setdefault(w, i) != i:
            raise ValueError(f"enumerator repeats value {w}")
        return sqrt_of_fraction(Fraction(1, 1 << (w + 2)))

    return SequenceGen(a, Fraction(3, 2), None)


def parse_enumerator(text: str) -> Callable[[int], int]:
    """Named enumerators usable from spec files: identity, squares."""
    if text == "identity":
        return lambda j: j
    if text == "squares":
        return lambda j: (j + 1) * (j + 1)
    raise ValueError(f"unknown enumerator {text!r}")


def example_upper_row(g: SequenceGen) -> OperatorName:
    """Surjective operator with first row (1, a_1, a_2, ...).

    Columns: col(0) = d_0 and col(i) = a_i d_0 + d_i; every column is a
    finite combination, hence a full name — the operator is computable
    even when the norm of (a_i) is not.
    """

    def col(i: int) -> VectorName:
        if i == 0:
            return VectorName.basis(0)
        return linear_combo(
            [(g.a(i), VectorName.basis(0)), (ONE_NAME, VectorName.basis(i))]
        )

    return OperatorName(col, Fraction(3))


def upper_row_analysis_coeff(g: SequenceGen, f: VectorName) -> WeakVectorName:
    """Coefficientwise analysis of the upper-row frame: always available."""

    def coeff(i: int) -> RealName:
        if i == 0:
            return f.coeff(0)
        return lift_arith(
            "add", lift_arith("mul", g.a(i), f.coeff(0)), f.coeff(i)
        )

    return WeakVectorName(coeff, Fraction(3) * f.norm.mag)


def _tail_norm_upper(g: SequenceGen) -> Fraction:
    """A dyadic upper bound s of ||a'||, a' = (0, a_1, a_2, ...)."""
    return sqrt_upper(g.sq_sum_upper - 1, bits=10)


def upper_row_bounds(g: SequenceGen) -> tuple[Fraction, Fraction]:
    """Frame bounds (1 -+ s)^2 of the upper-row frame.

    s bounds ||a'||, from ||U* f|| >= (1 - ||a'||) ||f|| and ||U|| <= 1 +
    ||a'||.
    """
    s = _tail_norm_upper(g)
    if s >= 1:
        raise ValueError("cannot certify a positive lower frame bound")
    return (1 - s) * (1 - s), (1 + s) * (1 + s)


def upper_row_frame(g: SequenceGen) -> CertifiedFrame:
    """The upper-row frame with a full analysis certificate and U^-1.

    Requires g.norm_name: the analysis column at index 0 is the whole
    sequence (a_i), a full name only when its norm is one.  Frame bounds
    from :func:`upper_row_bounds`.  U = I + e_0 a'^T is a bijection with
    U^-1 = I - e_0 a'^T, so T+ = U^-1: column i of U^-1 is e_i - a_i e_0,
    column 0 of (U^-1)* = I - a' e_0^T is e_0 - a' = 2 e_0 - (a_i), and
    both norms are at most 1 + s.  The frame carries (U^-1, (U^-1)*);
    their columns are built when first read.
    """
    # row 0 of U is (1, a_1, a_2, ...) = (a_i)
    row = _sequence_name(g, 0)
    U = example_upper_row(g)
    lower, upper = upper_row_bounds(g)

    def rows(n: int) -> VectorName:
        return row if n == 0 else VectorName.basis(n)

    def inv_col(i: int) -> VectorName:
        if i == 0:
            return VectorName.basis(0)
        return linear_combo([(-g.a(i), VectorName.basis(0)), (ONE_NAME, VectorName.basis(i))])

    def inv_adjoint_col(n: int) -> VectorName:
        if n:
            return VectorName.basis(n)
        # e_0 - a' = 2 e_0 - (a_i), as a_0 = 1
        return linear_combo(
            [(RealName.from_fraction(2), VectorName.basis(0)), (RealName.from_fraction(-1), row)]
        )

    bound = 1 + _tail_norm_upper(g)
    pinv = (OperatorName(inv_col, bound), OperatorName(inv_adjoint_col, bound))
    analysis_op = OperatorName(rows, Fraction(3))
    return CertifiedFrame(Frame(U.col, lower, upper), analysis_op, pinv=pinv)


def _sequence_name(g: SequenceGen, start: int) -> VectorName:
    """(0, ..., 0, a_0, a_1, ...) with a_0 at index start; norm g.norm_name.

    Without g.norm_name it raises MissingNormCertificateError: the whole
    sequence has a full name only when its norm has one.

    With a tail certificate sq_tail, stage k is (a_0, ..., a_{N-1}) for
    the smallest N with sq_tail(N) <= 4^-k, so it is within 2^-k.  That
    reads every a_i it keeps exactly; when one of them has no exact
    value, stage k instead cuts at sq_tail(N) <= 4^-(k+1) and rounds each
    a_i within 2^-(k+1) / sqrt(N), which costs 2^-(k+1) for the tail
    plus 2^-(k+1) for the rounding.  Without sq_tail the constructor's
    stage certifies the tail through the norm.
    """
    if g.norm_name is None:
        raise MissingNormCertificateError(
            "the whole sequence (a_i) has a full name only with a norm name"
        )

    def coeff(n: int) -> RealName:
        return ZERO_NAME if n < start else g.a(n - start)

    def stage(k: int) -> FiniteVector:
        N = _smallest(lambda n: g.sq_tail(n) <= Fraction(1, 1 << (2 * k)))
        a = [g.a(i).exact for i in range(N)]
        if None in a:
            N = _smallest(lambda n: g.sq_tail(n) <= Fraction(1, 1 << (2 * k + 2)))
            pc = k + 1 + clog2(Fraction(isqrt(N) + 1))
            a = [g.a(i).approx(pc).as_fraction() for i in range(N)]
        return FiniteVector([(start + i, q) for i, q in enumerate(a)])

    staged = None if g.sq_tail is None else _memoized(stage)
    return VectorName(coeff, g.norm_name, stage=staged)


def lower_column_operator(g: SequenceGen) -> OperatorName:
    """Operator with first column (1, a_1, a_2, ...) and identity beyond.

    col(0) is a full name only with a norm certificate; otherwise the
    constructor rejects, which is exactly the boundary the family marks.
    """
    col0 = _sequence_name(g, 0)
    return OperatorName(lambda i: col0 if i == 0 else VectorName.basis(i), Fraction(3))


def lower_column_row_data(g: SequenceGen) -> Callable[[int], RealName]:
    """Coefficientwise data (n, i) -> entry of the lower-column operator.

    Exposed as n -> coeff oracle of column 0; available with or without
    a norm certificate.
    """
    return lambda n: g.a(n)


def coeff_perturbation_rows(g: SequenceGen) -> Callable[[int], VectorName]:
    """Rows of the operator that is the identity except row 1 = (0, 1, a_1, a_2, ...).

    Row 1 is a full name only when g carries a norm certificate; the
    other rows are standard basis vectors.
    """

    def rows(n: int) -> VectorName:
        # (0, 1, a_1, a_2, ...) is (a_i) shifted by one, since a_0 = 1
        return _sequence_name(g, 1) if n == 1 else VectorName.basis(n)

    return rows


def toeplitz_reciprocal(g: SequenceGen, i: int) -> RealName:
    """Coefficient i of the reciprocal power series of 1 + a_1 z + a_2 z^2 + ...

    b_0 = 1 and b_i = -(a_i + sum_{j=1}^{i-1} a_j b_{i-j}); the rows of
    the inverse Toeplitz operator are (b_i, ..., b_1, 1).  For geometric
    sequences all b_i with i >= 2 vanish.

    The oracle runs the recurrence in a loop over approximations of
    a_1..a_i at one working precision, rounding each b_n to it.  With
    m_j = a_j.mag, |b_n| <= M_n = m_n + sum_{j=1}^{n-1} m_j M_{n-j}.  If
    every a_j and every rounding is within d <= 1, the error of b_n is at
    most d * C_n, where C_0 = 0 and
    C_n = 1 + sum_{k<n} M_k + sum_{j=1}^{n} (m_j + 1) C_{n-j}.
    """
    if i < 0:
        raise ValueError("negative index")
    a = [g.a(j) for j in range(1, i + 1)]
    if all(x.exact is not None for x in a):
        return RealName.from_fraction(_reciprocal([x.exact for x in a], None))
    m = [Fraction(0)] + [x.mag for x in a]
    M, C = [Fraction(1)], [Fraction(0)]
    for n in range(1, i + 1):
        M.append(sum(m[j] * M[n - j] for j in range(1, n + 1)))
        C.append(1 + sum(M[:n]) + sum((m[j] + 1) * C[n - j] for j in range(1, n + 1)))
    guard = clog2(C[i])

    def fn(n: int) -> Dyadic:
        w = n + 1 + guard
        b = _reciprocal([x.approx(w).as_fraction() for x in a], w)
        return round_fraction(b, n + 1)

    return RealName(fn, M[i])


def _reciprocal(alpha: list[Fraction], grid: Optional[int]) -> Fraction:
    """b_i from a_1..a_i = alpha, each b_n rounded to 2^-grid unless None."""
    b = [Fraction(1)]
    for n in range(1, len(alpha) + 1):
        s = -sum(alpha[j - 1] * b[n - j] for j in range(1, n + 1))
        b.append(s if grid is None else round_fraction(s, grid).as_fraction())
    return b[-1]


def toeplitz_dual_element(g: SequenceGen, i: int) -> VectorName:
    """Row i of the inverse Toeplitz operator: (b_i, ..., b_1, 1, 0, ...).

    Finite support, hence always a full name — even for norm-free
    sequences.  These are the biorthogonal (dual) elements of the
    shifted family g_i = (0, ..., 0, 1, a_1, a_2, ...).
    """
    if i < 0:
        raise ValueError("negative index")
    terms = [(toeplitz_reciprocal(g, i - j), VectorName.basis(j)) for j in range(i)]
    terms.append((ONE_NAME, VectorName.basis(i)))
    return linear_combo(terms)


def toeplitz_primal_element(g: SequenceGen, i: int) -> VectorName:
    """g_i = (0, ..., 0, 1, a_1, a_2, ...) starting at index i.

    A full name only with a norm certificate.
    """
    return _sequence_name(g, i)


def doubled_onb() -> CertifiedFrame:
    """Each basis vector listed twice: a tight frame, S = 2 I, with T+ = T*/2."""

    def elem(k: int, q: Fraction = Fraction(1)) -> VectorName:
        return VectorName.from_finite(FiniteVector([(k // 2, q)]))

    def col(n: int, q: Fraction = Fraction(1)) -> VectorName:
        return VectorName.from_finite(FiniteVector([(2 * n, q), (2 * n + 1, q)]))

    half, bound = Fraction(1, 2), sqrt_upper(Fraction(1, 2))
    pinv = (OperatorName(lambda n: col(n, half), bound), OperatorName(lambda k: elem(k, half), bound))
    return CertifiedFrame(Frame(elem, 2, 2), OperatorName(col, sqrt_upper(Fraction(2))), pinv=pinv)
