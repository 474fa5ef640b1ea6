"""Names of bounded operators on l2, given by their columns.

An operator name is a column oracle (images of the standard basis)
together with a rational upper bound on the operator norm.  Column data
is exactly what computability of a bounded operator provides, and the
norm bound is what lets application absorb input tails.  Adjoints are
never derived automatically; they must be supplied as row data or be
structurally evident (finite matrices).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Mapping, Optional, Sequence

from .dyadic import Immutable, clog2, clog2_ratio
from .realnames import _memoized
from .vectors import FiniteVector, VectorName, exact_combo, on_grid


class OperatorName(Immutable):
    """Column oracle ``k -> VectorName`` plus ``||U|| <= norm_bound``.

    ``col`` is the memoized oracle itself (see :func:`_memoized`).
    ``support_bound``, when set, bounds the support of every column (and
    hence of every image).
    """

    __slots__ = ("col", "norm_bound", "support_bound")

    def __init__(
        self,
        col: Callable[[int], VectorName],
        norm_bound: Fraction,
        support_bound: Optional[int] = None,
    ):
        object.__setattr__(self, "col", _memoized(col))
        object.__setattr__(self, "norm_bound", Fraction(norm_bound))
        object.__setattr__(self, "support_bound", support_bound)
        if self.norm_bound < 0:
            raise ValueError("operator norm bound must be nonnegative")

    @staticmethod
    def identity() -> "OperatorName":
        return OperatorName(VectorName.basis, Fraction(1))

    @staticmethod
    def zero() -> "OperatorName":
        return OperatorName(lambda k: VectorName.zero(), Fraction(0), support_bound=0)


def apply(U: OperatorName, x: VectorName) -> VectorName:
    """Name of Ux.  For a finite x over finite columns, sum_i x_i U e_i
    exactly: one :func:`exact_combo` of x's integer numerators.

    Otherwise stage k reads x at stage k + 1 + clog2(||U||), a v within
    2^-(k+1)/||U|| of x, takes sum_n v_n U e_n within 2^-(k+2) by
    :func:`columns` (a table per stage call), and rounds it by
    :func:`on_grid` within 2^-(k+3): within (1 + 1/2 + 1/4) 2^-(k+1) <
    2^-k of Ux.
    """
    if U.norm_bound == 0:
        return VectorName.zero()
    if x.finite is not None:
        exact = exact_combo([(n, U.col(i)) for i, n in x.finite.nums.items()], x.finite.den)
        if exact is not None:
            return exact

    shift = 1 + clog2(U.norm_bound)

    def stage(k: int) -> FiniteVector:
        v = x.stage(max(0, k + shift))
        acc, L = columns(U)(v.nums, Fraction(v.den, 1 << (k + 1)))
        return on_grid(acc, L * v.den, k + 1)

    return VectorName.from_stage(stage, U.norm_bound * x.norm.mag, U.support_bound)


def columns(U: OperatorName) -> Callable[[Mapping[int, int], Fraction], tuple[dict[int, int], int]]:
    """The one kernel of sum_n m_n U e_n, for :func:`apply` and the frame driver.

    It returns a callable (m, budget) -> (acc, L) taking integers m (a
    mapping index -> int) to integers acc over one denominator L with
    ||acc/L - sum_n m_n U e_n|| <= budget/2 in l2.  Column n is read on
    first use, and kept as its integer numerators over its denominator:
    exactly when it is a finite vector, else at stage k, where 2^-k sum
    |m_n| <= budget/2 with the sum over the columns that are not finite;
    it is read again at a finer stage when a later m needs one.  The sum
    is accumulated in plain integers over the lcm L of the denominators
    of the columns read so far.  The table lives on the callable, so its
    values depend on the calls made through it alone and no thread shares
    it: a driver run keeps one, and each stage of :func:`apply` one, while
    U memoizes the columns and stages for all of them.
    """
    # column n as its (index, numerator) pairs and the factor L // (its
    # denominator), for the lcm L of the denominators held
    cols: dict[int, tuple[tuple[tuple[int, int], ...], int]] = {}
    staged: dict[int, int] = {}  # stage held in cols[n] for each column that is not finite
    L = 1

    def combine(m: Mapping[int, int], budget: Fraction) -> tuple[dict[int, int], int]:
        nonlocal L
        read: dict[int, FiniteVector] = {}
        for n in m.keys() - cols.keys():  # a staged column is in cols after its first call
            c = U.col(n).finite
            if c is None:
                staged[n] = -1
            else:
                read[n] = c
        if staged:
            mass = sum(abs(m[n]) for n in staged if n in m)
            k = max(0, clog2_ratio(2 * mass * budget.denominator, budget.numerator)) if mass else 0
            for n, held in staged.items():
                if held < k and n in m:
                    read[n], staged[n] = U.col(n).stage(k), k
        if read:
            grown = lcm(L, *(c.den for c in read.values()))
            if grown != L:
                for n, (nums, s) in cols.items():
                    cols[n] = nums, s * (grown // L)
                L = grown
            for n, c in read.items():
                cols[n] = tuple(c.nums.items()), L // c.den
        acc: dict[int, int] = {}
        get = acc.get
        for n, a in m.items():
            nums, s = cols[n]
            a *= s
            for i, v in nums:
                acc[i] = get(i, 0) + a * v
        return acc, L

    return combine


def compose(U: OperatorName, V: OperatorName) -> OperatorName:
    """Name of UV: columns are U applied to V's columns."""
    return OperatorName(
        lambda k: apply(U, V.col(k)),
        U.norm_bound * V.norm_bound,
        support_bound=U.support_bound,
    )


def finite_columns(vectors: Sequence[FiniteVector]) -> Callable[[int], VectorName]:
    """Column oracle k -> vectors[k] as a finite name, zero past the list."""
    names = [VectorName.from_finite(v) for v in vectors]

    def col(k: int) -> VectorName:
        return names[k] if k < len(names) else VectorName.zero()

    return col
