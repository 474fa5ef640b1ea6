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
    hence of every image).  ``_table`` is None until :func:`columns` first
    runs on U, then (L, cols, staged): ``cols`` maps each column read so
    far to its (index, numerator L / den) pairs, exact, over the one
    denominator L, or to () when it is not finite, and ``staged`` holds
    the indices of those.  It is replaced whole, never changed in place
    but for an insert, so names on several threads may share it.
    """

    __slots__ = ("col", "norm_bound", "support_bound", "_table")

    def __init__(
        self,
        col: Callable[[int], VectorName],
        norm_bound: Fraction,
        support_bound: Optional[int] = None,
    ):
        object.__setattr__(self, "col", _memoized(col))
        object.__setattr__(self, "norm_bound", Fraction(norm_bound))
        object.__setattr__(self, "support_bound", support_bound)
        object.__setattr__(self, "_table", None)
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
    :func:`columns` (a callable per stage), and rounds it by
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
    ||acc/L - sum_n m_n U e_n|| <= budget/2 in l2.  A finite column is
    exact and never changes, so it is read once per operator, into the
    table U keeps (see :class:`OperatorName`) as its integer numerators
    over the lcm of the denominators of the finite columns read so far.
    A column that is not finite is read at stage k, where 2^-k sum |m_n|
    <= budget/2 with the sum over such columns, and kept by the callable,
    read again at a finer stage when a later m needs one: so its integers
    depend on the calls made through the callable alone, and a driver
    run, which keeps one callable, sums the same rationals acc/L whatever
    ran on U before.  A call reads U's table once and sums in plain
    integers, the finite columns over the table's denominator, which is
    enlarged to the lcm with the stages' denominators only when a stage
    needs it.
    """
    held: dict[int, tuple[int, tuple[tuple[int, int], ...], int]] = {}  # n -> (stage, its pairs, its den)

    def combine(m: Mapping[int, int], budget: Fraction) -> tuple[dict[int, int], int]:
        table = U._table or _grow_table(U, (1, {}, {}), m)
        while True:
            L, cols, staged = table
            acc: dict[int, int] = {}
            get = acc.get
            try:
                for n, a in m.items():
                    for i, v in cols[n]:  # () for a column that is not finite
                        acc[i] = get(i, 0) + a * v
                break
            except KeyError:  # m has a column the table has not read yet
                table = _grow_table(U, table, m)
        stg = staged.keys() & m.keys() if staged else ()
        if not stg:
            return acc, L
        mass = sum(abs(m[n]) for n in stg)
        k = max(0, clog2_ratio(2 * mass * budget.denominator, budget.numerator)) if mass else 0
        for n in stg:
            if n not in held or held[n][0] < k:
                c = U.col(n).stage(k)
                held[n] = k, tuple(c.nums.items()), c.den
        grown = lcm(L, *(held[n][2] for n in stg))
        if grown != L:
            s = grown // L
            acc = {i: v * s for i, v in acc.items()}
            get = acc.get
        for n in stg:
            _, nums, den = held[n]
            a = m[n] * (grown // den)
            for i, v in nums:
                acc[i] = get(i, 0) + a * v
        return acc, grown

    return combine


def _grow_table(U: OperatorName, table: tuple, m: Mapping[int, int]) -> tuple:
    """``table`` with the columns of m it lacks, stored on U as its new table.

    A column that is not finite enters ``staged`` and then ``cols`` as ();
    the finite ones enter with one lcm: in place when their denominators
    divide L, else into a copy of ``cols`` rescaled to the new L, which
    replaces U's table whole.  So no entry of a table's dicts is ever
    changed or removed, and a thread reads ``cols`` whole only through
    ``dict(cols)`` and ``staged`` only through a set operation, each one
    call in C that no other thread interrupts.
    """
    L, cols, staged = table
    read: dict[int, FiniteVector] = {}
    for n in m:
        if n not in cols:
            c = U.col(n).finite
            if c is None:
                staged[n] = None  # before cols: a reader that finds () in cols finds n here
                cols[n] = ()
            else:
                read[n] = c
    grown = lcm(L, *(c.den for c in read.values()))
    if grown != L:
        s = grown // L
        cols = {n: tuple((i, v * s) for i, v in nums) for n, nums in dict(cols).items()}
    for n, c in read.items():
        s = grown // c.den
        cols[n] = tuple((i, v * s) for i, v in c.nums.items())
    table = grown, cols, staged
    if grown != L or U._table is None:
        object.__setattr__(U, "_table", table)
    return table


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
