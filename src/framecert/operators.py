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
from typing import Callable, Optional, Sequence

from .dyadic import Immutable, clog2
from .realnames import RealName, _memoized
from .vectors import FiniteVector, VectorName, exact_combo, finite_stage, linear_combo, on_grid


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
    """Name of Ux.  For a finite x, sum_i x_i U e_i: one :func:`exact_combo`
    of x's integer numerators over finite columns, else :func:`linear_combo`.

    For any other x, stage k reads x at stage k + 1 + clog2(||U||), within
    2^-(k+1)/||U||, and combines the columns within 2^-(k+1), so it lies
    within 2^-k of Ux: by :func:`finite_stage`, or, when every column the
    truncation v needs is finite, as one integer combination of v's
    numerators over its denominator (the :func:`exact_combo` rule)
    rounded by :func:`on_grid`, which equals what :func:`finite_stage`
    computes from those terms.
    """
    if U.norm_bound == 0:
        return VectorName.zero()
    if x.finite is not None:
        v, cols = x.finite, [(n, U.col(i)) for i, n in x.finite.nums.items()]
        return exact_combo(cols, v.den) or linear_combo(
            [(RealName.from_fraction(Fraction(n, v.den)), c) for n, c in cols])

    shift = 1 + clog2(U.norm_bound)

    def stage(k: int) -> FiniteVector:
        v = x.stage(max(0, k + shift))
        cols = [(n, U.col(i)) for i, n in v.nums.items()]
        if all(c.finite is not None for _, c in cols):
            return on_grid(FiniteVector.combination(((n, c.finite) for n, c in cols), v.den), k + 1)
        return finite_stage(
            [(RealName.from_fraction(Fraction(n, v.den)), c) for n, c in cols], k + 1
        )

    return VectorName.from_stage(stage, U.norm_bound * x.norm.mag, U.support_bound)


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
