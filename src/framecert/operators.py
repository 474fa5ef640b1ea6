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

from .dyadic import Immutable
from .realnames import RealName, _memoized
from .vectors import FiniteVector, VectorName, finite_stage, linear_combo, truncate


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
    """Name of Ux: the exact combination of U's columns for a finite x.

    Otherwise stage k truncates x within 2^-(k+1)/||U|| and combines the
    columns within 2^-(k+1), so it lies within 2^-k of Ux.
    """
    if U.norm_bound == 0:
        return VectorName.zero()
    if x.finite is not None:
        return linear_combo(
            [(RealName.from_fraction(q), U.col(i)) for i, q in x.finite.entries]
        )

    def stage(k: int) -> FiniteVector:
        v, _ = truncate(x, Fraction(1, 1 << (k + 1)) / U.norm_bound)
        return finite_stage(
            [(RealName.from_fraction(q), U.col(i)) for i, q in v.entries], k + 1
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


def banded_adjoint(
    rows: Callable[[int], VectorName], norm_bound: Fraction
) -> OperatorName:
    """Adjoint supplied as row data: col(n) of U* is row n of U."""
    return OperatorName(rows, norm_bound)
