"""Riesz bases and the computably equivalent renormed space.

A Riesz basis is the image (T e_n) of the standard basis under a
boundedly invertible operator.  Both directions of the isomorphism are
part of the data: invertibility of a given operator is not decidable, so
T^-1 is a certificate, not something derived.  The renormed space
|||x||| = ||T x|| makes the basis behave like an orthonormal one while
staying computably equivalent to the original norm.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .dyadic import Immutable
from .frames import CertifiedFrame, Frame
from .operators import OperatorName, apply, from_finite_matrix
from .oracle import identity, mat_mul
from .realnames import RealName
from .vectors import VectorName, _memoized


class RieszBasisName(Immutable):
    """Basis (x_n) = (T e_n) with its inverse and the rows of T.

    T_adjoint_rows(n) is T*(e_n) (row n of T) as a full l2 name; it is
    the analysis certificate when the basis is viewed as a frame.
    """

    __slots__ = ("T", "T_inv", "_T_adjoint_rows")

    def __init__(
        self,
        T: OperatorName,
        T_inv: OperatorName,
        T_adjoint_rows: Callable[[int], VectorName],
    ):
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "T_inv", T_inv)
        object.__setattr__(self, "_T_adjoint_rows", _memoized(T_adjoint_rows))

    def elem(self, n: int) -> VectorName:
        if n < 0:
            raise ValueError("negative basis index")
        return apply(self.T, VectorName.basis(n))

    def T_adjoint_rows(self, n: int) -> VectorName:
        if n < 0:
            raise ValueError("negative row index")
        return self._T_adjoint_rows(n)

    @staticmethod
    def identity() -> "RieszBasisName":
        I = OperatorName.identity()
        return RieszBasisName(I, I, VectorName.basis)


def riesz_as_frame(R: RieszBasisName) -> CertifiedFrame:
    """The basis as a certified frame: A = 1/||T^-1||^2, B = ||T||^2."""
    lower = 1 / (R.T_inv.norm_bound * R.T_inv.norm_bound)
    upper = R.T.norm_bound * R.T.norm_bound
    analysis_op = OperatorName(
        R.T_adjoint_rows, R.T.norm_bound, support_bound=R.T.support_bound
    )
    return CertifiedFrame(Frame(R.elem, lower, upper), analysis_op)


class RenormedVectorName(Immutable):
    """A point of the renormed space: coefficients with |||x||| = ||T x||.

    The image T x is kept internally: the pair (coefficients, |||x|||)
    alone does not determine tail bounds, because (e_n) need not be
    orthonormal under the new norm.
    """

    __slots__ = ("_coeff", "tripled_norm", "image")

    def __init__(
        self,
        coeff: Callable[[int], RealName],
        tripled_norm: RealName,
        image: VectorName,
    ):
        object.__setattr__(self, "_coeff", _memoized(coeff))
        object.__setattr__(self, "tripled_norm", tripled_norm)
        object.__setattr__(self, "image", image)

    def coeff(self, i: int) -> RealName:
        if i < 0:
            raise ValueError("negative coefficient index")
        return self._coeff(i)


def renorm_to(R: RieszBasisName, x: VectorName) -> RenormedVectorName:
    """Convert a name of x into its name in the renormed space."""
    image = apply(R.T, x)
    return RenormedVectorName(x.coeff, image.norm, image)


def renorm_from(R: RieszBasisName, rx: RenormedVectorName) -> VectorName:
    """Convert back: recover the ordinary name from the stored image T x."""
    return apply(R.T_inv, rx.image)


def riesz_from_matrix(M, M_inv) -> RieszBasisName:
    """Riesz basis from a rational block perturbation: T = M on the first
    d coordinates and the identity beyond.

    M_inv must be the exact inverse of M; both are row-major rational
    matrices of the same square size.
    """
    M = [[Fraction(q) for q in row] for row in M]
    M_inv = [[Fraction(q) for q in row] for row in M_inv]
    d = len(M)
    if any(len(row) != d for row in M) or len(M_inv) != d or any(
        len(row) != d for row in M_inv
    ):
        raise ValueError("matrices must be square and of equal size")
    if mat_mul(M, M_inv) != identity(d):
        raise ValueError("supplied inverse is not the exact inverse")

    def block_operator(mat) -> OperatorName:
        base = from_finite_matrix(mat)

        def col(k: int) -> VectorName:
            return base.col(k) if k < d else VectorName.basis(k)

        # ||M (+) I|| <= max(||M||, 1); Frobenius bounds the block norm
        return OperatorName(col, max(base.norm_bound, Fraction(1)))

    # row n of T is column n of M^T (+) I
    rows = block_operator(list(zip(*M))).col
    return RieszBasisName(block_operator(M), block_operator(M_inv), rows)
