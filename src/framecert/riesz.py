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
from operator import mul
from typing import Callable

from .dyadic import Immutable, sqrt_upper
from .frames import CertifiedFrame, Frame
from .operators import OperatorName, apply
from .oracle import _cleared, _enclosures
from .realnames import RealName
from .vectors import FiniteVector, VectorName, _memoized


class RieszBasisName(Immutable):
    """Basis (x_n) = (T e_n) with its inverse and the rows of T.

    T_adjoint_rows(n) is T*(e_n) (row n of T) as a full l2 name, from
    a memoized oracle; it is the analysis certificate when the basis is
    viewed as a frame.  T_inv_adjoint_rows(n) is (T^-1)*(e_n) (row n of
    T^-1) in the same way: with it the frame carries T^-1 as its
    pseudo-inverse (see :func:`riesz_as_frame`).
    """

    __slots__ = ("T", "T_inv", "T_adjoint_rows", "T_inv_adjoint_rows")

    def __init__(
        self,
        T: OperatorName,
        T_inv: OperatorName,
        T_adjoint_rows: Callable[[int], VectorName],
        T_inv_adjoint_rows: Callable[[int], VectorName],
    ):
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "T_inv", T_inv)
        object.__setattr__(self, "T_adjoint_rows", _memoized(T_adjoint_rows))
        object.__setattr__(self, "T_inv_adjoint_rows", _memoized(T_inv_adjoint_rows))

    def elem(self, n: int) -> VectorName:
        return self.T.col(n)

    @staticmethod
    def identity() -> "RieszBasisName":
        I = OperatorName.identity()
        return RieszBasisName(I, I, I.col, I.col)


def riesz_as_frame(R: RieszBasisName) -> CertifiedFrame:
    """The basis as a certified frame: A = 1/||T^-1||^2, B = ||T||^2.

    T is a bijection, so T+ = T^-1: the frame carries (T^-1, (T^-1)*),
    the adjoint's columns being the rows of T^-1.
    """
    lower = 1 / (R.T_inv.norm_bound * R.T_inv.norm_bound)
    upper = R.T.norm_bound * R.T.norm_bound
    analysis_op = OperatorName(
        R.T_adjoint_rows, R.T.norm_bound, support_bound=R.T.support_bound
    )
    pinv = (R.T_inv, OperatorName(R.T_inv_adjoint_rows, R.T_inv.norm_bound))
    return CertifiedFrame(Frame(R.T.col, lower, upper), analysis_op, pinv=pinv)


class RenormedVectorName(Immutable):
    """A point of the renormed space: coefficients with |||x||| = ||T x||.

    The image T x is kept internally: the pair (coefficients, |||x|||)
    alone does not determine tail bounds, because (e_n) need not be
    orthonormal under the new norm.
    """

    __slots__ = ("coeff", "tripled_norm", "image")

    def __init__(
        self,
        coeff: Callable[[int], RealName],
        tripled_norm: RealName,
        image: VectorName,
    ):
        object.__setattr__(self, "coeff", _memoized(coeff))
        object.__setattr__(self, "tripled_norm", tripled_norm)
        object.__setattr__(self, "image", image)


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

    M and M_inv are row-major square matrices of one size with int or
    Fraction entries, and M_inv must be the exact inverse of M.  Both are
    cleared once, M = N / D and M_inv = P / E, and N P = D E I is checked
    on integers.  The norm bounds are max(sqrt(B+), 1) for T and
    max(1 / sqrt(A-), 1) for T^-1, with (A-, ..., B+) the eigenvalue
    enclosure of M M^T = N N^T / D^2 (definite, as M is invertible), so
    the frame's bounds enclose the spectrum of M M^T (+) I.
    """
    d = len(M)
    if not d:
        raise ValueError("matrix must be nonempty")
    if any(len(row) != d for row in M) or len(M_inv) != d or any(
        len(row) != d for row in M_inv
    ):
        raise ValueError("matrices must be square and of equal size")
    (N, D), (P, E) = _cleared(M), _cleared(M_inv)
    if [[sum(map(mul, row, col)) for col in zip(*P)] for row in N] != [
        [D * E * (i == j) for j in range(d)] for i in range(d)
    ]:
        raise ValueError("supplied inverse is not the exact inverse")
    am, _, _, bp = _enclosures([[sum(map(mul, u, v)) for v in N] for u in N], D * D)

    def block(vectors, den: int) -> Callable[[int], VectorName]:
        """k -> vectors[k] / den for k < d, e_k beyond, built when first read
        (every holder memoizes it)."""
        vectors = list(vectors)
        return lambda k: (
            VectorName.from_finite(FiniteVector.over(enumerate(vectors[k]), den))
            if k < d else VectorName.basis(k)
        )

    # columns of M (+) I and of its inverse; row n of T (of T^-1) is row n
    # of N over D (of P over E)
    T = OperatorName(block(zip(*N), D), max(sqrt_upper(bp), Fraction(1)))
    T_inv = OperatorName(block(zip(*P), E), max(sqrt_upper(1 / am), Fraction(1)))
    return RieszBasisName(T, T_inv, block(N, D), block(P, E))
