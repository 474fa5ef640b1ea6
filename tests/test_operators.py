from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from framecert.operators import (
    OperatorName,
    apply,
    compose,
    finite_columns,
)
from framecert.gallery import benign_sequence, upper_row_frame
from framecert.realnames import RealName
from framecert.specfile import load_spec
from framecert.vectors import (
    FiniteVector,
    VectorName,
    finite_stage,
    sqrt_of_fraction,
    linear_combo,
    truncate,
)
from test_vectors import from_model, models


def tol(n):
    return Fraction(1, 2**n)


def approx(x, n):
    return x.approx(n).as_fraction()


def sqrt_oracle(q, bits=60):
    return Fraction(isqrt(Fraction(q).numerator * 4**bits // Fraction(q).denominator), 2**bits)


def benign_upper_row_operator():
    """Columns: col(0) = d0, col(i) = 2^-i d0 + d_i (the a_i = 2^-i instance)."""

    def col(i):
        if i == 0:
            return VectorName.basis(0)
        return VectorName.from_finite(
            FiniteVector([(0, Fraction(1, 2**i)), (i, Fraction(1))])
        )

    return OperatorName(col, Fraction(3))


def matrix_operator(rows, norm_bound):
    """The operator of a rational matrix given by its rows, with a true norm bound."""
    cols = [FiniteVector(enumerate(c)) for c in zip(*rows)]
    return OperatorName(finite_columns(cols), norm_bound, support_bound=len(rows))


class TestApply:
    def test_identity(self):
        x = VectorName.from_finite(FiniteVector.parse("0:2 3:-1"))
        y = apply(OperatorName.identity(), x)
        assert y.finite == x.finite

    def test_zero_operator(self):
        y = apply(OperatorName.zero(), VectorName.basis(4))
        assert y.finite == FiniteVector()

    def test_example_matrix_column_action(self):
        U = benign_upper_row_operator()
        y = apply(U, VectorName.basis(1))
        assert y.finite == FiniteVector.parse("0:1/2 1:1")
        assert abs(approx(y.norm, 30) - sqrt_oracle(Fraction(5, 4))) <= 2 * tol(30)

    def test_lazy_input(self):
        # x = geometric vector; identity application preserves coefficients
        x = VectorName(
            lambda i: RealName.from_fraction(Fraction(1, 2 ** (i + 1))),
            sqrt_of_fraction(Fraction(1, 3)),
        )
        y = apply(OperatorName.identity(), x)
        assert abs(approx(y.coeff(2), 25) - Fraction(1, 8)) <= tol(25)
        assert abs(approx(y.norm, 25) - sqrt_oracle(Fraction(1, 3))) <= 2 * tol(25)

    def test_norm_contract(self):
        U = matrix_operator([[2, 1], [1, 2]], Fraction(16, 5))
        x = VectorName.from_finite(FiniteVector.parse("0:1 1:1"))
        for n in (5, 20):
            assert approx(apply(U, x).norm, n) <= U.norm_bound * approx(
                x.norm, n
            ) + 2 * tol(n)

    def test_linearity_on_finite_vectors(self):
        U = matrix_operator([[1, 2], [3, 4]], 6)
        x = VectorName.from_finite(FiniteVector.parse("0:1/2"))
        y = VectorName.from_finite(FiniteVector.parse("1:-2/3"))
        lhs = apply(
            U,
            linear_combo(
                [
                    (RealName.from_fraction(3), x),
                    (RealName.from_fraction(-1), y),
                ]
            ),
        )
        rhs = linear_combo(
            [
                (RealName.from_fraction(3), apply(U, x)),
                (RealName.from_fraction(-1), apply(U, y)),
            ]
        )
        assert lhs.finite == rhs.finite


class TestCompose:
    def test_identity_left(self):
        U = matrix_operator([[1, 1], [0, 1]], 2)
        C = compose(OperatorName.identity(), U)
        for k in range(2):
            assert C.col(k).finite == U.col(k).finite

    def test_zero_right(self):
        C = compose(matrix_operator([[1, 0], [0, 1]], 1), OperatorName.zero())
        assert C.col(5).finite == FiniteVector()

    def test_mercedes_frame_operator_matrix(self):
        # synthesis columns {(1,0),(0,1),(1,1)}; S = T T* = [[2,1],[1,2]]
        T = matrix_operator([[1, 0, 1], [0, 1, 1]], 2)
        Tstar = matrix_operator([[1, 0], [0, 1], [1, 1]], 2)
        S = compose(T, Tstar)
        assert S.col(0).finite == FiniteVector.parse("0:2 1:1")
        assert S.col(1).finite == FiniteVector.parse("0:1 1:2")

    def test_associativity_vs_exact_product(self):
        A = [[1, 2], [0, 1]]
        B = [[2, 0], [1, 1]]
        C = [[1, 1], [1, 0]]

        def matmul(X, Y):
            return [
                [
                    sum(Fraction(X[i][k]) * Fraction(Y[k][j]) for k in range(2))
                    for j in range(2)
                ]
                for i in range(2)
            ]

        # norms: 1 + sqrt 2, (sqrt 10 + sqrt 2)/2, the golden ratio, and at most their product
        lhs = compose(matrix_operator(A, 3), compose(matrix_operator(B, 3), matrix_operator(C, 2)))
        rhs = matrix_operator(matmul(matmul(A, B), C), 18)
        for k in range(2):
            for i in range(2):
                got = approx(lhs.col(k).coeff(i), 30)
                assert abs(got - rhs.col(k).coeff(i).exact) <= tol(30)


class TestFromFiniteMatrix:
    """Operators of a finite matrix, read from its columns by finite_columns."""

    def test_identity(self):
        I2 = matrix_operator([[1, 0], [0, 1]], 1)
        assert I2.col(0).finite == FiniteVector.parse("0:1")
        assert I2.col(7).finite == FiniteVector()

    def test_zero_matrix(self):
        Z = matrix_operator([[0]], 0)
        assert Z.col(0).finite == FiniteVector()


class TestBandedAdjoint:
    # an adjoint supplied as row data is the operator of its rows: col(n)
    # of U* is row n of U

    def test_identity_rows(self):
        A = OperatorName(VectorName.basis, Fraction(1))
        assert A.col(3).finite == FiniteVector.parse("3:1")

    def test_benign_first_row(self):
        # rows of the upper-row example: row 0 = (1, 1/2, 1/4, ...), full name
        def rows(n):
            if n == 0:
                return VectorName(
                    lambda i: RealName.from_fraction(Fraction(1, 2**i)),
                    sqrt_of_fraction(Fraction(4, 3)),
                )
            return VectorName.basis(n)

        A = OperatorName(rows, Fraction(3))
        col0 = A.col(0)
        assert abs(approx(col0.coeff(2), 30) - Fraction(1, 4)) <= tol(30)
        assert abs(approx(col0.norm, 30) - sqrt_oracle(Fraction(4, 3))) <= 2 * tol(30)


# -- apply on a finite input over finite columns, against a dict[int, Fraction] model ----

# inputs whose entries share one denominator, zero numerators included
shared = st.builds(
    lambda nums, den: {i: Fraction(n, den) for i, n in nums.items()},
    st.dictionaries(st.integers(0, 8), st.integers(-6, 6), max_size=6),
    st.sampled_from([1, 2, 6, 12, 2**40]),
)
inputs = st.one_of(models, shared)


def model_apply(x: dict, cols: list) -> dict:
    """sum_i x_i cols[i], a column past the list being zero."""
    want: dict[int, Fraction] = {}
    for i, q in x.items():
        for l, c in (cols[i] if i < len(cols) else {}).items():
            want[l] = want.get(l, Fraction(0)) + q * c
    return want


def frobenius_bound(cols: list) -> Fraction:
    """1 + sum ||col||^2, at least the Frobenius norm and so a true norm bound."""
    return sum((from_model(c).norm_squared() for c in cols), Fraction(1))


@settings(max_examples=150, deadline=None)
@given(inputs, st.lists(models, max_size=6))
def test_apply_finite_over_finite_columns_matches_the_fraction_model(x, cols):
    U = OperatorName(finite_columns([from_model(c) for c in cols]), frobenius_bound(cols))
    y = apply(U, VectorName.from_finite(from_model(x)))
    assert y.finite == from_model(model_apply(x, cols))


@settings(max_examples=40, deadline=None)
@given(inputs, st.lists(models, min_size=1, max_size=4), st.data())
def test_apply_finite_over_mixed_columns_is_staged(x, cols, data):
    # one column served as a staged name of itself: the image is staged, and
    # it is the combination linear_combo stages from x's entries as names
    k = data.draw(st.integers(0, len(cols) - 1))
    if not x.get(k):  # drawn, not filtered: filtering most inputs fails a health check
        x = {**x, k: data.draw(st.fractions(-6, 6, max_denominator=12).filter(bool))}
    exact = [from_model(c) for c in cols]
    staged = VectorName.from_stage(lambda j: exact[k], exact[k].norm_squared() + 1)
    col = finite_columns(exact)
    U = OperatorName(lambda i: staged if i == k else col(i), frobenius_bound(cols))
    v = from_model(x)
    y = apply(U, VectorName.from_finite(v))
    assert y.finite is None
    by_names = linear_combo([(RealName.from_fraction(q), U.col(i)) for i, q in v.entries])
    want = from_model(model_apply(x, cols))
    for j in (0, 8, 30):
        assert y.stage(j) == by_names.stage(j)
        gap = FiniteVector.combination([(1, y.stage(j)), (-1, want)])
        assert gap.norm_squared() <= Fraction(1, 4**j)


# -- a staged input over finite columns: one integer combination ------

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

FINITE_COLUMN_OPERATORS = {
    "mercedes T*": lambda: load_spec(str(FIXTURES / "mercedes.json")).certified.analysis_op,
    "riesz_shear T^-1": lambda: load_spec(str(FIXTURES / "riesz_shear.json")).certified.pinv[0],
    "benign U^-1": lambda: upper_row_frame(benign_sequence()).pinv[0],
}


def staged_inputs() -> list[VectorName]:
    """A finite vector with non-dyadic entries given by its stage alone, and
    x_i = 3^-i given by stage k = (x_0, ..., x_k), within 3^-(k+1) (9/8)^(1/2)
    <= 2^-k of x."""
    v = FiniteVector.parse("0:1 1:-1/3 2:2/7 4:5")
    return [
        VectorName.from_stage(lambda k: v, Fraction(7)),
        VectorName.from_stage(lambda k: FiniteVector([(i, Fraction(1, 3**i)) for i in range(k + 1)]), Fraction(2)),
    ]


@pytest.mark.parametrize("label", sorted(FINITE_COLUMN_OPERATORS))
def test_apply_stage_over_finite_columns_equals_finite_stage(label):
    # the integer combination rounds as finite_stage does from the
    # truncation's entries as exact scalars: the same nums and den
    U = FINITE_COLUMN_OPERATORS[label]()
    for x in staged_inputs():
        y = apply(U, x)
        for k in range(81):
            v, _ = truncate(x, Fraction(1, 1 << (k + 1)) / U.norm_bound)
            assert all(U.col(i).finite is not None for i in v.nums)
            old = finite_stage([(RealName.from_fraction(q), U.col(i)) for i, q in v.entries], k + 1)
            new = y.stage(k)
            assert (dict(new.nums), new.den) == (dict(old.nums), old.den), (label, k)
