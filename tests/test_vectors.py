from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from framecert.dyadic import round_fraction
from framecert.realnames import RealName, sqrt_name
from framecert.vectors import (
    FiniteVector,
    VectorName,
    WeakVectorName,
    inner,
    limit_vectors,
    linear_combo,
    sqrt_of_fraction,
    strengthen,
    tail_norm,
    truncate,
)


def tol(n):
    return Fraction(1, 2**n)


def approx(x: RealName, n: int) -> Fraction:
    return x.approx(n).as_fraction()


def sqrt_oracle(q: Fraction, bits=60) -> Fraction:
    return Fraction(isqrt(q.numerator * 4**bits // q.denominator), 2**bits)


def geometric_vector() -> VectorName:
    """coeff(i) = 2^-(i+1), norm = sqrt(1/3); built without the finite shortcut."""
    def coeff(i):
        return RealName.from_fraction(Fraction(1, 2 ** (i + 1)))

    return VectorName(coeff, sqrt_of_fraction(Fraction(1, 3)))


class TestFiniteVector:
    def test_parse_format_roundtrip(self):
        v = FiniteVector.parse("0:1/2 3:-2 7:5/3")
        assert v.coefficient(3) == -2
        assert FiniteVector.parse(v.format()) == v

    def test_zero_entries_dropped(self):
        v = FiniteVector([(0, Fraction(0)), (2, Fraction(1))])
        assert v.entries == ((2, Fraction(1)),)
        assert v.support == 3

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            FiniteVector([(3, Fraction(1)), (1, Fraction(1))])

    def test_dot_and_norm(self):
        v = FiniteVector.parse("0:3 1:4")
        assert v.norm_squared() == 25
        w = FiniteVector.parse("1:2")
        assert v.dot(w) == 8


# -- the integer representation against a dict[int, Fraction] model ----

rationals = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.builds(lambda m, e: Fraction(m, 1 << e), st.integers(-2**70, 2**70), st.integers(0, 80)),
)
models = st.dictionaries(st.integers(min_value=0, max_value=8), rationals, max_size=6)


def from_model(model: dict) -> FiniteVector:
    return FiniteVector(sorted(model.items()))


def reduced(v: FiniteVector) -> bool:
    return v.den > 0 and gcd(v.den, *v.nums.values()) == 1 and list(v.nums) == sorted(v.nums)


@settings(max_examples=100, deadline=None)
@given(models, models)
def test_finite_vector_matches_the_fraction_model(a, b):
    u, v = from_model(a), from_model(b)
    assert reduced(u) and reduced(v)
    assert u.entries == tuple((i, q) for i, q in sorted(a.items()) if q)
    assert [u.coefficient(i) for i in range(10)] == [a.get(i, Fraction(0)) for i in range(10)]
    assert u.dense(10) == [a.get(i, Fraction(0)) for i in range(10)]
    assert u.support == max([i + 1 for i, q in a.items() if q], default=0)
    assert u.norm_squared() == sum((q * q for q in a.values()), Fraction(0))
    assert u.dot(v) == sum((q * b.get(i, 0) for i, q in a.items()), Fraction(0))
    assert FiniteVector.parse(u.format()) == u


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(rationals, models), max_size=5))
def test_combination_matches_the_fraction_model(terms):
    want: dict[int, Fraction] = {}
    for q, m in terms:
        for i, x in m.items():
            want[i] = want.get(i, Fraction(0)) + q * x
    got = FiniteVector.combination((q, from_model(m)) for q, m in terms)
    assert reduced(got)
    assert got == from_model(want) and hash(got) == hash(from_model(want))


@settings(max_examples=50, deadline=None)
@given(models, st.integers(min_value=1, max_value=2**40), st.integers(min_value=0, max_value=40))
def test_equal_vectors_compare_and_hash_equal(model, k, e):
    v = from_model(model)
    for scale in (k, 1 << e):  # a general and a power-of-two common factor
        w = FiniteVector.over(((i, n * scale) for i, n in v.nums.items()), v.den * scale)
        assert w == v and hash(w) == hash(v) and reduced(w)
    zero = FiniteVector.combination([(Fraction(1, 3), v), (Fraction(-1, 3), v)])
    assert zero == FiniteVector() and hash(zero) == hash(FiniteVector())
    assert FiniteVector.combination([(Fraction(1, 3), v), (Fraction(2, 3), v)]) == v


def test_equal_inputs_give_one_vector():
    half = FiniteVector([(0, Fraction(1, 2))])
    for other in (FiniteVector([(0, Fraction(2, 4))]), FiniteVector.over([(0, 2)], 4),
                  FiniteVector.over({0: 3}.items(), 6), FiniteVector.parse("0:4/8")):
        assert other == half and hash(other) == hash(half)
        assert (other.nums, other.den) == ({0: 1}, 2)


def test_numerators_are_read_only():
    for v in (FiniteVector([(0, Fraction(1, 2))]), FiniteVector.over([(0, 1)], 2)):
        with pytest.raises(TypeError):
            v.nums[0] = 3
        assert v == FiniteVector.parse("0:1/2")


def test_basis_is_the_exact_unit_vector():
    for i in (0, 1, 7, 200):
        e = VectorName.basis(i)
        assert e.finite == FiniteVector([(i, 1)]) and e.support_bound == i + 1
    with pytest.raises(ValueError):
        VectorName.basis(-1)


class TestTailNorm:
    def test_basis_vector_tails(self):
        e0 = VectorName.basis(0)
        assert approx(tail_norm(e0, 1), 30) == 0
        e5 = VectorName.basis(5)
        assert abs(approx(tail_norm(e5, 1), 30) - 1) <= tol(30)

    def test_geometric_tail(self):
        x = geometric_vector()
        expected = sqrt_oracle(Fraction(1, 3) - Fraction(5, 16))
        assert abs(approx(tail_norm(x, 2), 30) - expected) <= 2 * tol(30)


class TestTruncate:
    def test_basis(self):
        v, n = truncate(VectorName.basis(3), Fraction(1, 4))
        assert n >= 4
        assert v.coefficient(3) == 1

    def test_zero(self):
        v, _ = truncate(VectorName.zero(), Fraction(1))
        assert v == FiniteVector()

    def test_geometric_against_exact_tail(self):
        x = geometric_vector()
        eps = Fraction(1, 2**10)
        v, n = truncate(x, eps)
        # exact residual: tail of the geometric plus the entry perturbations
        diff_sq = Fraction(0)
        for i in range(max(n, v.support) + 60):
            diff_sq += (Fraction(1, 2 ** (i + 1)) - v.coefficient(i)) ** 2
        assert diff_sq <= eps * eps


def test_deep_chain_over_an_oracle_leaf_answers():
    # 200 nested combinations over a name given as coefficients plus a
    # norm: every level reads a stage of the one below, so the chain's
    # depth is bounded by the recursion limit, not by the leaf's stage
    def coeff(i):
        q = Fraction(1, 2 ** (i + 1)) if i < 2 else Fraction(0)
        return RealName(lambda n: round_fraction(q, n), q)

    x = VectorName(coeff, sqrt_of_fraction(Fraction(5, 16)))
    h = sqrt_name(RealName.from_fraction(Fraction(1, 2)))
    for _ in range(200):
        x = linear_combo([(h, x), (RealName.from_fraction(1), VectorName.basis(1))])
    # x_0 = 2^-101 and x_1 = 2^-102 + sum_{j<200} 2^-(j/2)
    assert abs(approx(x.coeff(0), 20)) <= tol(20)
    r = sqrt_oracle(Fraction(1, 2))
    x1 = (1 - r**200) / (1 - r)
    assert abs(approx(x.coeff(1), 20) - x1) <= tol(20) + tol(40)


def test_deep_chain_over_the_geometric_leaf():
    # 150 nested combinations over x_i = 2^-(i+1), ||x||^2 = 1/3, given as
    # coefficients plus a norm: every level rescales the stage below it,
    # whose precision grows a few bits per level
    x = geometric_vector()
    h = sqrt_name(RealName.from_fraction(Fraction(1, 2)))
    for _ in range(150):
        x = linear_combo([(h, x), (RealName.from_fraction(1), VectorName.basis(1))])
    # x_0 = 2^-75 / 2 and x_1 = 2^-75 / 4 + sum_{j<150} 2^-(j/2)
    assert abs(approx(x.coeff(0), 20)) <= tol(20)
    r = sqrt_oracle(Fraction(1, 2))
    x1 = (1 - r**150) / (1 - r)
    assert abs(approx(x.coeff(1), 20) - x1) <= tol(20) + tol(40)


def test_nested_stages_stay_on_their_grid():
    # a combined stage j with N < 2^10 entries is rounded onto 2^-g, g =
    # j + 1 + clog2(isqrt(N) + 2) <= j + 7, so its denominator does not
    # carry the bits of every inexact scalar below it; the chain tests
    # above check its value
    x = geometric_vector()
    h = sqrt_name(RealName.from_fraction(Fraction(1, 2)))
    for _ in range(40):
        x = linear_combo([(h, x), (RealName.from_fraction(1), VectorName.basis(1))])
    for j in (0, 20, 60):
        v = x.stage(j)
        assert len(v.nums) < 1 << 10 and v.den <= 1 << (j + 7)


class TestInner:
    def test_onb_cases(self):
        assert inner(VectorName.basis(2), VectorName.basis(2)).exact == 1
        assert inner(VectorName.basis(1), VectorName.basis(2)).exact == 0

    def test_orthogonal_irrational_scaling(self):
        half_sqrt2 = sqrt_of_fraction(Fraction(1, 2))
        x = linear_combo(
            [(half_sqrt2, VectorName.basis(0)), (half_sqrt2, VectorName.basis(1))]
        )
        y = VectorName.from_finite(FiniteVector.parse("0:1 1:-1"))
        assert abs(approx(inner(x, y), 30)) <= tol(30)

    def test_cauchy_schwarz(self):
        x = geometric_vector()
        y = geometric_vector()
        for n in (5, 20):
            val = abs(approx(inner(x, y), n))
            bound = (approx(x.norm, n) + tol(n)) * (approx(y.norm, n) + tol(n))
            assert val <= bound


class TestLinearCombo:
    def test_sum_of_two_basis(self):
        x = linear_combo(
            [
                (RealName.from_fraction(1), VectorName.basis(0)),
                (RealName.from_fraction(1), VectorName.basis(1)),
            ]
        )
        assert abs(approx(x.norm, 20) - sqrt_oracle(Fraction(2))) <= 2 * tol(20)

    def test_zero_scalar(self):
        x = linear_combo([(RealName.from_fraction(0), geometric_vector())])
        assert approx(x.coeff(0), 30) == 0
        assert approx(x.norm, 30) <= tol(30)

    def test_cancellation(self):
        x = linear_combo(
            [
                (RealName.from_fraction(2), VectorName.basis(0)),
                (RealName.from_fraction(-3), VectorName.basis(1)),
                (RealName.from_fraction(1), VectorName.basis(1)),
            ]
        )
        assert x.finite == FiniteVector.parse("0:2 1:-2")
        assert abs(approx(x.norm, 25) - sqrt_oracle(Fraction(8))) <= 2 * tol(25)

    def test_lazy_path_norm(self):
        x = linear_combo(
            [
                (sqrt_of_fraction(Fraction(4)), VectorName.basis(0)),
                (RealName.from_fraction(1), geometric_vector()),
            ]
        )
        # ||2 e0 + g||^2 = 4 + 2*2*(1/2)... cross term 2*2*g_0 = 2, plus 1/3
        expected = sqrt_oracle(Fraction(4) + 2 + Fraction(1, 3))
        assert abs(approx(x.norm, 25) - expected) <= 2 * tol(25)


class TestLimitVectors:
    def test_constant(self):
        x = limit_vectors(lambda k: VectorName.basis(0))
        assert abs(approx(x.coeff(0), 30) - 1) <= tol(30)
        assert abs(approx(x.norm, 30) - 1) <= tol(30)

    def test_geometric_stages(self):
        def s(k):
            return VectorName.from_finite(
                FiniteVector(
                    [(i, Fraction(1, 2 ** (i + 1))) for i in range(k + 2)]
                )
            )

        x = limit_vectors(s)
        assert abs(approx(x.coeff(3), 30) - Fraction(1, 16)) <= tol(30)
        assert abs(approx(x.norm, 30) - sqrt_oracle(Fraction(1, 3))) <= 2 * tol(30)

    def test_scalar_limit_to_basis(self):
        def s(k):
            return VectorName.from_finite(
                FiniteVector([(7, 1 - Fraction(1, 2**k))])
            )

        x = limit_vectors(s)
        assert abs(approx(x.coeff(7), 25) - 1) <= tol(25)


class TestStrengthen:
    def test_basis_upgrade(self):
        w = WeakVectorName(
            lambda i: RealName.from_fraction(1 if i == 0 else 0), Fraction(2)
        )
        x = strengthen(w, RealName.from_fraction(1))
        assert approx(x.coeff(0), 10) == 1
        assert x.norm.exact == 1

    def test_zero(self):
        w = WeakVectorName(lambda i: RealName.from_fraction(0), Fraction(0))
        x = strengthen(w, RealName.from_fraction(0))
        assert approx(x.norm, 10) == 0

    def test_rejects_contradictory_norm(self):
        w = WeakVectorName(lambda i: RealName.from_fraction(0), Fraction(1))
        with pytest.raises(ValueError):
            strengthen(w, RealName.from_fraction(5))

    def test_gallery_row(self):
        w = WeakVectorName(
            lambda i: RealName.from_fraction(Fraction(1, 2**i)), Fraction(2)
        )
        x = strengthen(w, sqrt_of_fraction(Fraction(4, 3)))
        assert abs(approx(x.norm, 30) - sqrt_oracle(Fraction(4, 3))) <= 2 * tol(30)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.fractions(min_value=-4, max_value=4),
        ),
        max_size=5,
    )
)
def test_parseval_consistency(pairs):
    acc = {}
    for i, q in pairs:
        acc[i] = acc.get(i, Fraction(0)) + q
    x = VectorName.from_finite(FiniteVector(sorted(acc.items())))
    for n in (5, 20, 40):
        ip = approx(inner(x, x), n)
        nr = approx(x.norm, n)
        assert abs(ip - nr * nr) <= 2 * tol(n) + tol(2 * n) + 2 * nr * tol(n)


def test_bessel_consistency_invariant():
    x = geometric_vector()
    for n in (5, 15, 30):
        nb = approx(x.norm, n) + tol(n)
        for N in (1, 4, 16):
            s = Fraction(0)
            for i in range(N):
                c = approx(x.coeff(i), n)
                s += max(Fraction(0), abs(c) - tol(n)) ** 2
            assert s <= nb * nb
