import sys
import threading
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from framecert.duality import BesselSequence
from framecert.dyadic import Dyadic, round_fraction
from framecert.frames import Frame, frame_from_onb
from framecert.gallery import benign_sequence, specker_sequence
from framecert.operators import OperatorName
from framecert.realnames import (
    ONE_NAME,
    RealName,
    ZERO_NAME,
    _memoized,
    lift_arith,
    limit_fast,
    recip,
    scale,
    sqrt_name,
)
from framecert.riesz import renorm_to, riesz_as_frame, riesz_from_matrix
from framecert.vectors import FiniteVector, VectorName, WeakVectorName


def err(x: RealName, value: Fraction, n: int) -> Fraction:
    return abs(x.approx(n).as_fraction() - value)


def tol(n: int) -> Fraction:
    return Fraction(1, 2**n)


def test_approx_third():
    x = RealName.from_fraction(Fraction(1, 3))
    assert err(x, Fraction(1, 3), 4) <= Fraction(1, 16)


def test_approx_zero():
    for n in (0, 5, 40):
        assert ZERO_NAME.approx(n) == Dyadic(0)


def test_limit_of_geometric_partial_sums():
    # sum of 4^-i converges to 4/3 with tail <= 2^-k... use 2^-2k, valid modulus
    def s(k):
        return RealName.from_fraction(
            sum(Fraction(1, 4**i) for i in range(k + 1))
        )

    x = limit_fast(s)
    assert err(x, Fraction(4, 3), 10) <= tol(10)


def test_add_halves():
    x = RealName.from_fraction(Fraction(1, 2))
    s = lift_arith("add", x, x)
    assert s.approx(3).as_fraction() == 1


def test_mul_identity_product():
    p = lift_arith("mul", RealName.from_fraction(3), RealName.from_fraction(Fraction(1, 3)))
    for n in (0, 10, 30):
        assert err(p, Fraction(1), n) <= tol(n)


def test_mul_inexact_names():
    # wrap exact values behind plain oracles to exercise the generic path
    def name_of(q, mag):
        from framecert.dyadic import round_fraction

        return RealName(lambda n: round_fraction(q, n), mag)

    x = name_of(Fraction(3, 2), 2)
    p = lift_arith("mul", x, x)
    assert p.exact is None
    assert err(p, Fraction(9, 4), 20) <= tol(20)
    assert p.mag == 4


def test_recip():
    assert err(recip(RealName.from_fraction(2), 1), Fraction(1, 2), 10) <= tol(10)
    one = recip(RealName.from_fraction(1), Fraction(1, 2))
    assert err(one, Fraction(1), 12) <= tol(12)
    third = recip(RealName.from_fraction(3), 2)
    assert err(third, Fraction(1, 3), 30) <= tol(30)
    with pytest.raises(ValueError):
        recip(RealName.from_fraction(1), 0)


def test_recip_generic_oracle():
    from framecert.dyadic import round_fraction

    x = RealName(lambda n: round_fraction(Fraction(3), n), 3)
    third = recip(x, 2)
    assert err(third, Fraction(1, 3), 30) <= tol(30)


def test_sqrt():
    assert sqrt_name(ZERO_NAME).approx(20) == Dyadic(0)
    assert err(sqrt_name(RealName.from_fraction(4)), Fraction(2), 10) <= tol(10)
    # oracle: isqrt of scaled integer
    root2 = Fraction(isqrt(2 * 4**60), 2**60)
    assert err(sqrt_name(RealName.from_fraction(2)), root2, 40) <= 2 * tol(40)


def test_limit_fast_constant_and_series():
    c = limit_fast(lambda k: RealName.from_fraction(Fraction(7, 5)))
    assert err(c, Fraction(7, 5), 20) <= tol(20)

    # partial sums of sum 2^-i / i! -> e - 1, vs high-precision oracle
    def s(k):
        acc = Fraction(0)
        fact = 1
        for i in range(1, k + 4):
            fact *= i
            acc += Fraction(1, 2**i * fact)
        return RealName.from_fraction(acc)

    x = limit_fast(s)
    oracle = sum(Fraction(1, 2**i) / _factorial(i) for i in range(1, 60))
    assert err(x, oracle, 30) <= 2 * tol(30)


def _factorial(i):
    out = 1
    for j in range(2, i + 1):
        out *= j
    return out


def test_determinism_and_threading():
    from framecert.dyadic import round_fraction

    calls = []

    def fn(n):
        calls.append(n)
        return round_fraction(Fraction(1, 7), n)

    x = RealName(fn, 1)
    results = []

    def worker():
        results.append(x.approx(25))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(map(str, results))) == 1
    assert x.approx(25) == results[0]


def test_memo_hands_racing_threads_the_first_value():
    # each oracle waits until all eight threads are inside it, so every
    # thread computes its own value before any is stored; the memo must
    # still hand every thread the one object stored first
    THREADS = 8

    def racing(make):
        barrier = threading.Barrier(THREADS)

        def f(k):
            try:
                barrier.wait(timeout=5)
            except threading.BrokenBarrierError:
                pass
            return make(k)

        return f

    memo = _memoized(racing(lambda k: [k]))
    x = VectorName(racing(lambda i: RealName.from_fraction(i)), ONE_NAME)
    U = OperatorName(racing(VectorName.basis), Fraction(1))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for read in (lambda: memo(3), lambda: x.coeff(2), lambda: U.col(1)):
            got = []
            threads = [threading.Thread(target=lambda: got.append(read())) for _ in range(THREADS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert len(got) == THREADS
            assert all(g is got[0] for g in got)
            assert read() is got[0]
    finally:
        sys.setswitchinterval(old)


def test_specker_sequence_under_racing_threads():
    # all eight threads meet inside the enumerator before any value is
    # stored; indices 1 and 2 both enumerate 5, so of the threads split
    # between them, those of exactly one index raise
    for indices in ((2,) * 8, (1, 2) * 4):
        barrier = threading.Barrier(len(indices))

        def enumerator(j):
            try:
                barrier.wait(timeout=5)
            except threading.BrokenBarrierError:
                pass
            return 5

        g = specker_sequence(enumerator)
        got = {i: [] for i in indices}

        def read(i):
            try:
                got[i].append(g.a(i))
            except ValueError as e:
                got[i].append(e)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(i,)) for i in indices]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert sum(map(len, got.values())) == len(indices)
        raised = [i for i, vals in got.items() if all(isinstance(v, ValueError) for v in vals)]
        assert len(raised) == len(got) - 1
        for i, vals in got.items():
            if i in raised:
                assert all("repeats value 5" in str(v) for v in vals)
            else:
                assert isinstance(vals[0], RealName)
                assert all(v is vals[0] for v in vals)
                assert g.a(i) is vals[0]


def _riesz():
    return riesz_from_matrix([[1, 1], [0, 1]], [[1, -1], [0, 1]])


# every memoized accessor, read at index 1 below
_ACCESSORS = {
    "Frame.elem": lambda: Frame(VectorName.basis, 1, 1).elem,
    "CertifiedFrame.elem": lambda: frame_from_onb().elem,
    "OperatorName.col": lambda: OperatorName.identity().col,
    "VectorName.coeff": lambda: VectorName.from_stage(lambda k: FiniteVector.parse("1:1"), 1).coeff,
    "VectorName.coeff with a support bound": lambda: VectorName.basis(3).coeff,
    "WeakVectorName.coeff": lambda: WeakVectorName(RealName.from_fraction, 1).coeff,
    "BesselSequence.elem": lambda: BesselSequence(VectorName.basis, 1).elem,
    "SequenceGen.a": lambda: benign_sequence().a,
    "RieszBasisName.elem": lambda: _riesz().elem,
    "RieszBasisName.T_adjoint_rows": lambda: _riesz().T_adjoint_rows,
    "RieszBasisName.T_inv_adjoint_rows": lambda: _riesz().T_inv_adjoint_rows,
    "CF.T.col": lambda: frame_from_onb().T.col,
    "RenormedVectorName.coeff": lambda: renorm_to(_riesz(), VectorName.basis(0)).coeff,
}


@pytest.mark.parametrize("name", sorted(_ACCESSORS))
def test_accessor_rejects_a_negative_index_and_keeps_its_values(name):
    read = _ACCESSORS[name]()
    for _ in range(2):
        with pytest.raises(ValueError, match="^negative index -1$"):
            read(-1)
    assert read(1) is read(1)


def test_a_memo_is_wrapped_once():
    # the synthesis operator reads the frame's own element memo (its
    # negative-index check is in the table above)
    CF = frame_from_onb()
    assert CF.T.col is CF.elem
    assert _memoized(CF.elem) is CF.elem


def test_no_datum_is_cached_twice():
    # a frame and a Bessel sequence are their synthesis operators: the
    # elements are T's columns, in one memo
    for F in (Frame(VectorName.basis, 1, 2), BesselSequence(VectorName.basis, 1), frame_from_onb()):
        assert F.T.col is F.elem
    R = _riesz()
    assert riesz_as_frame(R).T.col is R.T.col
    # the orthonormal frame's elements are its analysis operator's columns
    CF = frame_from_onb()
    assert CF.elem is CF.analysis_op.col


def test_bad_bounds_raise_their_own_error():
    # the bounds are checked before sqrt(B) or sqrt(D) is taken
    with pytest.raises(ValueError, match="^frame bounds must satisfy 0 < A <= B$"):
        Frame(VectorName.basis, 1, -1)
    with pytest.raises(ValueError, match="^Bessel bound must be nonnegative$"):
        BesselSequence(VectorName.basis, -1)


def test_magnitude_soundness():
    x = lift_arith("mul", RealName.from_fraction(Fraction(5, 2)), RealName.from_fraction(-2))
    for n in range(0, 20):
        assert abs(x.approx(n).as_fraction()) <= x.mag + 1


@st.composite
def rationals(draw):
    num = draw(st.integers(min_value=-64, max_value=64))
    den = draw(st.integers(min_value=1, max_value=16))
    return Fraction(num, den)


@settings(max_examples=200, deadline=None)
@given(rationals(), rationals(), st.sampled_from(["add", "sub", "mul"]))
def test_arithmetic_homomorphism(p, q, op):
    from framecert.dyadic import round_fraction

    # generic-oracle names so the lifted modulus logic is exercised
    x = RealName(lambda n: round_fraction(p, n), abs(p))
    y = RealName(lambda n: round_fraction(q, n), abs(q))
    z = lift_arith(op, x, y)
    expected = {"add": p + q, "sub": p - q, "mul": p * q}[op]
    for n in (0, 7, 23, 48):
        assert abs(z.approx(n).as_fraction() - expected) <= tol(n)


@settings(max_examples=100, deadline=None)
@given(rationals(), rationals())
def test_pairwise_consistency(p, q):
    from framecert.dyadic import round_fraction

    x = RealName(lambda n: round_fraction(p, n), abs(p))
    y = RealName(lambda n: round_fraction(q, n), abs(q))
    z = lift_arith("mul", x, lift_arith("add", x, y))
    samples = {n: z.approx(n).as_fraction() for n in (0, 3, 11, 25, 40, 64)}
    keys = sorted(samples)
    for a in keys:
        for b in keys:
            if a < b:
                assert abs(samples[a] - samples[b]) <= tol(a) + tol(b)


def test_scale():
    x = scale(Fraction(3, 2), RealName.from_fraction(4))
    assert x.exact == 6


@pytest.mark.parametrize("q", [0, 5, -7, Fraction(0), Fraction(-22, 7), Fraction(1, 3), Fraction(5, 2**40)])
def test_from_fraction_is_the_checked_exact_name(q):
    x = RealName.from_fraction(q)
    assert type(x.mag) is Fraction and type(x.exact) is Fraction
    assert (x.mag, x.exact) == (abs(q), q)
    for n in (0, 1, 7, 30, 64):
        assert x.approx(n) == round_fraction(Fraction(q), n)
