from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from framecert.duality import BesselSequence, DualPair, canonical_dual, verify_duality
from framecert.dyadic import (
    Dyadic,
    Immutable,
    clog2,
    decimal_string,
    div_nearest,
    fraction_string,
    int_string,
    nearest,
    round_fraction,
    sqrt_lower,
    sqrt_upper,
)
from framecert.frames import (
    Frame,
    FrameCoeffName,
    analysis_coeffs,
    frame_algorithm,
    frame_from_onb,
)
from framecert.gallery import benign_sequence
from framecert.operators import OperatorName
from framecert.oracle import ExactFrame
from framecert.riesz import renorm_to, riesz_from_matrix
from framecert.specfile import load_spec
from framecert.vectors import FiniteVector, VectorName
from framecert.verify import SuiteReport


def test_canonical_form():
    d = Dyadic(12, 3)  # 12*8 = 96 = 3*2^5
    assert d.mantissa == 3 and d.exponent == 5
    z = Dyadic(0, 17)
    assert z.mantissa == 0 and z.exponent == 0


def test_arithmetic_exact():
    a = Dyadic(3, -2)  # 3/4
    b = Dyadic(1, -2)  # 1/4
    assert (a + b).as_fraction() == 1
    assert (a - b).as_fraction() == Fraction(1, 2)
    assert (a * b).as_fraction() == Fraction(3, 16)
    assert -a < b < a


def test_text_roundtrip():
    d = Dyadic(-5, -7)
    assert Dyadic.parse(str(d)) == d
    with pytest.raises(ValueError):
        Dyadic.parse("1.5")


def test_round_fraction_error_bound():
    q = Fraction(1, 3)
    for n in (0, 1, 4, 10, 40):
        d = round_fraction(q, n)
        assert abs(d.as_fraction() - q) <= Fraction(1, 2 ** (n + 1))
        assert (d.as_fraction() * 2**n).denominator == 1


def test_round_fraction_ties_to_even():
    assert round_fraction(Fraction(1, 2), 0).as_fraction() == 0
    assert round_fraction(Fraction(3, 2), 0).as_fraction() == 2


@given(st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(10**6)))
def test_clog2(q):
    g = clog2(q)
    assert Fraction(2) ** g >= q
    assert Fraction(2) ** (g - 1) < q


@settings(max_examples=300)
@given(
    st.dictionaries(st.integers(0, 8), st.integers(-(1 << 70), 1 << 70), max_size=6),
    st.lists(st.integers(-(1 << 30), 1 << 30), max_size=3),
    st.sampled_from([1, 2, 3, 6, 1 << 40, 3 << 20]) | st.integers(1, 1 << 90),
    st.integers(-50, 50),
)
def test_nearest_is_div_nearest_per_entry(nums, ties, den, offset):
    # g >= 0 on both sides of log2(den); entries at exact ties j + 1/2
    # where n = (2j + 1) den 2^-(g+1) is an integer, and zeros that are dropped
    g = max(0, den.bit_length() + offset)
    for i, j in enumerate(ties, start=9):
        n = Fraction((2 * j + 1) * den, 2) / Fraction(2) ** g
        if n.denominator == 1:
            nums[i] = int(n)
    per_entry = {i: div_nearest(n << g, den) for i, n in nums.items()}
    got = nearest(nums, den, g)
    assert got == {i: m for i, m in per_entry.items() if m}
    assert all(type(m) is int for m in got.values())


@given(st.fractions(min_value=0, max_value=Fraction(10**4)))
def test_sqrt_bounds(q):
    hi = sqrt_upper(q, 20)
    lo = sqrt_lower(q, 20)
    assert lo * lo <= q <= hi * hi
    assert hi - lo <= Fraction(1, 2**19) + Fraction(1, 2**18)


def test_decimal_string():
    assert decimal_string(Dyadic(5, -4)) == "0.3125"
    assert decimal_string(Dyadic(-3, 1)) == "-6"
    assert decimal_string(Dyadic(0)) == "0"
    assert decimal_string(Dyadic(1, -3)) == "0.125"


@given(st.integers())
def test_int_string_matches_str(n):
    assert int_string(n) == str(n)


def test_int_string_chunk_boundaries():
    # chunks of 600 digits; zeros inside a chunk must survive
    for n in (10**600 - 1, 10**600, 10**600 + 1, -(10**1200), 3**5000, 0):
        assert int_string(n) == str(n)


def test_int_string_beyond_limit():
    n = 10**9000 + 12345
    assert int_string(n) == "1" + "0" * 8995 + "12345"
    assert fraction_string(Fraction(-n, 3)) == "-1" + "0" * 8995 + "12345/3"
    assert fraction_string(Fraction(5)) == "5"


def _onb_pair() -> DualPair:
    CF = frame_from_onb()
    return DualPair(CF, canonical_dual(CF).frame)


_IMMUTABLE = {
    "Dyadic": lambda: Dyadic(3, -2),
    "FiniteVector": lambda: FiniteVector.parse("0:1 2:-1/2"),
    "VectorName": lambda: VectorName.basis(1),
    "FrameCoeffName": lambda: FrameCoeffName.from_vector_name(VectorName.basis(1)),
    "WeakVectorName": lambda: analysis_coeffs(frame_from_onb().frame, VectorName.basis(0)),
    "OperatorName": OperatorName.identity,
    "Frame": lambda: Frame(VectorName.basis, 1, 1),
    "CertifiedFrame": frame_from_onb,
    "FrameAlgorithmResult": lambda: frame_algorithm(frame_from_onb(), VectorName.basis(0), 4),
    "BesselSequence": lambda: BesselSequence(VectorName.basis, 1),
    "DualPair": _onb_pair,
    "DualityReport": lambda: verify_duality(_onb_pair(), [FiniteVector.parse("0:1")]),
    "SequenceGen": benign_sequence,
    "RieszBasisName": lambda: riesz_from_matrix([[1, 1], [0, 1]], [[1, -1], [0, 1]]),
    "RenormedVectorName": lambda: renorm_to(
        riesz_from_matrix([[1, 1], [0, 1]], [[1, -1], [0, 1]]), VectorName.basis(0)
    ),
    "LoadedSpec": lambda: load_spec(str(Path(__file__).parent.parent / "fixtures" / "mercedes.json")),
    "SuiteReport": lambda: SuiteReport("rate", True, [], Fraction(0)),
    "ExactFrame": lambda: ExactFrame([[1, 0], [0, 1], [1, 1]]),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_immutable_type_is_checked():
    assert {c.__name__ for c in _subclasses(Immutable)} == set(_IMMUTABLE)


@pytest.mark.parametrize("name", sorted(_IMMUTABLE))
def test_assignment_raises(name):
    obj = _IMMUTABLE[name]()
    assert type(obj).__name__ == name
    slots = [s for c in type(obj).__mro__ for s in getattr(c, "__slots__", ())]
    for attr in slots + ["extra"]:
        before = getattr(obj, attr, None)
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(obj, attr, before)
