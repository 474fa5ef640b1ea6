"""An embedded finite frame solves every name of a signal by its pseudo-inverse.

A frame embedded from finitely many rational vectors carries (T+, (T+)*),
read off its exact canonical dual, so ``inverse_apply(CF, f)`` is (T+)*
T+ f for any name of f: exact for a finite f, within 2^-k at stage k
otherwise, and the conjugate-gradient driver never runs.  Answers are
checked against ``perfbench/reference.py``, which is exact and
independent of ``framecert.oracle``.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from framecert import frames
from framecert.frames import inverse_apply, pseudo_inverse
from framecert.oracle import ExactFrame, NonSpanningError, embed
from framecert.realnames import RealName
from framecert.vectors import FiniteVector, VectorName, sqrt_of_fraction

ROOT = Path(__file__).resolve().parent.parent
PRECISIONS = (0, 20, 64, 300)


def load_reference():
    spec = importlib.util.spec_from_file_location("reference", ROOT / "perfbench" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FiniteRef = load_reference().FiniteRef


def no_driver(*args):
    raise AssertionError("the conjugate-gradient driver ran on a finite section")


@st.composite
def spanning_vectors(draw):
    """K >= d integer vectors spanning Q^d, d = 1..6."""
    d = draw(st.integers(min_value=1, max_value=6))
    K = draw(st.integers(min_value=d, max_value=d + 3))
    entry = st.integers(min_value=-3, max_value=3)
    vectors = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=K, max_size=K))
    try:
        ExactFrame(vectors)
    except NonSpanningError:
        assume(False)
    return vectors


def stage_only(x: dict[int, Fraction], j: int = 0) -> VectorName:
    """The finite vector x given by stages alone, stage k = x + 2^-k e_j: each
    as far from x as a stage may be."""
    def stage(k: int) -> FiniteVector:
        y = dict(x)
        y[j] = y.get(j, 0) + Fraction(1, 1 << k)
        return FiniteVector(sorted(y.items()))

    return VectorName.from_stage(stage, sum((abs(q) for q in x.values()), Fraction(1)))


def geometric_tail(head: dict[int, Fraction], n: int, c: Fraction):
    """(name, coordinates below d) of x_i = head_i for i < n and c 2^-i for
    i >= n, given by coefficient and norm oracles: ||x||^2 = sum_{i<n} head_i^2
    + (4/3) c^2 4^-n."""

    def x(i: int) -> Fraction:
        return head.get(i, Fraction(0)) if i < n else c / 2**i

    energy = sum((x(i) ** 2 for i in range(n)), Fraction(0)) + Fraction(4, 3) * c * c / 4**n
    name = VectorName(lambda i: RealName.from_fraction(x(i)), sqrt_of_fraction(energy))
    return name, lambda d: {i: x(i) for i in range(d)}


small = st.fractions(min_value=-4, max_value=4, max_denominator=9)


@settings(max_examples=40, deadline=None)
@given(spanning_vectors(), st.data())
def test_section_stages_against_the_reference(vectors, data):
    d = len(vectors[0])
    indices = st.integers(min_value=0, max_value=d + 3)
    head = data.draw(st.dictionaries(indices, small, max_size=d + 2))
    if data.draw(st.booleans()):
        # coordinates at or past d included: they are dropped
        j = data.draw(st.integers(min_value=0, max_value=d - 1))
        f, seen = stage_only({i: q for i, q in head.items() if q}, j), head
    else:
        n = data.draw(st.integers(min_value=0, max_value=d + 2))
        f, below = geometric_tail(head, n, data.draw(small))
        seen = below(d)
    ref = FiniteRef(vectors)
    x = ref.s_inv({i: q for i, q in seen.items() if i < d})
    coeffs = [sum((row[i] * q for i, q in x.items()), Fraction(0)) for row in ref.vectors]
    CF = embed(ExactFrame(vectors))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frames, "_conjugate_gradients", no_driver)
        g, c = inverse_apply(CF, f), pseudo_inverse(CF, f)
        for k in PRECISIONS:
            err = [g.stage(k).coefficient(i) - x.get(i, 0) for i in range(d)]
            assert g.stage(k).support <= d
            assert sum(e * e for e in err) <= Fraction(1, 4**k)
        for p in PRECISIONS:
            e = Fraction(1, 1 << p)
            for i in range(d + 2):
                assert abs(g.coeff(i).approx(p).as_fraction() - x.get(i, 0)) <= e
            for k in range(len(vectors) + 1):
                want = coeffs[k] if k < len(vectors) else 0
                assert abs(c.coeff(k).approx(p).as_fraction() - want) <= e


def test_a_finite_signal_is_solved_exactly():
    # (T+)* T+ f over finite columns is the exact S^-1 f, coordinate 3 (past
    # d = 2) dropped; a staged f keeps the section's dimension as support bound
    vectors = [[1, 0], [0, 1], [1, 1]]
    x = {0: Fraction(1), 1: Fraction(-1, 3), 3: Fraction(2, 7)}
    want = FiniteRef(vectors).s_inv({i: q for i, q in x.items() if i < 2})
    CF = embed(ExactFrame(vectors))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frames, "_conjugate_gradients", no_driver)
        g = inverse_apply(CF, VectorName.from_finite(FiniteVector(sorted(x.items()))))
        assert g.finite == FiniteVector(sorted(want.items()))
        assert inverse_apply(CF, stage_only(x, 1)).support_bound == 2
