"""The column table an operator keeps for :func:`operators.columns`.

Finite columns are read once per operator and shared by every call of
the kernel on it; a column that is not finite stays with the callable
that read it.  So a driver run computes the same integers on a fresh
frame and on one that earlier runs warmed, a table that grows over
several denominators sums the same rationals as a fresh one, and threads
that grow one table at once each get their single-thread answer.
"""

import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from framecert.frames import frame_algorithm, inverse_apply
from framecert.operators import OperatorName, columns
from framecert.vectors import FiniteVector, VectorName
from driver_frames import benign_by_driver, finite_by_driver

F = FiniteVector.parse("0:1 1:-1/3 2:2/7")


def signal() -> VectorName:
    return VectorName.from_finite(F)


@pytest.mark.parametrize("build", [benign_by_driver, lambda: finite_by_driver("mercedes")],
                         ids=["benign", "mercedes"])
def test_a_run_does_not_depend_on_earlier_runs(build):
    fresh = frame_algorithm(build(), signal(), 64)
    CF = build()
    frame_algorithm(CF, signal(), 128)
    frame_algorithm(CF, signal(), 20)
    x0 = inverse_apply(CF, VectorName.from_stage(lambda k: F, Fraction(4))).coeff(0)
    for p in (32, 64, 96, 128):
        x0.approx(p)
    warm = frame_algorithm(CF, signal(), 64)
    assert (warm.vector.finite, warm.iterations) == (fresh.vector.finite, fresh.iterations)


# finite columns over 3, 5, 7 and 1, and column 3, whose stage k is
# (1/3, 1/7) e_0, e_4 rounded onto 2^-(k+2)
EXACT = {
    0: {0: Fraction(1, 3), 1: Fraction(2, 3)},
    1: {1: Fraction(-4, 5), 2: Fraction(1, 5)},
    2: {0: Fraction(3, 7), 2: Fraction(-6, 7)},
    3: {0: Fraction(1, 3), 4: Fraction(1, 7)},
    4: {3: Fraction(2)},
}


def staged_col(k: int) -> FiniteVector:
    g = 1 << (k + 2)
    return FiniteVector.over(((i, round(q * g)) for i, q in EXACT[3].items()), g)


def col(n: int) -> VectorName:
    if n == 3:
        return VectorName.from_stage(staged_col, Fraction(1))
    return VectorName.from_finite(FiniteVector(sorted(EXACT.get(n, {}).items())))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-(1 << 40), max_value=1 << 40).filter(bool), min_size=5, max_size=5),
       st.booleans())
def test_a_growing_table_sums_as_a_fresh_one(values, one_callable):
    # each call reads new columns: a new denominator rescales the table, an
    # integer column enters in place, and the staged column enlarges L
    U = OperatorName(col, Fraction(3))
    combine = columns(U)
    budget = Fraction(1, 1 << 10)
    for cols in ({0}, {0, 1}, {1, 2, 3}, {0, 1, 2, 3, 4}):
        m = {n: values[n] for n in sorted(cols)}
        acc, L = (combine if one_callable else columns(U))(m, budget)
        exact: dict[int, Fraction] = {}
        for n, a in m.items():
            for i, q in EXACT[n].items():
                exact[i] = exact.get(i, 0) + a * q
        err = sum((Fraction(acc.get(i, 0), L) - exact.get(i, 0)) ** 2 for i in {*acc, *exact})
        assert err <= budget * budget / 4
        facc, fL = columns(OperatorName(col, Fraction(3)))(m, budget)
        keys = {*acc, *facc}
        assert {i: Fraction(acc.get(i, 0), L) for i in keys} == {i: Fraction(facc.get(i, 0), fL) for i in keys}
        budget /= 64
    assert U._table[0] == 105


def test_threads_racing_on_one_table_get_their_single_thread_integers():
    precisions = (32, 64, 96, 128)
    want = {p: frame_algorithm(benign_by_driver(), signal(), p).vector.finite for p in precisions}
    CF, threads = benign_by_driver(), 8
    barrier, got, errors = threading.Barrier(threads, timeout=60), {}, []

    def run(i: int) -> None:
        try:
            barrier.wait()
            got[i] = frame_algorithm(CF, signal(), precisions[i % 4]).vector.finite
        except Exception as e:  # reported below, with the thread's index
            errors.append((i, e))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the kernel too
    try:
        workers = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers) and errors == []
    assert all(got[i] == want[precisions[i % 4]] for i in range(threads))
