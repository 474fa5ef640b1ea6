"""One column reader for S in the driver.

The driver reads the columns of ``frame_operator(CF)``: exactly where
they are finite vectors (finite sections, Riesz specs and operator
specs), and through a Cauchy stage otherwise (the benign gallery frame's
column 0, whose analysis column is the whole sequence).  Answers are
checked against exact Fractions from ``framecert.oracle`` and against
closed forms.
"""

import gc
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from framecert import frames, operators, vectors
from framecert.frames import frame_algorithm, inverse_apply
from framecert.gallery import (
    SequenceGen,
    benign_sequence,
    coeff_perturbation_rows,
    lower_column_operator,
    toeplitz_primal_element,
    upper_row_frame,
)
from framecert.operators import OperatorName
from framecert.oracle import mat_inv
from framecert.realnames import RealName, scale, sqrt_name
from framecert.riesz import riesz_as_frame, riesz_from_matrix
from framecert.specfile import load_spec
from framecert.vectors import FiniteVector, VectorName
from framecert.verify import max_iterations
from driver_frames import benign_by_driver, finite_by_driver, riesz_shear_by_driver
from fraction_matrices import cofactor_det, mat_mul, mat_vec

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
LADDER = (32, 64, 96, 128)


def transpose(M):
    return [list(row) for row in zip(*M)]


def err_sq(v: FiniteVector, exact: list[Fraction]) -> Fraction:
    assert v.support <= len(exact)
    return sum(((a - b) ** 2 for a, b in zip(v.dense(len(exact)), exact)), Fraction(0))


def operator_spec(tmp_path, matrix, bounds):
    path = tmp_path / "op.json"
    path.write_text(json.dumps({
        "kind": "operator",
        "matrix": [[str(q) for q in row] for row in matrix],
        "bounds": [str(q) for q in bounds],
    }))
    return load_spec(str(path)).certified


def forbid_stages(monkeypatch):
    """Fail when the driver reads a column of S that is not a finite vector."""
    frame_operator = frames.frame_operator

    def finite_columns_only(CF):
        S = frame_operator(CF)

        def col(n):
            c = S.col(n)
            assert c.finite is not None, f"column {n} of S was read through a stage"
            return c

        return OperatorName(col, S.norm_bound, support_bound=S.support_bound)

    monkeypatch.setattr(frames, "frame_operator", finite_columns_only)


# -- out-of-span coordinates -----------------------------------------


def test_out_of_span_coordinates_dropped(tmp_path):
    # T* e_5 = 0 exactly: e_5 is orthogonal to every element, S^-1 f lives
    # on e_0, e_1 and is (2/3, -1/3) there (S = [[2, 1], [1, 2]])
    CF = operator_spec(tmp_path, [[1, 0, 1], [0, 1, 1]], [1, 3])
    f = VectorName.from_finite(FiniteVector.parse("0:1 5:1"))
    x = inverse_apply(CF, f)
    exact = [Fraction(2, 3), Fraction(-1, 3), Fraction(0)]
    for n in (8, 16, 32, 64):
        assert x.coeff(5).approx(n).as_fraction() == 0
        for i, q in enumerate(exact):
            assert abs(x.coeff(i).approx(n).as_fraction() - q) <= Fraction(1, 1 << n)
    v = frame_algorithm(CF, f, 40).vector.finite
    assert v.coefficient(5) == 0
    assert err_sq(v, exact) <= Fraction(1, 1 << 80)


# -- finite columns serve sections, Riesz specs and operator specs ---


def exact_cases(tmp_path):
    """(label, frame, exact S on the span)."""
    shear = [[1, 1], [0, 1]]
    block = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    block_inv = [[1, -1, 1], [0, 1, -1], [0, 0, 1]]
    op = [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
    return [
        ("riesz-shear", load_spec(str(FIXTURES / "riesz_shear.json")).certified,
         mat_mul(shear, transpose(shear))),
        # S_c = T T*_c for the supplied (false) adjoint: diag(2, 1) on the span
        ("corrupted-dual", load_spec(str(FIXTURES / "corrupted_dual.json")).certified,
         [[2, 0], [0, 1]]),
        ("riesz-3", riesz_as_frame(riesz_from_matrix(block, block_inv)),
         mat_mul(block, transpose(block))),
        ("operator-3x4", operator_spec(tmp_path, op, [1, 4]),
         mat_mul(op, transpose(op))),
    ]


def test_exact_path_runs(tmp_path, monkeypatch):
    # the driver stays within the criterion-4 ceiling and 2^-p of S^-1 f
    forbid_stages(monkeypatch)
    f = VectorName.from_finite(FiniteVector.parse("0:1 1:1"))
    for label, CF, S in exact_cases(tmp_path):
        d = len(S)
        exact = mat_vec(mat_inv([[Fraction(q) for q in row] for row in S]),
                        [Fraction(1), Fraction(1)] + [Fraction(0)] * (d - 2))
        for p in (20, 40, 60):
            res = frame_algorithm(CF, f, p)
            assert res.iterations <= max_iterations(CF.lower, CF.upper, f.norm.mag, p), label
            assert err_sq(res.vector.finite, exact) <= Fraction(1, 1 << (2 * p)), label
        x = inverse_apply(CF, f)
        for p in LADDER:
            assert err_sq(x.stage(p - 1), exact) <= Fraction(1, 1 << (2 * p)), label


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_riesz_blocks_against_oracle(data):
    d = data.draw(st.integers(min_value=1, max_value=3))
    M = data.draw(st.lists(st.lists(small_rationals, min_size=d, max_size=d),
                           min_size=d, max_size=d))
    assume(cofactor_det(M) != 0)
    CF = riesz_as_frame(riesz_from_matrix(M, mat_inv(M)))
    assume(CF.upper <= 64 * CF.lower)
    # S = M M^T on the block and the identity beyond it
    n = d + 2
    S = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i, row in enumerate(mat_mul(M, transpose(M))):
        S[i][:d] = row
    f = data.draw(st.lists(small_rationals, min_size=n, max_size=n))
    p = data.draw(st.integers(min_value=1, max_value=64))
    fv = VectorName.from_finite(FiniteVector([(i, q) for i, q in enumerate(f) if q]))
    with pytest.MonkeyPatch.context() as mp:
        forbid_stages(mp)
        v = frame_algorithm(CF, fv, p).vector.finite
    assert err_sq(v, mat_vec(mat_inv(S), f)) <= Fraction(1, 1 << (2 * p))


# -- columns read through a stage ------------------------------------


@pytest.mark.parametrize("p", [64, 128])
def test_benign_frame_against_closed_form(monkeypatch, p):
    # column 0 of the benign frame's S comes from the whole sequence
    # a_i = 2^-i: it is read through the sequence's stage, never through
    # the tail search of a coefficient-plus-norm name.  From
    # U^-1 = I - e_0 a'^T, S^-1 f = h - a' h_0 with h = f - e_0 (a'.f);
    # past f's support it is -2^-j h_0.  The driver's run and a stage of
    # inverse_apply, which applies the frame's U^-1 and its adjoint, are
    # both within 2^-p
    def fail(*args):
        raise AssertionError("a column of S was read through a coefficient-plus-norm name")

    # names bind the stage when they are built, so patch before the frame is
    monkeypatch.setattr(vectors, "_oracle_stage", fail)
    CF = upper_row_frame(benign_sequence())
    f = FiniteVector.parse("0:3/7 1:-5/3 2:2/9 3:1/5")
    h0 = f.coefficient(0) - sum(f.coefficient(j) / (1 << j) for j in (1, 2, 3))
    fv = VectorName.from_finite(f)
    for v in (frame_algorithm(CF, fv, p).vector.finite, inverse_apply(CF, fv).stage(p)):
        N = max(v.support, 4)
        head = (v.coefficient(0) - h0) ** 2 + sum(
            (v.coefficient(j) - f.coefficient(j) + h0 / (1 << j)) ** 2 for j in range(1, N)
        )
        tail = h0 * h0 * Fraction(4, 3) / (1 << (2 * N))
        assert head + tail <= Fraction(1, 1 << (2 * p))


def test_inexact_terms_over_generic_columns():
    # a_1 = 1/2 is exact and a_j = sqrt(2) 2^-(j+1) for j >= 2 is not:
    # sq_tail is 31/24, 7/24, then (2/3) 4^-N.  Column 0 of S is read
    # through the row's stage, which rounds the inexact terms.  From
    # U^-1 = I - e_0 a'^T, S^-1 f = h - a' h_0 with h = f - e_0 (a'.f).
    # The frame's U^-1 scales e_0 by the inexact -a_j, and stage p + 1 of
    # inverse_apply is within 2^-(p+1), as the driver's run is
    root2 = sqrt_name(RealName.from_fraction(2))
    a = {0: RealName.from_fraction(1), 1: RealName.from_fraction(Fraction(1, 2))}
    g = SequenceGen(
        lambda i: a[i] if i in a else scale(Fraction(1, 1 << (i + 1)), root2),
        Fraction(31, 24),
        sqrt_name(RealName.from_fraction(Fraction(31, 24))),
        sq_tail=lambda N: (Fraction(31, 24), Fraction(7, 24))[N] if N < 2 else Fraction(2, 3) / (1 << (2 * N)),
    )
    CF = upper_row_frame(g)
    f = FiniteVector.parse("0:3/7 1:-5/3 2:2/9 3:1/5")
    # s within 2^-400 of sqrt(2) moves the answer by less than 2^-390
    s = root2.approx(400).as_fraction()

    def a_(j: int) -> Fraction:
        return Fraction(1, 2) if j == 1 else s / (1 << (j + 1))

    h0 = f.coefficient(0) - sum(a_(j) * f.coefficient(j) for j in (1, 2, 3))
    fv = VectorName.from_finite(f)
    for p in (20, 64):
        for v in (frame_algorithm(CF, fv, p).vector.finite, inverse_apply(CF, fv).stage(p + 1)):
            N = max(v.support, 4)
            head = (v.coefficient(0) - h0) ** 2 + sum(
                (v.coefficient(j) - f.coefficient(j) + a_(j) * h0) ** 2 for j in range(1, N)
            )
            tail = h0 * h0 * Fraction(2, 3) / (1 << (2 * N))
            assert head + tail <= (Fraction(1, 1 << p) - Fraction(1, 1 << 390)) ** 2


SEQUENCE_NAMES = {
    0: lambda g: lower_column_operator(g).col(0),
    1: lambda g: coeff_perturbation_rows(g)(1),
    5: lambda g: toeplitz_primal_element(g, 5),
}


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=200), st.sampled_from(sorted(SEQUENCE_NAMES)))
def test_sequence_stage_is_the_minimal_exact_cut(k, start):
    # a_i = 2^-i: stage k keeps a_0..a_{N-1} exactly, so its squared error
    # is exactly sq_tail(N), for the smallest N with sq_tail(N) <= 4^-k
    g = benign_sequence()
    names = [SEQUENCE_NAMES[start](g)]
    if start == 0:
        names.append(upper_row_frame(g).analysis_op.col(0))
    for x in names:
        v = x.stage(k)
        N = len(v.entries)
        assert v.entries == tuple((start + i, Fraction(1, 1 << i)) for i in range(N))
        assert g.sq_tail(N) <= Fraction(1, 1 << (2 * k)) < g.sq_tail(N - 1)


def test_sequence_stage_rounds_inexact_terms():
    # a_i = sqrt(2) 2^-(i+1) for i >= 1 has no exact terms: sq_tail(N) =
    # (2/3) 4^-N for N >= 1, and each stage rounds within its budget
    root2 = sqrt_name(RealName.from_fraction(2))
    g = SequenceGen(
        lambda i: RealName.from_fraction(1) if i == 0 else scale(Fraction(1, 1 << (i + 1)), root2),
        Fraction(7, 6),
        sqrt_name(RealName.from_fraction(Fraction(7, 6))),
        sq_tail=lambda N: Fraction(7, 6) if N == 0 else Fraction(2, 3) / (1 << (2 * N)),
    )
    x = lower_column_operator(g).col(0)
    for k in (0, 5, 20, 60):
        v = x.stage(k)
        N = v.support
        head = sum(
            ((g.a(i).approx(2 * k + 40).as_fraction() - v.coefficient(i)) ** 2 for i in range(N)),
            Fraction(0),
        )
        # each approximation is within 2^-(2k+40) of a_i
        slack = N * Fraction(1, 1 << (2 * k + 38))
        assert head + slack + g.sq_tail(N) <= Fraction(1, 1 << (2 * k))


# -- one frame operator per frame ------------------------------------


# Mercedes, the Riesz and the benign frames without their pseudo-inverse,
# so that inverse_apply runs the driver on them
SHARED = {
    "mercedes": lambda: finite_by_driver("mercedes"),
    "riesz-shear": riesz_shear_by_driver,
    "benign": benign_by_driver,
}


def staged_signal() -> VectorName:
    """(1, -1/3) given by its stage alone, not as a finite vector."""
    v = FiniteVector.parse("0:1 1:-1/3")
    return VectorName.from_stage(lambda k: v, Fraction(4, 3))


def solve_and_ladder(CF, f):
    res = frame_algorithm(CF, f, LADDER[-1])
    x0 = inverse_apply(CF, f).coeff(0)
    return res.vector.finite, res.iterations, [x0.approx(p).as_fraction() for p in LADDER]


@pytest.mark.parametrize("label", sorted(SHARED))
def test_runs_share_the_frame_operator(label, monkeypatch):
    # the frame keeps S: a second solve and a second ladder read every
    # column, and every stage of a column that is not finite, from the
    # first ones, and see the same values
    CF = SHARED[label]()
    assert CF.finite_section is None and CF.pinv is None
    assert frames.frame_operator(CF) is frames.frame_operator(CF)
    f = staged_signal()
    first = solve_and_ladder(CF, f)
    built = []
    apply, columns = frames.apply, operators.columns
    monkeypatch.setattr(frames, "apply", lambda U, x: built.append(x) or apply(U, x))
    # a stage of an operator image calls operators.columns; the driver's own table is frames.columns
    monkeypatch.setattr(operators, "columns", lambda U: built.append(U) or columns(U))
    assert solve_and_ladder(CF, f) == first
    assert built == []


@pytest.mark.parametrize("label", sorted(SHARED))
def test_dropped_frame_needs_no_cycle_collector(label):
    # S's column oracle holds T and T*, not the frame, so reference
    # counting alone frees a frame the driver ran on
    f = staged_signal()
    gc.collect()
    gc.disable()
    try:
        CF = SHARED[label]()
        solve_and_ladder(CF, f)
        del CF
        assert gc.collect() == 0
    finally:
        gc.enable()
