"""One exact way to apply S for every frame whose data is finite.

The Richardson driver reads columns S e_n = sum_k (T* e_n)_k f_k from
the finite analysis columns and frame elements, so finite sections,
Riesz specs and operator specs never take the analysis-then-synthesis
path.  A step that needs a column without finite data falls back to that
path alone.  Answers are checked against exact Fractions from
``framecert.oracle``.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from framecert import frames
from framecert.frames import CertifiedFrame, frame_algorithm, inverse_apply
from framecert.gallery import benign_sequence, upper_row_frame
from framecert.oracle import determinant, mat_inv, mat_mul, mat_vec
from framecert.riesz import riesz_as_frame, riesz_from_matrix
from framecert.specfile import load_spec
from framecert.vectors import FiniteVector, VectorName

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


def forbid_inexact(monkeypatch):
    def fail(*args):
        raise AssertionError("S was applied by analysis then synthesis")

    monkeypatch.setattr(frames, "_apply_frame_operator_inexact", fail)


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


# -- the exact path serves sections, Riesz specs and operator specs ---


def exact_cases(tmp_path):
    """(label, frame, exact S on the span, its size, iterations at p 20/40/60)."""
    shear = [[1, 1], [0, 1]]
    block = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    block_inv = [[1, -1, 1], [0, 1, -1], [0, 0, 1]]
    op = [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
    return [
        ("riesz-shear", load_spec(str(FIXTURES / "riesz_shear.json")).certified,
         mat_mul(shear, transpose(shear)), (77, 139, 201)),
        # S_c = T T*_c for the supplied (false) adjoint: diag(2, 1) on the span
        ("corrupted-dual", load_spec(str(FIXTURES / "corrupted_dual.json")).certified,
         [[2, 0], [0, 1]], (23, 43, 63)),
        ("riesz-3", riesz_as_frame(riesz_from_matrix(block, block_inv)),
         mat_mul(block, transpose(block)), (266, 474, 682)),
        ("operator-3x4", operator_spec(tmp_path, op, [1, 4]),
         mat_mul(op, transpose(op)), (32, 59, 86)),
    ]


def test_exact_path_runs(tmp_path, monkeypatch):
    forbid_inexact(monkeypatch)
    f = VectorName.from_finite(FiniteVector.parse("0:1 1:1"))
    for label, CF, S, iterations in exact_cases(tmp_path):
        d = len(S)
        exact = mat_vec(mat_inv([[Fraction(q) for q in row] for row in S]),
                        [Fraction(1), Fraction(1)] + [Fraction(0)] * (d - 2))
        for p, J in zip((20, 40, 60), iterations):
            res = frame_algorithm(CF, f, p)
            assert res.iterations == J, label
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
    assume(determinant(M) != 0)
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
        forbid_inexact(mp)
        v = frame_algorithm(CF, fv, p).vector.finite
    assert err_sq(v, mat_vec(mat_inv(S), f)) <= Fraction(1, 1 << (2 * p))


# -- the per-step fallback -------------------------------------------


def test_steps_mix_exact_and_inexact(monkeypatch):
    # column 0 of the benign frame is the whole sequence (a_i), not finite:
    # steps whose iterate touches e_0 fall back to analysis then synthesis
    CF = upper_row_frame(benign_sequence())
    bare = CertifiedFrame(CF.frame, CF.analysis_op)
    calls = []
    inexact = frames._apply_frame_operator_inexact

    def counted(*args):
        calls.append(1)
        return inexact(*args)

    monkeypatch.setattr(frames, "_apply_frame_operator_inexact", counted)
    f = VectorName.from_finite(FiniteVector.parse("1:-5/3 2:2/9 3:1/5"))
    ref = frame_algorithm(CF, f, 64)
    assert not calls
    res = frame_algorithm(bare, f, 64)
    # the first two steps (from 0, then on e_1..e_3) are exact
    assert 0 < len(calls) <= res.iterations - 2
    assert res.iterations == ref.iterations
    diff = res.vector.finite.sub(ref.vector.finite)
    assert diff.norm_squared() <= Fraction(1, 1 << 126)
