"""The exact reference accepts the program's answers and flags perturbed ones."""

import contextlib
import io
import json
from fractions import Fraction

import pytest

import reference as ref
from generate import riesz_block
from reference import CheckError

MERCEDES = [[1, 0], [0, 1], [1, 1]]


def cli(tmp_spec, *argv):
    from framecert.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([a.replace("{spec}", str(tmp_spec)) for a in argv])
    assert code == 0
    return buf.getvalue()


@pytest.fixture
def mercedes(workdir):
    path = workdir / "mercedes.json"
    path.write_text(json.dumps({"kind": "finite", "vectors": [[str(x) for x in v] for v in MERCEDES]}))
    return path


def bump_first_value(text: str, delta: str) -> str:
    """Add delta to the first printed "decimal ± 2^-p" value."""
    m = ref._VALUE.search(text)
    new = Fraction(m.group(1)) + Fraction(delta)
    return text[: m.start(1)] + f"{float(new):.15f}" + text[m.end(1):]


def test_bounds_enclosure_checked_by_ldlt(mercedes):
    out = cli(mercedes, "bounds", "{spec}")
    r = ref.FiniteRef(MERCEDES)
    ref.check_bounds(out, r)  # lambda = 1, 3
    lying = out.replace("A in [8388605/8388608", "A in [8388609/8388608")
    with pytest.raises(CheckError):
        ref.check_bounds(lying, r)


def test_dual_values_checked(mercedes):
    out = cli(mercedes, "dual", "{spec}", "-p", "40")
    dual = ref.FiniteRef(MERCEDES).dual()

    def coord(k, i):
        return dual[k][i] if i < 2 else Fraction(0)

    ref.check_dual(out, 40, 3, 3, coord)
    with pytest.raises(CheckError):
        ref.check_dual(bump_first_value(out, "1/1000"), 40, 3, 3, coord)


def test_reconstruct_checked(mercedes):
    out = cli(mercedes, "reconstruct", "{spec}", "--vector", "0:1 1:-1/2", "-p", "40")
    f = {0: Fraction(1), 1: Fraction(-1, 2)}
    ref.check_reconstruct(out, 40, f)
    with pytest.raises(CheckError):
        ref.check_reconstruct(bump_first_value(out, "1/1000"), 40, f)


def test_gram_diagonal_must_be_exact(mercedes):
    out = cli(mercedes, "verify", "{spec}", "--suite", "gram")
    proj = ref.FiniteRef(MERCEDES).projection()
    ref.check_suite(out, "gram", Fraction(1, 2**30), proj)
    lying = out.replace("diagonal: residual bound 0", "diagonal: residual bound 1/1099511627776", 1)
    with pytest.raises(CheckError):
        ref.check_suite(lying, "gram", Fraction(1, 2**30), proj)


def test_riesz_dual_and_coefficients():
    import random

    r = ref.RieszRef(*riesz_block(random.Random(0), 2, True))
    assert r.kappa() == 9
    # g_k is row k of M^-1: biorthogonal to the columns of M
    for k in range(2):
        for n in range(2):
            col = [r.M[i][n] for i in range(2)]
            assert sum(r.dual_coord(k, i) * col[i] for i in range(2)) == int(k == n)


def test_benign_closed_form_solves_S():
    b = ref.BenignRef()
    f = {0: Fraction(1), 2: Fraction(-1, 3)}
    N = 60
    x = [b.s_inv_coord(f, i) for i in range(N)]
    # S = U U^T, U = I + e_0 a'^T: (U^T x)_i = x_i + a_i x_0, (U y)_0 = y_0 + sum a_i y_i
    y = [x[0]] + [b.a(i) * x[0] + x[i] for i in range(1, N)]
    Sx = [y[0] + sum(b.a(i) * y[i] for i in range(1, N))] + y[1:]
    assert Sx == [f.get(i, Fraction(0)) for i in range(N)]
    assert b.dist_sq({i: x[i] for i in range(N)}, f) < Fraction(1, 2**100)
    assert b.dist_sq({0: x[0] + Fraction(1, 2**20)}, f) > Fraction(1, 2**41)


def test_library_value_perturbation_flagged():
    want = ref.BenignRef().coefficient_geometric(Fraction(3, 2), 0)
    ref.check_close(want + Fraction(1, 2**17), want, 16, "c_0")
    with pytest.raises(CheckError):
        ref.check_close(want + Fraction(3, 2**17), want, 16, "c_0")
