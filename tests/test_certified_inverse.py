"""Frames that carry their pseudo-inverse T+ solve without the driver.

A Riesz spec carries (T^-1, rows of T^-1), both checked exactly at load,
and the benign gallery frame carries (U^-1, (U^-1)*), explicit from its
sequence.  Every command that needs S^-1 then applies T+, and the
conjugate-gradient driver never runs.  A frame re-certified with another
analysis operator carries nothing, and a false T_inv is still refused.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from framecert.cli import main
from framecert.duality import biorthogonal_dual_riesz, canonical_dual
from framecert.frames import CertifiedFrame, pseudo_inverse
from framecert.operators import OperatorName, apply
from framecert.riesz import riesz_as_frame, riesz_from_matrix
from framecert.specfile import load_spec
from framecert.vectors import FiniteVector, VectorName

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
N80 = 80


def diag80(tmp_path) -> str:
    """The 80 x 80 diagonal Riesz spec T = diag(1, ..., 80), as CI writes it."""
    path = tmp_path / "diag80.json"
    path.write_text(json.dumps({
        "kind": "riesz",
        "T": [[str(i + 1) if i == j else "0" for j in range(N80)] for i in range(N80)],
        "T_inv": [[f"1/{i + 1}" if i == j else "0" for j in range(N80)] for i in range(N80)],
    }))
    return str(path)


def spec_path(name: str, tmp_path) -> str:
    return diag80(tmp_path) if name == "diag80" else str(FIXTURES / name)


SPECS = ["riesz_shear.json", "diag80", "gallery_ex37_benign.json"]


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", SPECS)
@pytest.mark.parametrize("argv", [
    ("dual", "-p", "64"),
    ("reconstruct", "--vector", "0:2,1:1/3,5:-1", "-p", "40"),
    ("analyze", "--vector", "0:2,1:1/3,5:-1"),
    *(("verify", "--suite", s) for s in ("duality", "projection", "gram")),
], ids=" ".join)
def test_commands_run_no_driver(monkeypatch, tmp_path, name, argv):
    def driver(*args):
        raise AssertionError("the conjugate-gradient driver ran")

    monkeypatch.setattr("framecert.frames._conjugate_gradients", driver)
    code, out, err = run_cli(argv[0], spec_path(name, tmp_path), *argv[1:])
    assert code == 0, out + err


@pytest.mark.parametrize("name", SPECS)
def test_pseudo_inverse_undoes_the_synthesis_exactly(tmp_path, name):
    # V = T+ takes T e_k back to e_k, and so does pseudo_inverse
    CF = load_spec(spec_path(name, tmp_path)).certified
    V, _ = CF.pinv
    for k in range(6):
        e_k = FiniteVector.parse(f"{k}:1")
        assert apply(V, CF.elem(k)).finite == e_k
        assert pseudo_inverse(CF, CF.elem(k)).finite == e_k


def test_canonical_dual_is_the_rows_of_the_inverse():
    # the biorthogonal basis of T = M (+) I is (rows of M^-1) (+) (e_k)
    for M, M_inv in (
        ([[1, 1], [0, 1]], [[1, -1], [0, 1]]),
        ([[Fraction(i + 1) if i == j else 0 for j in range(N80)] for i in range(N80)],
         [[Fraction(1, i + 1) if i == j else 0 for j in range(N80)] for i in range(N80)]),
        ([[2, 1, 0], [0, 1, 1], [1, 0, 1]],
         [[Fraction(1, 3), Fraction(-1, 3), Fraction(1, 3)],
          [Fraction(1, 3), Fraction(2, 3), Fraction(-2, 3)],
          [Fraction(-1, 3), Fraction(1, 3), Fraction(2, 3)]]),
    ):
        d = len(M)
        R = riesz_from_matrix(M, M_inv)
        dual = canonical_dual(riesz_as_frame(R))
        biorth = biorthogonal_dual_riesz(R)
        for k in range(d + 2):
            row = FiniteVector(enumerate(M_inv[k])) if k < d else FiniteVector.parse(f"{k}:1")
            assert dual.elem(k).finite == row
            assert biorth(k).finite == row


def test_the_dual_reads_the_pseudo_inverse(tmp_path):
    for name in SPECS:
        CF = load_spec(spec_path(name, tmp_path)).certified
        V, Vstar = CF.pinv
        dual = canonical_dual(CF)
        assert dual.elem is Vstar.col and dual.analysis_op is V


@pytest.mark.parametrize("name", SPECS)
def test_a_recertified_frame_carries_no_pseudo_inverse(tmp_path, name):
    CF = load_spec(spec_path(name, tmp_path)).certified
    assert CF.pinv is not None
    T = CF.analysis_op
    false_col = VectorName.from_finite(FiniteVector.parse("0:2 2:1"))
    tampered = CertifiedFrame(
        CF, OperatorName(lambda n: false_col if n == 0 else T.col(n), T.norm_bound)
    )
    assert tampered.pinv is None
    assert tampered.elem is CF.elem


def test_a_false_inverse_is_still_refused(tmp_path):
    path = tmp_path / "false_inverse.json"
    path.write_text(json.dumps({"kind": "riesz", "T": [["1", "1"], ["0", "1"]],
                                "T_inv": [["1", "1"], ["0", "1"]]}))
    for argv in (("dual",), ("reconstruct", "--vector", "0:1"), ("verify", "--suite", "duality")):
        code, out, err = run_cli(argv[0], str(path), *argv[1:])
        assert code == 3 and out == ""
        assert err == "error: invalid frame: supplied inverse is not the exact inverse\n"
