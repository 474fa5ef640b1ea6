"""The CLI on random specs that embed a finite frame, against the reference.

Hypothesis draws spanning finite specs (d = 1..5 with K = d..d+3 vectors)
and operator specs (a d x K matrix with true declared bounds), a precision
p <= 200 and a vector in the frame's span, and runs ``dual``,
``reconstruct --vector`` and ``verify --suite duality|projection|gram``
through ``framecert.cli.main`` in-process.  Every command must exit 0, and
every value it prints must lie within its ``± 2^-p`` of
``perfbench/reference.py``, which is exact and independent of
``framecert.oracle``.
"""

import io
import json
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from framecert.cli import main
from test_section_stages import load_reference

ref = load_reference()
TOL = Fraction(1, 2**30)


def run(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"{' '.join(argv)} exited {code}:\n{out.getvalue()}"
    return out.getvalue()


@st.composite
def specs(draw):
    """(spec document, its d x K synthesis matrix): a finite spec of K vectors
    spanning Q^d, or an operator spec of that matrix with true declared bounds
    A <= 1/||S^-1||_inf <= lambda_min and B >= ||S||_inf >= lambda_max."""
    d = draw(st.integers(1, 5))
    K = draw(st.integers(d, d + 3))
    entry = st.integers(-3, 3) | st.fractions(-2, 2, max_denominator=4)
    vectors = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=K, max_size=K))
    S = ref.frame_operator(ref.to_matrix(vectors), d)
    assume(ref.is_positive_definite(S))
    matrix = [list(row) for row in zip(*vectors)]
    if draw(st.booleans()):
        return {"kind": "finite", "vectors": [[str(q) for q in v] for v in vectors]}, matrix
    top = max(sum(map(abs, row)) for row in S)
    least = 1 / max(sum(map(abs, row)) for row in ref.inverse(S))
    A = least / draw(st.sampled_from([1, 2, 3]))
    B = top * draw(st.sampled_from([1, 2]))
    return {"kind": "operator", "matrix": [[str(q) for q in row] for row in matrix],
            "bounds": [str(A), str(B)]}, matrix


@settings(max_examples=60, deadline=None)
@given(specs(), st.integers(0, 200), st.data())
def test_cli_values_lie_within_their_enclosures(spec, p, data):
    doc, matrix = spec
    d, K = len(matrix), len(matrix[0])
    f = data.draw(st.dictionaries(st.integers(0, d - 1), st.fractions(-4, 4, max_denominator=9).filter(bool),
                                  max_size=d))
    vector = ",".join(f"{i}:{q}" for i, q in sorted(f.items()))
    vectors = [list(col) for col in zip(*matrix)]
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "spec.json")
        Path(path).write_text(json.dumps(doc))
        dual = run(["dual", path, "-p", str(p)])
        back = run(["reconstruct", path, "--vector", vector, "-p", str(p)])
        suites = {s: run(["verify", path, "--suite", s]) for s in ("duality", "projection", "gram")}

    finite = ref.FiniteRef(vectors)
    if doc["kind"] == "finite":
        g = finite.dual()
        ref.check_dual(dual, p, K, d + 1, lambda k, i: g[k][i] if i < d else Fraction(0))
    else:
        ref.check_dual(dual, p, 4, 5, ref.OperatorRef(matrix).dual_coord)
    ref.check_reconstruct(back, p, f)
    for suite, text in suites.items():
        ref.check_suite(text, suite, TOL, finite.projection() if suite == "gram" else None)
