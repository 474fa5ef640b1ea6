"""Every CLI command on every fixture, recorded once and held fixed.

``cli_golden.json`` holds stdout, stderr and the exit code of
``bounds``, ``dual``, ``dual -p 64``, ``dual --bessel`` with
``fixtures/bessel_small.json``, ``reconstruct`` and ``analyze`` of one
vector, and the four ``verify`` suites, on each file in ``fixtures/``.
A change of representation or speed must reproduce them byte for byte;
a change of output must update the file and say why.  The same sweep
pins which commands reach the conjugate-gradient driver: the rate suite,
and any other command only on a frame that carries no pseudo-inverse.

Record again with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from framecert import frames
from framecert.cli import main
from framecert.specfile import load_spec

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "tests" / "cli_golden.json"

COMMANDS = [
    ["bounds"],
    ["dual"],
    ["dual", "-p", "64"],
    ["dual", "--bessel", "fixtures/bessel_small.json"],
    ["reconstruct", "--vector", "0:2,2:1/3"],
    ["analyze", "--vector", "0:2,2:1/3"],
    *(["verify", "--suite", s] for s in ("duality", "projection", "gram", "rate")),
]


def sweep_argvs() -> list[list[str]]:
    fixtures = sorted(p.name for p in (ROOT / "fixtures").glob("*.json"))
    return [[c[0], f"fixtures/{name}", *c[1:]] for name in fixtures for c in COMMANDS]


def run(argv: list[str]) -> dict:
    """stdout, stderr and exit code of one in-process run from the repo root."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if GOLDEN_PATH.exists() else {}


def test_every_command_is_recorded():
    assert sorted(GOLDEN) == sorted(" ".join(a) for a in sweep_argvs())


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_output_unchanged(command):
    assert run(command.split(" ")) == GOLDEN[command]


# fixtures whose frame loads without a certified inverse: a false adjoint
# certificate, or declared bounds that a run of the driver refutes
WITHOUT_INVERSE = ("corrupted_dual", "false_adjoint_oblique", "false_adjoint_symmetric", "refuted_bounds")


def test_the_driver_runs_only_where_no_inverse_is_certified(monkeypatch):
    # the rate suite runs the driver on purpose; every other command reaches it
    # only on a frame that carries no pseudo-inverse
    certified = {}
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        try:
            CF = load_spec(str(path)).certified
        except ValueError:
            continue
        if CF is not None:
            certified[path.stem] = CF
    assert {n for n, CF in certified.items() if CF.pinv is None} == set(WITHOUT_INVERSE)
    want = {f"verify fixtures/{n}.json --suite rate" for n in certified} | {
        f"verify fixtures/{n}.json --suite {s}" for n in WITHOUT_INVERSE for s in ("duality", "projection", "gram")}
    assert len(want) == 23

    runs = []
    driver = frames._conjugate_gradients

    def counted(*args):
        runs.append(args)
        return driver(*args)

    monkeypatch.setattr(frames, "_conjugate_gradients", counted)
    reached = set()
    for argv in sweep_argvs():
        runs.clear()
        run(argv)
        if runs:
            reached.add(" ".join(argv))
    assert reached == want


if __name__ == "__main__":
    record = {" ".join(a): run(a) for a in sweep_argvs()}
    GOLDEN_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
