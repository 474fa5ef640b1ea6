"""The driver's integers, recorded once and held fixed.

``driver_golden.json`` holds, for each frame below, the numerators,
denominator and step count of ``frame_algorithm`` at p = 20, 64, 128 and
256, and the ladder ``inverse_apply(CF, f).coeff(0).approx(p)`` at p =
32, 64, 96, 128 read in that order on one name (so each run after the
first is warm-started).  The frames cover integer columns (Mercedes,
Riesz shear), columns over 18 and 2 (scaled frame), dyadic stages (the
benign gallery frame) and declared bounds that a step refutes.  Riesz
shear, the benign frame, Mercedes and the scaled frame are built without
their pseudo-inverse (and the last two without their finite section), so
that ``inverse_apply`` runs the driver on them too.  The signal is given by
its stage alone.  A faster kernel must reproduce every integer; a change
of output must record the file again and say why.

Record again with ``PYTHONPATH=src python tests/test_driver_golden.py``.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from framecert.frames import FalseBoundsError, frame_algorithm, inverse_apply
from framecert.specfile import load_spec
from framecert.vectors import FiniteVector, VectorName
from driver_frames import benign_by_driver, finite_by_driver, riesz_shear_by_driver

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "tests" / "driver_golden.json"

PRECISIONS = (20, 64, 128, 256)
LADDER = (32, 64, 96, 128)


def fixture(name: str):
    return lambda: load_spec(str(ROOT / "fixtures" / f"{name}.json")).certified


# each frame, built afresh per run, and its signal's entries
FRAMES = {
    "mercedes": (lambda: finite_by_driver("mercedes"), "0:1 1:-1/3 2:2/7"),
    "riesz_shear": (riesz_shear_by_driver, "0:1 1:-1/3 2:2/7"),
    "scaled_frame": (lambda: finite_by_driver("scaled_frame"), "0:1 1:-1/3 2:2/7"),
    "benign": (benign_by_driver, "0:1 1:-1/3 2:2/7"),
    # a signal on which the first run's steps already refute the bounds
    "refuted_bounds": (fixture("refuted_bounds"), "0:3/7 1:-9/8 2:-1/4"),
}


def signal(text: str) -> VectorName:
    """The finite vector of ``text``, given by its stage alone."""
    v = FiniteVector.parse(text)
    return VectorName.from_stage(lambda k: v, Fraction(4))


def record_frame(name: str) -> dict:
    """The driver's outputs on one frame, or the refutation's message."""
    build, text = FRAMES[name]
    out = {}
    for p in PRECISIONS:
        try:
            res = frame_algorithm(build(), signal(text), p)
        except FalseBoundsError as e:
            out[f"p={p}"] = {"error": str(e)}
            continue
        v = res.vector.finite
        out[f"p={p}"] = {
            "nums": {str(i): str(n) for i, n in v.nums.items()},
            "den": str(v.den),
            "iterations": res.iterations,
        }
    x0 = inverse_apply(build(), signal(text)).coeff(0)
    ladder = {}
    for p in LADDER:
        try:
            ladder[f"p={p}"] = str(x0.approx(p))
        except FalseBoundsError as e:
            ladder[f"p={p}"] = {"error": str(e)}
    out["ladder"] = ladder
    return out


GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if GOLDEN_PATH.exists() else {}


def test_every_frame_is_recorded():
    assert sorted(GOLDEN) == sorted(FRAMES)


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_every_ladder_runs_the_driver(name):
    # a section or a pseudo-inverse would answer the ladder without a run
    CF = FRAMES[name][0]()
    assert CF.finite_section is None and CF.pinv is None


def test_refuted_bounds_are_recorded_as_refuted():
    runs = GOLDEN["refuted_bounds"]
    assert all("error" in runs[f"p={p}"] for p in PRECISIONS)
    assert "error" in runs["ladder"][f"p={LADDER[0]}"]


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_driver_outputs_unchanged(name):
    assert record_frame(name) == GOLDEN[name]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({name: record_frame(name) for name in FRAMES}, indent=1) + "\n",
        encoding="utf-8",
    )
