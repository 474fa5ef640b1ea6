"""The exact oracle's outputs, recorded once and held fixed.

``oracle_golden.json`` was written by the Fraction-elimination oracle
that preceded the integer Bareiss kernel: the frame-bound enclosures of
every finite fixture and of seeded frames, and the stdout of two CLI
commands on the Mercedes frame.  The entries of ``scaled_frame.json``, a
frame with a common denominator 6, were added later by the integer
kernel, before ExactFrame kept its integer form.  A faster kernel must
reproduce them exactly.
"""

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from framecert.cli import main
from framecert.oracle import eigenvalue_enclosures
from framecert.specfile import load_spec

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "oracle_golden.json").read_text(encoding="utf-8"))


def seeded_S(d: int, rational: bool):
    """S = V^T V for d + 4 (integer frames) or d + 3 (rational) seeded vectors."""
    rng = random.Random(d)
    if rational:
        V = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(d)]
             for _ in range(d + 3)]
    else:
        V = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d + 4)]
    return [[sum((v[i] * v[j] for v in V), Fraction(0)) for j in range(d)] for i in range(d)]


def finite_fixtures():
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        try:
            spec = load_spec(str(path))
        except ValueError:
            continue
        if spec.section is not None:
            yield path.name, spec.section.S


def test_every_finite_fixture_is_recorded():
    names = [name for name, _ in finite_fixtures()]
    assert names and set(names) <= set(GOLDEN["enclosures"])


@pytest.mark.parametrize(
    "key, S",
    [*finite_fixtures()]
    + [(f"seeded-d{d}", seeded_S(d, rational=False)) for d in (8, 12, 16)]
    + [("seeded-rational-d6", seeded_S(6, rational=True))],
)
def test_enclosures_unchanged(key, S):
    assert [str(q) for q in eigenvalue_enclosures(S)] == GOLDEN["enclosures"][key]


@pytest.mark.parametrize("command", sorted(GOLDEN["cli"]))
def test_cli_stdout_unchanged(command):
    argv = [str(ROOT / a) if a.startswith("fixtures/") else a for a in command.split()]
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(argv) == 0
    assert buf.getvalue() == GOLDEN["cli"][command]
