"""Fixture frames built without their certified inverse.

``riesz_shear.json``, the benign gallery frame and every finite spec carry
(T+, (T+)*) when loaded (a finite spec's read off its exact section), so
``inverse_apply`` on them applies it.  Built here with the same elements,
bounds and analysis operator but neither ``pinv`` nor a section, they
keep running the conjugate-gradient driver, which the tests that pin its
runs and its integers need.
"""

import json
from pathlib import Path

from framecert.frames import CertifiedFrame, Frame
from framecert.gallery import benign_sequence, example_upper_row, upper_row_bounds, upper_row_frame
from framecert.riesz import riesz_as_frame, riesz_from_matrix
from framecert.specfile import load_spec, parse_matrix

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def riesz_shear_by_driver() -> CertifiedFrame:
    """The frame of riesz_shear.json, T's columns with its analysis operator and no T^-1."""
    doc = json.loads((FIXTURES / "riesz_shear.json").read_text())
    R = riesz_from_matrix(parse_matrix(doc["T"], "T"), parse_matrix(doc["T_inv"], "T_inv"))
    CF = riesz_as_frame(R)
    return CertifiedFrame(Frame(R.T.col, CF.lower, CF.upper), CF.analysis_op)


def benign_by_driver() -> CertifiedFrame:
    """The benign gallery frame, U's columns with its analysis operator and no U^-1."""
    g = benign_sequence()
    return CertifiedFrame(
        Frame(example_upper_row(g).col, *upper_row_bounds(g)), upper_row_frame(g).analysis_op
    )


def finite_by_driver(name: str) -> CertifiedFrame:
    """The frame of the finite spec ``name``.json, its elements with its analysis
    operator and no section."""
    CF = load_spec(str(FIXTURES / f"{name}.json")).certified
    return CertifiedFrame(CF, CF.analysis_op)
