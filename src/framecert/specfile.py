"""The input formats of the command-line front end, read in one place.

A spec file declares one frame: an orthonormal one, finite rational
vectors or a finite matrix of synthesis columns (both loaded as an
:class:`ExactFrame`, exact ground truth, with its pseudo-inverse), a
gallery instance, or a Riesz basis; a Bessel file, a bound and finite
vectors.  Rationals travel as strings "p/q", and vectors (the
``--vector`` flag too) as "i:p/q" text.  Parse errors carry the
offending field, or the file and the line.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .duality import BesselSequence
from .dyadic import Immutable, sqrt_upper
from .frames import CertifiedFrame, Frame, frame_from_onb
from .operators import OperatorName, finite_columns
from .oracle import ExactFrame, NonSpanningError, embed, frame_bounds_hold
from .vectors import FiniteVector


class SpecFileError(ValueError):
    """Malformed spec file; message names the offending field."""


class InvalidFrameError(ValueError):
    """The spec parses but does not describe a valid frame."""


class MissingCertificateError(ValueError):
    """The requested operation needs an analysis certificate the spec lacks."""


class LoadedSpec(Immutable):
    """A parsed spec: its frame, and the same frame as ``certified`` when
    it is a :class:`CertifiedFrame`.

    ``certified`` is None exactly when no analysis certificate can be
    built (norm-free gallery instances); ``section`` is the exact ground
    truth of a finite spec.  It is None for an operator spec even when its
    frame has one, so ``bounds`` prints the declared bounds and ``dual``
    g_0..g_3 with 5 coordinates each, the shape perfbench/client.py
    checks for specs that are not finite.  ``false_adjoint`` says why
    the spec's ``adjoint_rows`` is not its matrix's adjoint, or is None:
    the spec still loads with it, so that the verify suites can catch it.
    """

    __slots__ = ("kind", "frame", "certified", "section", "declared_bounds", "false_adjoint")

    def __init__(self, kind, frame, certified, section, declared_bounds, false_adjoint=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "certified", certified)
        object.__setattr__(self, "section", section)
        object.__setattr__(self, "declared_bounds", declared_bounds)
        object.__setattr__(self, "false_adjoint", false_adjoint)

    def require_certified(self) -> CertifiedFrame:
        if self.certified is None:
            raise MissingCertificateError(
                "this frame carries no analysis certificate: its element "
                "data is computable coefficientwise, but the certificate "
                "would need a norm that is not a computable real"
            )
        return self.certified


def parse_rational(value, field: str) -> Fraction:
    """Rational from "p/q" (or "p") with q != 0, or a JSON integer."""
    try:
        return Fraction(_rational(value))
    except TypeError:
        raise SpecFileError(f"{field}: expected a rational string, got {value!r}") from None
    except (ValueError, ZeroDivisionError) as e:
        raise SpecFileError(f"{field}: invalid rational {value!r} ({e})") from None


def _rational(value) -> int | Fraction:
    """:func:`parse_rational` without the field, an int for an integer or
    ASCII "-?digits": TypeError for a value that is neither a string nor an
    integer, ValueError or ZeroDivisionError for a string that is not a
    rational.  "-?digits/digits" with a nonzero denominator is read by int(),
    every other string by Fraction, which so decides what is accepted and the error text."""
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if digits.isascii() and digits.isdigit():
            if not slash:
                return int(num)
            if den.isascii() and den.isdigit() and den.strip("0"):
                return Fraction(int(num), int(den))
        return Fraction(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(value)


def parse_matrix(value, field: str):
    """Non-empty rows of equal length; an entry is an int where it is one."""
    if not isinstance(value, list) or not value:
        raise SpecFileError(f"{field}: expected a non-empty list of rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            raise SpecFileError(f"{field}[{i}]: expected a non-empty row")
        try:
            rows.append([_rational(q) for q in row])
        except (TypeError, ValueError, ZeroDivisionError):
            # the entry's label is formatted only here, to name the first bad one
            for j, q in enumerate(row):
                parse_rational(q, f"{field}[{i}][{j}]")
            raise
    if any(len(r) != len(rows[0]) for r in rows):
        raise SpecFileError(f"{field}: ragged rows")
    return rows


def parse_vector_text(text, field: str = "vector") -> FiniteVector:
    """Finite vector from "i:p/q" text, as :meth:`FiniteVector.parse` reads it."""
    if not isinstance(text, str):
        raise SpecFileError(f"{field}: expected a vector string, got {text!r}")
    try:
        return FiniteVector.parse(text)
    except ValueError as e:
        raise SpecFileError(f"{field}: {e}") from None


def load_bessel(path: str) -> BesselSequence:
    """Bessel sequence from a JSON file, its bound checked exactly.

    The elements are finite vectors, so sum_k |<f, h_k>|^2 <= bound ||f||^2
    holds exactly when bound*I - H H^T >= 0 for the matrix H of their
    coordinates.
    """
    doc = _read_json(path)
    bound = parse_rational(doc.get("bound", "1"), "bound")
    if bound < 0:
        raise SpecFileError(f"bound: expected a nonnegative rational, got {bound}")
    elems = doc.get("elements", [])
    if not isinstance(elems, list):
        raise SpecFileError("elements: expected a list of vector strings")
    fins = [parse_vector_text(t, f"elements[{i}]") for i, t in enumerate(elems)]
    coords = sorted({i for v in fins for i in v.nums})
    H = [[v.coefficient(i) for v in fins] for i in coords]
    if not frame_bounds_hold(H, Fraction(0), bound):
        raise InvalidFrameError(f"Bessel bound {bound} is below ||sum_k h_k h_k^T||")
    return BesselSequence(finite_columns(fins), bound)


def _load_finite(vectors) -> LoadedSpec:
    try:
        CF = embed(ExactFrame(parse_matrix(vectors, "vectors")))
    except NonSpanningError as e:
        raise InvalidFrameError(str(e)) from None
    return LoadedSpec("finite", CF, CF, CF.finite_section, None)


def _load_operator(doc) -> LoadedSpec:
    """The frame of the matrix's columns, its declared bounds checked exactly
    by its :class:`ExactFrame` (:meth:`ExactFrame.bounds_hold`): embedded as
    a finite spec is when ``adjoint_rows`` is true (or absent), else with
    the false rows as T*, the declared bounds and no section."""
    matrix = parse_matrix(doc.get("matrix"), "matrix")
    bounds = doc.get("bounds")
    if not isinstance(bounds, list) or len(bounds) != 2:
        raise SpecFileError("bounds: expected [A, B]")
    A, B = (parse_rational(q, f"bounds[{i}]") for i, q in enumerate(bounds))
    if not 0 < A <= B:
        raise InvalidFrameError("declared bounds must satisfy 0 < A <= B")
    try:
        F = ExactFrame(list(zip(*matrix)))
    except NonSpanningError:
        F = None  # S is singular, so no A > 0 is a lower bound
    if F is None or not F.bounds_hold(A, B):
        raise InvalidFrameError(f"declared bounds [{A}, {B}] do not enclose the spectrum of S = M M^T")

    # adjoint_rows[n] is T* e_n, which is row n of the matrix: the only
    # true value is the matrix itself, compared exactly (shape included)
    adj = parse_matrix(doc["adjoint_rows"], "adjoint_rows") if "adjoint_rows" in doc else matrix
    CF = embed(F)
    if adj == matrix:
        return LoadedSpec("operator", CF, CF, None, (A, B))
    rows = finite_columns([FiniteVector(enumerate(r)) for r in adj])
    Tstar = OperatorName(rows, sqrt_upper(B), support_bound=len(matrix[0]))
    CF = CertifiedFrame(Frame(CF.elem, A, B), Tstar)
    return LoadedSpec("operator", CF, CF, None, (A, B),
                      "adjoint_rows: row n must be T* e_n, row n of matrix")


def _load_gallery(doc) -> LoadedSpec:
    from . import gallery as gal

    info = doc.get("gallery")
    if not isinstance(info, dict):
        raise SpecFileError("gallery: expected an object with name and params")
    name = info.get("name")
    params = info.get("params", "benign")

    if name == "doubled-onb":
        CF = gal.doubled_onb()
        return LoadedSpec("gallery", CF, CF, None, None)

    if name not in ("ex3.7", "ex3.14", "ex3.20", "ex3.27"):
        raise SpecFileError(f"gallery.name: unknown instance {name!r}")

    if params == "benign":
        g = gal.benign_sequence()
    elif isinstance(params, str) and params.startswith("specker:"):
        try:
            enum = gal.parse_enumerator(params.split(":", 1)[1])
        except ValueError as e:
            raise SpecFileError(f"gallery.params: {e}") from None
        g = gal.specker_sequence(enum)
    else:
        raise SpecFileError(f"gallery.params: unknown parameter {params!r}")

    if name != "ex3.7":
        # the other instances expose operator/sequence data, not a frame
        raise SpecFileError(
            f"gallery.name: {name} provides operator data only; "
            "use the library interfaces for it"
        )

    if g.norm_name is not None:
        CF = gal.upper_row_frame(g)
        return LoadedSpec("gallery", CF, CF, None, None)
    frame = Frame(gal.example_upper_row(g).col, *gal.upper_row_bounds(g))
    return LoadedSpec("gallery", frame, None, None, None)


def _load_riesz(doc) -> LoadedSpec:
    from .riesz import riesz_as_frame, riesz_from_matrix

    T = parse_matrix(doc.get("T"), "T")
    T_inv = parse_matrix(doc.get("T_inv"), "T_inv")
    try:
        R = riesz_from_matrix(T, T_inv)
    except ValueError as e:
        raise InvalidFrameError(str(e)) from None
    CF = riesz_as_frame(R)
    return LoadedSpec("riesz", CF, CF, None, None)


def _read_json(path: str) -> dict:
    """The top-level object of a JSON file; errors name the file, and the line."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise SpecFileError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise SpecFileError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise SpecFileError(f"{path}: top level must be an object")
    return doc


def load_spec(path: str) -> LoadedSpec:
    doc = _read_json(path)
    kind = doc.get("kind")
    if kind == "onb":
        CF = frame_from_onb()
        return LoadedSpec("onb", CF, CF, None, None)
    if kind == "finite":
        return _load_finite(doc.get("vectors"))
    if kind == "operator":
        return _load_operator(doc)
    if kind == "gallery":
        return _load_gallery(doc)
    if kind == "riesz":
        return _load_riesz(doc)
    raise SpecFileError(f"kind: unknown kind {kind!r}")
