"""Batch command-line front end.

Loads a JSON frame spec, runs kernel operations at a requested binary
precision, and prints certified decimals: every value carries an
explicit "+/- 2^-p" annotation, and output is deterministic for fixed
spec, flags, and build.

Exit codes: 0 ok, 1 suite failure, 2 parse error, 3 invalid frame
(a false ``adjoint_rows`` outside ``verify``, or, under every command,
declared bounds that a solver step refutes), 4 missing certificate.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from .dyadic import decimal_string, fraction_string
from .duality import BesselSequence, canonical_dual, dual_from_bessel
from .frames import FalseBoundsError, analysis, pseudo_inverse, reconstruct
from .operators import finite_columns
from .oracle import frame_bounds_hold
from .realnames import RealName
from .specfile import (
    InvalidFrameError,
    MissingCertificateError,
    SpecFileError,
    load_spec,
    parse_rational,
    parse_vector_text,
)
from .vectors import VectorName, distance_bound
from .verify import DEFAULT_TOL, SUITES, run_suite

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_PARSE = 2
EXIT_INVALID_FRAME = 3
EXIT_MISSING_CERTIFICATE = 4


def _fmt(name: RealName, p: int) -> str:
    return f"{decimal_string(name.approx(p))} ± 2^-{p}"


def _print_vector(label: str, v, count: int, p: int, out) -> None:
    print(label, file=out)
    for i in range(count):
        print(f"  {i}: {_fmt(v.coeff(i), p)}", file=out)


def _vector_from_flag(text: str) -> VectorName:
    return VectorName.from_finite(parse_vector_text(text, "--vector"))


def cmd_bounds(spec, args, out) -> int:
    if spec.section is not None:
        am, ap, bm, bp = spec.section.bounds_enclosure
        print(f"A in [{am}, {ap}] (width <= 2^-20)", file=out)
        print(f"B in [{bm}, {bp}] (width <= 2^-20)", file=out)
    elif spec.declared_bounds is not None:
        A, B = spec.declared_bounds
        if A == B:
            print(f"A = B = {A} (declared)", file=out)
        else:
            print(f"A = {A}, B = {B} (declared)", file=out)
    else:
        print(
            f"A = {spec.frame.lower}, B = {spec.frame.upper} (certified)",
            file=out,
        )
    return EXIT_OK


def cmd_reconstruct(spec, args, out) -> int:
    CF = spec.require_certified()
    f = _vector_from_flag(args.vector)
    p = args.precision
    c = pseudo_inverse(CF, f)
    back = reconstruct(CF, c)
    count = (f.finite.support if f.finite is not None else 0) + 4
    _print_vector("reconstruction:", back, count, p, out)
    bound = distance_bound(f, back, p)
    print(f"residual bound: {fraction_string(bound)} (<= 2^-{p} + approximation)", file=out)
    if bound > Fraction(2, 1 << p):
        print(f"error: residual bound exceeds 2^-{p - 1}", file=sys.stderr)
        return EXIT_SUITE_FAILURE
    return EXIT_OK


def cmd_analyze(spec, args, out) -> int:
    CF = spec.require_certified()
    f = _vector_from_flag(args.vector)
    p = args.precision
    c = analysis(CF, f)
    count = (f.finite.support if f.finite is not None else 0) + 4
    _print_vector("analysis coefficients:", c, count, p, out)
    print(f"coefficient norm: {_fmt(c.norm, p)}", file=out)
    return EXIT_OK


def _load_bessel(path: str) -> BesselSequence:
    """Bessel sequence from a JSON file, its bound checked exactly.

    The elements are finite vectors, so sum_k |<f, h_k>|^2 <= bound ||f||^2
    holds exactly when bound*I - H H^T >= 0 for the matrix H of their
    coordinates.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise SpecFileError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise SpecFileError(f"{path}: invalid JSON: {e.msg}") from None
    if not isinstance(doc, dict):
        raise SpecFileError(f"{path}: top level must be an object")
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


def cmd_dual(spec, args, out) -> int:
    CF = spec.require_certified()
    p = args.precision
    if args.bessel:
        h = _load_bessel(args.bessel)
        pair = dual_from_bessel(CF, h)
        dual_elem = pair.dual.elem
        print("dual family (Bessel-parametrized):", file=out)
    else:
        dual_elem = canonical_dual(CF).elem
        print("canonical dual:", file=out)
    count = len(spec.section) if spec.section is not None else 4
    width = (spec.section.d if spec.section is not None else 4) + 1
    for k in range(count):
        g = dual_elem(k)
        coords = ", ".join(_fmt(g.coeff(i), p) for i in range(width))
        print(f"  g_{k}: ({coords})", file=out)
    return EXIT_OK


def cmd_verify(spec, args, out) -> int:
    CF = spec.require_certified()
    rep = run_suite(args.suite, CF, DEFAULT_TOL)
    for label, residual, ok in rep.lines:
        status = "pass" if ok else "FAIL"
        print(f"  [{status}] {label}: residual bound {residual}", file=out)
    verdict = "pass" if rep.passed else "FAIL"
    print(f"suite {rep.suite}: {verdict} (worst {rep.worst})", file=out)
    return EXIT_OK if rep.passed else EXIT_SUITE_FAILURE


def cmd_gallery(args, out) -> int:
    print("gallery instances:", file=out)
    print("  ex3.7    params: benign | specker:<identity|squares>", file=out)
    print("  ex3.14   operator data only (library interface)", file=out)
    print("  ex3.20   operator data only (library interface)", file=out)
    print("  ex3.27   operator data only (library interface)", file=out)
    print("  doubled-onb", file=out)
    return EXIT_OK


@cache  # built once per process: building costs 20x a parse
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framecert",
        description="certified frame computations on l2 from JSON specs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, needs_spec=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        if needs_spec:
            p.add_argument("spec", help="path to a JSON frame spec")
        p.add_argument(
            "--precision", "-p", type=int, default=30,
            help="binary digits of certified precision (default 30)",
        )
        return p

    add("bounds", help="print the certified frame-bound enclosure")
    p = add("reconstruct", help="frame-decompose and resynthesize a vector")
    p.add_argument("--vector", required=True, help='finite vector "i:p/q,..."')
    p = add("analyze", help="print analysis coefficients of a vector")
    p.add_argument("--vector", required=True, help='finite vector "i:p/q,..."')
    p = add("dual", help="print dual frame elements")
    p.add_argument("--bessel", help="JSON file with a Bessel perturbation")
    p = add("verify", help="run a property suite")
    p.add_argument(
        "--suite", required=True, choices=sorted(SUITES),
        help="which property suite to run",
    )
    add("gallery", needs_spec=False, help="list gallery instances")
    return parser


def main(argv=None) -> int:
    out = sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_PARSE if e.code not in (0, None) else EXIT_OK

    if args.command == "gallery":
        return cmd_gallery(args, out)

    handlers = {
        "bounds": cmd_bounds,
        "reconstruct": cmd_reconstruct,
        "analyze": cmd_analyze,
        "dual": cmd_dual,
        "verify": cmd_verify,
    }
    try:
        spec = load_spec(args.spec)
        if args.precision < 0:
            print("error: precision must be nonnegative", file=sys.stderr)
            return EXIT_PARSE
        # the verify suites are what must catch a false adjoint
        if spec.false_adjoint is not None and args.command != "verify":
            raise InvalidFrameError(spec.false_adjoint)
        return handlers[args.command](spec, args, out)
    except SpecFileError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (InvalidFrameError, FalseBoundsError) as e:
        print(f"error: invalid frame: {e}", file=sys.stderr)
        return EXIT_INVALID_FRAME
    except MissingCertificateError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISSING_CERTIFICATE


if __name__ == "__main__":
    sys.exit(main())
