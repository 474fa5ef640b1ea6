"""Batch command-line front end.

Loads a JSON frame spec, runs kernel operations at a requested binary
precision, and prints certified decimals: every value carries an
explicit "+/- 2^-p" annotation, and output is deterministic for fixed
spec, flags, and build; ``bounds`` and ``verify`` print exact rationals
and take no ``-p``.  :mod:`.specfile` reads every input format.

Exit codes: 0 ok, 1 suite failure, 2 parse error, 3 invalid frame
(a false ``adjoint_rows`` outside ``verify``, or, under every command,
a refuted S = S*, A <= S <= B or a spent step budget), 4 missing certificate.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache

from .dyadic import decimal_string, fraction_string
from .duality import canonical_dual, dual_from_bessel
from .frames import FalseBoundsError, analysis, pseudo_inverse, reconstruct
from .realnames import RealName
from .specfile import (
    InvalidFrameError,
    MissingCertificateError,
    SpecFileError,
    load_bessel,
    load_spec,
    parse_vector_text,
)
from .vectors import VectorName, distance_bound
from .verify import SUITES, run_suite

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


def _certified_vector(spec, args):
    """What reconstruct and analyze start from: the certified frame, the
    --vector as a name, and how many coefficients to print."""
    CF = spec.require_certified()
    f = parse_vector_text(args.vector, "--vector")
    return CF, VectorName.from_finite(f), f.support + 4


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
    CF, f, count = _certified_vector(spec, args)
    p = args.precision
    back = reconstruct(CF, pseudo_inverse(CF, f))
    _print_vector("reconstruction:", back, count, p, out)
    bound = distance_bound(f, back, p)
    print(f"residual bound: {fraction_string(bound)} (<= 2^-{p} + approximation)", file=out)
    if bound > Fraction(2, 1 << p):
        print(f"error: residual bound exceeds 2^-{p - 1}", file=sys.stderr)
        return EXIT_SUITE_FAILURE
    return EXIT_OK


def cmd_analyze(spec, args, out) -> int:
    CF, f, count = _certified_vector(spec, args)
    c = analysis(CF, f)
    _print_vector("analysis coefficients:", c, count, args.precision, out)
    print(f"coefficient norm: {_fmt(c.norm, args.precision)}", file=out)
    return EXIT_OK


def cmd_dual(spec, args, out) -> int:
    CF = spec.require_certified()
    p = args.precision
    if args.bessel:
        pair = dual_from_bessel(CF, load_bessel(args.bessel))
        dual_elem = pair.dual.elem
        print("dual family (Bessel-parametrized):", file=out)
    else:
        dual_elem = canonical_dual(CF).elem
        print("canonical dual:", file=out)
    count, width = (len(spec.section), spec.section.d + 1) if spec.section is not None else (4, 5)
    for k in range(count):
        g = dual_elem(k)
        coords = ", ".join(_fmt(g.coeff(i), p) for i in range(width))
        print(f"  g_{k}: ({coords})", file=out)
    return EXIT_OK


def cmd_verify(spec, args, out) -> int:
    CF = spec.require_certified()
    rep = run_suite(args.suite, CF)
    for label, residual, ok in rep.lines:
        bound = "" if residual is None else f": residual bound {residual}"
        print(f"  [{'pass' if ok else 'FAIL'}] {label}{bound}", file=out)
    worst = "" if rep.worst is None else f" (worst {rep.worst})"
    print(f"suite {rep.suite}: {'pass' if rep.passed else 'FAIL'}{worst}", file=out)
    return EXIT_OK if rep.passed else EXIT_SUITE_FAILURE


def cmd_gallery(spec, args, out) -> int:
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

    def add(name, handler, summary, spec=True, precision=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        if spec:
            p.add_argument("spec", help="path to a JSON frame spec")
        if precision:
            p.add_argument(
                "--precision", "-p", type=int, default=30,
                help="binary digits of certified precision (default 30)",
            )
        return p

    add("bounds", cmd_bounds, "print the certified frame-bound enclosure")
    for name, handler, summary in (
        ("reconstruct", cmd_reconstruct, "frame-decompose and resynthesize a vector"),
        ("analyze", cmd_analyze, "print analysis coefficients of a vector"),
    ):
        p = add(name, handler, summary, precision=True)
        p.add_argument("--vector", required=True, help='finite vector "i:p/q,..."')
    p = add("dual", cmd_dual, "print dual frame elements", precision=True)
    p.add_argument("--bessel", help="JSON file with a Bessel perturbation")
    p = add("verify", cmd_verify, "run a property suite")
    p.add_argument(
        "--suite", required=True, choices=sorted(SUITES),
        help="which property suite to run",
    )
    add("gallery", cmd_gallery, "list gallery instances", spec=False)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_PARSE if e.code not in (0, None) else EXIT_OK
    try:
        spec = load_spec(args.spec) if "spec" in args else None
        if "precision" in args and args.precision < 0:
            raise SpecFileError("precision must be nonnegative")
        # the verify suites are what must catch a false adjoint
        if spec is not None and spec.false_adjoint is not None and args.command != "verify":
            raise InvalidFrameError(spec.false_adjoint)
        return args.handler(spec, args, sys.stdout)
    except SpecFileError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (InvalidFrameError, FalseBoundsError) as e:
        print(f"error: invalid frame: {e}", file=sys.stderr)
        return EXIT_INVALID_FRAME
    except MissingCertificateError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISSING_CERTIFICATE
