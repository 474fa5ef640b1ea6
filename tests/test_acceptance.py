"""Acceptance gate: one pass/fail line per criterion, pinned tolerances.

Fixture set: Mercedes (finite rational), orthonormal basis, doubled
orthonormal basis (tight, A = B = 2), a Riesz shear basis, and the
benign decaying-row gallery frame.  Finite frames are checked against
the exact rational linear-algebra oracle.
"""

from __future__ import annotations

import io
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from framecert import gallery
from framecert.cli import main as cli_main
from framecert.duality import (
    BesselSequence,
    canonical_dual,
    dual_from_bessel,
    verify_duality,
)
from framecert.dyadic import round_fraction, sqrt_upper
from framecert.frames import (
    Frame,
    analysis,
    analysis_coeffs,
    complete_dual_gram_row,
    frame_algorithm,
    frame_name_of,
    inverse_apply,
    pseudo_inverse,
    range_projection,
    reconstruct,
    synthesis,
)
from framecert.operators import apply
from framecert.oracle import (
    ExactFrame,
    NonSpanningError,
    embed,
    exact_frame_solve,
    projection_matrix,
)
from framecert.realnames import RealName, lift_arith
from framecert.specfile import load_spec
from framecert.vectors import FiniteVector, VectorName, inner, linear_combo, sqrt_of_fraction
from framecert.verify import max_iterations

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

TOL30 = Fraction(1, 2**30)
TOL40 = Fraction(1, 2**40)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'pass' if ok else 'FAIL'} — {detail}", flush=True)
    assert ok, f"criterion {num} failed: {detail}"


@lru_cache(maxsize=None)
def fixture(name: str):
    return load_spec(str(FIXTURES / name))


def certified_fixtures():
    """Label, certified frame, and span dimension (None = all of l2)."""
    return [
        ("mercedes", fixture("mercedes.json").certified, 2),
        ("onb", fixture("onb.json").certified, None),
        ("doubled-onb", fixture("doubled_onb.json").certified, None),
        ("riesz-shear", fixture("riesz_shear.json").certified, None),
        ("benign-gallery", fixture("gallery_ex37_benign.json").certified, None),
    ]


def _restricted(v: FiniteVector, d) -> FiniteVector:
    if d is None:
        return v
    return FiniteVector([(i, q) for i, q in v.entries if i < d])


def _residual_bound(x: VectorName, y: VectorName, p: int) -> Fraction:
    diff = linear_combo(
        [(RealName.from_fraction(1), x), (RealName.from_fraction(-1), y)]
    )
    return diff.norm.approx(p).as_fraction() + Fraction(1, 1 << p)


@lru_cache(maxsize=None)
def random_finite_frames(count: int = 25, seed: int = 3):
    """Seeded spanning rational frames with moderate condition B/A."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(2, 6)
        K = rng.randint(d, 10)
        rows = [
            [Fraction(rng.randint(-2, 2)) for _ in range(d)] for _ in range(K)
        ]
        try:
            section = ExactFrame(rows)
        except NonSpanningError:
            continue
        sol = exact_frame_solve(section)
        if sol.upper / sol.lower > 25:
            continue
        out.append((section, sol, embed(section)))
    return tuple(out)


# -- criterion 1: name-contract fuzzing ------------------------------


def _opaque(q: Fraction) -> RealName:
    return RealName(lambda n: round_fraction(q, n + 1), abs(q) + 1)


def test_criterion_1_name_fuzzing():
    start = time.time()
    rng = random.Random(20260824)
    ops = ("add", "sub", "mul")

    def build(depth):
        if depth == 0 or rng.random() < 0.3:
            q = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
            name = RealName.from_fraction(q) if rng.random() < 0.5 else _opaque(q)
            return name, q
        op = rng.choice(ops)
        xn, xq = build(depth - 1)
        yn, yq = build(depth - 1)
        zq = xq + yq if op == "add" else xq - yq if op == "sub" else xq * yq
        return lift_arith(op, xn, yn), zq

    checked = 0
    for _ in range(10_000):
        name, value = build(rng.randint(1, 4))
        n = rng.randint(0, 47)
        m = rng.randint(n + 1, 48)
        an = name.approx(n).as_fraction()
        am = name.approx(m).as_fraction()
        assert abs(an - am) <= Fraction(1, 1 << n) + Fraction(1, 1 << m)
        assert abs(an - value) <= Fraction(1, 1 << n)
        assert abs(am - value) <= Fraction(1, 1 << m)
        checked += 1
    elapsed = time.time() - start
    report(
        1,
        checked == 10_000 and elapsed <= 60,
        f"{checked} random expressions, Cauchy + oracle agreement, {elapsed:.1f}s (limit 60s)",
    )


# -- criterion 2: Mercedes fixture -----------------------------------


def test_criterion_2_mercedes():
    start = time.time()
    spec = fixture("mercedes.json")
    CF = spec.certified
    expected = {
        0: (Fraction(2, 3), Fraction(-1, 3)),
        1: (Fraction(-1, 3), Fraction(2, 3)),
        2: (Fraction(1, 3), Fraction(1, 3)),
    }
    dual = canonical_dual(CF)
    worst = Fraction(0)
    for k, coords in expected.items():
        g = dual.elem(k)
        for i, want in enumerate(coords):
            got = g.coeff(i).approx(44).as_fraction()
            worst = max(worst, abs(got - want))
    s_inv = inverse_apply(CF, VectorName.from_finite(FiniteVector.parse("0:1")))
    for i, want in enumerate(expected[0]):
        worst = max(worst, abs(s_inv.coeff(i).approx(44).as_fraction() - want))
    am, ap, bm, bp = exact_frame_solve(spec.section).bounds_enclosure
    enclosure_ok = (
        am <= 1 <= ap
        and bm <= 3 <= bp
        and ap - am <= Fraction(1, 2**20)
        and bp - bm <= Fraction(1, 2**20)
    )
    elapsed = time.time() - start
    report(
        2,
        worst <= TOL40 and enclosure_ok and elapsed <= 5,
        f"dual and S^-1 within 2^-40 (worst {float(worst):.2e}), "
        f"bounds enclose {{1, 3}} at width <= 2^-20, {elapsed:.1f}s (limit 5s)",
    )


# -- criterion 3: both reconstruction orderings ----------------------


def test_criterion_3_decomposition_orderings():
    start = time.time()
    rng = random.Random(7)
    worst = Fraction(0)
    checked = 0
    for section, _sol, CF in random_finite_frames():
        dual = canonical_dual(CF)
        for _ in range(10):
            v = FiniteVector(
                [
                    (i, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                    for i in range(section.d)
                ]
            )
            f = VectorName.from_finite(v)
            # f = sum_k <f, S^-1 f_k> f_k
            r1 = reconstruct(CF, pseudo_inverse(CF, f))
            # f = sum_k <f, f_k> S^-1 f_k
            r2 = synthesis(dual.frame, analysis(CF, f))
            worst = max(worst, _residual_bound(f, r1, 40), _residual_bound(f, r2, 40))
            checked += 1
    elapsed = time.time() - start
    report(
        3,
        checked == 250 and worst <= TOL30 and elapsed <= 120,
        f"{checked} reconstructions over 25 seeded frames, both orderings, "
        f"worst residual {float(worst):.2e} <= 2^-30, {elapsed:.1f}s (limit 120s)",
    )


# -- criterion 4: frame-algorithm iteration budget -------------------


def test_criterion_4_iteration_budget():
    ok = True
    details = []
    for label, CF, d in certified_fixtures():
        f = VectorName.from_finite(_restricted(FiniteVector.parse("0:1 1:1"), d))
        for p in (20, 40, 60):
            res = frame_algorithm(CF, f, p)
            cap = max_iterations(CF.lower, CF.upper, f.norm.mag, p)
            fits = res.iterations <= cap
            if CF.lower == CF.upper:
                fits = fits and res.iterations == 1
            ok = ok and fits
            if p == 60:
                details.append(f"{label}:{res.iterations}/{cap}")
    report(4, ok, "iterations within ceiling on every fixture, p in {20, 40, 60} "
                  f"(at p=60: {', '.join(details)})")


# -- criterion 5: projection suite -----------------------------------


def test_criterion_5_projection():
    rng = random.Random(11)
    worst = Fraction(0)
    p = 34
    frames = [(fixture("mercedes.json").section, None, fixture("mercedes.json").certified)]
    frames += list(random_finite_frames()[:2])
    for section, _sol, CF in frames:
        K = len(section)
        M = projection_matrix(section)
        P = range_projection(CF)
        for _ in range(20):
            cv = FiniteVector(
                [(k, Fraction(rng.randint(-4, 4), rng.randint(1, 4))) for k in range(K)]
            )
            c = VectorName.from_finite(cv)
            Pc = apply(P, c)
            worst = max(worst, _residual_bound(apply(P, Pc), Pc, p))
            # adjoint via the oracle transpose, exactly
            dense = cv.dense(K)
            Pt_c = FiniteVector(
                [(l, sum(M[k][l] * dense[k] for k in range(K))) for l in range(K)]
            )
            worst = max(worst, _residual_bound(Pc, VectorName.from_finite(Pt_c), p))
        for text in ("0:1", "0:1 1:-2"):
            f = VectorName.from_finite(
                _restricted(FiniteVector.parse(text), section.d)
            )
            cf = analysis(CF, f)
            worst = max(worst, _residual_bound(apply(P, cf), cf, p))
    report(
        5,
        worst <= TOL30,
        f"P idempotent, matches oracle adjoint, fixes analysis images "
        f"(worst residual {float(worst):.2e} <= 2^-30)",
    )


# -- criterion 6: Gram-completion identity ---------------------------


def test_criterion_6_gram_completion():
    worst = Fraction(0)
    p = 34
    frames = [(fixture("mercedes.json").section, None, fixture("mercedes.json").certified)]
    frames += list(random_finite_frames()[:2])
    for section, _sol, CF in frames:
        M = projection_matrix(section)
        K = len(section)
        for n in range(10):
            fn = CF.elem(n)
            dual_fn = inverse_apply(CF, fn)

            def diag(_m, fn=fn, dual_fn=dual_fn):
                return inner(fn, dual_fn)

            got = complete_dual_gram_row(diag, n).approx(p).as_fraction()
            want_energy = (
                sum(M[n][k] ** 2 for k in range(K)) if n < K else Fraction(0)
            )
            want_diag = M[n][n] if n < K else Fraction(0)
            worst = max(worst, abs(got - want_energy), abs(want_energy - want_diag))
    report(
        6,
        worst <= TOL30,
        f"row energies match oracle sums and diagonal entries for n < 10 "
        f"(worst deviation {float(worst):.2e} <= 2^-30)",
    )


# -- criterion 7: Bessel-parametrized dual family --------------------


def test_criterion_7_bessel_duals():
    rng = random.Random(13)
    worst = Fraction(0)
    p = 34
    for label, CF, d in [
        ("mercedes", fixture("mercedes.json").certified, 2),
        ("onb", fixture("onb.json").certified, None),
        ("doubled-onb", fixture("doubled_onb.json").certified, None),
    ]:
        K = len(CF.finite_section) if CF.finite_section is not None else 3
        width = d if d is not None else 4
        tests = [
            _restricted(FiniteVector.parse(t), d)
            for t in ("0:1", "1:1", "0:1 1:-2")
        ]
        for _ in range(5):
            hs = [
                FiniteVector(
                    [
                        (i, Fraction(rng.randint(-2, 2), 8))
                        for i in range(width)
                    ]
                )
                for _ in range(K)
            ]
            D = sum(h.norm_squared() for h in hs) + Fraction(1, 64)
            h = BesselSequence(
                lambda k, hs=hs: VectorName.from_finite(hs[k])
                if k < len(hs)
                else VectorName.zero(),
                D,
            )
            pair = dual_from_bessel(CF, h)
            rep = verify_duality(pair, tests, TOL30)
            worst = max(worst, rep.worst)

            # recovered perturbation h'_k = g_k - S^-1 f_k regenerates g
            tilde = canonical_dual(CF)

            def h2(k, pair=pair, tilde=tilde):
                return linear_combo(
                    [
                        (RealName.from_fraction(1), pair.dual.elem(k)),
                        (RealName.from_fraction(-1), tilde.elem(k)),
                    ]
                )

            sqD = sqrt_upper(D)
            D2 = (sqD * (1 + sqrt_upper(CF.upper / CF.lower))) ** 2
            pair2 = dual_from_bessel(CF, BesselSequence(h2, D2))
            for k in range(K):
                worst = max(
                    worst,
                    _residual_bound(pair2.dual.elem(k), pair.dual.elem(k), p),
                )
    report(
        7,
        worst <= TOL30,
        f"5 random Bessel perturbations per fixture: duality and recovery "
        f"self-consistency (worst residual {float(worst):.2e} <= 2^-30)",
    )


# -- criterion 8: gallery boundary -----------------------------------


def test_criterion_8_gallery_boundary():
    benign = gallery.benign_sequence()
    CF = gallery.upper_row_frame(benign)
    c = analysis(CF, VectorName.basis(0))
    want = sqrt_of_fraction(Fraction(4, 3))
    norm_dev = abs(
        c.norm.approx(34).as_fraction() - want.approx(34).as_fraction()
    )
    f = VectorName.from_finite(FiniteVector.parse("0:1 1:1/2"))
    back = reconstruct(CF, pseudo_inverse(CF, f))
    resid = _residual_bound(f, back, 32)

    spec = gallery.specker_sequence(gallery.parse_enumerator("identity"))
    rejected = 0
    for ctor in (gallery.upper_row_frame, gallery.lower_column_operator):
        try:
            ctor(spec)
        except gallery.MissingNormCertificateError:
            rejected += 1
    s = sqrt_upper(spec.sq_sum_upper - 1, bits=10)
    bare = Frame(gallery.example_upper_row(spec).col, (1 - s) ** 2, (1 + s) ** 2)
    weak = analysis_coeffs(bare, VectorName.basis(0))
    coeff_dev = Fraction(0)
    for i in range(1, 32):
        got = weak.coeff(i).approx(60).as_fraction()
        ref = spec.a(i).approx(60).as_fraction()
        coeff_dev = max(coeff_dev, abs(got - ref))
    ok = (
        norm_dev <= TOL30
        and resid <= TOL30
        and rejected == 2
        and coeff_dev <= Fraction(1, 2**58)
    )
    report(
        8,
        ok,
        f"benign analysis norm within 2^-30 of sqrt(4/3), reconstruction residual "
        f"{float(resid):.2e} <= 2^-30; norm-free instances rejected by both "
        f"constructors while coefficientwise analysis matches the generator",
    )


# -- criterion 9: representation converters --------------------------


def test_criterion_9_converters():
    worst = Fraction(0)
    p = 34
    for label, CF, d in certified_fixtures()[:4]:
        width = (CF.finite_section.d if CF.finite_section is not None else 4)
        f = VectorName.from_finite(
            _restricted(FiniteVector.parse("0:1 1:-1/2"), d)
        )
        c = frame_name_of(CF, f)
        back = reconstruct(CF, c)
        # vector-side identity, coefficientwise and in norm
        for i in range(width + 2):
            dev = abs(
                (back.coeff(i).approx(p) - f.coeff(i).approx(p)).as_fraction()
            )
            worst = max(worst, max(dev - Fraction(2, 1 << p), Fraction(0)))
        worst = max(worst, _residual_bound(f, back, p))
        norm_dev = abs((back.norm.approx(p) - f.norm.approx(p)).as_fraction())
        worst = max(worst, max(norm_dev - Fraction(2, 1 << p), Fraction(0)))
        # coefficient-side identity on canonical coefficients
        c2 = frame_name_of(CF, back)
        worst = max(
            worst, _residual_bound(c.as_vector_name(), c2.as_vector_name(), p)
        )
    report(
        9,
        worst <= TOL30,
        f"frame_name_of and reconstruct invert each other on all fixtures "
        f"(worst deviation {float(worst):.2e} <= 2^-30)",
    )


# -- criterion 10: CLI determinism -----------------------------------


def test_criterion_10_cli_determinism():
    args_list = [
        ("verify", str(FIXTURES / fx), "--suite", suite)
        for fx in (
            "mercedes.json",
            "onb.json",
            "doubled_onb.json",
            "riesz_shear.json",
        )
        for suite in ("duality", "projection", "gram", "rate")
    ]

    def run_all():
        outputs = []
        for args in args_list:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_main(list(args))
            outputs.append((code, buf.getvalue()))
        return outputs

    first = run_all()
    second = run_all()
    all_zero = all(code == 0 for code, _ in first)
    identical = first == second
    report(
        10,
        all_zero and identical,
        f"{len(args_list)} verify runs exit 0 and are byte-identical across two passes",
    )
