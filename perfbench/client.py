"""The closed-loop client: one request at a time, each checked exactly.

A request is one CLI command run in-process through ``framecert.cli.main``
with stdout captured, or one library call that asks for certified values
at precision p.  Its latency covers only the call into the program;
preparing inputs and checking answers against ``reference`` happen
outside it.  The program is reached through public functions only.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import reference as ref
from generate import LADDER

MODULES = ("cli", "specfile", "frames", "duality", "operators", "oracle", "vectors", "realnames", "dyadic")
SUITE_TOL = Fraction(1, 2**30)


def load_program(src: Path) -> SimpleNamespace:
    """A fresh import of framecert from ``src``; set-up times this."""
    for name in [m for m in sys.modules if m == "framecert" or m.startswith("framecert.")]:
        del sys.modules[name]
    pkg = importlib.import_module("framecert")
    if src.resolve() not in Path(pkg.__file__).resolve().parents:
        raise ImportError(f"framecert was imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"framecert.{m}") for m in MODULES})


@dataclass
class Outcome:
    rid: int
    label: str
    latency: float = 0.0
    failed: bool = False
    wrong: bool = False  # printed or returned a value outside its claimed enclosure
    cause: str = ""
    counts: dict = field(default_factory=dict)


class Session:
    """What set-up leaves for the client: program, spec files, frames."""

    def __init__(self, prog, frames, requests, spec_dir: Path):
        self.prog = prog
        self.frames = frames
        self.requests = requests
        self.paths = {key: spec_dir / f"{key}.json" for key in frames}
        self.loaded = {}  # frame key -> CertifiedFrame, for library workloads

    def reference(self, key: str):
        """Exact reference for a frame; built per check, so it adds nothing to peak RSS."""
        desc = self.frames[key]
        if desc.kind == "finite":
            return ref.FiniteRef(desc.data)
        if desc.kind == "riesz":
            return ref.RieszRef(*desc.data)
        if desc.kind == "operator":
            return ref.OperatorRef(desc.data)
        return ref.BenignRef()

    def load(self, key: str):
        return self.prog.specfile.load_spec(str(self.paths[key])).certified


# -- benchmark-owned input names ------------------------------------------


class InputCounter:
    """Counts the approx queries that reach the benchmark's input oracles."""

    def __init__(self):
        self.max_bits = 0
        self.queries = 0

    def seen(self, n: int) -> None:
        self.queries += 1
        if n > self.max_bits:
            self.max_bits = n


def _signal(prog, counter: InputCounter, coeff_of, norm_sq: Fraction, support=None):
    """Oracle-given vector name: nothing is marked exact, every query is counted."""
    RealName, Dyadic = prog.realnames.RealName, prog.dyadic.Dyadic

    def coeff(i: int):
        q = coeff_of(i)

        def fn(n: int):
            counter.seen(n)
            # nearest multiple of 2^-n
            return Dyadic((2 * q.numerator * (1 << n) + q.denominator) // (2 * q.denominator), -n)

        return RealName(fn, abs(q))

    def norm(n: int):
        counter.seen(n)
        return Dyadic(isqrt(norm_sq.numerator * (1 << (2 * n)) // norm_sq.denominator), -n)

    return prog.vectors.VectorName(coeff, RealName(norm, isqrt(int(norm_sq)) + 1), support_bound=support)


def geometric_signal(prog, counter: InputCounter, c: Fraction):
    """x_i = c 4^-i, ||x||^2 = 16 c^2 / 15."""
    return _signal(prog, counter, lambda i: c / Fraction(4) ** i, c * c * Fraction(16, 15))


def finite_signal(prog, counter: InputCounter, f: dict, support: int):
    return _signal(prog, counter, lambda i: f.get(i, Fraction(0)), sum(q * q for q in f.values()), support)


def _support(sess: Session, key: str, f: dict) -> int:
    desc = sess.frames[key]
    return len(desc.data[0]) if desc.kind == "finite" else max(f) + 1


def _value(d) -> Fraction:
    return Fraction(d.mantissa) * Fraction(2) ** d.exponent


# -- requests ---------------------------------------------------------------


def _timed(out: Outcome, tracer, call):
    t0 = perf_counter()
    try:
        with tracer.span(f"bench.{out.label}"):
            return call()
    finally:
        out.latency = perf_counter() - t0


def _solve_calls(prog) -> int:
    info = getattr(prog.oracle.exact_frame_solve, "cache_info", None)
    return 0 if info is None else info().hits + info().misses


def clear_solve_cache(prog) -> None:
    """Empty exact_frame_solve's cache, as a fresh CLI process would find it."""
    clear = getattr(prog.oracle.exact_frame_solve, "cache_clear", None)
    if clear is not None:
        clear()


def _run_cli(sess: Session, req, tracer, out: Outcome):
    argv = [a.replace("{spec}", str(sess.paths[req.frame])) for a in req.argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    before = _solve_calls(sess.prog)

    def call():
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), tracer.span("cli.main"):
            return sess.prog.cli.main(argv)

    code = _timed(out, tracer, call)
    out.counts["solve_calls"] = _solve_calls(sess.prog) - before
    text = stdout.getvalue()
    if code != 0:
        out.failed = True
        why = ref.first_failure(text) if code == 1 else stderr.getvalue().strip()[:200]
        out.cause = f"exit {code}: {why}"
        return None
    return lambda: _check_cli(sess, req, text)


def _check_cli(sess: Session, req, text: str) -> None:
    desc, r, p = sess.frames[req.frame], sess.reference(req.frame), req.params["p"]
    cmd = req.label.split(".", 1)[1]
    if cmd == "bounds":
        ref.check_bounds(text, r)
    elif cmd == "dual":
        if desc.kind == "finite":
            dual = r.dual()
            ref.check_dual(text, p, len(dual), r.d + 1, lambda k, i: dual[k][i] if i < r.d else Fraction(0))
        else:
            ref.check_dual(text, p, 4, 5, r.dual_coord)
    elif cmd == "reconstruct":
        ref.check_reconstruct(text, p, req.params["vector"])
    else:
        suite = cmd.split(".", 1)[1]
        proj = r.projection() if suite == "gram" and desc.kind == "finite" else None
        ref.check_suite(text, suite, SUITE_TOL, proj)


def _run_coeff(sess: Session, req, tracer, out: Outcome):
    prog, p, k, c = sess.prog, req.params["p"], req.params["k"], req.params["c"]
    CF = sess.load(req.frame)  # fresh frame objects: no memo carries over between requests
    counter = InputCounter()
    f = geometric_signal(prog, counter, c)

    def call():
        with tracer.span("frames.pseudo_inverse"):
            coeffs = prog.frames.pseudo_inverse(CF, f)
        with tracer.span("frames.FrameCoeffName.coeff"):
            x = coeffs.coeff(k)
        with tracer.span("realnames.RealName.approx"):
            return x.approx(p)

    got = _timed(out, tracer, call)
    out.counts.update(max_bits=counter.max_bits, queries=counter.queries, p=p)
    want = sess.reference(req.frame).coefficient_geometric(c, k)
    return lambda: ref.check_close(_value(got), want, p, f"coefficient {k}")


def _run_solve(sess: Session, req, tracer, out: Outcome):
    prog, p, f = sess.prog, req.params["p"], req.params["f"]
    CF = sess.loaded[req.frame]
    fv = prog.vectors.VectorName.from_finite(prog.vectors.FiniteVector(sorted(f.items())))

    def call():
        with tracer.span("frames.frame_algorithm"):
            return prog.frames.frame_algorithm(CF, fv, p)

    res = _timed(out, tracer, call)
    out.counts.update(iterations=res.iterations, way=req.params["way"])

    def check():
        # exact for a finite result; otherwise the truncation adds at most slack
        slack = Fraction(1, 1 << (p + 16))
        v, _ = prog.vectors.truncate(res.vector, slack)
        dist_sq = sess.reference(req.frame).dist_sq(dict(v.entries), f)
        bound = Fraction(1, 1 << p) + slack
        if dist_sq > bound * bound:
            raise ref.CheckError(f"frame_algorithm at p={p}: ||g - S^-1 f||^2 = {float(dist_sq):.3g}")

    return check


def _ladder_want(sess: Session, key: str, f: dict) -> Fraction:
    r = sess.reference(key)
    if sess.frames[key].kind == "benign":
        return r.s_inv_coord(f, 0)
    return r.s_inv(f).get(0, Fraction(0))


def _run_ladder(sess: Session, req, tracer, out: Outcome):
    prog, f = sess.prog, req.params["f"]
    CF = sess.loaded[req.frame]
    counter = InputCounter()
    fv = finite_signal(prog, counter, f, _support(sess, req.frame, f))
    got = []

    def call():
        with tracer.span("frames.inverse_apply"):
            x = prog.frames.inverse_apply(CF, fv)
        with tracer.span("vectors.VectorName.coeff"):
            x0 = x.coeff(0)
        for p in LADDER:
            with tracer.span("realnames.RealName.approx"):
                got.append(x0.approx(p))

    _timed(out, tracer, call)
    out.counts.update(max_bits=counter.max_bits, queries=counter.queries, p=LADDER[-1])
    want = _ladder_want(sess, req.frame, f)

    def check():
        for p, d in zip(LADDER, got):
            ref.check_close(_value(d), want, p, f"ladder coefficient 0 at p={p}")

    return check


RUNNERS = {"lib.coeff": _run_coeff, "lib.solve": _run_solve, "lib.ladder": _run_ladder}


def execute(sess: Session, req, tracer) -> Outcome:
    """Run one request and check it; never raises for a program failure."""
    out = Outcome(req.rid, req.label)
    tracer.rid = req.rid
    runner = _run_cli if req.label.startswith("cli.") else RUNNERS[req.label]
    try:
        check = runner(sess, req, tracer, out)
        if check is not None:
            check()
    except ref.CheckError as e:
        out.failed = out.wrong = True
        out.cause = f"wrong value: {e}"
    except Exception as e:  # the client keeps running and records why the request failed
        out.failed = True
        out.cause = f"raised {type(e).__name__}: {e}"[:300]
    return out


# -- probes: one public function timed on a request's own inputs ------------


@contextlib.contextmanager
def _probe(tracer, function: str, times: dict, metric: str):
    t0 = perf_counter()
    with tracer.span(f"probe:{function}"):
        yield
    times[metric] = perf_counter() - t0


def probe_oracle(sess: Session, key: str, tracer) -> dict:
    """ExactFrame, a cold exact_frame_solve, eigenvalue_enclosures, mat_inv,
    and load_spec minus the oracle work inside it."""
    o, t = sess.prog.oracle, {}
    with _probe(tracer, "oracle.ExactFrame", t, "oracle.rank_s"):
        F = o.ExactFrame(sess.frames[key].data)
    clear_solve_cache(sess.prog)
    with _probe(tracer, "oracle.exact_frame_solve", t, "oracle.solve_s"):
        sol = o.exact_frame_solve(F)
    with _probe(tracer, "oracle.eigenvalue_enclosures", t, "oracle.enclosure_s"):
        o.eigenvalue_enclosures(sol.S)
    with _probe(tracer, "oracle.mat_inv", t, "oracle.inverse_s"):
        o.mat_inv(sol.S)
    clear_solve_cache(sess.prog)
    t.update(probe_load(sess, key, tracer))
    t["specfile.load_self_s"] -= t["oracle.rank_s"] + t["oracle.solve_s"]
    return t


def probe_load(sess: Session, key: str, tracer) -> dict:
    t = {}
    with _probe(tracer, "specfile.load_spec", t, "specfile.load_self_s"):
        sess.load(key)
    return t


def probe_names(sess: Session, req, tracer) -> dict:
    """Each name-layer function forced to 2^-p on the request's frame and signal."""
    prog, p, k, c = sess.prog, req.params["p"], req.params["k"], req.params["c"]
    fr, vec, dual = prog.frames, prog.vectors, prog.duality
    eps = Fraction(1, 1 << p)

    def fresh():
        return sess.load(req.frame), geometric_signal(prog, InputCounter(), c)

    t = {}
    CF, f = fresh()
    with _probe(tracer, "frames.inverse_apply", t, "frames.inverse_apply_s"):
        vec.truncate(fr.inverse_apply(CF, f), eps)
    CF, f = fresh()
    with _probe(tracer, "operators.apply", t, "operators.apply_s"):
        vec.truncate(prog.operators.apply(CF.analysis_op, f), eps)
    CF, _ = fresh()
    with _probe(tracer, "duality.canonical_dual", t, "duality.canonical_dual_s"):
        vec.truncate(dual.canonical_dual(CF).elem(k), eps)
    CF, _ = fresh()
    test = vec.FiniteVector([(0, c), (1, c / 4)])
    with _probe(tracer, "duality.verify_duality", t, "duality.verify_duality_s"):
        dual.verify_duality(dual.DualPair(CF, dual.canonical_dual(CF).frame), [test], eps)
    CF, f = fresh()
    with _probe(tracer, "vectors.truncate", t, "vectors.truncate_s"):
        _, t["vectors.truncate_len"] = vec.truncate(fr.pseudo_inverse(CF, f).as_vector_name(), eps)
    return t


def probe_ladder_cold(sess: Session, req, tracer) -> dict:
    """The ladder's precisions as separate cold runs, each on a fresh name."""
    prog, f = sess.prog, req.params["f"]
    CF, support = sess.loaded[req.frame], _support(sess, req.frame, f)
    total = 0.0
    for p in LADDER:
        fv = finite_signal(prog, InputCounter(), f, support)
        t = {}
        with _probe(tracer, "frames.inverse_apply", t, "s"):
            prog.frames.inverse_apply(CF, fv).coeff(0).approx(p)
        total += t["s"]
    return {"frames.ladder_cold_s": total}


def probes(sess: Session, req, tracer, taken: Counter) -> dict:
    """The probes this request gets in a traced run.

    ``taken`` counts probes per (probe, key) so that each has a cap: the
    oracle probe runs once per finite frame, spec loading once per
    library frame or eight times per CLI frame kind, and the name-layer
    probes, which force whole chains and cost seconds, once per family.
    """
    kind = sess.frames[req.frame].kind
    lib = req.label.startswith("lib.")
    if kind == "finite":
        plan = [(("oracle", req.frame), 1, lambda: probe_oracle(sess, req.frame, tracer))]
    else:
        key = req.frame if lib else kind
        plan = [(("load", key), 1 if lib else 8, lambda: probe_load(sess, req.frame, tracer))]
    if req.label == "lib.coeff":
        plan.append((("names", kind), 1, lambda: probe_names(sess, req, tracer)))
    if req.label == "lib.ladder":
        plan.append((("ladder", kind), 2, lambda: probe_ladder_cold(sess, req, tracer)))
    out = {}
    for key, cap, run in plan:
        if taken[key] < cap:
            taken[key] += 1
            try:
                out.update(run())
            except Exception as e:  # a probe is a measurement: report it and go on
                print(f"probe {key[0]} on request {req.rid} raised {type(e).__name__}: {e}", file=sys.stderr)
    return out
