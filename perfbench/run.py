"""framecert benchmark: closed-loop workloads with exact checks.

    python3 perfbench/run.py --workload exact-finite --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

One client in one process, no threads: it sets up (several times, for
a median ``setup_s``), then replays the workload's seeded request
sequence in order, cycling, until ``--seconds`` have passed, and checks
every answer against the exact reference.  End-to-end times are scaled
to a reference host speed, measured by a calibration kernel timed around
every request and set-up (see ``end_to_end``).  With ``--trace 0`` it
reports the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it runs
each request untraced and then again with spans, probes the layers on
the request's own inputs, and reports the per-layer metrics and the
tracing overhead.  The last line of stdout is the result as JSON; the
result, span dump and overhead report are also written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from math import exp, lgamma, log, log1p
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import client  # noqa: E402
import generate  # noqa: E402
import spans  # noqa: E402

SETUP_REPEATS = 5
# Calibration: a fixed pure-Python kernel of Fraction arithmetic, timed
# around every request and set-up; see ``calibrate`` and ``end_to_end``.
CAL_TERMS = 700
REFERENCE_CAL_S = 0.005


def setup(workload: str, seed: int, work: Path) -> tuple[client.Session, float]:
    """Import the program, generate inputs, write spec files, load frames."""
    t0 = perf_counter()
    prog = client.load_program(ROOT / "src")
    frames, requests = generate.build(workload, seed)
    work.mkdir(parents=True, exist_ok=True)
    for key, desc in frames.items():
        (work / f"{key}.json").write_text(json.dumps(desc.doc), encoding="utf-8")
    sess = client.Session(prog, frames, requests, work)
    if workload == "deep-precision":
        # finite frames are embedded here, so oracle work lands in setup_s
        sess.loaded = {key: sess.load(key) for key in frames}
    return sess, perf_counter() - t0


def _kernel() -> Fraction:
    s = Fraction(0)
    for i in range(1, CAL_TERMS):
        s += Fraction(1, i * i + 1)
    return s


def calibrate() -> float:
    """Seconds the calibration kernel takes now: the median of three timings."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def measure(sess: client.Session, seconds: float, traced: bool):
    """Closed loop for ``seconds``; traced runs pair each request with a replay.

    The calibration kernel is timed before the first request and after
    each one, outside the requests' latencies: ``cal[k]`` and
    ``cal[k + 1]`` bracket request k.
    """
    null = spans.NullTracer()
    tracer = spans.Tracer() if traced else null
    plain, replayed, probe_rows = [], [], []
    taken = Counter()
    cal = [calibrate()]
    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds:
        req = sess.requests[i % len(sess.requests)]
        i += 1
        plain.append(client.execute(sess, req, null))
        cal.append(calibrate())
        if traced:
            client.clear_solve_cache(sess.prog)  # the replay is as cold as the first run
            replayed.append(client.execute(sess, req, tracer))
            probe_rows.append((req.rid, client.probes(sess, req, tracer, taken)))
    return plain, replayed, probe_rows, tracer, cal


def _quantile(xs: list[float], ws: list[float], q: float, n: int) -> float:
    """Harrell-Davis estimate of the q-quantile of a weighted sample of n distinct slots.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics, each
    taking the share of the Beta mass over its own share of the total
    weight.  A run has a few dozen latencies from a lumpy mix of request
    types; a single order statistic jumps across the gaps between types,
    this estimate moves smoothly.  n is the number of slots, not of
    requests, so the smoothing is the same however far a run got.
    """
    pairs = sorted(zip(xs, ws))
    if len(pairs) == 1:
        return pairs[0][0]
    total = sum(w for _, w in pairs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_beta = lgamma(a) + lgamma(b) - lgamma(a + b)

    def density(x: float) -> float:
        return exp((a - 1) * log(x) + (b - 1) * log1p(-x) - log_beta)

    steps, lo, num, den = 16, 0.0, 0.0, 0.0
    for x, w in pairs:  # midpoint rule over [lo, lo + w/total]
        h = w / total / steps
        mass = h * sum(density(lo + (j + 0.5) * h) for j in range(steps))
        num, den, lo = num + mass * x, den + mass, lo + w / total
    return num / den


def slot_weights(outcomes: list[client.Outcome], period: int) -> list[float]:
    """1 / (how often the run reached the request's slot of the period).

    Every slot of the pattern then weighs the same in a run however far
    it got into its last period; all weights are 1 in a run that did not
    reach every slot.
    """
    count = Counter(o.rid % period for o in outcomes)
    if len(count) < period:
        return [1.0] * len(outcomes)
    return [1 / count[o.rid % period] for o in outcomes]


def end_to_end(outcomes: list[client.Outcome], period: int, cal: list[float] | None = None) -> dict:
    """Slot-weighted metrics of a run; with ``cal``, at the reference speed.

    A shared host's speed can drift by a quarter within minutes, and every
    request slows with it.  ``cal[k]`` and ``cal[k + 1]`` time the calibration
    kernel just before and after request k; the request's latency is
    scaled by REFERENCE_CAL_S over their mean, i.e. to a host on which the
    kernel takes REFERENCE_CAL_S.  Without ``cal`` the latencies are taken
    as measured.
    """
    lat = [o.latency for o in outcomes]
    if cal is not None:
        lat = [t * 2 * REFERENCE_CAL_S / (cal[k] + cal[k + 1]) for k, t in enumerate(lat)]
    ws = slot_weights(outcomes, period)
    slots = len({o.rid % period for o in outcomes})
    ok = sum(w for w, o in zip(ws, outcomes) if not o.failed)
    return {
        "results_per_s": ok / sum(w * t for w, t in zip(ws, lat)),
        "latency_p50_s": _quantile(lat, ws, 0.5, slots),
        "latency_p90_s": _quantile(lat, ws, 0.9, slots),
        "ok_share": ok / sum(ws),
    }


CLI_COMMANDS = ("bounds", "dual", "reconstruct", "verify.duality", "verify.projection", "verify.gram")
PROBED = (
    "oracle.rank_s", "oracle.solve_s", "oracle.enclosure_s", "oracle.inverse_s",
    "specfile.load_self_s", "frames.inverse_apply_s", "operators.apply_s",
    "duality.verify_duality_s", "duality.canonical_dual_s",
    "vectors.truncate_s", "vectors.truncate_len", "frames.ladder_cold_s",
)


def per_layer(plain, replayed, probe_rows) -> dict:
    """Per-layer metrics of a traced run; 0 where the workload never uses the layer."""

    def med(xs):
        return statistics.median(xs) if xs else 0.0

    ok = [o for o in replayed if not o.failed]
    m = {}
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_p50_s"] = med([o.latency for o in replayed if o.label == f"cli.{cmd}"])
    probed = defaultdict(list)
    for _, row in probe_rows:
        for name, value in row.items():
            probed[name].append(value)
    for name in PROBED:
        m[name] = med(probed[name])
    cli = [o.counts["solve_calls"] for o in replayed if "solve_calls" in o.counts]
    m["oracle.solve_calls_per_request"] = statistics.fmean(cli) if cli else 0.0
    solves = [o for o in ok if o.label == "lib.solve"]
    m["frames.iterations"] = med([o.counts["iterations"] for o in solves])
    for way in generate.WAYS:
        m[f"frames.iteration_s.{way}"] = med(
            [o.latency / o.counts["iterations"] for o in solves if o.counts["way"] == way]
        )
    ladders = {o.rid: o.latency for o in ok if o.label == "lib.ladder"}
    m["frames.ladder_s"] = med(list(ladders.values()))
    cold = {rid: row["frames.ladder_cold_s"] for rid, row in probe_rows if "frames.ladder_cold_s" in row}
    m["frames.warm_start_ratio"] = med([ladders[rid] / cold[rid] for rid in cold if rid in ladders])
    named = [o.counts for o in ok if "max_bits" in o.counts]
    m["realnames.max_input_bits"] = med([c["max_bits"] for c in named])
    m["realnames.amplification"] = med([c["max_bits"] / c["p"] for c in named])
    m["realnames.input_queries"] = med([c["queries"] for c in named])
    m["trace.overhead_share"] = sum(o.latency for o in replayed) / sum(o.latency for o in plain) - 1
    return m


def _declared(section: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[section]


def _failure_lines(outcomes, sess) -> list[str]:
    groups = Counter(
        (o.label, sess.frames[sess.requests[o.rid].frame].kind, o.cause) for o in outcomes if o.failed
    )
    return [f"  {n} x {label} on {kind} frames: {cause}" for (label, kind, cause), n in sorted(groups.items())]


def check_known_failure(sess: client.Session, seed: int, work: Path) -> str:
    """Run ``generate.known_failure`` once, untimed and uncounted; say how it ended."""
    desc, req = generate.known_failure(seed)
    sess.frames[desc.key] = desc
    sess.paths[desc.key] = work / f"{desc.key}.json"
    sess.paths[desc.key].write_text(json.dumps(desc.doc), encoding="utf-8")
    out = client.execute(sess, req, spans.NullTracer())
    return f"still fails: {out.cause}" if out.failed else "passes now"


def run_one(args) -> int:
    work = OUT / f"work-{args.workload}-{args.seed}-{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            before = calibrate()
            sess, t = setup(args.workload, args.seed, work)  # the last set-up serves the run
            setup_times.append(t * 2 * REFERENCE_CAL_S / (before + calibrate()))
        plain, replayed, probe_rows, tracer, cal = measure(sess, args.seconds, bool(args.trace))
        known = check_known_failure(sess, args.seed, work) if args.workload == "name-chain" else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = plain + replayed
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    period = generate.PERIOD[args.workload]
    values = end_to_end(plain, period, cal)
    values["setup_s"] = statistics.median(setup_times)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    declared = _declared("end_to_end")
    report = {}
    if args.trace:
        values.update(per_layer(plain, replayed, probe_rows))
        declared = _declared("per_layer")
        tracer.dump(stem.with_name(stem.name + "-spans.json"))
        report = {
            "untraced": end_to_end(plain, period),  # both as measured
            "traced": end_to_end(replayed, period),
            "self_s_per_request": {k: v / len(replayed) for k, v in sorted(tracer.self_times().items())},
        }
        with open(stem.with_name(stem.name + "-overhead.json"), "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)

    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}
    failed = sum(o.failed for o in outcomes)
    result = {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }
    labels = Counter(o.label for o in plain)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(outcomes)} requests, {failed} failed (failed_share {failed / len(outcomes):.4f})")
    print("  mix: " + ", ".join(f"{k} {n}" for k, n in sorted(labels.items())))
    for name, mv in metrics.items():
        print(f"  {name:34s} {mv['value']:.6g} {mv['unit']}")
    measured = end_to_end(plain, period)
    print("  as measured, before scaling to the reference speed: "
          + ", ".join(f"{k} {measured[k]:.6g}" for k in ("results_per_s", "latency_p50_s", "latency_p90_s"))
          + f"; calibration kernel {statistics.median(cal) * 1e3:.3f} ms (reference {REFERENCE_CAL_S * 1e3:g} ms)")
    for layer, s in report.get("self_s_per_request", {}).items():
        print(f"  self time {layer:24s} {s:.6g} s/request")
    if known is not None:
        print(f"known failure at the seed (2-row operator verify --suite duality, not timed or counted): {known}")
    if failed:
        print("failures:")
        print("\n".join(_failure_lines(outcomes, sess)))
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "known_failure": known, "calibration_s": cal,
                   "requests": [[o.rid, o.label, o.latency, o.cause] for o in outcomes]}, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in generate.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=generate.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except ImportError as e:
        print(f"error: cannot import the program: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
