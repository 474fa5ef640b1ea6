"""Per-slot minimum latencies of two checkouts, measured in one process.

    python3 bench/slot_minima.py PARENT CHANGE deep-precision --passes 30 --seed 7

PARENT and CHANGE are checkout roots (``.`` for this one).  Each one's
``src`` is imported through ``perfbench/client.py``'s ``load_program``,
and each gets its own session over the same seeded requests of
``perfbench/generate.py``.  Every pass runs the first period of the
workload's request sequence, each request on both checkouts in turn,
the order swapped every pass, and keeps each request's best latency per
checkout.  A request's best over many passes is its warm cost with the
machine's noise mostly filtered out, so two checkouts are compared by
these minima rather than by closed-loop throughput.  It prints, per
request label (call and frame kind), the sum of its slots' best
latencies for each checkout and their ratio, then the whole period's.
A failed or wrong request is reported and makes the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import client  # noqa: E402
import generate  # noqa: E402
import spans  # noqa: E402


def _is_program(name: str) -> bool:
    return name == "framecert" or name.startswith("framecert.")


def _activate(modules: dict) -> None:
    """Make ``modules`` the imported framecert, so the imports a call makes
    inside the package resolve to the same checkout."""
    for name in [n for n in sys.modules if _is_program(n)]:
        del sys.modules[name]
    sys.modules.update(modules)


def open_session(root: Path, workload: str, seed: int, work: Path):
    """A session of the checkout at ``root``, as perfbench/run.py's set-up
    builds it, and the framecert modules it imported."""
    src = root.resolve() / "src"
    sys.path.insert(0, str(src))
    try:
        prog = client.load_program(src)
    finally:
        sys.path.remove(str(src))
    modules = {n: m for n, m in sys.modules.items() if _is_program(n)}
    frames, requests = generate.build(workload, seed)
    work.mkdir(parents=True)
    for key, desc in frames.items():
        (work / f"{key}.json").write_text(json.dumps(desc.doc), encoding="utf-8")
    sess = client.Session(prog, frames, requests, work)
    if workload == "deep-precision":
        sess.loaded = {key: sess.load(key) for key in frames}
    return sess, modules


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="root of the checkout compared against")
    ap.add_argument("change", type=Path, help="root of the checkout under test")
    ap.add_argument("workload", choices=generate.WORKLOADS)
    ap.add_argument("--passes", type=int, default=30)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)

    names = ("parent", "change")
    tracer = spans.NullTracer()
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        runs = [open_session(root, args.workload, args.seed, Path(tmp) / name)
                for name, root in zip(names, (args.parent, args.change))]
        period = runs[0][0].requests[: generate.PERIOD[args.workload]]
        best = [[float("inf")] * len(period) for _ in names]
        for p in range(args.passes):
            for slot, req in enumerate(period):
                for j in (0, 1) if p % 2 == 0 else (1, 0):
                    sess, modules = runs[j]
                    _activate(modules)
                    out = client.execute(sess, req, tracer)
                    if out.failed:
                        failures += 1
                        print(f"{names[j]}: request {req.rid} ({req.label}) failed: {out.cause}", file=sys.stderr)
                    best[j][slot] = min(best[j][slot], out.latency)

    sums = defaultdict(lambda: [0.0, 0.0])
    for slot, req in enumerate(period):
        label = f"{req.label} {runs[0][0].frames[req.frame].kind}"
        for j in (0, 1):
            sums[label][j] += best[j][slot]
    print(f"{args.workload}, seed {args.seed}, {args.passes} passes: sums of per-slot best latencies (ms)")
    print(f"{'label':28} {'parent':>9} {'change':>9} {'ratio':>7}")
    for label, (a, b) in sorted(sums.items()):
        print(f"{label:28} {a * 1e3:9.3f} {b * 1e3:9.3f} {b / a:7.3f}")
    a, b = (sum(row) for row in best)
    print(f"{'period':28} {a * 1e3:9.3f} {b * 1e3:9.3f} {b / a:7.3f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
