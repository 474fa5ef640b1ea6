"""One seed gives one request sequence and the same deterministic counts."""

import client
import generate
import run
import spans


def test_same_seed_same_inputs():
    for w in generate.WORKLOADS:
        frames, reqs = generate.build(w, 7)
        assert generate.build(w, 7) == (frames, reqs)
        assert generate.build(w, 8)[1] != reqs


def test_seed_moves_presentation_not_spectrum():
    from fractions import Fraction

    from reference import FiniteRef, eigen_brackets

    a, _ = generate.build("deep-precision", 1)
    b, _ = generate.build("deep-precision", 2)
    fa, fb = a["finite-d6"].data, b["finite-d6"].data
    assert fa != fb
    assert eigen_brackets(FiniteRef(fa).S, 30) == eigen_brackets(FiniteRef(fb).S, 30)
    assert all(abs(x) <= 2 for row in fa for x in row)
    assert Fraction(0) not in eigen_brackets(FiniteRef(fa).S, 12)


def _counts(workload, pick, workdir):
    sess, _ = run.setup(workload, 7, workdir)
    reqs = [r for r in sess.requests if pick(r)][:2]
    outs = [client.execute(sess, r, spans.NullTracer()) for r in reqs]
    assert not any(o.failed for o in outs), [o.cause for o in outs]
    return [{k: v for k, v in o.counts.items()} for o in outs]


def test_realnames_counts_repeat(workdir):
    def pick(r):
        return r.label == "lib.coeff" and r.params["p"] == 16 and r.frame.startswith("riesz")

    first = _counts("name-chain", pick, workdir)
    assert first == _counts("name-chain", pick, workdir)
    assert all(c["max_bits"] > 16 and c["queries"] > 0 for c in first)


def test_iteration_counts_repeat(workdir):
    def pick(r):
        return r.params["way"] != "s_action" and r.params["p"] in (64, None)

    first = _counts("deep-precision", pick, workdir)
    assert first == _counts("deep-precision", pick, workdir)
    assert any("iterations" in c for c in first) and any("max_bits" in c for c in first)


def test_known_failure_is_seeded():
    desc, req = generate.known_failure(7)
    assert generate.known_failure(7) == (desc, req)
    assert desc.kind == "operator" and len(desc.data) == 2
    assert req.argv[-2:] == ("--suite", "duality")
