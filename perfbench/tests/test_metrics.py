"""Slot weights, the weighted quantile and the reference-speed scaling."""

import pytest

import client
import run


def outcomes(latencies, failed=()):
    return [client.Outcome(rid, "x", latency=t, failed=rid in failed) for rid, t in enumerate(latencies)]


def test_slot_weights_even_out_a_partial_period():
    # period 3, slots reached 3, 2 and 2 times
    ws = run.slot_weights(outcomes([1.0] * 7), 3)
    per_slot = [sum(w for rid, w in enumerate(ws) if rid % 3 == s) for s in range(3)]
    assert per_slot == pytest.approx([1.0, 1.0, 1.0])
    assert run.slot_weights(outcomes([1.0] * 2), 3) == [1.0, 1.0]


def test_weighted_quantile():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert run._quantile(xs, [1.0] * 5, 0.5, 5) == pytest.approx(3.0)
    assert 4.0 < run._quantile(xs, [1.0] * 5, 0.9, 5) < 5.0
    # doubling every weight changes nothing; moving weight to the top moves the median up
    assert run._quantile(xs, [2.0] * 5, 0.5, 5) == pytest.approx(3.0)
    assert run._quantile(xs, [1, 1, 1, 1, 8], 0.5, 5) > 4.0


def test_scaling_to_the_reference_speed():
    outs = outcomes([0.2, 0.4, 0.2, 0.4], failed={3})
    ref = run.REFERENCE_CAL_S
    same = run.end_to_end(outs, 2, [ref] * 5)
    assert same == run.end_to_end(outs, 2)
    slow = run.end_to_end(outs, 2, [2 * ref] * 5)  # a host half as fast: times halve
    assert slow["latency_p50_s"] == pytest.approx(same["latency_p50_s"] / 2)
    assert slow["results_per_s"] == pytest.approx(2 * same["results_per_s"])
    assert same["ok_share"] == pytest.approx(0.75)
