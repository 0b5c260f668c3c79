"""The serving benchmark's own arithmetic, pinned on hand-made numbers."""

from __future__ import annotations

import json
import os

import pytest

from arith import (
    Node,
    Tally,
    accounted_time,
    latencies_with_misses,
    percentile,
    percentile_or,
    quartile_spread,
    self_time,
    stolen_share,
    supports,
    union_length,
    windowed_percentile,
    windowed_rate,
    windows,
)


# ----------------------------------------------------------------------
# The percentile rule: at least ten samples beyond the reported one
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, q, ok",
    [(20, 0.5, True), (19, 0.5, False), (100, 0.9, True), (99, 0.9, False),
     (1000, 0.99, True), (999, 0.99, False)],
)
def test_supports_needs_ten_samples_beyond(count, q, ok):
    assert supports(count, q) is ok


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile(list(reversed(values)), 0.9) == 90


def test_percentile_refuses_an_unsupported_quantile():
    with pytest.raises(ValueError, match="need 1000"):
        percentile(list(range(999)), 0.99)
    assert percentile_or(list(range(999)), 0.99) == 0.0
    assert percentile_or(list(range(1000)), 0.99) == 989


# ----------------------------------------------------------------------
# Self time = duration - union of child intervals
# ----------------------------------------------------------------------
def test_union_merges_overlaps_and_clips():
    assert union_length([(1, 5), (2, 6), (8, 9)]) == 6
    assert union_length([(1, 5), (5, 7)]) == 6
    assert union_length([(-2, 3), (8, 12)], within=(0, 10)) == 5
    assert union_length([]) == 0


def test_self_time_counts_overlapping_parallel_legs_once():
    # Two scatter legs on different threads overlap by 3 units.
    assert self_time((0, 10), [(1, 5), (2, 6)]) == 5
    # Disjoint children subtract in full; a child poking out is clipped.
    assert self_time((0, 10), [(1, 2), (3, 4)]) == 8
    assert self_time((0, 10), [(8, 12)]) == 8


def _request_tree(leg_b_end=6.0):
    legs = [
        Node("shard.leg", 1.0, 5.0, [Node("service.execute", 1.5, 4.5, [])]),
        Node("shard.leg", 2.0, leg_b_end, []),
    ]
    execute = Node("shard.execute", 0.5, 7.0, legs)
    handle = Node("frontdoor.handle", 0.2, 8.0, [Node("frontdoor.acquire", 0.3, 0.4, []), execute])
    return Node("client", 0.0, 9.0, [handle])


def test_accounted_time_of_a_nested_tree_is_the_round_trip():
    assert accounted_time(_request_tree()) == pytest.approx(9.0)


def test_accounted_time_exceeds_the_round_trip_for_a_misjoined_span():
    # A leg ending after its parent execute was attached to the wrong tree.
    assert accounted_time(_request_tree(leg_b_end=8.5)) > 9.0 * 1.01


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
def test_tally_counts_refusals_as_failures_of_the_share():
    tally = Tally()
    for outcome in ["ok"] * 7 + ["failed", "refused", "refused"]:
        tally.add(outcome)
    assert (tally.sent, tally.succeeded, tally.failed, tally.refused) == (10, 7, 1, 2)
    assert tally.failed_share == pytest.approx(0.3)
    merged = tally.merge(Tally(sent=10, succeeded=10))
    assert merged.failed_share == pytest.approx(0.15)
    assert Tally().failed_share == 0.0
    with pytest.raises(ValueError):
        tally.add("lost")


def test_failed_requests_miss_every_latency_limit():
    samples = [(due, 0.001) for due in range(990)] + [(990 + due, None) for due in range(10)]
    latencies = latencies_with_misses(samples, limit=10.0)
    assert percentile(latencies, 0.5) == 0.001
    # p99 lands on the 990th value; one more miss pushes it to the limit.
    assert percentile(latencies, 0.99) == 0.001
    samples[0] = (0, None)
    assert percentile(latencies_with_misses(samples, limit=10.0), 0.99) == 10.0


def test_latencies_come_back_in_due_order():
    assert latencies_with_misses([(2.0, 0.3), (1.0, None), (0.5, 0.1)], 9.0) == [0.1, 9.0, 0.3]


# ----------------------------------------------------------------------
# Medians over windows
# ----------------------------------------------------------------------
def test_windows_fold_a_short_tail_into_the_last_window():
    assert windows(list(range(7)), 3) == [[0, 1, 2], [3, 4, 5, 6]]
    assert windows(list(range(6)), 3) == [[0, 1, 2], [3, 4, 5]]
    assert windows([1, 2], 3) == [[1, 2]]


def test_windowed_percentile_ignores_one_noisy_window():
    quiet = [1.0] * 1000
    noisy = [1.0] * 900 + [50.0] * 100
    assert percentile(quiet + noisy + quiet, 0.99) == 50.0
    assert windowed_percentile(quiet + noisy + quiet, 0.99, 1000) == 1.0
    with pytest.raises(ValueError):
        windowed_percentile([1.0] * 999, 0.99, 1000)


def test_windowed_rate_counts_whole_bins_only():
    times = [0.1, 0.2, 0.3, 1.5, 2.2, 2.4, 2.6, 2.9, 3.5]
    # Bins [0,1) [1,2) [2,3): 3, 1 and 4 events; the partial bin is dropped.
    assert windowed_rate(times, 0.0, 3.7, 1.0) == 3.0
    with pytest.raises(ValueError):
        windowed_rate(times, 0.0, 0.5, 1.0)


def test_stolen_share_is_steal_over_wanted_time():
    # 30 ticks stolen while the guest ran 270: a tenth of what it wanted.
    assert stolen_share((100, 1000), (130, 1270)) == pytest.approx(0.1)
    assert stolen_share((5, 5), (5, 5)) == 0.0


def test_quartile_spread_is_relative_to_the_median():
    assert quartile_spread([10.0] * 10) == 0.0
    assert quartile_spread([9, 9, 10, 10, 10, 10, 10, 10, 11, 11]) == pytest.approx(0.05)


# ----------------------------------------------------------------------
# BENCHMARK.json names what the run prints
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_metric_tables():
    import run
    from layers import LAYER_METRICS

    path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
    with open(path) as handle:
        config = json.load(handle)
    assert [(m["name"], m["unit"]) for m in config["end_to_end"]] == [
        (name, unit) for name, unit, _ in run.E2E_METRICS
    ]
    assert [(m["name"], m["unit"]) for m in config["per_layer"]] == [
        (name, unit) for name, unit, _, _ in LAYER_METRICS
    ]
