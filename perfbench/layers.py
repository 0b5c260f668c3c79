"""Per-layer metrics of a traced run, and which end-to-end metric each moves.

Inputs are the server's bench spans (see ``spans.py``), the client's
round trips, and counter snapshots taken between phases.  Self time is
a span's duration minus the union of its children's intervals
(``arith.self_time``), so parallel scatter legs are not counted twice.

A percentile the sample cannot support (fewer than ten samples beyond
it) reads 0, as does a ratio with nothing to divide: on that workload
the layer did (almost) no such work, like the planner on warm
hot-twigs.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import fmean

from arith import Node, accounted_time, percentile_or, self_time
from repro.storage.stats import maintenance_cost, weighted_cost

#: (metric, unit, how it is measured from outside, what it should move).
LAYER_METRICS = (
    ("frontdoor.http_self_ms_p50", "ms", "client round trip - FrontDoor.handle, joined by query_id",
     "query_p50_ms, query_qps_max on hot-twigs"),
    ("frontdoor.handle_self_ms_p50", "ms", "FrontDoor.handle - its admission and service execute children",
     "query_p50_ms on hot-twigs"),
    ("frontdoor.admit_wait_ms_p99", "ms", "AdmissionController.acquire", "query_p90_ms on all"),
    ("frontdoor.coalesced_share", "ratio", "FrontDoor.describe() coalesced_hits / served",
     "query_qps_max on hot-twigs"),
    ("frontdoor.rejected_share", "ratio", "FrontDoor.describe() rejected / handled", "failed requests"),
    ("shard.execute_self_ms_p50", "ms", "ShardedQueryService.execute - union of Shard.execute legs",
     "query_p50_ms on hot-twigs"),
    ("shard.leg_wait_ms_p50", "ms", "execute start -> each Shard.execute start", "query_p50_ms on hot-twigs"),
    ("shard.leg_skew_ms_p99", "ms", "slowest - fastest leg of one query",
     "query_p90_ms on cold-twigs"),
    ("shard.legs_per_query", "count", "Shard.execute spans per sharded execute",
     "query_p90_ms on cold-twigs"),
    ("service.execute_self_ms_p50", "ms", "QueryService.execute - parse_xpath - execute_prepared",
     "query_p50_ms on hot-twigs and cold-twigs"),
    ("service.result_hit_ratio", "ratio", "per-shard result cache hits / lookups", "query_p50_ms on each"),
    ("service.plan_hit_ratio", "ratio", "per-shard plan cache hits / lookups", "query_p50_ms on each"),
    ("service.choice_hit_ratio", "ratio", "per-shard choice cache hits / lookups", "query_p50_ms on each"),
    ("service.write_self_ms_p50", "ms", "QueryService add/replace/remove_document - maintain_indexes",
     "write_p50_ms on all"),
    ("service.invalidations_per_write", "count", "shard service invalidations / writes",
     "write_p50_ms on all"),
    ("query.parse_ms_p50", "ms", "parse_xpath", "query_p50_ms on cold-twigs"),
    ("query.parses_per_request", "count", "parse_xpath calls / requests", "query_p50_ms on cold-twigs"),
    ("planner.execute_prepared_ms_p50", "ms", "TwigQueryEngine.execute_prepared",
     "query_p50_ms on cold-twigs"),
    ("planner.execute_prepared_ms_p99", "ms", "TwigQueryEngine.execute_prepared",
     "query_p90_ms on cold-twigs"),
    ("planner.auto_rootpaths_share", "ratio", "auto_choice_counts", "query_qps_max on cold-twigs"),
    ("planner.auto_datapaths_share", "ratio", "auto_choice_counts", "query_qps_max on cold-twigs"),
    ("kernels.join_calls_per_query", "count", "CompiledJoin.run calls / requests",
     "query_p50_ms on cold-twigs"),
    ("kernels.join_ms_p50", "ms", "CompiledJoin.run", "query_p50_ms on cold-twigs"),
    ("kernels.column_rebuilds_per_write", "count", "NodeColumns builds / writes",
     "write_p50_ms on all"),
    ("storage.weighted_cost_per_query", "count", "QueryResult.cost of executions / requests",
     "query_qps_max on cold-twigs"),
    ("storage.btree_node_reads_per_query", "count", "QueryResult.cost / requests", "query_qps_max on cold-twigs"),
    ("storage.btree_entries_scanned_per_query", "count", "QueryResult.cost / requests",
     "query_qps_max on cold-twigs"),
    ("storage.join_probes_per_query", "count", "QueryResult.cost / requests", "query_qps_max on cold-twigs"),
    ("storage.maintenance_cost_per_write", "count", "engine stats diff around maintain_indexes / writes",
     "write_p50_ms on all"),
    ("storage.btree_writes_per_write", "count", "engine stats diff around maintain_indexes / writes",
     "write_p50_ms on all"),
    ("storage.btree_deletes_per_write", "count", "engine stats diff around maintain_indexes / writes",
     "write_p50_ms on all"),
    ("indexes.maintain_ms_p50", "ms", "TwigQueryEngine.maintain_indexes", "write_p50_ms on all"),
    ("indexes.build_s", "s", "build_index x2 inside setup (median of setups)", "setup_s"),
    ("obs.spans_per_request", "count", "Telemetry.span calls / requests", "query_p50_ms on hot-twigs"),
    ("server.cpu_ms_per_query", "ms", "server process CPU time / requests, untraced", "query_qps_max on all"),
    ("server.cpu_ms_per_write", "ms", "writer thread CPU time / writes", "write_p50_ms on all"),
    ("loadgen.late_p99_ms", "ms", "generator dispatch lateness, untraced open loop", "validity of the run"),
    ("client.query_p99_ms", "ms", "untraced open-loop latency from due time, whole phase",
     "the tail: GIL hand-offs on hot-twigs, GC pauses on cold-twigs"),
    ("bench.trace_overhead_ratio", "ratio", "traced / untraced query_p50_ms, same server",
     "nothing: the cost of tracing"),
)

#: Per-request span accounting must match the client round trip this closely.
ACCOUNTING_TOLERANCE = 0.01

_MS = 1000.0


def _duration(span) -> float:
    return span[5] - span[4]


def _interval(span) -> tuple[float, float]:
    return (span[4], span[5])


def _tree(span, children) -> Node:
    return Node(span[3], span[4], span[5], [_tree(child, children) for child in children[span[0]]])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _delta(after: dict, before: dict, *path) -> float:
    for key in path:
        after, before = after.get(key, {}), before.get(key, {})
    return (after or 0) - (before or 0)


def _hit_ratio(after: dict, before: dict, cache: str) -> float:
    hits = _delta(after, before, "caches", cache, "hits")
    misses = _delta(after, before, "caches", cache, "misses")
    return _ratio(hits, hits + misses)


def check_accounting(spans, round_trips) -> tuple[int, float]:
    """Per request, accounted self time vs the client round trip.

    Returns ``(requests checked, worst relative deviation)``.
    """
    children = defaultdict(list)
    roots = defaultdict(list)
    for span in spans:
        if span[1] is None:
            roots[span[2]].append(span)
        else:
            children[span[1]].append(span)
    worst = 0.0
    for request_id, sent, received in round_trips:
        root = Node("client", sent, received, [_tree(span, children) for span in roots[request_id]])
        deviation = abs(accounted_time(root) - (received - sent)) / (received - sent)
        worst = max(worst, deviation)
    return len(round_trips), worst


def layer_metrics(
    spans, calls, round_trips, writes: int, untraced: dict, traced: dict
) -> dict[str, float]:
    """Every ``LAYER_METRICS`` entry except the generator-side ones.

    ``untraced`` / ``traced`` hold ``before`` and ``after`` counter
    snapshots of the phases; counter ratios come from the untraced
    phase, write counters from the traced one (where the writes ran).
    """
    requests = {request_id for request_id, _, _ in round_trips}
    queries = max(1, len(requests))
    rtt = {request_id: received - sent for request_id, sent, received in round_trips}
    children = defaultdict(list)
    by_name = defaultdict(list)
    for span in spans:
        children[span[1]].append(span)
        by_name[span[3]].append(span)

    def durations(name, request_filter=True):
        return [
            _duration(span) * _MS
            for span in by_name[name]
            if not request_filter or span[2] in requests
        ]

    def self_times(name, child_names):
        return [
            self_time(
                _interval(span),
                (_interval(child) for child in children[span[0]] if child[3] in child_names),
            ) * _MS
            for span in by_name[name]
        ]

    http_self = [
        rtt[span[2]] * _MS - _duration(span) * _MS
        for span in by_name["frontdoor.handle"]
        if span[2] in rtt
    ]
    leg_wait, leg_skew, legs = [], [], []
    for span in by_name["shard.execute"]:
        leg_spans = [child for child in children[span[0]] if child[3] == "shard.leg"]
        legs.append(len(leg_spans))
        leg_wait.extend((leg[4] - span[4]) * _MS for leg in leg_spans)
        if len(leg_spans) > 1:
            leg_durations = [_duration(leg) for leg in leg_spans]
            leg_skew.append((max(leg_durations) - min(leg_durations)) * _MS)

    query_cost: dict[str, int] = defaultdict(int)
    for span in by_name["planner.execute_prepared"]:
        if span[2] in requests:
            for key, value in span[6]["cost"].items():
                query_cost[key] += value
    write_cost: dict[str, int] = defaultdict(int)
    for span in by_name["indexes.maintain"]:
        for key, value in span[6]["cost"].items():
            write_cost[key] += value

    joins = [span for span in by_name["kernels.join"] if span[2] in requests]
    before, after = untraced["before"], untraced["after"]
    served = _delta(after, before, "frontdoor", "requests_served")
    rejected = _delta(after, before, "frontdoor", "requests_rejected")
    auto_total = sum(_delta(after, before, "auto_choice_counts", name) for name in
                     set(after["auto_choice_counts"]) | set(before["auto_choice_counts"]))
    return {
        "frontdoor.http_self_ms_p50": percentile_or(http_self, 0.5),
        "frontdoor.handle_self_ms_p50": percentile_or(
            self_times("frontdoor.handle", {"frontdoor.acquire", "shard.execute"}), 0.5
        ),
        "frontdoor.admit_wait_ms_p99": percentile_or(durations("frontdoor.acquire"), 0.99),
        "frontdoor.coalesced_share": _ratio(
            _delta(after, before, "frontdoor", "coalesced_hits"), served
        ),
        "frontdoor.rejected_share": _ratio(rejected, served + rejected),
        "shard.execute_self_ms_p50": percentile_or(self_times("shard.execute", {"shard.leg"}), 0.5),
        "shard.leg_wait_ms_p50": percentile_or(leg_wait, 0.5),
        "shard.leg_skew_ms_p99": percentile_or(leg_skew, 0.99),
        "shard.legs_per_query": fmean(legs) if legs else 0.0,
        "service.execute_self_ms_p50": percentile_or(
            self_times("service.execute", {"query.parse", "planner.execute_prepared"}), 0.5
        ),
        "service.result_hit_ratio": _hit_ratio(after, before, "result_cache"),
        "service.plan_hit_ratio": _hit_ratio(after, before, "plan_cache"),
        "service.choice_hit_ratio": _hit_ratio(after, before, "choice_cache"),
        "service.write_self_ms_p50": percentile_or(
            self_times("service.write", {"indexes.maintain"}), 0.5
        ),
        "service.invalidations_per_write": _ratio(
            _delta(traced["after"], traced["before"], "invalidations"), writes
        ),
        "query.parse_ms_p50": percentile_or(durations("query.parse"), 0.5),
        "query.parses_per_request": len(durations("query.parse")) / queries,
        "planner.execute_prepared_ms_p50": percentile_or(durations("planner.execute_prepared"), 0.5),
        "planner.execute_prepared_ms_p99": percentile_or(durations("planner.execute_prepared"), 0.99),
        "planner.auto_rootpaths_share": _ratio(
            _delta(after, before, "auto_choice_counts", "rootpaths"), auto_total
        ),
        "planner.auto_datapaths_share": _ratio(
            _delta(after, before, "auto_choice_counts", "datapaths"), auto_total
        ),
        "kernels.join_calls_per_query": len(joins) / queries,
        "kernels.join_ms_p50": percentile_or([_duration(span) * _MS for span in joins], 0.5),
        "kernels.column_rebuilds_per_write": _ratio(
            len(durations("kernels.columns", request_filter=False)), writes
        ),
        "storage.weighted_cost_per_query": weighted_cost(query_cost) / queries,
        "storage.btree_node_reads_per_query": query_cost["btree_node_reads"] / queries,
        "storage.btree_entries_scanned_per_query": query_cost["btree_entries_scanned"] / queries,
        "storage.join_probes_per_query": query_cost["join_probes"] / queries,
        "storage.maintenance_cost_per_write": _ratio(maintenance_cost(write_cost), writes),
        "storage.btree_writes_per_write": _ratio(write_cost["btree_writes"], writes),
        "storage.btree_deletes_per_write": _ratio(write_cost["btree_deletes"], writes),
        "indexes.maintain_ms_p50": percentile_or(durations("indexes.maintain", request_filter=False), 0.5),
        "obs.spans_per_request": sum(
            1 for name, request_id in calls if name == "obs.span" and request_id in requests
        ) / queries,
        "server.cpu_ms_per_query": _ratio(
            _delta(after, before, "cpu_s") * _MS, served
        ),
        "server.cpu_ms_per_write": _ratio(
            _delta(traced["after"], traced["before"], "write_cpu_s") * _MS, writes
        ),
    }
