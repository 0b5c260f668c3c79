"""Serving benchmark of the twig-query stack, end to end and layer by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload hot-twigs --seed 1 --seconds 18 --trace 0

The run generates its inputs from ``--seed``, checks every distinct
query on a single ``TwigIndexDatabase`` (a seeded sample also against
``db.oracle``), starts ``serve.py`` as the server process, and drives
it over HTTP from this process:

* an open-loop phase at the workload's fixed rate (2/3 of ``--seconds``,
  but at least 1000 requests), latency timed from each request's due time;
* a closed-loop phase with every connection busy (the last third),
  giving ``query_qps_max``;
* a write phase after the reads (DBLP documents added, replaced and
  removed), so every workload reports the write metrics without writes
  disturbing its reads.

These phases are one measurement.  It is invalid when the generator
fell behind its schedule (``LATE_LIMIT_MS``) or the host took more
than ``STEAL_LIMIT`` of the CPU time the run wanted (``/proc/stat``
steal).  An invalid measurement is made again on the same server with
fresh reads, up to ``inputs.ATTEMPTS`` times in all, and when no
measurement of the run is valid the run exits 3 without a result.

Every response's ids are checked.  ``--trace 1`` replaces the
closed-loop phase with an identical open-loop phase run under the
bench span recorder and prints the per-layer metrics instead.  The last
stdout line is the JSON result; the lines before it are the readable
report (provenance, phase accounting, every metric, and the
layer-to-end-to-end table).  The full record, spans included, goes to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import inspect
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, SRC)

import inputs  # noqa: E402
import loadgen  # noqa: E402
from arith import (  # noqa: E402
    latencies_with_misses,
    percentile,
    percentile_or,
    stolen_share,
    windowed_percentile,
    windowed_rate,
)
from layers import ACCOUNTING_TOLERANCE, LAYER_METRICS, check_accounting, layer_metrics  # noqa: E402
from repro import ShardedQueryService, TwigIndexDatabase  # noqa: E402

#: (metric, unit, meaning) of the end-to-end metrics, in report order.
E2E_METRICS = (
    ("setup_s", "s", "load + build_index x2 + listen, median of the setups in the run"),
    ("query_p50_ms", "ms", "open-loop latency from due time, median of 200-request windows; "
     "failures count as the timeout"),
    ("query_p90_ms", "ms", "open-loop latency from due time, median of 200-request windows; "
     "failures count as the timeout"),
    ("query_qps_max", "1/s", "closed-loop completed queries per second, median of 1 s bins"),
    ("write_p50_ms", "ms", "add/replace/remove latency from due time, median of 100-write windows"),
    ("write_p90_ms", "ms", "add/replace/remove latency from due time, median of 100-write windows"),
    ("server_rss_mb", "MiB", "server peak RSS at the end of the run"),
    ("index_mb", "MiB", "summed index_sizes_mb() after setup"),
)

#: Share of ``--seconds`` for the open-loop phase; the closed loop gets the rest.
OPEN_SHARE = 2.0 / 3.0
#: Requests of an open-loop phase at least, so its p99 (and the traced
#: phase's per-layer p99s) have ten samples beyond them; at a low rate
#: the phase runs longer than its share.
OPEN_MIN_REQUESTS = 1000
#: Percentiles are medians over windows of this many requests or
#: writes, and the closed-loop rate a median over bins: a burst of
#: outside noise (CPU steal on a shared host) spoils one window, not
#: the figure.
LATENCY_WINDOW = 200
WRITE_WINDOW = 100
RATE_BIN_S = 1.0
#: Reads sent before the clock to warm caches and check the served answers.
COLD_WARMUP = 50
#: A measurement whose generator dispatched later than this (p99) is
#: invalid.  Calm runs on the 2-vCPU build machine stay at 2-5 ms.
LATE_LIMIT_MS = 10.0
#: A measurement during which the host took more than this share of
#: the CPU time the guest wanted (``/proc/stat`` steal over steal +
#: busy) is invalid: the figures would be the host's, not the
#: program's.  Calm runs on the build machine steal 1-3 %.
STEAL_LIMIT = 0.04
#: Reads per measurement beyond its open phase, for the closed loop
#: (or the traced phase); the closed loop stops early if it runs out.
#: Cold-twigs reads are distinct queries, each answered by the
#: reference before it is sent.
COLD_CLOSED_READS = 3000
HOT_CLOSED_READS = 50_000
#: Queries checked against ``db.oracle`` before the clock.
ORACLE_SAMPLE = 16
#: A run still going this long after it started is aborted (the limit is 180 s).
RUN_DEADLINE_S = 165.0


def cpu_ticks() -> tuple[int, int]:
    """``(steal, busy)`` CPU ticks of the machine so far, from ``/proc/stat``.

    Busy is user + nice + system + irq + softirq: time the guest ran.
    Steal is time it was runnable but the host ran someone else.
    """
    try:
        with open("/proc/stat") as handle:
            user, nice, system, _, _, irq, softirq, steal = (
                int(value) for value in handle.readline().split()[1:9]
            )
    except (OSError, ValueError):
        return (0, 0)
    return (steal, user + nice + system + irq + softirq)


class InvalidRun(Exception):
    """No measurement of the run was valid; the figures are not reported."""


class Incorrect(Exception):
    """The program answered wrongly; the run is aborted."""


def provenance(args, workload, distinct: int) -> dict:
    """Where the numbers came from: revision, interpreter, machine, inputs."""
    digest = hashlib.sha256()
    for directory, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "not a git checkout"
    except (OSError, subprocess.SubprocessError):
        revision = "git unavailable"
    defaults = inspect.signature(ShardedQueryService).parameters
    return {
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "docs": workload.docs,
        "scale_per_doc": workload.scale,
        "scale_per_shard": workload.docs * workload.scale / inputs.SHARDS,
        "shards": inputs.SHARDS,
        "distinct_queries": distinct,
        # The program's own cache sizes, to read the working set against.
        "result_cache_size": defaults["result_cache_size"].default,
        "plan_cache_size": defaults["plan_cache_size"].default,
        "query_rate": workload.query_rate,
        "write_rate": inputs.WRITE_PHASE_RATE,
        "connections": inputs.CONNECTIONS,
    }


class Bench:
    """One run: inputs, reference answers, server process, phases, figures."""

    def __init__(self, args) -> None:
        self.args = args
        self.workload = inputs.WORKLOADS[args.workload]
        self.open_s = args.seconds * OPEN_SHARE
        self.open_count = max(OPEN_MIN_REQUESTS, int(self.workload.query_rate * self.open_s))
        self.phases = []
        self.write_cursor = 0

    # ------------------------------------------------------------------
    # Inputs and reference answers (before any clock)
    # ------------------------------------------------------------------
    def prepare(self) -> None:
        workload, seed = self.workload, self.args.seed
        self.reference = TwigIndexDatabase.from_documents(inputs.xmark_corpus(workload, seed))
        if workload.cold:
            self.warm = inputs.cold_stream(workload, seed, COLD_WARMUP)
        else:
            self.warm = inputs.hot_queries()
        self.expected = {}
        self.answer(self.warm)
        self.first_reads = self.reads_for(0)
        distinct = list(self.expected)
        rng = random.Random(f"oracle:{seed}")
        sample = rng.sample(distinct, min(ORACLE_SAMPLE, len(distinct)))
        for xpath in sample:
            if self.reference.oracle(xpath) != self.expected[xpath]:
                raise Incorrect(f"reference disagrees with the oracle on {xpath}")
        # Writes never change a read's answer: no read matches a DBLP document.
        schedule = inputs.write_schedule(seed, inputs.WRITE_COUNT)
        writes_only = TwigIndexDatabase.from_documents(
            [op.document() for op in schedule[:4] if op.op == "add"]
        )
        for xpath in set(sample) | set(inputs.hot_queries()):
            if writes_only.oracle(xpath):
                raise Incorrect(f"{xpath} matches a write document")
        self.schedule = schedule
        self.provenance = provenance(self.args, workload, len(distinct))

    def reads_for(self, attempt: int) -> list[str]:
        """What measurement ``attempt`` sends, its open phase first, answered.

        A later measurement sends reads no earlier one did: the next
        stretch of the same seeded stream (a stream's first entries do
        not depend on its length).
        """
        workload, seed = self.workload, self.args.seed
        if workload.cold:
            per_attempt = self.open_count + COLD_CLOSED_READS
            start = COLD_WARMUP + attempt * per_attempt
            reads = inputs.cold_stream(workload, seed, start + per_attempt)[start:]
        else:
            per_attempt = self.open_count + HOT_CLOSED_READS
            start = attempt * per_attempt
            reads = inputs.hot_stream(seed, start + per_attempt)[start:]
        self.answer(reads)
        return reads

    def answer(self, xpaths) -> None:
        """Reference answers of ``xpaths``, from the single engine."""
        for xpath in xpaths:
            if xpath not in self.expected:
                self.expected[xpath] = self.reference.query(xpath, strategy="rootpaths").ids

    # ------------------------------------------------------------------
    # The server process
    # ------------------------------------------------------------------
    async def start_server(self) -> None:
        self.server = await asyncio.create_subprocess_exec(
            sys.executable, os.path.join(HERE, "serve.py"),
            "--workload", self.workload.name, "--seed", str(self.args.seed),
            cwd=ROOT, stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
        )
        line = await asyncio.wait_for(self.server.stdout.readline(), 150)
        if not line.startswith(b"READY "):
            raise RuntimeError("server process failed to start")
        self.ready = json.loads(line[len(b"READY "):])

    async def stop_server(self) -> None:
        server = getattr(self, "server", None)
        if server is None or server.returncode is not None:
            return
        try:
            await asyncio.wait_for(self.control.call(cmd="stop"), 10)
            await asyncio.wait_for(server.wait(), 30)
        except (asyncio.TimeoutError, RuntimeError, OSError, AttributeError):
            server.kill()
            await server.wait()

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    async def drive(self) -> None:
        port = self.ready["http_port"]
        self.control = await loadgen.Control("127.0.0.1", self.ready["control_port"]).open()
        self.writer = await loadgen.Control("127.0.0.1", self.ready["control_port"]).open()
        self.client = loadgen.Client(self.expected)
        connections = [
            await loadgen.Connection("127.0.0.1", port).open() for _ in range(inputs.CONNECTIONS)
        ]
        warm = loadgen.Phase("warm")
        for xpath in self.warm:
            await self.client.query(connections[0], xpath, warm, time.perf_counter())
        self.phases.append(warm)
        self.attempts = []
        for attempt in range(inputs.ATTEMPTS):
            # Stop while the run can still end in time after one more.
            if attempt and time.perf_counter() + 1.3 * self.attempts[-1]["seconds"] > self.deadline:
                break
            # Made and answered before the clock.
            reads = self.reads_for(attempt) if attempt else self.first_reads
            started = time.perf_counter()
            await self.measure(connections, attempt, reads)
            invalid = self.invalid()
            self.attempts.append({
                "seconds": time.perf_counter() - started,
                "stolen_share": self.stolen,
                "late_p99_ms": self.late_p99_ms(),
                "invalid": invalid,
            })
            if invalid is None:
                break
        await self._check_writes(connections[0])
        for connection in connections:
            connection.close()

    async def measure(self, connections, attempt: int, reads: list[str]) -> None:
        """One measurement: open loop, closed loop (or traced phase), writes."""
        suffix = "" if attempt == 0 else f"#{attempt + 1}"
        rate = self.workload.query_rate
        rest = iter(reads[self.open_count:])
        self.counters = [await self._counters()]
        ticks = cpu_ticks()
        self.open_phase = await self.client.open_loop(
            connections, reads[: self.open_count], rate, loadgen.Phase("open" + suffix)
        )
        self.phases.append(self.open_phase)
        self.counters.append(await self._counters())
        if self.args.trace:
            await self.control.call(cmd="trace", on=True)
            self.traced_phase = await self.client.open_loop(
                connections, list(itertools.islice(rest, self.open_count)), rate,
                loadgen.Phase("traced" + suffix),
            )
            self.phases.append(self.traced_phase)
        else:
            self.closed_phase = await self.client.closed_loop(
                connections, lambda: next(rest, None),
                self.args.seconds * (1.0 - OPEN_SHARE),
                loadgen.Phase("closed" + suffix),
            )
            self.phases.append(self.closed_phase)
        self.write_phase = loadgen.Phase("writes" + suffix)
        self.write_cursor = await loadgen.write_stream(
            self.writer, self.write_cursor, self.write_cursor + inputs.WRITE_PHASE_OPS,
            inputs.WRITE_PHASE_RATE, self.write_phase,
        )
        self.phases.append(self.write_phase)
        if self.args.trace:
            reply = await self.control.call(cmd="trace", on=False)
            self.spans, self.calls = reply["spans"], reply["calls"]
        self.stolen = stolen_share(ticks, cpu_ticks())
        self.counters.append(await self._counters())

    def invalid(self):
        """Why the last measurement is not the program's, or ``None``."""
        if self.late_p99_ms() > LATE_LIMIT_MS:
            return f"generator dispatch lateness p99 {self.late_p99_ms():.2f} ms > {LATE_LIMIT_MS} ms"
        if self.stolen > STEAL_LIMIT:
            return f"the host stole {self.stolen:.1%} of the CPU time > {STEAL_LIMIT:.0%}"
        return None

    async def _counters(self) -> dict:
        return (await self.control.call(cmd="counters"))["counters"]

    async def _check_writes(self, connection) -> None:
        """The served stack answers a DBLP query like a single engine with the same writes."""
        for op in self.schedule[: self.write_cursor]:
            if op.op == "add":
                self.reference.add_document(op.document())
            elif op.op == "replace":
                self.reference.replace_document(op.name, op.document())
            else:
                self.reference.remove_document(op.name)
        xpath = inputs.DBLP_CHECK_QUERY
        self.expected[xpath] = self.reference.query(xpath, strategy="rootpaths").ids
        check = loadgen.Phase("check")
        await self.client.query(connection, xpath, check, time.perf_counter())
        self.phases.append(check)
        if check.tally.succeeded != 1:
            raise Incorrect("the post-run DBLP check query failed")

    # ------------------------------------------------------------------
    # Figures
    # ------------------------------------------------------------------
    def late_p99_ms(self) -> float:
        return _late_p99_ms(self.open_phase.lateness)

    def latencies_ms(self, phase) -> list[float]:
        return [
            latency * 1000.0 for latency in latencies_with_misses(phase.samples, loadgen.TIMEOUT_S)
        ]

    def end_to_end(self) -> dict[str, float]:
        queries = self.latencies_ms(self.open_phase)
        writes = self.latencies_ms(self.write_phase)
        closed = self.closed_phase
        return {
            "setup_s": statistics.median(self.ready["setup_s"]),
            "query_p50_ms": windowed_percentile(queries, 0.5, LATENCY_WINDOW),
            "query_p90_ms": windowed_percentile(queries, 0.9, LATENCY_WINDOW),
            "query_qps_max": windowed_rate(closed.completions, closed.start, closed.end, RATE_BIN_S),
            "write_p50_ms": windowed_percentile(writes, 0.5, WRITE_WINDOW),
            "write_p90_ms": windowed_percentile(writes, 0.9, WRITE_WINDOW),
            "server_rss_mb": self.counters[-1]["peak_rss_mb"],
            "index_mb": self.ready["index_mb"],
        }

    def per_layer(self) -> tuple[dict[str, float], dict]:
        metrics = layer_metrics(
            self.spans,
            self.calls,
            self.traced_phase.round_trips,
            self.write_phase.tally.sent,
            untraced={"before": self.counters[0], "after": self.counters[1]},
            traced={"before": self.counters[1], "after": self.counters[2]},
        )
        metrics["indexes.build_s"] = statistics.median(self.ready["build_s"])
        metrics["loadgen.late_p99_ms"] = self.late_p99_ms()
        metrics["client.query_p99_ms"] = percentile_or(self.latencies_ms(self.open_phase), 0.99)
        untraced = percentile(self.latencies_ms(self.open_phase), 0.5)
        traced = percentile(self.latencies_ms(self.traced_phase), 0.5)
        metrics["bench.trace_overhead_ratio"] = traced / untraced
        checked, worst = check_accounting(self.spans, self.traced_phase.round_trips)
        accounting = {
            "requests": checked,
            "worst_deviation": worst,
            "tolerance": ACCOUNTING_TOLERANCE,
            "untraced_query_p50_ms": untraced,
            "traced_query_p50_ms": traced,
        }
        if worst > ACCOUNTING_TOLERANCE:
            raise Incorrect(
                f"span self times miss the client round trip by {worst:.1%} "
                f"(tolerance {ACCOUNTING_TOLERANCE:.0%})"
            )
        return metrics, accounting


def _late_p99_ms(lateness) -> float:
    # Below 1000 dispatches the strictest supported figure is the maximum.
    return percentile_or(lateness, 0.99, default=max(lateness)) * 1000.0


def _print_table(title: str, rows) -> None:
    print(f"# {title}")
    for row in rows:
        print("#   " + " | ".join(str(cell) for cell in row))


async def _run(bench: Bench) -> None:
    try:
        await bench.start_server()
        await bench.drive()
    finally:
        await bench.stop_server()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = Bench(args)
    started = time.perf_counter()
    # The last measurement must leave time to check, stop and report.
    bench.deadline = started + RUN_DEADLINE_S - 15.0
    correct, error = True, None
    try:
        bench.prepare()
        # The reference answers stay alive all run: keep the generator's
        # collections from scanning them between requests.
        gc.collect()
        gc.freeze()
        prepared = time.perf_counter()
        asyncio.run(asyncio.wait_for(_run(bench), RUN_DEADLINE_S - (prepared - started)))
        print(
            f"# wall: prepare {prepared - started:.1f} s, serve {time.perf_counter() - prepared:.1f} s",
            file=sys.stderr,
        )
        print("# attempts " + json.dumps(bench.attempts), file=sys.stderr)
        if bench.attempts[-1]["invalid"]:
            raise InvalidRun("; ".join(attempt["invalid"] for attempt in bench.attempts))
        if args.trace:
            metrics, accounting = bench.per_layer()
            units = {name: unit for name, unit, _, _ in LAYER_METRICS}
        else:
            metrics, accounting = bench.end_to_end(), None
            units = {name: unit for name, unit, _ in E2E_METRICS}
    except InvalidRun as invalid:
        print(f"perfbench: invalid run, not reported: {invalid}", file=sys.stderr)
        return 3
    except (Incorrect, loadgen.Mismatch) as wrong:
        correct, error, metrics, units, accounting = False, str(wrong), {}, {}, None

    attempted = sum(phase.tally.sent for phase in bench.phases)
    failed = sum(phase.tally.unsuccessful for phase in bench.phases)
    record = {
        "provenance": getattr(bench, "provenance", None),
        "phases": {phase.name: vars(phase.tally) for phase in bench.phases},
        "failed_share": failed / attempted if attempted else 0.0,
        "error": error,
        "metrics": metrics,
        "accounting": accounting,
        "attempts": getattr(bench, "attempts", []),
        "layer_table": LAYER_METRICS,
        "end_to_end_table": E2E_METRICS,
    }
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("# provenance " + json.dumps(record["provenance"], sort_keys=True))
    for phase in bench.phases:
        extra = ""
        if phase.lateness:
            extra = f", generator late p99 {_late_p99_ms(phase.lateness):.3f} ms"
        print(f"# phase {phase.name}: {json.dumps(vars(phase.tally))}{extra}")
    print(f"# failed_share {record['failed_share']:.6f} ratio ({failed} of {attempted})")
    print("# attempts " + json.dumps(record["attempts"]))
    if accounting:
        print("# span accounting " + json.dumps(accounting))
    for name, value in metrics.items():
        print(f"# {name} {value:.6g} {units[name]}")
    if args.trace:
        _print_table("layer metric | unit | measured as | moves", LAYER_METRICS)
    else:
        _print_table("end-to-end metric | unit | meaning", E2E_METRICS)
    if hasattr(bench, "spans"):
        record["spans"], record["calls"] = bench.spans, bench.calls
    record["samples"] = {
        phase.name: {"samples": phase.samples, "completions": phase.completions,
                     "start": phase.start, "end": phase.end, "round_trips": phase.round_trips}
        for phase in bench.phases
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as handle:
        json.dump(record, handle)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
