"""The server process of the serving benchmark.

Builds the shipped stack from the workload's generated documents —
``ShardedQueryService`` (2 shards, 1 replica, defaults) with
``rootpaths`` and ``datapaths`` built, behind ``FrontDoor`` and
``FrontDoorServer`` — several times, timing each build (``setup_s``),
and serves the last one over HTTP.  A bench-owned control port (JSON
lines) applies scheduled writes, reports counters and switches the
span recorder on and off.

Run by ``run.py``; prints one ``READY {...}`` line on stdout when both
ports listen.
"""

from __future__ import annotations

import argparse
import asyncio
import contextvars
import gc
import json
import os
import resource
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro import FrontDoor, FrontDoorServer, ShardedQueryService  # noqa: E402

import inputs  # noqa: E402
import spans  # noqa: E402

INDEXES = ("rootpaths", "datapaths")
#: Setups per run; ``setup_s`` is their median.
SETUPS = 3


async def build_stack(documents):
    """Load + ``build_index`` x2 + listen; returns the parts and timings."""
    started = time.perf_counter()
    service = ShardedQueryService.from_documents(documents, num_shards=inputs.SHARDS)
    build_seconds = 0.0
    for name in INDEXES:
        build_started = time.perf_counter()
        service.build_index(name)
        build_seconds += time.perf_counter() - build_started
    frontdoor = FrontDoor(service)
    server = FrontDoorServer(frontdoor)
    await server.start()
    return service, frontdoor, server, time.perf_counter() - started, build_seconds


def counters(service: ShardedQueryService, frontdoor: FrontDoor) -> dict:
    """Cumulative counters the run diffs across phases."""
    report = service.describe()
    shard_services = [shard["service"] for shard in report["shards"]]
    auto: dict[str, int] = {}
    for shard_service in shard_services:
        for strategy, count in shard_service["auto_choice_counts"].items():
            auto[strategy] = auto.get(strategy, 0) + count
    door = frontdoor.describe()
    return {
        "frontdoor": {
            key: door[key] for key in ("requests_served", "requests_rejected", "coalesced_hits")
        },
        "caches": {
            name: {key: cache[key] for key in ("hits", "misses")}
            for name, cache in report["caches"].items()
        },
        "invalidations": report["invalidations"]["total"],
        "auto_choice_counts": auto,
        "cpu_s": time.process_time(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


class Control:
    """The bench-owned control port: writes, counters, tracing, stop."""

    def __init__(self, service, frontdoor, schedule) -> None:
        self.service = service
        self.frontdoor = frontdoor
        self.schedule = schedule
        #: Documents are generated before serving so a write's latency
        #: is the program's call alone.
        self.documents = [op.document() if op.op != "remove" else None for op in schedule]
        self.writer = ThreadPoolExecutor(max_workers=1, thread_name_prefix="bench-writer")
        self.recorder = None
        self.write_cpu_s = 0.0
        self.stopped = asyncio.Event()
        self.connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

    def _apply(self, index: int) -> None:
        op = self.schedule[index]
        # A write runs on this thread alone, so its CPU time is the
        # writer thread's; the run keeps it out of the per-query figure.
        started = time.thread_time()
        try:
            if op.op == "add":
                self.service.add_document(self.documents[index])
            elif op.op == "replace":
                self.service.replace_document(op.name, self.documents[index])
            else:
                self.service.remove_document(op.name)
        finally:
            self.write_cpu_s += time.thread_time() - started

    async def handle(self, message: dict) -> dict:
        command = message["cmd"]
        if command == "write":
            index = message["k"]
            loop = asyncio.get_running_loop()
            context = contextvars.copy_context()
            await loop.run_in_executor(
                self.writer, context.run, spans.run_as_request, f"w{index}", self._apply, index
            )
            return {"ok": True}
        if command == "counters":
            report = counters(self.service, self.frontdoor)
            report["write_cpu_s"] = self.write_cpu_s
            return {"ok": True, "counters": report}
        if command == "trace":
            if message["on"]:
                self.recorder = spans.Recorder()
                self.recorder.start()
                return {"ok": True}
            recorded, calls = self.recorder.stop()
            self.recorder = None
            return {"ok": True, "spans": recorded, "calls": calls}
        if command == "stop":
            self.stopped.set()
            return {"ok": True}
        return {"ok": False, "error": f"unknown command {command!r}"}

    async def serve(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.connections[asyncio.current_task()] = writer
        try:
            while line := await reader.readline():
                try:
                    reply = await self.handle(json.loads(line))
                except Exception as error:  # reported to the run, which fails it
                    reply = {"ok": False, "error": f"{type(error).__name__}: {error}"}
                writer.write(json.dumps(reply).encode() + b"\n")
                await writer.drain()
        finally:
            writer.close()
            self.connections.pop(asyncio.current_task(), None)

    async def close(self) -> None:
        """End every control connection's task (their readers see EOF)."""
        tasks = list(self.connections)
        for writer in self.connections.values():
            writer.close()
        await asyncio.gather(*tasks, return_exceptions=True)
        self.writer.shutdown(wait=True)


async def main(args) -> None:
    workload = inputs.WORKLOADS[args.workload]
    setup_seconds, build_seconds = [], []
    for attempt in range(SETUPS):
        documents = inputs.xmark_corpus(workload, args.seed)
        gc.collect()
        service, frontdoor, server, elapsed, built = await build_stack(documents)
        setup_seconds.append(elapsed)
        build_seconds.append(built)
        if attempt + 1 < SETUPS:
            await server.stop()
            service.close()
            del service, frontdoor, server, documents
    index_mb = sum(service.collection.index_sizes_mb().values())
    # Earlier setups' garbage is not the served stack's: start it clean.
    gc.collect()
    control = Control(service, frontdoor, inputs.write_schedule(args.seed, inputs.WRITE_COUNT))
    control_server = await asyncio.start_server(control.serve, "127.0.0.1", 0)
    ready = {
        "http_port": server.port,
        "control_port": control_server.sockets[0].getsockname()[1],
        "setup_s": setup_seconds,
        "build_s": build_seconds,
        "index_mb": index_mb,
    }
    print("READY " + json.dumps(ready), flush=True)
    # The run holds our stdin open; if it dies without a stop command,
    # EOF there stops this process instead of orphaning it.
    loop = asyncio.get_running_loop()
    threading.Thread(
        target=lambda: (sys.stdin.read(), loop.call_soon_threadsafe(control.stopped.set)),
        daemon=True,
    ).start()
    try:
        await control.stopped.wait()
    finally:
        control_server.close()
        await control.close()
        await control_server.wait_closed()
        await server.stop()
        service.close()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    asyncio.run(main(parser.parse_args()))
