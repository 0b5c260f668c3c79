"""The load generator: a minimal asyncio HTTP/1.1 client and the phases.

One process, one event loop, at most ``CONNECTIONS`` keep-alive
connections (or streams).  Open-loop phases send on a fixed schedule
and time each request from when it was due; closed-loop phases keep
every connection busy and count completions.  Every response's ids are
checked against the reference answers; a mismatch aborts the run.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from arith import Tally

#: Per-request limit; a request that takes longer counts as failed.
TIMEOUT_S = 10.0
#: Control replies carry whole span lists.
CONTROL_LINE_LIMIT = 1 << 30


class Mismatch(Exception):
    """A served answer differed from the reference answer."""


class Connection:
    """One keep-alive HTTP/1.1 connection to the front door."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> "Connection":
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
        return self

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.writer = None

    async def post(self, path: str, body: bytes) -> tuple[int, bytes]:
        if self.writer is None:
            await self.open()
        self.writer.write(
            (
                f"POST {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while (line := await self.reader.readline()) not in (b"\r\n", b"\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)


class Control:
    """JSON-lines client of the server process's control port."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def open(self) -> "Control":
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port, limit=CONTROL_LINE_LIMIT
        )
        return self

    async def call(self, **message) -> dict:
        self.writer.write(json.dumps(message).encode() + b"\n")
        reply = json.loads(await self.reader.readline())
        if not reply.get("ok"):
            raise RuntimeError(f"control {message.get('cmd')} failed: {reply.get('error')}")
        return reply

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()


@dataclass
class Phase:
    """What one phase measured (times in seconds)."""

    name: str
    tally: Tally = field(default_factory=Tally)
    #: ``(due, latency)`` per request, latency from due (or send) time
    #: to response; ``None`` for a failed or refused request.
    samples: list[tuple[float, Optional[float]]] = field(default_factory=list)
    #: Open loop: how late the generator dispatched each request.
    lateness: list[float] = field(default_factory=list)
    #: Traced runs: ``(request_id, sent, received)`` per success.
    round_trips: list[tuple[str, float, float]] = field(default_factory=list)
    #: Closed loop: the measured window and its successful completions.
    start: float = 0.0
    end: float = 0.0
    completions: list[float] = field(default_factory=list)

    def record(self, outcome: str, due: float, latency: Optional[float] = None) -> None:
        self.tally.add(outcome)
        self.samples.append((due, latency if outcome == "ok" else None))


class Client:
    """Sends checked queries over a pool of connections."""

    def __init__(self, expected: dict[str, list[int]]) -> None:
        self.expected = expected
        self._ids = 0

    async def query(self, connection: Connection, xpath: str, phase: Phase, due: float) -> None:
        """One request; records its outcome in ``phase`` (latency from ``due``)."""
        self._ids += 1
        query_id = f"{phase.name}-{self._ids}"
        body = json.dumps({"xpath": xpath, "query_id": query_id}).encode()
        sent = time.perf_counter()
        try:
            status, payload = await asyncio.wait_for(connection.post("/query", body), TIMEOUT_S)
        except (asyncio.TimeoutError, ConnectionError, asyncio.IncompleteReadError, ValueError):
            connection.close()
            phase.record("failed", due)
            return
        received = time.perf_counter()
        if status != 200:
            phase.record("refused" if status in (429, 503) else "failed", due)
            return
        ids = json.loads(payload)["ids"]
        if ids != self.expected[xpath]:
            raise Mismatch(f"{xpath}: served {len(ids)} ids, reference {len(self.expected[xpath])}")
        phase.record("ok", due, received - due)
        phase.round_trips.append((query_id, sent, received))

    async def open_loop(
        self, connections: list[Connection], xpaths: list[str], rate: float, phase: Phase
    ) -> Phase:
        """Send ``xpaths`` at ``rate``/s; a request waits for a free connection."""
        queue: asyncio.Queue = asyncio.Queue()
        start = time.perf_counter() + 0.01

        async def dispatch() -> None:
            for number, xpath in enumerate(xpaths):
                due = start + number / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                phase.lateness.append(max(0.0, time.perf_counter() - due))
                queue.put_nowait((xpath, due))
            for _ in connections:
                queue.put_nowait(None)

        async def work(connection: Connection) -> None:
            while (job := await queue.get()) is not None:
                await self.query(connection, job[0], phase, job[1])

        await _gather(dispatch(), *(work(connection) for connection in connections))
        return phase

    async def closed_loop(
        self,
        connections: list[Connection],
        next_xpath: Callable[[], Optional[str]],
        seconds: float,
        phase: Phase,
    ) -> Phase:
        """Each connection sends its next query as soon as the last returns."""
        phase.start = time.perf_counter()
        deadline = phase.end = phase.start + seconds

        async def work(connection: Connection) -> None:
            while time.perf_counter() < deadline:
                xpath = next_xpath()
                if xpath is None:  # stream exhausted: the window ends here
                    phase.end = min(phase.end, time.perf_counter())
                    return
                before = phase.tally.succeeded
                await self.query(connection, xpath, phase, time.perf_counter())
                if phase.tally.succeeded > before:
                    phase.completions.append(time.perf_counter())

        await _gather(*(work(connection) for connection in connections))
        return phase


async def write_stream(control: Control, cursor: int, limit: int, rate: float, phase: Phase) -> int:
    """Scheduled writes ``cursor, cursor + 1, ...`` on one stream, timed from due time.

    Writes go in schedule order and none is skipped, so the applied
    writes are always a prefix of the schedule.  Stops at ``limit``;
    returns the next cursor.
    """
    start = time.perf_counter()
    for number in range(limit - cursor):
        due = start + number / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        phase.lateness.append(max(0.0, time.perf_counter() - due))
        try:
            await asyncio.wait_for(control.call(cmd="write", k=cursor), TIMEOUT_S)
        except asyncio.TimeoutError:
            # The late reply would answer the next call: reconnect.
            control.close()
            await control.open()
            phase.record("failed", due)
        except RuntimeError:
            phase.record("failed", due)
        else:
            phase.record("ok", due, time.perf_counter() - due)
        cursor += 1
    return cursor


async def _gather(*coroutines) -> None:
    """Run to completion; the first error cancels the rest and is raised."""
    tasks = [asyncio.ensure_future(coroutine) for coroutine in coroutines]
    try:
        await asyncio.gather(*tasks)
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
