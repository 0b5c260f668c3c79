"""Bench-owned spans around the public entry points of each layer.

The recorder patches the program's classes and module functions from
outside (no program code carries bench spans) and restores them when
tracing stops.  A span is ``[span_id, parent_id, request_id, name,
start, end, extra]`` with ``time.perf_counter`` times; spans stay in
memory until :meth:`Recorder.stop` hands them back.

The request id and the current span live in bench ``ContextVar``\\ s.
The program already hands its context to worker threads with
``copy_context()`` (front-door executor, scatter lanes), so both cross
those hops untouched and a shard leg parents under the sharded execute
that scattered it.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import sys
import time
from collections.abc import Mapping
from typing import Callable, Optional

REQUEST: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "perfbench_request", default=None
)
CURRENT: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perfbench_span", default=None
)


def _request_id(request) -> Optional[str]:
    if isinstance(request, Mapping):
        return request.get("query_id")
    return getattr(request, "query_id", None)


def _stats_before(args):
    """Snapshot the stats of the engine a method is called on."""
    return args[0].stats.snapshot()


def _stats_after(snapshot, args, result):
    return {"cost": args[0].stats.diff(snapshot)}


def _result_cost(state, args, result):
    return {"cost": dict(result.cost)}


class Recorder:
    """Install wrappers, collect spans and counted calls, uninstall."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: ``(name, request_id)`` per counted call (no span, no timing).
        self.calls: list[tuple[str, Optional[str]]] = []
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Wrap the public entry points of every layer, from ``frontdoor`` to ``obs``."""
        from repro.frontdoor.admission import AdmissionController
        from repro.frontdoor.server import FrontDoor
        from repro.kernels.columns import NodeColumns
        from repro.kernels.join import CompiledJoin
        from repro.obs.telemetry import Telemetry
        from repro.planner.evaluator import TwigQueryEngine
        from repro.query.parser import parse_xpath
        from repro.service.service import QueryService
        from repro.shard.replica import Shard
        from repro.shard.service import ShardedQueryService

        self._patch_async(FrontDoor, "handle", "frontdoor.handle", enter_request=True)
        self._patch_async(AdmissionController, "acquire", "frontdoor.acquire")
        self._patch(ShardedQueryService, "execute", "shard.execute")
        self._patch(Shard, "execute", "shard.leg")
        self._patch(QueryService, "execute", "service.execute")
        for write in ("add_document", "remove_document", "replace_document"):
            self._patch(QueryService, write, "service.write")
        self._patch_function(parse_xpath, "query.parse")
        self._patch(
            TwigQueryEngine, "execute_prepared", "planner.execute_prepared",
            after=_result_cost,
        )
        self._patch(
            TwigQueryEngine, "maintain_indexes", "indexes.maintain",
            before=_stats_before, after=_stats_after,
        )
        self._patch(CompiledJoin, "run", "kernels.join")
        self._patch(NodeColumns, "__init__", "kernels.columns")
        self._count(Telemetry, "span", "obs.span")

    def stop(self) -> tuple[list[list], list[tuple[str, Optional[str]]]]:
        """Restore every original; returns ``(spans, calls)``."""
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        return self.spans, self.calls

    # ------------------------------------------------------------------
    def _open(self, name: str) -> list:
        return [next(self._ids), CURRENT.get(), REQUEST.get(), name, time.perf_counter(), 0.0, None]

    def _wrap(self, function: Callable, name: str, before=None, after=None) -> Callable:
        spans = self.spans

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            state = before(args) if before is not None else None
            token = CURRENT.set(span[0])
            try:
                result = function(*args, **kwargs)
            finally:
                CURRENT.reset(token)
                span[5] = time.perf_counter()
                spans.append(span)
            if after is not None:
                span[6] = after(state, args, result)
            return result

        return wrapper

    def _patch(self, owner, attribute: str, name: str, before=None, after=None) -> None:
        original = owner.__dict__[attribute]
        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, self._wrap(original, name, before, after))

    def _patch_async(self, owner, attribute: str, name: str, enter_request: bool = False) -> None:
        original = owner.__dict__[attribute]
        spans = self.spans

        @functools.wraps(original)
        async def wrapper(obj, *args, **kwargs):
            request_token = REQUEST.set(_request_id(args[0])) if enter_request else None
            span = self._open(name)
            token = CURRENT.set(span[0])
            try:
                return await original(obj, *args, **kwargs)
            finally:
                CURRENT.reset(token)
                span[5] = time.perf_counter()
                spans.append(span)
                if request_token is not None:
                    REQUEST.reset(request_token)

        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def _patch_function(self, function: Callable, name: str) -> None:
        """Replace a module function in every ``repro`` module that holds it."""
        wrapper = self._wrap(function, name)
        for module_name, module in list(sys.modules.items()):
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    self._restore.append((module, attribute, function))
                    setattr(module, attribute, wrapper)

    def _count(self, owner, attribute: str, name: str) -> None:
        original = owner.__dict__[attribute]
        calls = self.calls

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls.append((name, REQUEST.get()))
            return original(*args, **kwargs)

        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)


def run_as_request(request_id: str, function: Callable, *args):
    """Call ``function`` with the bench request id set (for writes)."""
    token = REQUEST.set(request_id)
    try:
        return function(*args)
    finally:
        REQUEST.reset(token)
