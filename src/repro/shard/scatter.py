"""Scatter pools: how per-shard query legs map onto worker threads.

:class:`~repro.shard.service.ShardedQueryService` evaluates one query
as one *leg* per relevant shard and gathers the partial answers.  Legs
leave the calling thread only when two or more of them must execute.
When at most one leg executes (every other shard holds the answer in
its result cache, or there is only one target), all legs run on the
caller, because a cache hit is cheaper than a thread hand-off.  When
two or more legs execute, or the query bypasses the result cache, the
legs are submitted to a pool.  Under a single caller any thread pool
does; under the concurrent front door (:mod:`repro.frontdoor`) many
queries scatter at once and the mapping of legs to threads decides
whether the shards actually stay busy.  Two pools implement the same
tiny surface (:meth:`ScatterPool.submit` / :meth:`ScatterPool.shutdown`):

* :class:`PooledScatterPool` — the legacy shape: one shared
  ``ThreadPoolExecutor`` with ``num_shards`` workers.  Legs from all
  queries enter one FIFO queue; a worker that dequeues a leg for a
  shard whose service lock is still held by an earlier leg *blocks on
  that lock* while other shards sit idle with queued work
  (head-of-line blocking).  Kept as the explicit baseline the
  front-door bench measures against.

* :class:`PipelinedScatterPool` — one single-worker lane per shard
  (plus one lane per extra replica, whose reads really can run in
  parallel because each replica has its own service lock).  A leg
  queues on *its shard's* lane, so legs from different concurrent
  queries interleave per shard in FIFO order and every shard is busy
  whenever any query has work for it; no worker ever blocks on a
  foreign shard's lock.  This cross-query pipelining is the default.

Both pools hand back ordinary :class:`concurrent.futures.Future`
objects; the service gathers them as-completed and cancels outstanding
legs on the first error (see
:meth:`~repro.shard.service.ShardedQueryService._scatter`).
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Sequence, Union

__all__ = [
    "PipelinedScatterPool",
    "PooledScatterPool",
    "SCATTER_MODES",
    "ScatterPool",
    "make_scatter_pool",
]


class ScatterPool:
    """The surface the sharded service scatters through."""

    name: str = "scatter"

    def submit(self, shard_index: int, fn: Callable, *args) -> Future:
        """Queue one shard leg; returns its future."""
        raise NotImplementedError

    def shutdown(self, wait: bool = True) -> None:
        """Release the pool's worker threads (idempotent)."""
        raise NotImplementedError


class PooledScatterPool(ScatterPool):
    """One shared FIFO executor for every shard's legs (the baseline)."""

    name = "pooled"

    def __init__(self, max_workers: int) -> None:
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="shard"
        )

    def submit(self, shard_index: int, fn: Callable, *args) -> Future:
        # The caller gathers the returned future (as-completed, with
        # cancel-on-error); this wrapper only routes it.
        return self._executor.submit(fn, *args)  # repro-lint: ignore[RPR005] -- future is returned to the gathering caller

    def shutdown(self, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PooledScatterPool(workers={self._executor._max_workers})"


class PipelinedScatterPool(ScatterPool):
    """One dedicated lane (executor) per shard: cross-query pipelining.

    ``lanes[i]`` is shard *i*'s worker count — 1 for a plain shard
    (its service lock serializes execution anyway), the replica count
    for a replicated shard (each replica has its own lock, so its
    reads genuinely parallelize).
    """

    name = "pipelined"

    def __init__(self, lanes: Sequence[int]) -> None:
        if not lanes or any(lane < 1 for lane in lanes):
            raise ValueError(f"every shard needs at least one lane: {lanes}")
        self.lanes = tuple(int(lane) for lane in lanes)
        self._executors = [
            ThreadPoolExecutor(max_workers=lane, thread_name_prefix=f"shard{i}")
            for i, lane in enumerate(self.lanes)
        ]

    def submit(self, shard_index: int, fn: Callable, *args) -> Future:
        # Routed onto the owning shard's lane; the caller gathers the
        # returned future as-completed.
        return self._executors[shard_index].submit(fn, *args)  # repro-lint: ignore[RPR005] -- future is returned to the gathering caller

    def shutdown(self, wait: bool = True) -> None:
        for executor in self._executors:
            executor.shutdown(wait=wait)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PipelinedScatterPool(lanes={self.lanes})"


#: Recognised ``scatter=`` mode names for :class:`ShardedQueryService`.
SCATTER_MODES = ("pipelined", "pooled")


def make_scatter_pool(
    mode: Union[str, ScatterPool],
    num_shards: int,
    lanes: Sequence[int],
    max_workers: int | None = None,
) -> ScatterPool:
    """Build the scatter pool for one service.

    ``mode`` is ``"pipelined"`` (default; per-shard lanes sized by
    ``lanes``), ``"pooled"`` (one shared executor with ``max_workers``
    or ``num_shards`` workers), or an already-built pool, which is
    adopted as-is.
    """
    if isinstance(mode, ScatterPool):
        return mode
    if mode == "pipelined":
        return PipelinedScatterPool(lanes)
    if mode == "pooled":
        return PooledScatterPool(max_workers or num_shards)
    raise ValueError(
        f"unknown scatter mode {mode!r}; expected one of {SCATTER_MODES}"
    )
