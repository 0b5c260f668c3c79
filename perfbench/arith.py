"""The benchmark's own arithmetic: percentiles, self time, failure shares.

Kept free of I/O and of the program under test so
``test_perfbench_arith.py`` can pin every rule on hand-made numbers.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def supports(count: int, q: float) -> bool:
    """Whether ``count`` samples leave ``MIN_BEYOND`` of them above ``q``."""
    return count * (1.0 - q) >= MIN_BEYOND - 1e-9


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-quantile; raises when the sample cannot support it."""
    if not supports(len(values), q):
        raise ValueError(
            f"{len(values)} samples cannot support p{q * 100:g}: "
            f"need {math.ceil(MIN_BEYOND / (1.0 - q))}"
        )
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def percentile_or(values: Sequence[float], q: float, default: float = 0.0) -> float:
    """:func:`percentile`, or ``default`` when the sample is too small."""
    return percentile(values, q) if supports(len(values), q) else default


# ----------------------------------------------------------------------
# Intervals and self time
# ----------------------------------------------------------------------
def union_length(
    intervals: Iterable[tuple[float, float]],
    within: Optional[tuple[float, float]] = None,
) -> float:
    """Total length covered by ``intervals``, optionally clipped to ``within``."""
    clipped = []
    for start, end in intervals:
        if within is not None:
            start, end = max(start, within[0]), min(end, within[1])
        if end > start:
            clipped.append((start, end))
    clipped.sort()
    total = 0.0
    current_start = current_end = None
    for start, end in clipped:
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_time(
    span: tuple[float, float], children: Iterable[tuple[float, float]]
) -> float:
    """A span's duration minus the part its children's union covers."""
    return (span[1] - span[0]) - union_length(children, within=span)


@dataclass
class Node:
    """One span of a request tree (times in seconds)."""

    name: str
    start: float
    end: float
    children: list["Node"]

    @property
    def interval(self) -> tuple[float, float]:
        return (self.start, self.end)


def accounted_time(node: Node) -> float:
    """Sum of self times over a tree, parallel children weighted by overlap.

    Children that overlap (parallel scatter legs) are grouped; each
    group's subtrees are scaled by ``union / sum of durations`` so a
    parallel group counts for the wall time it covered, once.  For a
    tree whose spans nest inside their parents this equals the root's
    duration exactly; a span that sticks out of its parent (one joined
    to the wrong request or parent) makes it exceed that.
    """
    total = self_time(node.interval, (child.interval for child in node.children))
    for group in _overlap_groups(node.children):
        covered = union_length(child.interval for child in group)
        durations = sum(child.end - child.start for child in group)
        if durations <= 0:
            continue
        total += covered / durations * sum(accounted_time(child) for child in group)
    return total


def _overlap_groups(children: Sequence[Node]) -> list[list[Node]]:
    groups: list[list[Node]] = []
    group_end = None
    for child in sorted(children, key=lambda node: node.start):
        if group_end is None or child.start >= group_end:
            groups.append([child])
            group_end = child.end
        else:
            groups[-1].append(child)
            group_end = max(group_end, child.end)
    return groups


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
@dataclass
class Tally:
    """Requests of one phase by outcome."""

    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    refused: int = 0

    def add(self, outcome: str) -> None:
        """Count one ``ok`` / ``failed`` / ``refused`` outcome."""
        self.sent += 1
        if outcome == "ok":
            self.succeeded += 1
        elif outcome == "refused":
            self.refused += 1
        elif outcome == "failed":
            self.failed += 1
        else:
            raise ValueError(f"unknown outcome {outcome!r}")

    def merge(self, other: "Tally") -> "Tally":
        return Tally(
            self.sent + other.sent,
            self.succeeded + other.succeeded,
            self.failed + other.failed,
            self.refused + other.refused,
        )

    @property
    def unsuccessful(self) -> int:
        """Errors, timeouts and refusals (HTTP 429/503) alike."""
        return self.failed + self.refused

    @property
    def failed_share(self) -> float:
        return self.unsuccessful / self.sent if self.sent else 0.0


def latencies_with_misses(
    samples: Sequence[tuple[float, Optional[float]]], limit: float
) -> list[float]:
    """Latencies of ``(due, latency)`` samples in due order, misses at ``limit``.

    A request that failed or was refused (latency ``None``) misses
    every latency limit, so it enters the percentiles at the largest
    one (the request timeout).
    """
    return [limit if latency is None else latency for _, latency in sorted(samples)]


def windows(values: Sequence[float], size: int) -> list[list[float]]:
    """Consecutive chunks of ``size``; a shorter tail joins the last chunk."""
    chunks = [list(values[start:start + size]) for start in range(0, len(values), size)]
    if len(chunks) > 1 and len(chunks[-1]) < size:
        chunks[-2].extend(chunks.pop())
    return chunks


def windowed_percentile(values: Sequence[float], q: float, size: int) -> float:
    """Median over consecutive windows of each window's ``q``-percentile.

    A burst of outside noise spoils the window it falls in, not the
    figure: the median window decides.
    """
    return statistics.median(percentile(chunk, q) for chunk in windows(values, size))


def windowed_rate(times: Sequence[float], start: float, end: float, width: float) -> float:
    """Median events per second over the whole ``width``-second bins of ``[start, end)``."""
    bins = int((end - start) // width)
    if bins < 1:
        raise ValueError(f"a {end - start:.3f} s window holds no {width} s bin")
    counts = [0] * bins
    for moment in times:
        slot = int((moment - start) // width)
        if 0 <= slot < bins:
            counts[slot] += 1
    return statistics.median(count / width for count in counts)


def stolen_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the CPU time the guest wanted that the host took instead.

    ``before`` and ``after`` are ``(steal, busy)`` tick counters; the
    share is steal / (steal + busy) between them, 0 when neither moved.
    """
    steal, busy = after[0] - before[0], after[1] - before[1]
    return steal / (steal + busy) if steal + busy else 0.0


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with Python's default ``statistics.quantiles``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
