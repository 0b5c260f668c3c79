"""Seeded inputs of the serving benchmark: corpora, query streams, writes.

Everything a run sends is derived here from ``(workload, seed)``, in the
load generator and in the server process alike, so both sides build the
same documents without shipping them.  The program under test only ever
receives the generated documents and the HTTP requests.
"""

from __future__ import annotations

import itertools
import random
import zlib
from dataclasses import dataclass

from repro.datasets import generate_dblp, generate_xmark
from repro.workloads.generator import XMARK_BRANCHES, XMARK_LOW_BRANCHES, XMARK_TRUNKS
from repro.workloads.queries import queries_for_dataset

#: Served stack shape: shards of the ``ShardedQueryService`` and HTTP
#: connections of the load generator.  Both are the build machine's
#: ``nproc`` (2), fixed so figures stay comparable across machines.
SHARDS = 2
CONNECTIONS = 2

#: DBLP-shaped write documents: 4 publications each, so one write is a
#: few milliseconds of index maintenance.  No XMark query can match them.
WRITE_DOC_SCALE = 0.001


@dataclass(frozen=True)
class Workload:
    """One traffic mix.  Rates are requests (or writes) per second."""

    name: str
    docs: int
    scale: float
    query_rate: float
    #: Reads are drawn from a never-repeating stream, not the 16 queries.
    cold: bool = False


#: Why each workload exists is in ``BENCHMARK.json``.  Every corpus is
#: above 0.2 XMark scale per shard, where ``auto`` starts picking
#: DATAPATHS index-nested-loop plans.  Open-loop rates keep the server
#: under a fifth busy: with more overlap between requests the 5 ms
#: interpreter-lock hand-offs between the server's threads, and on a
#: shared host any slowdown, turn into queueing that decides the
#: latency percentiles, and the figures stop repeating.
WORKLOADS = {
    workload.name: workload
    for workload in (
        # The fixed per-request cost: 16 queries << the 1024-entry result cache.
        Workload("hot-twigs", docs=4, scale=0.12, query_rate=100.0),
        # Planner, kernels and storage: no query repeats, so no cache helps.
        Workload("cold-twigs", docs=6, scale=0.12, query_rate=60.0, cold=True),
    )
}

#: Writes of the write phase that follows the reads of a measurement.
WRITE_PHASE_OPS = 300
WRITE_PHASE_RATE = 50.0
#: Measurements per run at most: one the host disturbed is measured
#: again on the same server.
ATTEMPTS = 4
#: Writes scheduled for a run: enough for every measurement.
WRITE_COUNT = ATTEMPTS * WRITE_PHASE_OPS


def _rng(seed: int, stream: str) -> random.Random:
    """An independent RNG per (seed, purpose): streams never share draws."""
    return random.Random(f"{stream}:{seed}")


def placed_name(prefix: str, number: int) -> str:
    """A document name the default hash placement puts on shard ``number % SHARDS``.

    ``HashPlacement`` is CRC32 of the name modulo the shard count, and
    short sequential names can all hash to one shard; picking names
    keeps documents (and so scatter legs and write flushes) spread
    evenly over both shards.
    """
    for attempt in itertools.count():
        name = f"{prefix}{number}" if attempt == 0 else f"{prefix}{number}.{attempt}"
        if zlib.crc32(name.encode("utf-8")) % SHARDS == number % SHARDS:
            return name
    raise AssertionError("unreachable")


def xmark_corpus(workload: Workload, seed: int) -> list:
    """The workload's XMark documents, alternating over the shards."""
    rng = _rng(seed, "corpus")
    return [
        generate_xmark(scale=workload.scale, seed=rng.randrange(2**31), name=placed_name("x", i))
        for i in range(workload.docs)
    ]


# ----------------------------------------------------------------------
# hot-twigs: the paper's XMark queries, skewed
# ----------------------------------------------------------------------
def hot_queries() -> list[str]:
    """The paper's 16 XMark twig queries."""
    return [query.xpath for query in queries_for_dataset("xmark")]


#: Zipf exponent of the hot query popularity.
HOT_SKEW = 1.1


def hot_stream(seed: int, count: int) -> list[str]:
    """``count`` seeded picks from :func:`hot_queries`, Zipf(``HOT_SKEW``) by paper order.

    The popularity ranking is fixed, so seeds vary the order of the
    requests, not which queries are hot.
    """
    queries = hot_queries()
    weights = [1.0 / (rank + 1) ** HOT_SKEW for rank in range(len(queries))]
    return _rng(seed, "hot").choices(queries, weights=weights, k=count)


# ----------------------------------------------------------------------
# cold-twigs: distinct twigs from the paper's branch templates
# ----------------------------------------------------------------------
def _values(context, path: str) -> list[str]:
    """Values reached from ``context`` by a relative child path."""
    nodes = [context]
    for step in path.split("/"):
        attribute = step.startswith("@")
        label = step[1:] if attribute else step
        nodes = [
            child
            for node in nodes
            for child in node.children
            if child.is_structural
            and child.label == label
            and child.is_attribute == attribute
        ]
    return [value for value in (node.first_value() for node in nodes) if value is not None]


def _templates(pool: dict) -> list[str]:
    """Template branch paths (constants stripped) of a generator pool."""
    paths = []
    for branches in pool.values():
        for branch in branches:
            path = branch.split(" = ")[0].strip()
            if path not in paths:
                paths.append(path)
    return paths


def _deepen(path: str, rng: random.Random) -> str:
    """A ``//`` variant of a relative path (first step boundary), or itself."""
    steps = path.split("/")
    if len(steps) < 3 or rng.random() < 0.5:
        return path
    return steps[0] + "//" + "/".join(steps[2:])


def cold_stream(workload: Workload, seed: int, count: int) -> list[str]:
    """``count`` distinct twigs whose answers are non-empty on the corpus.

    Each twig takes the paper's trunks and branch templates
    (:mod:`repro.workloads.generator`) and fills every constant with a
    value read from one node of the corpus, so the node the branches
    were sampled from always matches.  Some steps become ``//``.
    """
    rng = _rng(seed, "cold")
    documents = xmark_corpus(workload, seed)
    high = _templates(XMARK_BRANCHES)
    low = _templates(XMARK_LOW_BRANCHES)
    sites = [document.root for document in documents]
    auctions = [
        auction
        for site in sites
        for group in site.children if group.label == "open_auctions"
        for auction in group.children
    ]
    seen: set[str] = set()
    stream: list[str] = []
    while len(stream) < count:
        if rng.random() < 0.5:
            context = rng.choice(sites)
            trunk = XMARK_TRUNKS["high"]
            paths = rng.sample(high, rng.randint(1, 3))
            suffix = ""
        else:
            context = rng.choice(auctions)
            trunk = XMARK_TRUNKS["low"]
            paths = rng.sample(low, rng.randint(1, 2))
            suffix = rng.choice(("", "", "/time", "/bidder/date"))
        predicates = []
        for path in paths:
            values = _values(context, path)
            if not values:
                break
            predicates.append(f"[{_deepen(path, rng)} = '{rng.choice(values)}']")
        else:
            if rng.random() < 0.25:
                trunk = "/" + trunk
            xpath = trunk + "".join(predicates) + suffix
            if xpath not in seen:
                seen.add(xpath)
                stream.append(xpath)
    return stream


# ----------------------------------------------------------------------
# Writes: DBLP-shaped documents added, replaced and removed
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WriteOp:
    """One scheduled write; ``doc_seed`` regenerates its document."""

    op: str
    name: str
    doc_seed: int

    def document(self):
        return generate_dblp(scale=WRITE_DOC_SCALE, seed=self.doc_seed, name=self.name)


def write_schedule(seed: int, count: int) -> list[WriteOp]:
    """``count`` writes: two adds, then add / replace / remove in turn.

    The mix is fixed (a third replaces, each a remove plus an add), so
    seeds vary only which live document is hit and the documents'
    contents; the live set holds two or three documents.
    """
    rng = _rng(seed, "writes")
    live: list[str] = []
    ops: list[WriteOp] = []
    for number in range(count):
        kind = "add" if number < 2 else ("add", "replace", "remove")[(number - 2) % 3]
        if kind == "add":
            name = placed_name("w", number)
            live.append(name)
            ops.append(WriteOp("add", name, rng.randrange(2**31)))
        elif kind == "replace":
            ops.append(WriteOp("replace", rng.choice(live), rng.randrange(2**31)))
        else:
            ops.append(WriteOp("remove", live.pop(rng.randrange(len(live))), 0))
    return ops


#: The post-run check on the written documents: only writes can change it.
DBLP_CHECK_QUERY = "/dblp/inproceedings/author"
