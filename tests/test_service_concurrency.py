"""Concurrent access: readers hammering execute() against add_document().

The serving tier's thread-safety contract: a
:class:`~repro.service.QueryService` (and each shard of a
:class:`~repro.shard.ShardedQueryService`) may be queried from many
threads while another thread adds documents — never returning a torn
read of a half-maintained index, never a stale cached answer after the
caches were invalidated — and once the writer finishes, queries must
see the final document set.

What "never stale or torn" means differs by tier:

* the **single-node** service serializes execution against writes on
  one lock, so every observed answer must be the oracle answer of some
  *prefix* of the add sequence (linearizability);
* the **sharded** service has per-shard snapshots but no global read
  snapshot (see the consistency model in :mod:`repro.shard.service`),
  so every observed answer must be a *consistent cut*: per shard, a
  prefix of that shard's add sub-sequence.

A warm-cache sharded variant races cache hits (answered on the reader
threads, not the scatter lanes) against adds, removes and replaces;
its admissible states are, per shard, prefixes of that shard's
add/remove steps.

The harness precomputes the oracle answers of every admissible state
(documents are independent trees, so a state's answer is the union of
its documents' match sets), races reader threads against one writer,
and checks each observed answer against the admissible set.
"""

from __future__ import annotations

import threading

import pytest

from repro import ShardedQueryService, TwigIndexDatabase
from repro.datasets import generate_xmark

QUERIES = (
    "/site/people/person/name",
    "//person[name='Hagen Artosi']",
    "/site/open_auctions/open_auction",
)

BASE_DOCS = 2
EXTRA_DOCS = 3
READER_THREADS = 3
READER_ROUNDS = 25


def _documents(count: int):
    return [
        generate_xmark(scale=0.015, seed=500 + i, name=f"doc-{i}")
        for i in range(count)
    ]


def _prefix_oracles() -> list[dict[str, list[int]]]:
    """Oracle answers for every prefix of the add sequence.

    Prefix k holds the answers after the first BASE_DOCS + k documents;
    these are the only answer sets a linearizable service may return.
    """
    oracles = []
    for k in range(EXTRA_DOCS + 1):
        reference = TwigIndexDatabase.from_documents(_documents(BASE_DOCS + k))
        oracles.append({xpath: reference.oracle(xpath) for xpath in QUERIES})
    return oracles


@pytest.fixture(scope="module")
def prefix_oracles():
    return _prefix_oracles()


def _hammer(execute, add_document):
    """Race readers against one writer; return the observed answers."""
    documents = _documents(BASE_DOCS + EXTRA_DOCS)[BASE_DOCS:]
    observed, _ = _race(
        execute, [lambda document=document: add_document(document) for document in documents]
    )
    return observed


def _race(execute, writes, paced: bool = False):
    """Race READER_THREADS readers against one writer running ``writes``.

    Returns the observed answers per query and the number of reads.
    ``paced`` holds the k-th write until the readers have answered
    ``k * len(QUERIES)`` reads in all (no sleeps), so the reads really
    race every intermediate state.
    """
    observed: dict[str, set[tuple[int, ...]]] = {xpath: set() for xpath in QUERIES}
    errors: list[BaseException] = []
    observed_lock = threading.Lock()
    reads = [0]
    writer_done = threading.Event()

    def await_reads(count):
        for _ in range(2000):
            with observed_lock:
                if reads[0] >= count:
                    return
            writer_done.wait(0.005)

    def writer():
        try:
            for step, write in enumerate(writes):
                if paced:
                    await_reads((step + 1) * len(QUERIES))
                write()
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)
        finally:
            writer_done.set()

    def reader():
        try:
            rounds = 0
            while rounds < READER_ROUNDS or not writer_done.is_set():
                rounds += 1
                for xpath in QUERIES:
                    ids = tuple(execute(xpath).ids)
                    with observed_lock:
                        observed[xpath].add(ids)
                        reads[0] += 1
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader) for _ in range(READER_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "hammer thread wedged"
    assert not errors, errors
    return observed, reads[0]


def _assert_answers_admissible(observed, allowed_by_query, contract):
    for xpath in QUERIES:
        stale_or_torn = observed[xpath] - allowed_by_query[xpath]
        assert not stale_or_torn, (
            f"{xpath}: observed answers matching no {contract} of the add "
            f"sequence: {sorted(len(ids) for ids in stale_or_torn)} ids"
        )


def _per_document_answers():
    """Each document's own match ids in the global id space.

    Documents are independent trees, so the answer of any document
    subset is the union of the per-document match sets; this is what
    lets the harness enumerate every admissible concurrent state.
    """
    reference = TwigIndexDatabase.from_documents(
        _documents(BASE_DOCS + EXTRA_DOCS)
    )
    spans = reference.document_spans()
    contributions: dict[str, list[list[int]]] = {}
    for xpath in QUERIES:
        full = reference.oracle(xpath)
        contributions[xpath] = [
            [i for i in full if start <= i < end] for _, start, end in spans
        ]
    return contributions


def _consistent_cut_answers(shard_deltas: list[list[int]]):
    """Admissible answers when each shard may lag at its own prefix.

    ``shard_deltas`` lists, per shard, the positions (document indexes)
    of the delta documents that shard received, in arrival order.  A
    cut includes every base document plus, for each shard, a prefix of
    its deltas.
    """
    contributions = _per_document_answers()
    cuts = [list(range(BASE_DOCS))]
    for deltas in shard_deltas:
        cuts = [
            cut + deltas[:take] for cut in cuts for take in range(len(deltas) + 1)
        ]
    allowed: dict[str, set[tuple[int, ...]]] = {}
    for xpath in QUERIES:
        per_doc = contributions[xpath]
        allowed[xpath] = {
            tuple(sorted(id_ for position in cut for id_ in per_doc[position]))
            for cut in cuts
        }
    return allowed


def test_single_service_race_no_stale_results(prefix_oracles):
    database = TwigIndexDatabase.from_documents(_documents(BASE_DOCS))
    database.build_index("rootpaths")
    database.build_index("datapaths")
    service = database.service

    observed = _hammer(
        lambda xpath: service.execute(xpath, strategy="auto"),
        service.add_document,
    )
    # One lock serializes everything: full linearizability.
    allowed = {
        xpath: {tuple(prefix[xpath]) for prefix in prefix_oracles}
        for xpath in QUERIES
    }
    _assert_answers_admissible(observed, allowed, "prefix")

    # The settled service answers for the final document set, cached and
    # uncached alike, and the caches are internally consistent.
    final = prefix_oracles[-1]
    for xpath in QUERIES:
        assert service.execute(xpath).ids == final[xpath]
        assert (
            service.execute(xpath, use_result_cache=False).ids == final[xpath]
        )
    report = service.describe()
    assert report["result_cache"]["size"] <= service.result_cache.max_size
    assert report["result_invalidations"] >= EXTRA_DOCS


@pytest.mark.parametrize("placement", ["round_robin", "hash"])
def test_sharded_service_race_no_stale_results(prefix_oracles, placement):
    service = ShardedQueryService.from_documents(
        _documents(BASE_DOCS), num_shards=2, placement=placement
    )
    service.build_index("rootpaths")
    service.build_index("datapaths")

    observed = _hammer(
        lambda xpath: service.execute(xpath, strategy="auto"),
        service.add_document,
    )
    # Scatter-gather: per-shard snapshots, no global snapshot — check
    # against every consistent cut.  The delta-to-shard assignment is
    # read back from the collection (both policies here are
    # deterministic, so the racing run used the same assignment).
    shard_deltas: list[list[int]] = [
        [] for _ in range(service.collection.num_shards)
    ]
    for placement in service.collection.placements():
        if placement.ordinal >= BASE_DOCS:
            shard_deltas[placement.shard_index].append(placement.ordinal)
    allowed = _consistent_cut_answers(shard_deltas)
    _assert_answers_admissible(observed, allowed, "consistent cut")

    final = prefix_oracles[-1]
    for xpath in QUERIES:
        assert service.execute(xpath).ids == final[xpath]
        assert service.oracle(xpath) == final[xpath]
    service.close()


def test_concurrent_scattered_queries_share_one_collection():
    """Many reader threads scatter concurrently over the same shards."""
    service = ShardedQueryService.from_documents(
        _documents(4), num_shards=4, placement="round_robin"
    )
    service.build_index("rootpaths")
    service.build_index("datapaths")
    expected = {xpath: service.oracle(xpath) for xpath in QUERIES}
    errors: list[BaseException] = []

    def reader():
        try:
            for _ in range(10):
                for xpath in QUERIES:
                    assert service.execute(xpath).ids == expected[xpath]
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert not errors, errors
    service.close()


# ----------------------------------------------------------------------
# Warm caches under churn: inline cache hits race adds/removes/replaces
# ----------------------------------------------------------------------
def _churn_script():
    """The writer's script: ``(kind, name, document-or-None)`` steps.

    Starts from BASE_DOCS documents and adds, removes and replaces, so
    shards both gain and lose documents while readers hit warm caches.
    """
    documents = _documents(BASE_DOCS + EXTRA_DOCS)
    return [
        ("add", "doc-2", documents[2]),
        ("remove", "doc-0", None),
        ("add", "doc-3", documents[3]),
        ("replace", "doc-1", generate_xmark(scale=0.015, seed=600, name="doc-1")),
        ("add", "doc-4", documents[4]),
        ("remove", "doc-2", None),
    ]


def _version_answers(script):
    """Each document version's match ids, from a single-engine replay.

    A version is ``(name, n)``: the n-th document added under that
    name.  Ids are never reused, so a version's matches are fixed once
    it is added; the replay assigns the same global ids the sharded
    tier does.
    """
    reference = TwigIndexDatabase.from_documents(_documents(BASE_DOCS))
    versions: dict[str, int] = {}
    answers: dict[tuple[str, int], dict[str, list[int]]] = {}

    def record(name):
        versions[name] = versions.get(name, -1) + 1
        (span,) = [s for s in reference.document_spans() if s[0] == name]
        answers[(name, versions[name])] = {
            xpath: [i for i in reference.oracle(xpath) if span[1] <= i < span[2]]
            for xpath in QUERIES
        }

    for document in _documents(BASE_DOCS):
        record(document.name)
    for kind, name, document in script:
        if kind == "add":
            reference.add_document(document)
        elif kind == "remove":
            reference.remove_document(name)
        else:
            reference.replace_document(name, document)
        if kind != "remove":
            record(name)
    return answers, {xpath: reference.oracle(xpath) for xpath in QUERIES}


def _churn_cut_answers(base, shard_ops, answers):
    """Admissible answers when each shard sits at a prefix of its ops.

    ``base`` is each shard's starting set of versions; ``shard_ops``
    lists per shard the ``(+1 | -1, version)`` steps it applied, in
    order.  A cross-shard replace is a remove on one shard and an add
    on another, so the cuts include seeing neither or both versions.
    """
    cuts = [frozenset()]
    for versions, ops in zip(base, shard_ops):
        states = [frozenset(versions)]
        for sign, version in ops:
            states.append(
                states[-1] | {version} if sign > 0 else states[-1] - {version}
            )
        cuts = [cut | state for cut in cuts for state in states]
    return {
        xpath: {
            tuple(sorted(i for version in cut for i in answers[version][xpath]))
            for cut in cuts
        }
        for xpath in QUERIES
    }


@pytest.mark.parametrize("placement", ["round_robin", "hash"])
def test_sharded_warm_cache_race_under_churn(placement):
    script = _churn_script()
    answers, final = _version_answers(script)
    service = ShardedQueryService.from_documents(
        _documents(BASE_DOCS), num_shards=2, placement=placement
    )
    service.build_index("rootpaths")
    service.build_index("datapaths")
    for xpath in QUERIES:
        service.execute(xpath)  # warm every shard: reads start as inline hits
    num_shards = service.collection.num_shards
    base: list[set] = [set() for _ in range(num_shards)]
    for placed in service.collection.placements():
        base[placed.shard_index].add((placed.name, 0))

    submits = []
    real_submit = service.scatter_pool.submit

    def counting_submit(*args):
        submits.append(1)
        return real_submit(*args)

    service.scatter_pool.submit = counting_submit

    shard_ops: list[list] = [[] for _ in range(num_shards)]
    versions = {name: 0 for name in ("doc-0", "doc-1")}

    def write(kind, name, document):
        if kind != "add":
            old = service.remove_document(name)
            shard_ops[old.shard_index].append((-1, (name, versions[name])))
        if kind != "remove":
            versions[name] = versions.get(name, -1) + 1
            placed = service.collection.add_document(document)
            shard_ops[placed.shard_index].append((1, (name, versions[name])))

    observed, reads = _race(
        lambda xpath: service.execute(xpath, strategy="auto"),
        [lambda step=step: write(*step) for step in script],
        paced=True,
    )
    allowed = _churn_cut_answers(base, shard_ops, answers)
    _assert_answers_admissible(observed, allowed, "consistent cut")
    # Most reads were warm hits answered on the reader threads; every
    # read that went to the lanes submitted a leg per target shard.
    assert len(submits) < reads
    for xpath in QUERIES:
        assert service.execute(xpath).ids == final[xpath]
        assert service.oracle(xpath) == final[xpath]
    service.close()
