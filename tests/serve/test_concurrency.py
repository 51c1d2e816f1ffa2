"""Stress tests for the shared-cache concurrency fixes.

The serving layer multiplexes many clients onto shared warm state:
one :class:`CompileCache` (hash-consed BDD managers, safe plans), one
:class:`PrefixCache` per distribution, one :class:`FactIndex` per
table.  Before the locking work these structures raced on family
eviction, buffer reallocation and lazy bucket materialization; these
tests hammer each from N ≥ 8 threads and assert two things:

* no exceptions anywhere (every worker's traceback is collected and
  re-raised), and
* results **bit-identical** to a serial run — locking must serialize
  mutation without changing a single float.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.fact_distribution import GeometricFactDistribution
from repro.core.prefix_cache import PrefixCache
from repro.core.refine import RefinementSession
from repro.core.tuple_independent import CountableTIPDB
from repro.finite import TupleIndependentTable, query_probability
from repro.finite.compile_cache import CompileCache
from repro.logic import BooleanQuery, parse_formula
from repro.relational import RelationSymbol, Schema
from repro.relational.index import FactIndex
from repro.universe import FactSpace, Naturals

N_THREADS = 8

#: Columns and folds run on plain Python lists only; the one-value
#: parameter keeps each case's ``[python]`` test id.
BACKENDS = ("python",)

schema = Schema.of(R=1)
space = FactSpace(schema, Naturals())

#: The unsafe self-join: forces the compiled (BDD) path through the
#: shared CompileCache rather than the lifted plan shortcut.
UNSAFE = "EXISTS x. R(x) AND (R(1) OR R(2))"
#: A safe query: exercises the per-family lifted plan cache instead.
SAFE = "EXISTS x. R(x)"

SWEEP = [0.2, 0.1, 0.05, 0.02, 0.01]


def make_pdb():
    return CountableTIPDB(
        schema, GeometricFactDistribution(space, first=0.3, ratio=0.9))


def make_query(text):
    return BooleanQuery(parse_formula(text, schema), schema)


def run_threads(workers):
    """Run every thunk concurrently; re-raise the first exception."""
    errors = []
    barrier = threading.Barrier(len(workers))

    def wrap(fn):
        def runner():
            barrier.wait()
            try:
                return fn()
            except BaseException as err:  # noqa: BLE001 - reported below
                errors.append(err)
                raise

        return runner

    with ThreadPoolExecutor(max_workers=len(workers)) as pool:
        futures = [pool.submit(wrap(fn)) for fn in workers]
        results = []
        for future in futures:
            try:
                results.append(future.result())
            except BaseException:
                pass
    if errors:
        raise errors[0]
    return results


# --------------------------------------------------------------- CompileCache
@pytest.mark.parametrize("query_text", [UNSAFE, SAFE])
@pytest.mark.parametrize("strategy", ["bdd", "auto"])
def test_concurrent_sweeps_shared_compile_cache(query_text, strategy):
    """N sessions over one PDB and one CompileCache, sweeping
    concurrently, agree bit-for-bit with a serial reference sweep."""
    # Serial reference: fresh everything.
    reference_session = RefinementSession(
        make_query(query_text), make_pdb(), strategy=strategy,
        compile_cache=CompileCache())
    reference = {
        eps: r.value for eps, r in reference_session.sweep(SWEEP).items()}

    shared_pdb = make_pdb()          # shares one PrefixCache
    shared_cache = CompileCache()    # shares families across sessions
    query = make_query(query_text)

    def worker():
        session = RefinementSession(
            query, shared_pdb, strategy=strategy,
            compile_cache=shared_cache)
        return {eps: r.value for eps, r in session.sweep(SWEEP).items()}

    for values in run_threads([worker] * N_THREADS):
        assert values == reference  # == on floats: bit-identical


def test_concurrent_refines_one_shared_session():
    """N threads hammering ONE session: each refinement still equals
    the one-shot answer at its ε (the session lock serializes table
    growth; results must not depend on arrival order)."""
    epsilons = [0.2, 0.1, 0.05, 0.02, 0.01, 0.15, 0.08, 0.03]
    reference = {}
    for eps in epsilons:
        fresh = RefinementSession(
            make_query(UNSAFE), make_pdb(), strategy="bdd",
            compile_cache=CompileCache())
        reference[eps] = fresh.refine(eps).value

    session = RefinementSession(
        make_query(UNSAFE), make_pdb(), strategy="bdd",
        compile_cache=CompileCache())

    def worker(eps):
        def run():
            return eps, session.refine(eps).value
        return run

    for eps, value in run_threads([worker(e) for e in epsilons]):
        assert value == reference[eps]


def test_compile_cache_eviction_under_concurrency():
    """A tiny ``max_queries`` forces evictions while other threads hold
    and extend families — the original race (mutating the family map
    during iteration / evicting a family mid-compile) must be gone."""
    shared_pdb = make_pdb()
    cache = CompileCache(max_queries=2)
    queries = [
        UNSAFE,
        "EXISTS x. R(x) AND (R(2) OR R(3))",
        "EXISTS x. R(x) AND (R(3) OR R(4))",
        "EXISTS x. R(x) AND (R(4) OR R(5))",
    ]
    reference = {}
    for text in queries:
        fresh = RefinementSession(
            make_query(text), make_pdb(), strategy="bdd",
            compile_cache=CompileCache())
        reference[text] = {
            eps: r.value for eps, r in fresh.sweep(SWEEP[:3]).items()}

    def worker(text):
        def run():
            session = RefinementSession(
                make_query(text), shared_pdb, strategy="bdd",
                compile_cache=cache)
            return text, {
                eps: r.value for eps, r in session.sweep(SWEEP[:3]).items()}
        return run

    workers = [worker(t) for t in queries] * 2  # 8 threads, 4 queries
    for text, values in run_threads(workers):
        assert values == reference[text]
    assert len(cache._families) <= 2  # the eviction limit held


# ---------------------------------------------------------------- PrefixCache
@pytest.mark.parametrize("backend", BACKENDS)
def test_concurrent_prefix_cache_extension(backend):
    """N threads extending and reading one PrefixCache concurrently see
    exactly the serial prefix."""
    def pairs():
        return ((i, 0.5**i) for i in range(1, 10**6))

    def tail(n):
        return 0.5 ** n

    serial = PrefixCache(pairs(), tail)
    serial_items = serial.prefix(512)
    serial_mass = [serial.cumulative_mass(n) for n in range(0, 513, 64)]

    cache = PrefixCache(pairs(), tail)
    targets = [64, 128, 192, 256, 320, 384, 448, 512]

    def worker(n):
        def run():
            cache.extend_to(n)
            items = cache.prefix(n)
            mass = cache.cumulative_mass(n)
            return n, items, mass
        return run

    for n, items, mass in run_threads([worker(n) for n in targets]):
        assert items == serial_items[:n]
        assert mass == serial.cumulative_mass(n)
    assert [cache.cumulative_mass(n) for n in range(0, 513, 64)] \
        == serial_mass


@pytest.mark.parametrize("backend", BACKENDS)
def test_concurrent_truncation_search(backend):
    """The real consumer: concurrent ε-truncation searches over one
    shared distribution prefix cache pick the same n as serial."""
    from repro.core.approx import choose_truncation

    distribution = GeometricFactDistribution(space, first=0.3, ratio=0.9)
    epsilons = [0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001]
    reference = {}
    for eps in epsilons:
        fresh = GeometricFactDistribution(space, first=0.3, ratio=0.9)
        reference[eps] = choose_truncation(fresh, eps)

    def worker(eps):
        def run():
            return eps, choose_truncation(distribution, eps)
        return run

    for eps, n in run_threads([worker(e) for e in epsilons]):
        assert n == reference[eps]


# ------------------------------------------------------------------ FactIndex
def test_concurrent_families_share_one_table_index(monkeypatch):
    """Threads running distinct query families, lifted and compiled, on
    one fresh table race for its index: one index is built, every family
    reads it, and every result equals a serial run bit for bit."""
    wide = Schema.of(R=1, S=2, T=1)
    R, S, T = wide["R"], wide["S"], wide["T"]
    # Small enough for the compiled H0 diagram to stay tiny.
    marginals = {R(i): 0.1 + 0.05 * i for i in range(5)}
    marginals.update({S(i, j): 0.03 * (1 + (i + j) % 7)
                      for i in range(5) for j in range(5)})
    marginals.update({T(j): 0.2 + 0.03 * j for j in range(5)})
    texts = [
        ("EXISTS x, y. R(x) AND S(x, y)", "lifted"),
        ("EXISTS x. R(x) AND T(x)", "lifted"),
        ("EXISTS x, y. S(x, y) AND T(y)", "auto"),
        ("EXISTS x, y. R(x) AND S(x, y) AND T(y)", "bdd"),
    ] * 2
    serial = [
        query_probability(
            BooleanQuery(parse_formula(text, wide), wide),
            TupleIndependentTable(wide, marginals), strategy=strategy,
            compile_cache=CompileCache())
        for text, strategy in texts
    ]
    built = []
    original = FactIndex.__init__

    def counting(self, facts=()):
        built.append(self)
        original(self, facts)

    monkeypatch.setattr(FactIndex, "__init__", counting)
    table = TupleIndependentTable(wide, marginals)
    cache = CompileCache()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = run_threads([
            (lambda text=text, strategy=strategy: query_probability(
                BooleanQuery(parse_formula(text, wide), wide), table,
                strategy=strategy, compile_cache=cache))
            for text, strategy in texts
        ])
    finally:
        sys.setswitchinterval(interval)
    assert results == serial
    assert built == [table.index]


def test_concurrent_fact_index_extension_and_probes():
    """Interleaved delta extensions and probes on one FactIndex: no
    exceptions, and the final index equals the serially built one."""
    S = RelationSymbol("S", 2)
    batches = [
        [S(i, j) for j in range(16)] for i in range(N_THREADS)
    ]
    serial = FactIndex()
    for batch in batches:
        serial.extend(batch)

    index = FactIndex()
    index.extend(batches[0])  # seed so early probes have something

    def extender(batch):
        def run():
            index.extend(batch)
        return run

    def prober(i):
        def run():
            for _ in range(50):
                rows = index.probe_rows(S, {0: i})
                facts = list(index.probe(S, {0: i}))
                # Monotone visibility: whatever a probe sees is a
                # prefix-consistent subset of the final relation.
                assert len(facts) == len(rows) <= 16
        return run

    run_threads(
        [extender(b) for b in batches[1:]]
        + [prober(i) for i in range(N_THREADS)])

    assert len(index) == len(serial)
    assert set(index) == set(serial)
    for i in range(N_THREADS):
        assert sorted(map(str, index.probe(S, {0: i}))) \
            == sorted(map(str, serial.probe(S, {0: i})))
        assert list(index.probe(S, {0: i, 1: 3})) \
            == list(serial.probe(S, {0: i, 1: 3}))


def test_concurrent_signature_materialization():
    """Many threads probing distinct signatures at once: each lazy
    bucket table is built exactly once and completely."""
    S = RelationSymbol("S", 3)
    facts = [S(i, j, (i + j) % 5) for i in range(12) for j in range(12)]
    serial = FactIndex(facts)
    signatures = [{0: 3}, {1: 4}, {2: 2}, {0: 1, 1: 2},
                  {0: 2, 2: 0}, {1: 3, 2: 1}, {0: 5, 1: 5, 2: 0}, {2: 4}]
    reference = [sorted(map(str, serial.probe(S, b))) for b in signatures]

    index = FactIndex(facts)

    def worker(bound, expected):
        def run():
            for _ in range(20):
                assert sorted(map(str, index.probe(S, bound))) == expected
        return run

    run_threads([
        worker(bound, expected)
        for bound, expected in zip(signatures, reference)])
    assert index.signature_count() == serial.signature_count()


# ------------------------------------------------------------ shard pool
def test_concurrent_marginal_sweeps_one_shared_shard_pool(monkeypatch):
    """The serve pattern for compiled answer fan-out: N request threads,
    each with its own session, all fanning out on ONE shard pool (the
    pool serializes calls; the shipper tracks per-worker state under its
    own lock).  Every thread's pooled sweep must be bit-identical to the
    serial reference — answers, floats, and entry order.  The pool has
    no worker before the sweeps, so its workers fork from the request
    threads, each slot exactly once however the threads race.
    ``strategy="bdd"``: a safe query under ``"auto"`` would take the
    in-process grouped pass and never touch the pool."""
    from repro.logic import Query
    from repro.parallel import ShardPool

    query = Query(parse_formula("R(x)", schema), schema)
    sweep = [0.2, 0.1, 0.05]
    reference_session = RefinementSession(query, make_pdb(), strategy="bdd")
    reference = {
        eps: [
            (a, r.value)
            for a, r in reference_session.refine_marginals(eps).items()
        ]
        for eps in sweep
    }

    pool = ShardPool(2)
    starts = []
    start = pool._ctx.Process.start

    def counted_start(process):
        starts.append(process.name)
        return start(process)

    monkeypatch.setattr(pool._ctx.Process, "start", counted_start)
    try:
        assert pool.worker_pids() == []

        def worker():
            session = RefinementSession(query, make_pdb(), strategy="bdd")
            return {
                eps: [
                    (a, r.value)
                    for a, r in
                    session.refine_marginals(eps, pool=pool).items()
                ]
                for eps in sweep
            }

        for values in run_threads([worker] * N_THREADS):
            assert values == reference
        assert sorted(starts) == [
            f"repro-shard-{slot}" for slot in range(pool.workers)]
        assert len(pool.worker_pids()) == pool.workers
    finally:
        pool.close()


def test_concurrent_grouped_marginal_sweeps_share_one_family():
    """The grouped answer-marginal pass under sharing: N sessions of one
    safe free query share one CompileCache — one head-bound plan, one
    family fact index — while sweeping *different* truncations, so each
    grounding regrows or rebuilds the index the others are using.  The
    family lock spans grounding through execution, so every thread's
    answers are bit-identical to a serial sweep on a private cache,
    entry order included."""
    from repro.logic import Query

    query = Query(parse_formula("R(x)", schema), schema)
    sweeps = [[0.2, 0.05], [0.1, 0.02], [0.05, 0.01], [0.3, 0.1, 0.01]]

    def sweep_values(session, sweep):
        values = {}
        for eps in sweep:
            results = session.refine_marginals(eps)
            assert next(iter(results.values())).report.strategy == "lifted"
            values[eps] = [(a, r.value) for a, r in results.items()]
        return values

    references = [
        sweep_values(
            RefinementSession(query, make_pdb(), compile_cache=CompileCache()),
            sweep)
        for sweep in sweeps
    ]
    shared_cache = CompileCache()

    def worker(i):
        session = RefinementSession(
            query, make_pdb(), compile_cache=shared_cache)
        return sweep_values(session, sweeps[i])

    thunks = [
        (lambda i=i % len(sweeps): worker(i)) for i in range(N_THREADS)]
    for i, values in enumerate(run_threads(thunks)):
        assert values == references[i % len(sweeps)]


def test_grouped_pass_holds_the_family_lock_through_execution(monkeypatch):
    """Another session's grounding must not slip in between a grouped
    pass's grounding and its execution.  Indexing a bigger truncation
    there would give this table's marginal column 0.0 rows for facts
    it lacks, and the column only re-syncs *new* index rows, so those
    facts would stay 0.0 once the table grows to include them.  The
    interleaving is forced: the other session starts right before the
    first evaluator reads the column and gets half a second to run."""
    from repro.finite import lifted
    from repro.finite.evaluation import marginal_answer_probabilities
    from repro.logic import Query

    query = Query(parse_formula("R(x)", schema), schema)
    pdb = make_pdb()
    small, big = pdb.truncate(5), pdb.truncate(20)
    cache = CompileCache()
    original = lifted._BatchedEvaluator.__init__
    others = []

    def init(self, *args, **kwargs):
        if not others:
            other = threading.Thread(
                target=marginal_answer_probabilities, args=(query, big),
                kwargs={"compile_cache": cache})
            others.append(other)
            other.start()
            other.join(timeout=0.5)  # blocked on the family lock
        original(self, *args, **kwargs)

    monkeypatch.setattr(lifted._BatchedEvaluator, "__init__", init)
    marginal_answer_probabilities(query, small, compile_cache=cache)
    others[0].join(timeout=30)
    assert not others[0].is_alive()
    pdb.extend_truncation(small, 20)
    warm = marginal_answer_probabilities(query, small, compile_cache=cache)
    cold = marginal_answer_probabilities(
        query, pdb.truncate(20), compile_cache=CompileCache())
    assert list(warm.items()) == list(cold.items())


# ------------------------------------------------------------- BDD rescoring
def test_concurrent_rescore_linearization_cache():
    """Concurrent rescorings through one manager's linearization LRU
    (copy-on-read) agree with serial scoring."""
    from repro.finite.tuple_independent import TupleIndependentTable

    R = schema["R"]
    marginals = {R(i): 0.5 + 0.004 * i for i in range(32)}
    table = TupleIndependentTable(schema, marginals)
    query = make_query(UNSAFE)
    from repro.finite.evaluation import query_probability

    cache = CompileCache()
    reference = query_probability(
        query, table, strategy="bdd", compile_cache=cache)

    def worker():
        return query_probability(
            query, table, strategy="bdd", compile_cache=cache)

    for value in run_threads([worker] * N_THREADS):
        assert value == reference
