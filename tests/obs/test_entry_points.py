"""Every public evaluation entry point attaches an EvalReport, and the
report's telemetry agrees with direct inspection of the subsystems."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.approx import (
    approximate_query_probability,
    approximate_query_probability_bid,
    approximate_query_probability_completed,
)
from repro.core.bid import BlockFamily, CountableBIDPDB
from repro.core.completion import complete
from repro.core.fact_distribution import GeometricFactDistribution
from repro.core.tuple_independent import CountableTIPDB
from repro.finite.bid import Block
from repro.finite.compile_cache import CompileCache, query_probability_by_bdd_cached
from repro.finite.evaluation import (
    marginal_answer_probabilities,
    query_probability,
)
from repro.finite.karp_luby import query_probability_karp_luby
from repro.finite.montecarlo import query_probability_monte_carlo
from repro.finite.tuple_independent import TupleIndependentTable
from repro.logic.parser import parse_formula
from repro.logic.queries import BooleanQuery, Query
from repro.relational import Schema
from repro.universe import FactSpace, Naturals

schema = Schema.of(R=1, S=2)
R, S = schema["R"], schema["S"]


def _table():
    return TupleIndependentTable(schema, {
        R(1): 0.5, R(2): 0.25, S(1, 2): 0.8, S(2, 1): 0.4})


def _exists_r():
    return BooleanQuery(parse_formula("EXISTS x. R(x)", schema), schema)


def _open_pdb():
    space = FactSpace(Schema.of(R=1), Naturals())
    return CountableTIPDB(
        Schema.of(R=1),
        GeometricFactDistribution(space, first=0.25, ratio=0.5))


def _report_of(result):
    report = getattr(result, "report", None)
    assert isinstance(report, obs.EvalReport)
    obs.validate_report_dict(report.to_dict())
    return report


def test_query_probability_attaches_report_per_strategy():
    table, query = _table(), _exists_r()
    for strategy in ("auto", "worlds", "lineage", "lifted", "bdd"):
        value = query_probability(query, table, strategy=strategy)
        report = _report_of(value)
        assert report.strategy is not None
        assert "evaluate" in report.timings
    sampled = query_probability(query, table, strategy="sampled")
    assert _report_of(sampled).strategy == "sampled"
    assert _report_of(sampled).samples > 0


def test_lifted_evaluation_reports_its_ground_phase():
    """The lifted path times the growth of the family's fact index as
    ``ground``, so ``--stats`` splits ``evaluate`` into grounding and
    plan execution."""
    for strategy in ("lifted", "auto"):
        value = query_probability(
            _exists_r(), _table(), strategy=strategy,
            compile_cache=CompileCache())
        report = _report_of(value)
        assert report.strategy == "lifted"
        assert {"ground", "evaluate"} <= set(report.timings)
        assert report.timings["ground"] <= report.timings["evaluate"]


def test_marginal_answer_probabilities_attaches_report():
    answers = marginal_answer_probabilities(
        Query(parse_formula("R(x)", schema), schema), _table())
    report = _report_of(answers)
    assert report.counters.get("fanout.answers", 0) >= len(answers)
    assert "fanout" in report.timings


def test_approximate_query_probability_attaches_report():
    pdb = _open_pdb()
    q = BooleanQuery(
        parse_formula("EXISTS x. R(x)", pdb.schema), pdb.schema)
    result = approximate_query_probability(q, pdb, epsilon=0.01)
    report = _report_of(result)
    assert report.truncation == result.truncation
    assert report.alpha == result.alpha
    assert report.epsilon == 0.01
    assert {"choose_truncation", "truncate", "evaluate"} <= set(report.timings)


def test_approximate_query_probability_completed_attaches_report():
    pdb = _open_pdb()
    table = TupleIndependentTable(pdb.schema, {pdb.schema["R"](0): 0.5})
    completed = complete(table, pdb.distribution)
    q = BooleanQuery(
        parse_formula("EXISTS x. R(x)", pdb.schema), pdb.schema)
    result = approximate_query_probability_completed(q, completed, 0.05)
    report = _report_of(result)
    assert report.truncation == result.truncation


def test_approximate_query_probability_bid_attaches_report():
    bid_schema = Schema.of(T=2)
    T = bid_schema["T"]
    family = BlockFamily.geometric(
        make_block=lambda i: Block(
            f"k{i}", {T(i + 1, 1): 0.25 * 0.5**i, T(i + 1, 2): 0.25 * 0.5**i}),
        block_mass=lambda i: 0.5 * 0.5**i, first=0.5, ratio=0.5)
    pdb = CountableBIDPDB(bid_schema, family)
    q = BooleanQuery(
        parse_formula("EXISTS x, y. T(x, y)", bid_schema), bid_schema)
    result = approximate_query_probability_bid(q, pdb, 0.05)
    report = _report_of(result)
    assert report.truncation == result.truncation


def test_sampling_entry_points_attach_reports():
    table, query = _table(), _exists_r()
    mc = query_probability_monte_carlo(query, table, 500, seed=3)
    report = _report_of(mc)
    assert report.samples == 500
    assert report.sample_batches >= 1
    assert report.sampling_std_error is not None

    kl = query_probability_karp_luby(query, table, 500, seed=3)
    report = _report_of(kl)
    assert report.samples == 500
    assert "lineage" in report.timings
    assert report.sampling_std_error is not None


@settings(max_examples=25, deadline=None)
@given(
    probabilities=st.lists(
        st.floats(min_value=0.05, max_value=0.95), min_size=1, max_size=6),
    repeats=st.integers(min_value=1, max_value=4),
)
def test_report_cache_counters_match_compile_cache_stats(
        probabilities, repeats):
    """The obs-layer cache counters are exactly the deltas CompileCache
    itself records — no drift between the two bookkeeping systems."""
    table = TupleIndependentTable(
        schema, {R(i): p for i, p in enumerate(probabilities)})
    query = _exists_r()
    cache = CompileCache()
    with obs.trace() as t:
        for _ in range(repeats):
            query_probability_by_bdd_cached(query, table, cache)
    assert t.counters.get("cache.hit", 0) == cache.stats.hits
    assert t.counters.get("cache.miss", 0) == cache.stats.misses
    assert t.counters.get("cache.extension", 0) == cache.stats.extensions
    # One compile; the rest are hits.
    assert cache.stats.misses == 1
    assert cache.stats.hits == repeats - 1


def test_approximation_report_explains_its_certificate():
    """n, δ = tail(n), the stopping rule and the fold-error bound are in
    the report, its JSON and the human --stats text."""
    from repro.core.approx import STOPPING_RULE

    pdb = _open_pdb()
    q = BooleanQuery(
        parse_formula("EXISTS x. R(x)", pdb.schema), pdb.schema)
    result = approximate_query_probability(q, pdb, epsilon=0.01)
    report = _report_of(result)
    assert report.tail == result.tail <= 0.01
    assert report.stopping_rule == STOPPING_RULE
    assert report.fold_error == result.fold_error > 0.0
    payload = report.to_dict()
    obs.validate_report_dict(payload)
    assert payload["tail"] == result.tail
    text = report.render()
    assert f"truncation n    : {result.truncation}  (tail " in text
    assert "stopping rule   : union bound" in text
