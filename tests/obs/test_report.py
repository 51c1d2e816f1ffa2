"""EvalReport: trace distillation, schema, result attachment."""

import json
import pickle

import pytest

from repro import obs
from repro.core.approx import ApproximationResult
from repro.finite.montecarlo import MonteCarloEstimate


def _sample_trace():
    with obs.trace() as t:
        obs.note(strategy="bdd")
        obs.incr("cache.hit", 3)
        obs.incr("cache.miss")
        obs.incr("cache.extension", 2)
        obs.incr("sampling.samples", 1000)
        obs.incr("sampling.batches", 2)
        obs.gauge("truncation.n", 12)
        obs.gauge("truncation.alpha", 0.015)
        obs.gauge("truncation.epsilon", 0.01)
        obs.gauge("bdd.nodes", 37)
        obs.gauge_max("sampling.half_width", 0.02)
        obs.gauge_max("sampling.std_error", 0.0102)
        obs.event("fanout.pool", workers=2, shards=2)
        with obs.phase("evaluate"):
            pass
    return t


def test_from_trace_distills_every_field():
    report = obs.EvalReport.from_trace(_sample_trace())
    assert report.strategy == "bdd"
    assert report.truncation == 12
    assert report.alpha == 0.015
    assert report.epsilon == 0.01
    assert report.cache_hits == 3
    assert report.cache_misses == 1
    assert report.cache_extensions == 2
    assert report.samples == 1000
    assert report.sample_batches == 2
    assert report.sampling_error == 0.02
    assert report.sampling_std_error == 0.0102
    assert report.bdd_nodes == 37
    assert "evaluate" in report.timings
    assert report.events == [{"name": "fanout.pool", "workers": 2, "shards": 2}]


def test_from_trace_overrides_win():
    report = obs.EvalReport.from_trace(_sample_trace(), epsilon=0.5)
    assert report.epsilon == 0.5


def test_to_dict_round_trips_through_json_and_validates():
    report = obs.EvalReport.from_trace(_sample_trace())
    payload = json.loads(report.to_json(indent=2))
    obs.validate_report_dict(payload)
    assert payload["cache"] == {"hits": 3, "misses": 1, "extensions": 2}


def test_empty_report_validates():
    obs.validate_report_dict(obs.EvalReport().to_dict())


@pytest.mark.parametrize("corrupt", [
    lambda d: d.pop("strategy"),
    lambda d: d.update(strategy=7),
    lambda d: d.update(unexpected=1),
    lambda d: d.update(samples=True),        # bools rejected for ints
    lambda d: d.update(samples=3.5),
    lambda d: d["cache"].pop("hits"),
    lambda d: d["cache"].update(hits=True),
    lambda d: d["timings_s"].update(evaluate="fast"),
])
def test_validate_rejects_corrupted_payloads(corrupt):
    payload = obs.EvalReport.from_trace(_sample_trace()).to_dict()
    corrupt(payload)
    with pytest.raises(ValueError):
        obs.validate_report_dict(payload)


def test_render_mentions_the_load_bearing_numbers():
    text = obs.EvalReport.from_trace(_sample_trace()).render()
    assert "strategy" in text and "bdd" in text
    assert "truncation n    : 12" in text
    assert "3 hits" in text
    assert "t[evaluate" in text
    assert "fanout.pool" in text


def test_attach_report_on_float_preserves_float_semantics():
    p = obs.attach_report(0.75, obs.EvalReport(strategy="lifted"))
    assert p == 0.75
    assert p + 0.25 == 1.0
    assert isinstance(p, float)
    assert p.report.strategy == "lifted"
    assert hash(p) == hash(0.75)


def test_attach_report_on_dict_preserves_dict_semantics():
    answers = obs.attach_report({(1,): 0.5}, obs.EvalReport())
    assert answers == {(1,): 0.5}
    assert isinstance(answers, dict)
    assert list(answers) == [(1,)]
    assert answers.report is not None


def test_attach_report_on_namedtuple_preserves_tuple_semantics():
    estimate = MonteCarloEstimate(0.4, 1000, 0.05)
    traced = obs.attach_report(estimate, obs.EvalReport(strategy="mc"))
    assert traced == estimate                       # tuple equality
    value, samples, half_width = traced             # unpacking
    assert (value, samples) == (0.4, 1000)
    assert traced.estimate == 0.4                   # field access
    assert traced.report.strategy == "mc"
    # The shadow class is cached, not re-created per call.
    again = obs.attach_report(MonteCarloEstimate(0.1, 10, 0.01),
                              obs.EvalReport())
    assert type(again) is type(traced)


def test_attached_namedtuple_still_pickles_as_its_values():
    result = ApproximationResult(0.5, 0.01, 8, 0.012, 0.0)
    traced = obs.attach_report(result, obs.EvalReport())
    assert tuple(pickle.loads(pickle.dumps(tuple(traced)))) == tuple(result)


def test_report_carries_tail_rule_and_fold_error():
    with obs.trace() as t:
        obs.gauge("truncation.n", 12)
        obs.gauge("truncation.tail", 0.0075)
        obs.gauge("fold.error", 1e-15)
        obs.note(stopping_rule="union bound: smallest n with tail(n) <= epsilon")
    report = obs.EvalReport.from_trace(t)
    assert report.tail == 0.0075
    assert report.fold_error == 1e-15
    assert report.stopping_rule.startswith("union bound")
    payload = report.to_dict()
    obs.validate_report_dict(payload)
    payload["stopping_rule"] = 3
    with pytest.raises(ValueError):
        obs.validate_report_dict(payload)
    assert "tail 0.0075" in report.render()
