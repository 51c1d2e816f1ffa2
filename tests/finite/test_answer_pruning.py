"""Join-derived answer support, fan-out pruning, delta grounding, and
the distinct-constant safety probe."""

from unittest import mock

import pytest

from repro import obs
from repro.finite.compile_cache import SharedGrounding
from repro.finite.evaluation import (
    _grounding_is_safe,
    marginal_answer_probabilities,
)
from repro.finite.tuple_independent import TupleIndependentTable
from repro.logic.parser import parse_formula
from repro.logic.queries import Query
from repro.logic.syntax import Variable
from repro.relational import Schema

schema = Schema.of(R=1, S=2, T=1)
R, S, T = schema["R"], schema["S"], schema["T"]

x, y = Variable("x"), Variable("y")


def make_table():
    return TupleIndependentTable(schema, {
        R(1): 0.5, R(2): 0.4, R(5): 0.7,
        S(1, 2): 0.3, S(2, 3): 0.2, S(4, 4): 0.9,
        T(2): 0.6, T(3): 0.8,
    })


class TestGroundingSafetyProbe:
    def test_probe_binding_is_pairwise_distinct(self):
        """A repeated representative constant can collapse distinct
        answer variables and misjudge safety; the probe must bind every
        variable to a different value even with one candidate."""
        query = Query(
            parse_formula("EXISTS z. S(x, z) AND S(y, z)", schema),
            schema, name="q")
        captured = {}

        def spy(formula, binding):
            captured.update(binding)
            from repro.logic.normalform import substitute
            return substitute(formula, binding)

        with mock.patch("repro.finite.evaluation.substitute", side_effect=spy):
            _grounding_is_safe(query, [7])
        values = [captured[v] for v in query.variables]
        assert len(values) == 2
        assert len(set(values)) == len(values)

    def test_verdicts_for_known_queries(self):
        safe = Query(
            parse_formula("EXISTS z. R(x) AND S(x, z)", schema),
            schema, name="safe")
        assert _grounding_is_safe(safe, [7]) is True
        # Distinct probe constants shatter S into two symbols, making z
        # a separator: the grounded sentence is genuinely safe.
        shattered = Query(
            parse_formula("EXISTS z. S(x, z) AND S(y, z)", schema),
            schema, name="shattered")
        assert _grounding_is_safe(shattered, [7]) is True
        assert _grounding_is_safe(shattered, [7, 8]) is True
        # A constant-pinned copy of S alongside an unpinned one cannot
        # be shattered apart: no plan for any grounding.
        unsafe = Query(
            parse_formula(
                "EXISTS y, z. R(y) AND S(y, z) AND S(x, z)", schema),
            schema, name="unsafe")
        assert _grounding_is_safe(unsafe, [7]) is False
        assert _grounding_is_safe(unsafe, [7, 8]) is False

    def test_no_candidates_is_unsafe(self):
        query = Query(parse_formula("R(x)", schema), schema, name="q")
        assert _grounding_is_safe(query, []) is False


class TestAnswerPruning:
    @pytest.mark.parametrize("strategy", ["bdd", "auto"])
    def test_pruned_fanout_matches_full_product(self, strategy):
        table = make_table()
        query = Query(
            parse_formula("EXISTS z. R(x) AND S(x, z) AND S(z, y)", schema),
            schema, name="q2")
        pruned = marginal_answer_probabilities(query, table, strategy=strategy)
        with mock.patch.object(
            SharedGrounding, "answer_support", return_value=None,
        ):
            full = marginal_answer_probabilities(
                query, table, strategy=strategy)
        assert dict(pruned) == dict(full)
        assert list(pruned) == list(full)  # identical enumeration order

    def test_pruned_answers_counter(self):
        table = make_table()
        query = Query(
            parse_formula("EXISTS z. R(x) AND S(x, z) AND S(z, y)", schema),
            schema, name="q2")
        with obs.trace() as t:
            marginal_answer_probabilities(query, table, strategy="bdd")
        assert t.counters.get("grounding.pruned_answers", 0) > 0

    def test_pool_path_matches_serial(self):
        table = make_table()
        query = Query(
            parse_formula("EXISTS z. R(x) AND S(x, z) AND S(z, y)", schema),
            schema, name="q2")
        serial = marginal_answer_probabilities(query, table, strategy="bdd")
        pooled = marginal_answer_probabilities(
            query, table, strategy="bdd", workers=2)
        assert dict(serial) == dict(pooled)
        assert list(serial) == list(pooled)


class TestSharedGroundingDelta:
    def test_extended_reuses_and_delta_extends_index(self):
        table = make_table()
        formula = parse_formula("EXISTS z. R(x) AND S(x, z)", schema)
        grounding = SharedGrounding(formula, table, base_domain={1, 2, 3})
        index = grounding.index
        with obs.trace() as t:
            table.extend({S(5, 1): 0.1, R(6): 0.2})
            extended = grounding.extended(table, {1, 2, 3, 5, 6})
        assert extended.index is index is table.index
        assert t.counters["grounding.delta_facts"] == 2
        assert S(5, 1) in extended.index
        assert extended.manager is grounding.manager
        assert extended.manager.order == list(table.possible_facts())

    def test_shrunk_truncation_rebuilds(self):
        table = make_table()
        formula = parse_formula("EXISTS z. R(x) AND S(x, z)", schema)
        grounding = SharedGrounding(formula, table, base_domain={1, 2, 3})
        shrunk = TupleIndependentTable(schema, {R(1): 0.5})
        extended = grounding.extended(shrunk, {1})
        assert extended.index is not grounding.index
        assert len(extended.index) == 1

    def test_answer_support_superset_of_nonzero_answers(self):
        table = make_table()
        formula = parse_formula("EXISTS z. R(x) AND S(x, z)", schema)
        grounding = SharedGrounding(formula, table, base_domain={1, 2, 3, 4, 5})
        support = grounding.answer_support((x,), [1, 2, 3, 4, 5])
        assert support is not None
        for answer in support:
            assert len(answer) == 1
        nonzero = {
            answer
            for answer in [(v,) for v in (1, 2, 3, 4, 5)]
            if grounding.answer_probability((x,), answer) > 0
        }
        assert nonzero <= set(support)

    def test_answer_support_none_outside_fragment(self):
        table = make_table()
        formula = parse_formula("FORALL z. R(x) OR T(z)", schema)
        grounding = SharedGrounding(formula, table, base_domain={1, 2})
        assert grounding.answer_support((x,), [1, 2]) is None
