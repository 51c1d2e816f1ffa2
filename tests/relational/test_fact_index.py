"""FactIndex: signature probes, delta extension, set protocol, sort-key
columns."""

import pickle

from repro.relational import FactIndex, RelationSymbol
from repro.relational.facts import domain_sort_key


R = RelationSymbol("R", 1)
S = RelationSymbol("S", 2)


def make_index():
    return FactIndex([R(1), R(2), S(1, 2), S(1, 3), S(2, 3)])


class TestProbe:
    def test_unbound_probe_scans_relation(self):
        index = make_index()
        assert set(index.probe(S, {})) == {S(1, 2), S(1, 3), S(2, 3)}

    def test_single_column_signature(self):
        index = make_index()
        assert set(index.probe(S, {0: 1})) == {S(1, 2), S(1, 3)}
        assert set(index.probe(S, {1: 3})) == {S(1, 3), S(2, 3)}

    def test_full_signature_is_point_lookup(self):
        index = make_index()
        assert list(index.probe(S, {0: 2, 1: 3})) == [S(2, 3)]
        assert list(index.probe(S, {0: 2, 1: 9})) == []

    def test_unknown_relation_is_empty(self):
        index = make_index()
        T = RelationSymbol("T", 1)
        assert list(index.probe(T, {0: 1})) == []

    def test_signatures_materialize_lazily_and_are_reused(self):
        index = make_index()
        assert index.signature_count() == 0
        index.probe(S, {0: 1})
        index.probe(S, {0: 2})  # same signature, different key
        assert index.signature_count() == 1
        index.probe(S, {1: 3})
        assert index.signature_count() == 2


class TestExtend:
    def test_extend_counts_only_new_facts(self):
        index = make_index()
        assert index.extend([S(1, 2), S(3, 3)]) == 1
        assert index.extend([S(3, 3)]) == 0

    def test_extend_patches_built_signatures(self):
        index = make_index()
        index.probe(S, {0: 1})  # materialize the column-0 signature
        index.extend([S(1, 9), S(4, 4)])
        assert set(index.probe(S, {0: 1})) == {S(1, 2), S(1, 3), S(1, 9)}
        assert list(index.probe(S, {0: 4})) == [S(4, 4)]

    def test_extend_updates_active_domain(self):
        index = make_index()
        assert 9 not in index.values
        index.extend([S(1, 9)])
        assert 9 in index.values

    def test_extend_new_relation(self):
        index = make_index()
        T = RelationSymbol("T", 1)
        index.extend([T(5)])
        assert list(index.probe(T, {0: 5})) == [T(5)]


class TestSetProtocol:
    def test_contains_len_iter(self):
        index = make_index()
        assert S(1, 2) in index
        assert S(9, 9) not in index
        assert len(index) == 5
        assert set(index) == {R(1), R(2), S(1, 2), S(1, 3), S(2, 3)}

    def test_fact_set_tracks_extension(self):
        index = make_index()
        index.extend([R(7)])
        assert R(7) in index.fact_set
        assert len(index) == 6


class TestSortKeyColumn:
    #: Values whose keys a per-value memo could confuse: equal values
    #: that print differently (1, 1.0, True; 0.0, -0.0; (1,), (1.0,)),
    #: and repr order against numeric order (9, 10).
    VALUES = [9, 10, "9", "a", 1, 1.0, True, 0.0, -0.0, (1,), (1.0,),
              2.5, None, ("t", 1)]

    def expected(self, index, position):
        return [
            domain_sort_key(fact.args[position])
            if position < len(fact.args) else None
            for fact in (index.fact_at(row) for row in range(index.epoch))
        ]

    def make_index(self):
        return FactIndex([R(v) for v in self.VALUES[:5]]
                         + [S(v, i) for i, v in enumerate(self.VALUES[:5])])

    def test_column_matches_domain_sort_key_after_extends(self):
        index = self.make_index()
        assert index.sort_key_column(0) == self.expected(index, 0)
        assert index.sort_key_column(1) == self.expected(index, 1)
        for i, value in enumerate(self.VALUES):
            index.extend([R(value), S(value, 100 + i), S(1000 + i, value)])
        assert index.sort_key_column(0) == self.expected(index, 0)
        assert index.sort_key_column(1) == self.expected(index, 1)
        assert len(index.sort_key_column(1)) == len(index)

    def test_column_is_owned_by_the_index_and_grows_in_place(self):
        index = self.make_index()
        column = index.sort_key_column(0)
        index.extend([R(77)])
        assert index.sort_key_column(0) is column
        assert column[-1] == domain_sort_key(77)

    def test_pickle_drops_and_rebuilds_the_column(self):
        index = self.make_index()
        index.sort_key_column(0)
        assert "_sort_keys" not in index.__getstate__()
        copy = pickle.loads(pickle.dumps(index))
        copy.extend([S(-0.0, 1.0)])
        assert copy.sort_key_column(0) == self.expected(copy, 0)
        assert copy.sort_key_column(1) == self.expected(copy, 1)
