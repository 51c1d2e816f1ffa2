"""FactIndex: signature probes, delta extension and set protocol."""

from repro.relational import FactIndex, RelationSymbol


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
