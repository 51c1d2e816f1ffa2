"""Per-relation hash indexes over a set of possible facts.

A :class:`FactIndex` is the access-path layer of the set-at-a-time
grounding engine (:mod:`repro.logic.ground`): it groups a truncated
table's possible facts by relation symbol and builds, on demand, hash
indexes keyed by *bound-column signatures* — the tuple of argument
positions a probe fixes to constants.  An atom ``S(x, 3)`` probes the
signature ``(1,)`` of ``S`` with key ``(3,)``; a join that has already
bound ``x`` probes ``(0, 1)`` with ``(x_value, 3)``.  Each signature
index is built once by a single pass over the relation's facts and then
answers every probe in O(1) expected time.

Storage is columnar (see :mod:`repro.relational.columns`): every fact
is *interned* to a dense row id on first sight, and the relation lists
and signature buckets hold row ids, not fact objects.  :meth:`probe`
wraps the matching id range in a lazy fact view (so existing consumers
keep iterating facts), while :meth:`probe_rows` hands the raw ids to
vectorized consumers — the lifted evaluator gathers marginal slices by
id instead of re-grounding fact objects per candidate.

Indexes support *delta updates*: :meth:`FactIndex.extend` adds new
possible facts in place and patches every already-built signature index,
so a grown truncation Ω_m ⊇ Ω_n re-grounds against the same index
without rebuilding — the grounding-side analogue of the compile cache
extending one BDD manager across truncations.  Each TI and BID table
owns one index over its facts, in its own order, and its ``extend``
passes the index exactly the facts it added (see
:attr:`repro.finite.tuple_independent.TupleIndependentTable.index`).

The index also implements the read-only set protocol over its facts
(``in``, ``len``, iteration), so it can stand in for the
``possible_facts`` set of :func:`repro.logic.lineage.lineage_of` and its
expansion fallback.
"""

from __future__ import annotations

import bisect
import threading
from itertools import filterfalse
from operator import attrgetter, itemgetter
from typing import (
    Dict,
    Iterable,
    Iterator,
    KeysView,
    List,
    Mapping,
    Sequence,
    Tuple,
)

from repro.relational.facts import Fact, Value
from repro.relational.schema import RelationSymbol

#: A bound-column signature: the sorted argument positions a probe fixes.
Signature = Tuple[int, ...]

_EMPTY_ROWS: Tuple[int, ...] = ()

#: Per-index probe-view cache bound: beyond this many distinct buckets
#: the cache is cleared wholesale (the working set of any one query's
#: probes is far smaller; clearing only costs re-wrapping).
_VIEW_CACHE_LIMIT = 2048


_RELATION = attrgetter("relation")
_ARGS = attrgetter("args")


def _append_rows(table: Dict, keys: Iterable, rows: Iterable[int]) -> None:
    """Append each row to the bucket of its key, ``keys`` and ``rows``
    taken in step; a new key gets a new bucket."""
    # A plain loop on purpose: building the buckets first and appending
    # through ``map(list.append, ...)`` measured no faster on signature
    # keys and slower on the dozen facts of a small tightening step.
    for key, row in zip(keys, rows):
        table.setdefault(key, []).append(row)


class _RowFacts(Sequence):
    """A lazy fact view over a row-id range — compares, slices and
    iterates like the list of facts it denotes, without materializing
    one per probe."""

    __slots__ = ("_facts", "_rows")

    def __init__(self, facts: List[Fact], rows: Sequence[int]):
        self._facts = facts
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return list(map(self._facts.__getitem__, self._rows[item]))
        return self._facts[self._rows[item]]

    def __iter__(self) -> Iterator[Fact]:
        facts = self._facts
        return iter([facts[row] for row in self._rows])

    def __eq__(self, other) -> bool:
        if isinstance(other, _RowFacts):
            other = list(other)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


class FactIndex:
    """Hash indexes over possible facts, per relation and bound-column
    signature.

    >>> from repro.relational import RelationSymbol
    >>> S = RelationSymbol("S", 2)
    >>> index = FactIndex([S(1, 2), S(1, 3), S(2, 3)])
    >>> sorted(str(f) for f in index.probe(S, {0: 1}))
    ['S(1, 2)', 'S(1, 3)']
    >>> list(index.probe(S, {0: 1, 1: 3}))
    [Fact(S(1, 3))]
    >>> index.extend([S(1, 4)])
    1
    >>> sorted(str(f) for f in index.probe(S, {0: 1}))
    ['S(1, 2)', 'S(1, 3)', 'S(1, 4)']
    >>> S(1, 2) in index, len(index)
    (True, 4)
    >>> list(index.probe_rows(S, {0: 1}))     # dense interned row ids
    [0, 1, 3]
    """

    __slots__ = (
        "_rows",
        "_row_facts",
        "_by_relation",
        "_signatures",
        "_values",
        "_marginals",
        "_view_cache",
        "_lock",
    )

    def __init__(self, facts: Iterable[Fact] = ()):
        #: Serializes delta-patching, lazy signature materialization and
        #: marginal-column sync; probes on already-built buckets stay
        #: lock-free (buckets are append-only row-id lists).
        self._lock = threading.RLock()
        #: fact → dense row id, in interning order.
        self._rows: Dict[Fact, int] = {}
        #: row id → fact (the fact column).
        self._row_facts: List[Fact] = []
        self._by_relation: Dict[RelationSymbol, List[int]] = {}
        self._signatures: Dict[
            Tuple[RelationSymbol, Signature], Dict[Tuple[Value, ...], List[int]]
        ] = {}
        self._values: set = set()
        #: Lazily attached marginal column aligned to row ids (see
        #: :meth:`marginal_column`).
        self._marginals = None
        #: bucket id → (bucket, view): repeated probes of the same
        #: bucket reuse one lazy fact view instead of allocating a
        #: fresh ``_RowFacts`` per probe.  The strong bucket reference
        #: keeps the id stable; buckets are append-only, and the views
        #: are lazy, so cached views track extensions for free.
        self._view_cache: Dict[int, Tuple[Sequence[int], "_RowFacts"]] = {}
        self.extend(facts)

    # ------------------------------------------------------------- mutation
    def extend(self, facts: Iterable[Fact]) -> int:
        """Add possible facts in place; facts already indexed are
        skipped.  Every signature index built so far is patched with the
        genuinely new facts (a delta update, no rebuild).  Returns the
        number of new facts added.
        """
        with self._lock:
            rows = self._rows
            row_facts = self._row_facts
            by_relation = self._by_relation
            new = dict.fromkeys(facts)
            if rows:
                new = list(filterfalse(rows.__contains__, new))
            if not new:
                return 0
            start = len(row_facts)
            added = range(start, start + len(new))
            rows.update(zip(new, added))
            row_facts.extend(new)
            _append_rows(by_relation, map(_RELATION, new), added)
            self._values.update(*map(_ARGS, new))
            # Relation row lists are ascending, so each one's new rows
            # are the tail a bisection at ``start`` finds.
            for (relation, positions), table in self._signatures.items():
                relation_rows = by_relation[relation]
                tail = relation_rows[bisect.bisect_left(relation_rows, start):]
                _append_rows(
                    table, self._signature_keys(positions, tail), tail)
            return len(added)

    # -------------------------------------------------------------- queries
    def probe(
        self, relation: RelationSymbol, bound: Mapping[int, Value]
    ) -> Sequence[Fact]:
        """All possible facts of ``relation`` matching the bound columns.

        ``bound`` maps argument positions to required values; an empty
        mapping scans the relation.  The signature index for the bound
        position set is built on first use and reused (and delta-updated
        by :meth:`extend`) afterwards.
        """
        return self._view(self.probe_rows(relation, bound))

    def _view(self, rows: Sequence[int]) -> "_RowFacts":
        """The cached lazy fact view of one row-id bucket."""
        cache = self._view_cache
        entry = cache.get(id(rows))
        if entry is not None and entry[0] is rows:
            return entry[1]
        view = _RowFacts(self._row_facts, rows)
        if len(cache) >= _VIEW_CACHE_LIMIT:
            cache.clear()
        cache[id(rows)] = (rows, view)
        return view

    def probe_rows(
        self, relation: RelationSymbol, bound: Mapping[int, Value]
    ) -> Sequence[int]:
        """Row ids of the facts :meth:`probe` would return — the
        columnar form: callers gather marginal slices by id instead of
        touching fact objects."""
        rows = self._by_relation.get(relation)
        if rows is None:
            return _EMPTY_ROWS
        if not bound:
            return rows
        positions = tuple(sorted(bound))
        table = self.signature_table(relation, positions)
        return table.get(tuple(bound[i] for i in positions), _EMPTY_ROWS)

    def signature_table(
        self, relation: RelationSymbol, positions: Signature
    ) -> Mapping[Tuple[Value, ...], List[int]]:
        """The whole bucket table of one bound-column signature — key
        tuple (values at ``positions``, which must be in ascending
        order) → row-id bucket.  Built on first use, then delta-patched
        by :meth:`extend`; the batched plan executor reads it directly
        to resolve many probe keys in one pass.  An empty ``positions``
        yields the single-bucket table of the whole relation.
        """
        rows = self._by_relation.get(relation)
        if rows is None:
            return {}
        positions = tuple(positions)
        if not positions:
            # Not registered in ``_signatures``: the bucket *is* the
            # live relation list, so it tracks extensions already.
            return {(): rows}
        table = self._signatures.get((relation, positions))
        if table is None:
            # Double-checked build under the lock: a concurrent extend
            # (also locked) cannot interleave with the single pass, and
            # the table is published only once fully built.
            with self._lock:
                table = self._signatures.get((relation, positions))
                if table is None:
                    table = {}
                    _append_rows(
                        table, self._signature_keys(positions, rows), rows)
                    self._signatures[(relation, positions)] = table
        return table

    def _signature_keys(
        self, positions: Signature, rows: Sequence[int]
    ) -> Iterator[Tuple[Value, ...]]:
        """The signature key of each row: its fact's values at
        ``positions`` (ascending, not empty), as a tuple."""
        args = map(_ARGS, map(self._row_facts.__getitem__, rows))
        if len(positions) == 1:
            return zip(map(itemgetter(positions[0]), args))
        return map(itemgetter(*positions), args)

    def relation_facts(self, relation: RelationSymbol) -> Sequence[Fact]:
        """All possible facts of one relation (insertion order)."""
        rows = self._by_relation.get(relation)
        if rows is None:
            return ()
        return self._view(rows)

    def fact_at(self, row: int) -> Fact:
        """The interned fact of one row id."""
        return self._row_facts[row]

    @property
    def epoch(self) -> int:
        """The interned-fact count — a monotone truncation epoch.  Two
        reads with equal epochs saw the identical fact set (extension is
        append-only), which is what lets per-plan-node caches decide
        delta-only re-execution."""
        return len(self._row_facts)

    @property
    def fact_set(self) -> KeysView:
        """The indexed facts as a set-like view (do not mutate)."""
        return self._rows.keys()

    @property
    def values(self) -> set:
        """The active domain: every value occurring in an indexed fact
        (do not mutate)."""
        return self._values

    def signature_count(self) -> int:
        """How many signature indexes have been materialized."""
        return len(self._signatures)

    # ------------------------------------------------------ marginal column
    def marginal_column(self, table):
        """A marginal column aligned to this index's row ids, gathered
        from ``table`` (anything with a ``marginal(fact)`` method) and
        cached.  ``table`` must be the table whose facts the index
        holds: the column keeps no reference to it, and each call
        gathers only the rows added since the last one.

        Valid across delta extensions because truncation growth never
        changes the marginal of an existing fact — the same invariant
        the compile cache's warm rescoring relies on.
        """
        with self._lock:
            if self._marginals is None:
                from repro.relational.columns import FloatColumn

                self._marginals = FloatColumn("auto")
            column = self._marginals
            if len(column) < len(self._row_facts):
                column.extend(
                    map(table.marginal, self._row_facts[len(column):]))
            return column

    # --------------------------------------------------- read-only set protocol
    def __contains__(self, fact: object) -> bool:
        return fact in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._rows)

    def __repr__(self) -> str:
        return (
            f"FactIndex(facts={len(self._rows)}, "
            f"relations={len(self._by_relation)}, "
            f"signatures={len(self._signatures)})"
        )
