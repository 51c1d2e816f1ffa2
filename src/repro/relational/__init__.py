"""Relational database substrate: schemas, facts, instances, and the
columnar stores and fact index the table engines read.

This package implements the classical relational model of Section 2.1 of
the paper: a schema ``τ`` of relation symbols with arities, facts
``R(a₁, …, a_k)`` over a universe ``U``, and database instances as finite
sets of facts (``D[τ, U]`` = finite subsets of ``F[τ, U]``).
"""

from repro.relational.schema import RelationSymbol, Schema
from repro.relational.facts import Fact, domain_sort_key, parse_fact
from repro.relational.columns import (
    ColumnStore,
    FloatColumn,
    IntColumn,
)
from repro.relational.index import FactIndex
from repro.relational.instance import Instance

__all__ = [
    "RelationSymbol",
    "Schema",
    "Fact",
    "FactIndex",
    "ColumnStore",
    "FloatColumn",
    "IntColumn",
    "domain_sort_key",
    "parse_fact",
    "Instance",
]
