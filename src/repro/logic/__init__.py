"""First-order logic substrate: syntax, parsing, model checking, static
analysis, normal forms, queries/views, safe plans and lineage.

This implements FO[τ, U] of paper §2.1: relational vocabulary expanded by
constants from the universe, with active-domain semantics justified by
Fact 2.1 (an FO query with finite answer only produces tuples over
``adom(D) ∪ adom(φ)``).
"""

from repro.logic.syntax import (
    And,
    Atom,
    Equals,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    Term,
    Variable,
    Constant,
    FALSE,
    TRUE,
)
from repro.logic.parser import parse_formula
from repro.logic.semantics import evaluate, satisfies, answer_tuples
from repro.logic.analysis import (
    adom_of_formula,
    free_variables,
    quantifier_rank,
    constants_of,
)
from repro.logic.queries import BooleanQuery, Query, FOView, View
from repro.logic.hierarchy import is_hierarchical, safe_plan, SafePlan
from repro.logic.lineage import Lineage, lineage_of

__all__ = [
    "Formula",
    "Term",
    "Variable",
    "Constant",
    "Atom",
    "Equals",
    "Not",
    "And",
    "Or",
    "Implies",
    "Exists",
    "Forall",
    "TRUE",
    "FALSE",
    "parse_formula",
    "evaluate",
    "satisfies",
    "answer_tuples",
    "free_variables",
    "quantifier_rank",
    "adom_of_formula",
    "constants_of",
    "Query",
    "BooleanQuery",
    "View",
    "FOView",
    "is_hierarchical",
    "safe_plan",
    "SafePlan",
    "Lineage",
    "lineage_of",
]
