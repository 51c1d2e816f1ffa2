"""repro — Infinite open-world probabilistic databases.

A complete implementation of "Probabilistic Databases with an Infinite
Open-World Assumption" (Grohe & Lindner, PODS 2019): countable
tuple-independent and block-independent-disjoint PDB constructions
(Theorems 4.8 / 4.15), independent-fact completions giving open-world
semantics to finite PDBs (Theorem 5.5), and truncation-based additive
approximation of query probabilities (Proposition 6.1) — together with
the relational, logical, analytic and finite-PDB substrates they stand
on.

Quickstart::

    from repro import (
        Schema, TupleIndependentTable, GeometricFactDistribution,
        FactSpace, Naturals, complete, BooleanQuery, parse_formula,
    )

    schema = Schema.of(Likes=2)
    Likes = schema["Likes"]
    known = TupleIndependentTable(schema, {Likes(1, 2): 0.9})
    open_world = complete(
        known,
        GeometricFactDistribution(
            FactSpace(schema, Naturals()), first=0.25, ratio=0.5),
    )
    q = BooleanQuery(parse_formula("EXISTS x, y. Likes(x, y)", schema), schema)
    print(open_world.approximate_query_probability(q, epsilon=0.01).value)
"""

from repro.errors import (
    ApproximationError,
    CompletionError,
    ConvergenceError,
    EvaluationError,
    IndependenceError,
    ParseError,
    ProbabilityError,
    ReproError,
    SchemaError,
    UniverseError,
    UnsafeQueryError,
)
from repro.relational import (
    Fact,
    Instance,
    RelationSymbol,
    Schema,
    parse_fact,
)
from repro.logic import (
    BooleanQuery,
    FOView,
    Query,
    View,
    parse_formula,
)
from repro.universe import (
    FactSpace,
    FiniteUniverse,
    IntegerRange,
    Naturals,
    ProductUniverse,
    StringUniverse,
    TaggedUnion,
    Universe,
)
from repro.finite import (
    Block,
    BlockIndependentTable,
    FinitePDB,
    MonteCarloEstimate,
    TupleIndependentTable,
    marginal_answer_probabilities,
    query_probability,
    query_probability_monte_carlo,
)
from repro.core import (
    ApproximationResult,
    BlockFamily,
    RefinementSession,
    truncation_profile,
    CompletedPDB,
    CountableBIDPDB,
    CountablePDB,
    CountableTIPDB,
    DivergentFactDistribution,
    FactDistribution,
    FilteredFactDistribution,
    GeometricFactDistribution,
    TableFactDistribution,
    UnionFactDistribution,
    WordLengthFactDistribution,
    ZetaFactDistribution,
    approximate_answer_marginals,
    approximate_query_probability,
    choose_truncation,
    closed_world_completion,
    complete,
    open_world,
    example_3_3_pdb,
    extend_to_closure,
    verify_completion_condition,
)
from repro.openworld import CredalInterval, OpenPDB, credal_query_probability
from repro.sampling import SampleStream

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError",
    "SchemaError",
    "UniverseError",
    "ParseError",
    "EvaluationError",
    "ConvergenceError",
    "ProbabilityError",
    "IndependenceError",
    "UnsafeQueryError",
    "ApproximationError",
    "CompletionError",
    # relational
    "RelationSymbol",
    "Schema",
    "Fact",
    "parse_fact",
    "Instance",
    # logic
    "parse_formula",
    "Query",
    "BooleanQuery",
    "View",
    "FOView",
    # universes
    "Universe",
    "Naturals",
    "IntegerRange",
    "StringUniverse",
    "FiniteUniverse",
    "TaggedUnion",
    "ProductUniverse",
    "FactSpace",
    # finite engine
    "FinitePDB",
    "TupleIndependentTable",
    "BlockIndependentTable",
    "Block",
    "query_probability",
    "marginal_answer_probabilities",
    "query_probability_monte_carlo",
    "MonteCarloEstimate",
    # sampling
    "SampleStream",
    # core (the paper)
    "FactDistribution",
    "GeometricFactDistribution",
    "ZetaFactDistribution",
    "TableFactDistribution",
    "FilteredFactDistribution",
    "UnionFactDistribution",
    "WordLengthFactDistribution",
    "DivergentFactDistribution",
    "CountablePDB",
    "CountableTIPDB",
    "CountableBIDPDB",
    "BlockFamily",
    "CompletedPDB",
    "complete",
    "closed_world_completion",
    "open_world",
    "extend_to_closure",
    "verify_completion_condition",
    "ApproximationResult",
    "approximate_query_probability",
    "approximate_answer_marginals",
    "choose_truncation",
    "truncation_profile",
    "RefinementSession",
    "example_3_3_pdb",
    # open-world baseline
    "OpenPDB",
    "CredalInterval",
    "credal_query_probability",
    "__version__",
]
