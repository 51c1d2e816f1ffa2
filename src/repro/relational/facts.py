"""Facts: ground atoms ``R(a₁, …, a_k)``.

A fact is the basic event unit of a probabilistic database — the paper's
``f ∈ F[τ, U]``.  Facts are immutable, hashable value objects with a
total order (relation name first, then arguments by their canonical sort
key) so that sets of facts have a deterministic iteration order.
"""

from __future__ import annotations

import re
from typing import Iterable, Tuple, Union

from repro.errors import ParseError, SchemaError
from repro.relational.schema import RelationSymbol, Schema

#: Values allowed as fact arguments.  The library is agnostic beyond
#: hashability; sort keys make heterogeneous argument tuples orderable.
Value = Union[int, float, str, tuple]


def domain_sort_key(value: object) -> Tuple[str, str]:
    """Shared total-order key for *domain and candidate* values.

    Every place that sorts a quantifier domain or a candidate-answer
    list uses this one key.  Sorting mixed-type values by ``repr`` alone
    interleaves ints and strings by their repr text (``10`` before
    ``2``, ``'a'`` between them); keying by ``(type name, repr)`` keeps
    each type contiguous and totally ordered without ever comparing
    unlike types.

    >>> sorted([10, "a", 2], key=domain_sort_key)
    [10, 2, 'a']
    """
    return (type(value).__name__, repr(value))


def _sort_key(value: object) -> tuple:
    """Total order over heterogeneous argument values.

    Orders by type name first, then value, so ints, strings and floats
    never raise TypeError when compared.
    """
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, int):
        return ("int", value)
    if isinstance(value, float):
        return ("float", value)
    if isinstance(value, str):
        return ("str", value)
    if isinstance(value, tuple):
        return ("tuple", tuple(_sort_key(v) for v in value))
    return (type(value).__name__, repr(value))


class Fact:
    """A ground atom ``R(a₁, …, a_k)``.

    >>> R = RelationSymbol("R", 2)
    >>> f = Fact(R, (1, "x"))
    >>> f.relation.name, f.args
    ('R', (1, 'x'))
    >>> f == Fact(RelationSymbol("R", 2), (1, "x"))
    True
    """

    __slots__ = ("relation", "args", "_hash")

    def __init__(self, relation: RelationSymbol, args: Iterable[Value]):
        args = tuple(args)
        if len(args) != relation.arity:
            raise SchemaError(
                f"relation {relation} expects {relation.arity} arguments, "
                f"got {len(args)}: {args!r}"
            )
        self.relation = relation
        self.args: Tuple[Value, ...] = args
        self._hash = hash((relation, args))

    def __reduce__(self):
        # Rebuild through the constructor, which hashes afresh: the
        # cached hash depends on the process's string-hash salt.
        return Fact, (self.relation, self.args)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fact):
            return NotImplemented
        return self.relation == other.relation and self.args == other.args

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Fact") -> bool:
        if not isinstance(other, Fact):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def sort_key(self) -> tuple:
        """Deterministic total-order key over all facts."""
        return (
            self.relation.name,
            self.relation.arity,
            tuple(_sort_key(a) for a in self.args),
        )

    def __repr__(self) -> str:
        return f"Fact({self})"

    def __str__(self) -> str:
        inner = ", ".join(_format_value(a) for a in self.args)
        return f"{self.relation.name}({inner})"

    @property
    def active_values(self) -> Tuple[Value, ...]:
        """The universe elements occurring in this fact (its adom)."""
        return self.args


def _format_value(value: Value) -> str:
    if isinstance(value, str):
        return repr(value)
    return str(value)


_FACT_PATTERN = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(\s*(.*?)\s*\)\s*$", re.DOTALL
)


def parse_fact(text: str, schema: Schema) -> Fact:
    """Parse ``"R(1, 'abc', 2.5)"`` into a :class:`Fact` against a schema.

    Arguments are parsed as Python literals for ints, floats and quoted
    strings; bare identifiers are taken as strings.

    >>> schema = Schema.of(R=2)
    >>> parse_fact("R(1, abc)", schema)
    Fact(R(1, 'abc'))
    """
    match = _FACT_PATTERN.match(text)
    if not match:
        raise ParseError(f"not a fact: {text!r}")
    name, argtext = match.groups()
    symbol = schema[name]
    args = tuple(_parse_value(tok) for tok in _split_args(argtext))
    return Fact(symbol, args)


def _split_args(argtext: str):
    """Split a comma-separated argument list, respecting quotes."""
    if not argtext.strip():
        return
    depth = 0
    current = []
    in_quote: str = ""
    for ch in argtext:
        if in_quote:
            current.append(ch)
            if ch == in_quote:
                in_quote = ""
            continue
        if ch in "'\"":
            in_quote = ch
            current.append(ch)
        elif ch == "(":
            depth += 1
            current.append(ch)
        elif ch == ")":
            depth -= 1
            current.append(ch)
        elif ch == "," and depth == 0:
            yield "".join(current).strip()
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        yield tail


def _parse_value(token: str) -> Value:
    token = token.strip()
    if not token:
        raise ParseError("empty fact argument")
    if token[0] in "'\"" and token[-1] == token[0] and len(token) >= 2:
        return token[1:-1]
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token
