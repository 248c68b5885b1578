"""Data values and the SQL-style null.

The paper models data graphs over a countably infinite domain ``D`` of
data values.  Section 7 extends this domain with a single null value
``n`` (written ``NULL`` here) whose comparisons never evaluate to true,
mimicking SQL's null rather than the marked nulls of classical data
exchange.

In this library a *data value* is any hashable Python object other than
the :data:`NULL` sentinel; :data:`NULL` itself represents the SQL null.
The helpers in this module centralise the comparison rules so that query
evaluators (REM conditions, REE equality tests, GXPath data comparisons)
all agree on how nulls behave.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Iterator, List, Sequence, Tuple

__all__ = [
    "NULL",
    "NullType",
    "DataValue",
    "is_null",
    "values_equal",
    "values_differ",
    "value_classes",
    "FreshValueFactory",
]


class NullType:
    """Singleton type of the SQL-style null value.

    There is exactly one instance, :data:`NULL`.  Equality on the
    *Python* level is identity (``NULL == NULL`` is ``True``) so the
    value can be stored in dictionaries and sets; the *query level*
    comparison rules, where no comparison involving null is true, are
    implemented by :func:`values_equal` and :func:`values_differ`.
    """

    _instance: "NullType | None" = None

    def __new__(cls) -> "NullType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __bool__(self) -> bool:
        return False

    def __hash__(self) -> int:
        return hash("repro.datagraph.values.NULL")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NullType)

    def __copy__(self) -> "NullType":
        return self

    def __deepcopy__(self, memo: dict) -> "NullType":
        return self

    def __reduce__(self):
        return (NullType, ())


#: The unique SQL-style null value of the extended domain ``D_n``.
NULL = NullType()

#: Type alias for data values: any hashable object, or :data:`NULL`.
DataValue = Hashable


def is_null(value: Any) -> bool:
    """Return ``True`` if *value* is the SQL null :data:`NULL`."""
    return isinstance(value, NullType)


def values_equal(left: DataValue, right: DataValue) -> bool:
    """Query-level equality of two data values.

    Follows the SQL rule of Section 7: an equality comparison is true
    only when both operands are non-null and equal.
    """
    if is_null(left) or is_null(right):
        return False
    return left == right


def values_differ(left: DataValue, right: DataValue) -> bool:
    """Query-level inequality of two data values.

    An inequality comparison is true only when both operands are
    non-null and distinct; comparisons involving the null are never
    true (Section 7).
    """
    if is_null(left) or is_null(right):
        return False
    return left != right


def value_classes(values: Sequence[DataValue]) -> Tuple[List[int], int]:
    """``(same, nulls)`` for a value column: bit ``j`` of ``same[i]`` is
    ``values[i] == values[j]`` — so ``1``, ``1.0`` and ``True`` share a
    class, the null equals itself, and a value with ``v != v`` (a NaN) is
    in no class, its own included — and ``nulls`` is the null's class.
    ``first == last`` over a set of positions is then one AND; the SQL
    rule of :func:`values_equal` / :func:`values_differ` masks ``nulls``
    out on both sides as well.  One mask per distinct value, so up to
    ``len(values)² / 16`` bytes on an all-distinct column — half of one
    dense relation's bit rows — for as long as an index snapshot keeps it.
    """
    masks: Dict[DataValue, int] = {}
    for at, value in enumerate(values):
        masks[value] = masks.get(value, 0) | (1 << at)
    return [masks[value] if value == value else 0 for value in values], masks.get(NULL, 0)


class FreshValueFactory:
    """Generator of data values guaranteed to be fresh w.r.t. a seed set.

    Least informative solutions (Section 8) populate invented nodes with
    *fresh and pairwise distinct* data values.  This factory produces
    string values of the form ``"_fresh:<k>"`` skipping any value already
    present in the seed collection.
    """

    def __init__(self, used: Iterable[DataValue] = (), prefix: str = "_fresh"):
        self._used = set(used)
        self._prefix = prefix
        self._counter = 0

    def __call__(self) -> DataValue:
        """Return a new value not seen before by this factory or its seed."""
        while True:
            candidate = f"{self._prefix}:{self._counter}"
            self._counter += 1
            if candidate not in self._used:
                self._used.add(candidate)
                return candidate

    def __iter__(self) -> Iterator[DataValue]:
        while True:
            yield self()
