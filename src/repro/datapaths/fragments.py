"""Classification of data RPQ expressions into the paper's fragments.

The paper works with a hierarchy of languages on data paths:

* **REM** — regular expressions with memory (full register-automaton power);
* **REE** — regular expressions with equality (weaker, PTIME problems);
* **REM=** / **REE=** — the equality-only fragments of Section 8
  (no ``x≠`` conditions / no ``e≠`` subscripts);
* **paths with tests** (a.k.a. *data path queries*) — the word-shaped
  fragment of REE used in Propositions 3–5.

The helpers here classify an expression object into these fragments and
translate REE expressions into REM expressions (every equality RPQ is a
memory RPQ — the converse fails).  The translation threads one fresh
register per subscripted sub-expression.  A plain regular expression is
the REM with no registers at all (:func:`regex_to_rem`).

One more fragment is syntactic rather than the paper's: the **scoped**
expressions (:func:`scope_violation`), in which a register only ever
holds the value of the node its ``↓`` was entered at while it is read.
Every translated REE and RPQ is scoped; the engine evaluates scoped
expressions on origin bitmasks (:func:`repro.engine.data.ree_relation`)
and keeps the register product for the rest.
"""

from __future__ import annotations

from enum import Enum
from typing import FrozenSet, Optional, Tuple, Union

from ..regular.ast import Concat, Epsilon, Letter, Plus, Regex, Star, Union as RegexUnion
from .conditions import Equal, NotEqual
from .path_tests import is_path_with_tests
from .rem import (
    RegexWithMemory,
    RemBind,
    RemConcat,
    RemEpsilon,
    RemLetter,
    RemPlus,
    RemTest,
    RemUnion,
    rem_star,
)
from .ree import (
    RegexWithEquality,
    ReeConcat,
    ReeEpsilon,
    ReeEqualTest,
    ReeLetter,
    ReeNotEqualTest,
    ReePlus,
    ReeUnion,
)

__all__ = [
    "Fragment",
    "classify",
    "ree_to_rem",
    "regex_to_rem",
    "free_registers",
    "scope_violation",
    "is_scoped",
    "DataPathExpression",
]

#: Either kind of data-path expression.
DataPathExpression = Union[RegexWithMemory, RegexWithEquality]


class Fragment(Enum):
    """Named fragments of data RPQ expression languages."""

    REM = "REM"
    REM_EQUALITY_ONLY = "REM="
    REE = "REE"
    REE_EQUALITY_ONLY = "REE="
    PATH_WITH_TESTS = "path-with-tests"


def classify(expression: DataPathExpression) -> Fragment:
    """The most specific fragment the expression belongs to.

    Paths with tests are reported as such (they are also REE expressions);
    REE expressions are reported as ``REE=`` when they avoid ``e≠``;
    REM expressions are reported as ``REM=`` when they avoid ``x≠``.
    """
    if isinstance(expression, RegexWithEquality):
        if is_path_with_tests(expression):
            return Fragment.PATH_WITH_TESTS
        if expression.uses_inequality():
            return Fragment.REE
        return Fragment.REE_EQUALITY_ONLY
    if isinstance(expression, RegexWithMemory):
        if expression.uses_inequality():
            return Fragment.REM
        return Fragment.REM_EQUALITY_ONLY
    raise TypeError(f"not a data RPQ expression: {expression!r}")


def ree_to_rem(expression: RegexWithEquality) -> RegexWithMemory:
    """Translate an REE expression into an equivalent REM expression.

    Each subscripted sub-expression ``e=`` / ``e≠`` becomes
    ``↓x.(translate(e)[x=])`` / ``↓x.(translate(e)[x≠])`` with a fresh
    register ``x``: the register captures the first data value of the
    sub-path and the test compares it with the last one, which is exactly
    the REE semantics.
    """
    counter = [0]

    def fresh_register() -> str:
        counter[0] += 1
        return f"_r{counter[0]}"

    def translate(node: RegexWithEquality) -> RegexWithMemory:
        if isinstance(node, ReeEpsilon):
            return RemEpsilon()
        if isinstance(node, ReeLetter):
            return RemLetter(node.symbol)
        if isinstance(node, ReeConcat):
            return RemConcat(translate(node.left), translate(node.right))
        if isinstance(node, ReeUnion):
            return RemUnion(translate(node.left), translate(node.right))
        if isinstance(node, ReePlus):
            return RemPlus(translate(node.inner))
        if isinstance(node, ReeEqualTest):
            register = fresh_register()
            return RemBind((register,), RemTest(translate(node.inner), Equal(register)))
        if isinstance(node, ReeNotEqualTest):
            register = fresh_register()
            return RemBind((register,), RemTest(translate(node.inner), NotEqual(register)))
        raise TypeError(f"unknown REE node {node!r}")  # pragma: no cover - defensive

    return translate(expression)


def regex_to_rem(expression: Regex) -> RegexWithMemory:
    """A plain regular expression as the REM with no registers: node for
    node, with ``e*`` as ``ε + e+`` (:func:`~repro.datapaths.rem.rem_star`)."""
    if isinstance(expression, Epsilon):
        return RemEpsilon()
    if isinstance(expression, Letter):
        return RemLetter(expression.symbol)
    if isinstance(expression, Concat):
        return RemConcat(regex_to_rem(expression.left), regex_to_rem(expression.right))
    if isinstance(expression, RegexUnion):
        return RemUnion(regex_to_rem(expression.left), regex_to_rem(expression.right))
    if isinstance(expression, Plus):
        return RemPlus(regex_to_rem(expression.inner))
    if isinstance(expression, Star):
        return rem_star(regex_to_rem(expression.inner))
    raise TypeError(f"unknown regex node {expression!r}")  # pragma: no cover - defensive


# ----------------------------------------------------------------------
# The scoped fragment: registers that are origin values
# ----------------------------------------------------------------------
def free_registers(expression: RegexWithMemory) -> FrozenSet[str]:
    """The registers some test of *expression* reads that no ``↓``
    enclosing that test inside *expression* binds."""
    if isinstance(expression, RemTest):
        return free_registers(expression.inner) | expression.condition.variables()
    if isinstance(expression, RemBind):
        return free_registers(expression.inner) - frozenset(expression.variables_bound)
    if isinstance(expression, (RemConcat, RemUnion)):
        return free_registers(expression.left) | free_registers(expression.right)
    if isinstance(expression, RemPlus):
        return free_registers(expression.inner)
    return frozenset()


def scope_violation(expression: DataPathExpression) -> Optional[str]:
    """Why *expression* is outside the scoped fragment (``None`` inside it).

    Two rules: every register a test reads is bound by the **innermost**
    ``↓`` enclosing that test, and no ``↓`` re-binds a register of a
    ``↓`` it is nested in.  Stores happen only at ``↓`` and control
    cannot leave a bind's body while its registers are live, so under
    both rules a register read at a test holds the value of the node its
    bind was entered at — ``(↓x.a[x≠])+``, ``↓x,y.(a[x= ∨ y≠])+`` and
    every :func:`ree_to_rem` output qualify; ``(↓x.a).b[x=]`` (read after
    the bind closed, or never bound), ``↓x.(a.(↓x.b).c[x=])`` (re-bound
    underneath) and ``↓x.(a.↓y.(b[x= ∧ y≠]))`` (read across ``↓y``) do not.
    """
    if isinstance(expression, RegexWithEquality):
        return None  # one fresh register per subscript, read where it is bound

    def visit(
        node: RegexWithMemory, innermost: Tuple[str, ...], enclosing: FrozenSet[str]
    ) -> Optional[str]:
        if isinstance(node, RemTest):
            stray = sorted(node.condition.variables() - frozenset(innermost))
            if stray:
                where = f"across ↓{','.join(innermost)}" if innermost else "outside every ↓"
                return f"the test [{node.condition}] reads register {stray[0]!r} {where}"
            return visit(node.inner, innermost, enclosing)
        if isinstance(node, RemBind):
            bound = node.variables_bound
            again = sorted(enclosing.intersection(bound))
            if again:
                return f"↓{','.join(bound)} re-binds register {again[0]!r} of a ↓ it is nested in"
            return visit(node.inner, bound, enclosing | frozenset(bound))
        if isinstance(node, (RemConcat, RemUnion)):
            return visit(node.left, innermost, enclosing) or visit(
                node.right, innermost, enclosing
            )
        if isinstance(node, RemPlus):
            return visit(node.inner, innermost, enclosing)
        return None

    return visit(expression, (), frozenset())


def is_scoped(expression: DataPathExpression) -> bool:
    """Whether *expression* is in the scoped fragment (see :func:`scope_violation`)."""
    return scope_violation(expression) is None
