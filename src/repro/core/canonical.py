"""Canonical target-graph skeletons shared by the solution builders.

Both kinds of canonical solutions in the paper — *universal solutions*
populated with SQL nulls (Section 7) and *least informative solutions*
populated with fresh distinct values (Section 8) — share the same
skeleton: the nodes of ``dom(M, G_s)`` plus, for every relational rule
``(q, w)`` and every pair ``(v, v') ∈ q(G_s)``, a fresh path labelled
``w`` from ``v`` to ``v'``.  The naive exact certain-answer algorithm
additionally needs to enumerate *all* ways an adversarial solution could
instantiate that skeleton: which word of a finite-union rule to use and
which data values to give the invented nodes.

:class:`Skeleton` captures the requirement list; :func:`materialise`
turns one concrete choice (word per requirement + value per invented
node) into a target data graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple

from ..datagraph.graph import DataGraph
from ..datagraph.node import Node
from ..datagraph.values import DataValue
from ..exceptions import SolutionError, UnsupportedQueryError
from .gsm import GraphSchemaMapping, MappingRule
from .solutions import mapping_domain, source_requirements

__all__ = ["Requirement", "Skeleton", "build_skeleton", "materialise"]


@dataclass(frozen=True)
class Requirement:
    """One path obligation: connect *source* to *target* by some word of *words*."""

    rule_index: int
    rule: MappingRule
    source: Node
    target: Node
    words: Tuple[Tuple[str, ...], ...]

    def shortest_word(self) -> Tuple[str, ...]:
        """The canonical word choice (shortest, ties broken lexicographically)."""
        return min(self.words, key=lambda word: (len(word), word))


@dataclass(frozen=True)
class Skeleton:
    """The canonical-solution skeleton of a relational GSM on a source graph."""

    mapping: GraphSchemaMapping
    domain: FrozenSet[Node]
    requirements: Tuple[Requirement, ...]
    target_alphabet: FrozenSet[str]

    def invented_node_count(self, word_choice: Optional[Sequence[int]] = None) -> int:
        """Number of fresh nodes needed for a given word choice (default: shortest words)."""
        total = 0
        for index, requirement in enumerate(self.requirements):
            word = (
                requirement.words[word_choice[index]]
                if word_choice is not None
                else requirement.shortest_word()
            )
            total += max(len(word) - 1, 0)
        return total


def build_skeleton(mapping: GraphSchemaMapping, source: DataGraph) -> Skeleton:
    """Compute the skeleton of canonical solutions for a relational mapping.

    Raises
    ------
    UnsupportedQueryError
        If some rule's target query is not relational (word / finite union).
    SolutionError
        If some rule with an empty-word-only target is violated in a way no
        target graph can fix (an ε-rule relating two distinct nodes).
    """
    requirements: List[Requirement] = []
    for rule_index, (rule, pairs) in enumerate(source_requirements(mapping, source).items()):
        language = rule.target.finite_language()
        if language is None:
            raise UnsupportedQueryError(
                f"rule [{rule}] is not relational: its target query denotes an infinite language"
            )
        words = tuple(sorted(language, key=lambda word: (len(word), word)))
        for left, right in sorted(pairs, key=lambda pair: (pair[0].sort_key(), pair[1].sort_key())):
            if all(len(word) == 0 for word in words) and left != right:
                raise SolutionError(
                    f"rule [{rule}] requires the empty path between distinct nodes "
                    f"{left} and {right}: no solution exists"
                )
            usable = tuple(word for word in words if len(word) > 0 or left == right)
            requirements.append(Requirement(rule_index, rule, left, right, usable))
    return Skeleton(
        mapping=mapping,
        domain=mapping_domain(mapping, source),
        requirements=tuple(requirements),
        target_alphabet=mapping.target_alphabet,
    )


def materialise(
    skeleton: Skeleton,
    value_for: Callable[[int], DataValue],
    word_choice: Optional[Sequence[int]] = None,
    name: str = "canonical-solution",
) -> DataGraph:
    """Build a concrete target graph from the skeleton.

    Parameters
    ----------
    skeleton:
        The skeleton produced by :func:`build_skeleton`.
    value_for:
        A function from the running index of an invented node to its data
        value — constant ``NULL`` for universal solutions, a fresh-value
        factory for least informative solutions, or an explicit assignment
        for the naive certain-answer enumeration.
    word_choice:
        For each requirement, the index of the word to use from its
        ``words`` tuple; defaults to the shortest word everywhere.
    name:
        Name for the produced graph.
    """
    target = DataGraph(alphabet=skeleton.target_alphabet, name=name)
    for node in sorted(skeleton.domain, key=lambda node: node.sort_key()):
        target.add_node(node.id, node.value)
    fresh_counter = 0
    for index, requirement in enumerate(skeleton.requirements):
        word = (
            requirement.words[word_choice[index]]
            if word_choice is not None
            else requirement.shortest_word()
        )
        previous = requirement.source.id
        for position, label in enumerate(word):
            if position == len(word) - 1:
                target.add_edge(previous, label, requirement.target.id)
            else:
                invented_id = ("_fresh", index, position)
                target.add_node(invented_id, value_for(fresh_counter))
                fresh_counter += 1
                target.add_edge(previous, label, invented_id)
                previous = invented_id
    return target
