"""The Theorem 6 / Lemma 2 gadget: PCP encoded as GXPath query answering.

Lemma 2 of the paper exhibits a fixed alphabet and a ``GXPath_core~``
node expression φ such that it is undecidable, given a data graph ``G``
(in fact a non-repeating data tree with all-distinct values) and a node
``v``, whether some extension ``G' ⊇ G`` satisfies ``v ∉ [[φ]]_{G'}``.
Theorem 6 then takes the copy mapping ``{(a, a) : a ∈ Σ}`` and observes
that ``v ∉ 2_M(φ, G)`` iff such an extension exists.

The executable pieces implemented here:

* :func:`pcp_tree_encoding` — the tree-shaped source encoding of a PCP
  instance from the proof sketch: a horizontal ``t``-path through one
  subtree ``I_r`` per tile, terminated by ``t#``; inside ``I_r`` the word
  ``u_r`` hangs off a chain of ``left`` edges (terminated by ``left#``)
  and ``v_r`` off a chain of ``right`` edges (terminated by ``right#``),
  each chain node carrying its letter as an extra child edge labelled
  ``a`` or ``b``.  The tree has the non-repeating property and pairwise
  distinct data values — the preconditions of Lemma 2.
* :func:`theorem6_mapping` — the copy mapping over the encoding alphabet
  (both LAV and GAV, relational).
* :func:`solution_extension` — for a solvable instance, an extension
  ``G' ⊇ G`` attaching a solution section and a verification section to
  the root, as the "if solvable" direction of the proof does.
* :func:`structure_error_formula` — a representative error-detecting
  GXPath node expression: it holds at the root of any extension whose
  solution section is malformed in one of the checked ways, and fails at
  the root of the well-formed extension produced by
  :func:`solution_extension`.  (The complete φ of the proof is only
  sketched in the paper's appendix; ``python -m repro experiment E9``
  shows what is validated, and DESIGN.md §9 indexes the experiments.)
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..core.gsm import GraphSchemaMapping, copy_mapping
from ..datagraph.graph import DataGraph
from ..exceptions import ReductionError
from ..gxpath.ast import NodeExpression
from ..gxpath.parser import parse_gxpath_node
from .pcp import PCPInstance, verify_pcp_solution

__all__ = [
    "THEOREM6_ALPHABET",
    "pcp_tree_encoding",
    "theorem6_mapping",
    "solution_extension",
    "structure_error_formula",
]

#: Alphabet of the Theorem 6 encoding.
THEOREM6_ALPHABET: Tuple[str, ...] = (
    "a",
    "b",
    "t",
    "tEnd",
    "left",
    "leftEnd",
    "right",
    "rightEnd",
    "s",
    "v",
    "m",
    "id",
)

ROOT = "start"


def pcp_tree_encoding(instance: PCPInstance) -> DataGraph:
    """The non-repeating data tree encoding a PCP instance (Lemma 2)."""
    graph = DataGraph(alphabet=THEOREM6_ALPHABET, name=f"thm6-source-{instance.name or 'pcp'}")
    counter = [0]

    def fresh_value() -> str:
        counter[0] += 1
        return f"d{counter[0]}"

    def add(node_id: str) -> str:
        graph.add_node(node_id, fresh_value())
        return node_id

    add(ROOT)
    previous = ROOT
    for r in range(1, instance.size + 1):
        tile_root = add(f"I{r}")
        graph.add_edge(previous, "t", tile_root)
        previous = tile_root
        # left chain: the letters of u_r
        chain_parent = tile_root
        for position, letter in enumerate(instance.top(r), start=1):
            chain_node = add(f"I{r}:u{position}")
            graph.add_edge(chain_parent, "left", chain_node)
            letter_leaf = add(f"I{r}:u{position}:{letter}")
            graph.add_edge(chain_node, letter, letter_leaf)
            chain_parent = chain_node
        graph.add_edge(chain_parent, "leftEnd", add(f"I{r}:uEnd"))
        # right chain: the letters of v_r
        chain_parent = tile_root
        for position, letter in enumerate(instance.bottom(r), start=1):
            chain_node = add(f"I{r}:v{position}")
            graph.add_edge(chain_parent, "right", chain_node)
            letter_leaf = add(f"I{r}:v{position}:{letter}")
            graph.add_edge(chain_node, letter, letter_leaf)
            chain_parent = chain_node
        graph.add_edge(chain_parent, "rightEnd", add(f"I{r}:vEnd"))
    graph.add_edge(previous, "tEnd", add("input-end"))
    return graph


def theorem6_mapping(alphabet: Sequence[str] = THEOREM6_ALPHABET) -> GraphSchemaMapping:
    """The Theorem 6 copy mapping ``{(a, a)}`` — simultaneously LAV, GAV and relational."""
    mapping = copy_mapping(alphabet, name="theorem6-copy")
    if not (mapping.is_lav() and mapping.is_gav() and mapping.is_relational()):
        raise ReductionError("internal error: the copy mapping left its intended class")
    return mapping


def solution_extension(instance: PCPInstance, solution: Sequence[int]) -> DataGraph:
    """An extension ``G' ⊇ G`` encoding a PCP solution below the root.

    The extension attaches to the root an ``s``-edge starting a *solution
    section* — for each chosen tile, ``m`` marks the choice, ``t``-ticks
    give its index in unary and the letters of ``u_r`` follow, each
    prefixed by an ``id`` node whose value is shared with the
    verification section — followed by a ``v``-edge starting a
    *verification section* spelling the common word with matching ``id``
    values.  The non-repeating property of the original tree is preserved
    (the root gains two new child labels, ``s`` and ``v``).
    """
    if not verify_pcp_solution(instance, solution):
        raise ReductionError(f"{list(solution)} is not a solution of {instance}")
    graph = pcp_tree_encoding(instance)
    graph.name = f"thm6-witness-{instance.name or 'pcp'}"
    counter = [0]

    def fresh_value() -> str:
        counter[0] += 1
        return f"x{counter[0]}"

    def chain(start: str, label: str, node_id: str, value: Optional[str] = None) -> str:
        graph.add_node(node_id, value if value is not None else fresh_value())
        graph.add_edge(start, label, node_id)
        return node_id

    # solution section
    previous = chain(ROOT, "s", "sol:start")
    for occurrence, tile_index in enumerate(solution):
        previous = chain(previous, "m", f"sol:{occurrence}:mark")
        for tick in range(tile_index):
            previous = chain(previous, "t", f"sol:{occurrence}:tick{tick}")
        for position, letter in enumerate(instance.top(tile_index)):
            previous = chain(
                previous, "id", f"sol:{occurrence}:id{position}", value=f"sync:{occurrence}:{position}"
            )
            previous = chain(previous, letter, f"sol:{occurrence}:letter{position}")
    # verification section
    previous = chain(ROOT, "v", "verify:start")
    position_counter = 0
    for occurrence, tile_index in enumerate(solution):
        for position, letter in enumerate(instance.top(tile_index)):
            previous = chain(
                previous,
                "id",
                f"verify:{occurrence}:id{position}",
                value=f"sync:{occurrence}:{position}",
            )
            previous = chain(previous, letter, f"verify:{position_counter}")
            position_counter += 1
    return graph


def structure_error_formula() -> NodeExpression:
    """A representative error-detecting node expression evaluated at the root.

    The formula is a disjunction of error patterns of the full proof
    formula that are expressible without the lengthy appendix machinery:

    * the solution section is missing entirely (no ``s`` child), or
    * the solution section starts without an ``m`` tile marker, or
    * the verification section is missing (no ``v`` child), or
    * some ``id`` node of the solution section has *no* matching ``id``
      node (equal data value) in the verification section — checked by a
      data comparison along ``s``-side and ``v``-side paths.

    A well-formed solution extension (from :func:`solution_extension`)
    falsifies every disjunct at the root; the unmodified source tree or a
    malformed extension satisfies at least one.
    """
    missing_solution = "~<s>"
    starts_badly = "<s.(t|id|a|b|v)>"
    missing_verification = "~<v>"
    # The first id node of the solution section must carry the same data
    # value as the first id node of the verification section.  The error
    # pattern walks from the root down to the first s-side id node, then
    # back up (id⁻, t⁻*, m⁻, s⁻) and down the v side (v, id) to the first
    # v-side id node, requiring the two values to differ.
    first_ids_out_of_sync = "< s.m.t*.id.((id- . t-* . m- . s- . v . id))!= >"
    return parse_gxpath_node(
        f"({missing_solution}) | ({starts_badly}) | ({missing_verification}) | ({first_ids_out_of_sync})"
    )
