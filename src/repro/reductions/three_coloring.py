"""The Proposition 3 gadget: 3-colourability as certain answering.

Proposition 3 states that there is a data path query ``Q`` (with three
inequality tests) and a LAV relational mapping ``M`` such that
``QueryAnswering_GSM(M, Q)`` is coNP-complete; the proof is a reduction
from 3-colourability.  The paper does not spell the gadget out, so this
module constructs its own reduction in the same spirit and with the same
resource profile — a LAV relational mapping and an error-detecting query
with exactly three inequality subscripts — and uses it both as a
correctness check (3-colourability ⇔ non-certainty, validated against a
brute-force colouring search) and as the coNP-hardness workload of the
experiment suite.

Deviation from the paper (recorded in DESIGN.md): our error query is a
*union* of two paths with tests (an equality RPQ) rather than a single
path with tests.  The union packages the two error kinds — "some vertex
colour is outside the palette" (three inequalities) and "two adjacent
vertices share a colour" (one equality) — and exercises exactly the same
algorithmic machinery.

Construction
------------
Given an undirected graph ``H = (V, E)``:

* the **source graph** has a node per vertex (pairwise distinct values),
  three palette nodes ``R, G, B`` with distinct colour values, a global
  ``start`` and ``finish`` node, and edges

  - ``u -v-> u`` (a self-loop marking each vertex),
  - ``u -e-> w`` and ``w -e-> u`` for every edge ``{u, w} ∈ E``,
  - ``u -pr-> R``, ``R -rp-> u``, ``u -pg-> G``, ``G -gp-> u``,
    ``u -pb-> B`` for every vertex,
  - ``start -go-> u`` and ``u -fin-> finish`` for every vertex, and
    ``B -fin-> finish``;

* the **mapping** copies every edge label except ``v``, which is mapped
  to the two-step word ``hasCol.isCol`` — forcing every solution to give
  each vertex ``u`` a path ``u -hasCol-> m -isCol-> u`` through some node
  ``m`` whose data value is the adversary's colour choice for ``u``;

* the **query** (from ``start`` to ``finish``) matches exactly when the
  colour assignment is wrong: either some vertex colour differs from all
  of ``R``, ``G`` and ``B`` (three nested inequality tests along the path
  ``hasCol · isCol · pr · rp · pg · gp · pb``), or two adjacent vertices
  received equal colours (one equality test along
  ``hasCol · isCol · e · hasCol · isCol``).

``(start, finish)`` is a certain answer iff every solution contains an
error, i.e. iff ``H`` is *not* 3-colourable.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Set, Tuple

from ..core.gsm import GraphSchemaMapping, lav_mapping
from ..core.solutions import is_solution
from ..datagraph.graph import DataGraph
from ..exceptions import ReductionError
from ..query.data_rpq import DataRPQ, equality_rpq
from ..engine import default_engine

__all__ = [
    "UndirectedGraph",
    "three_coloring_gadget",
    "is_three_colorable",
    "gadget_certain_by_coloring_adversary",
    "triangle",
    "complete_graph_k4",
    "odd_cycle",
    "petersen_fragment",
]

#: Start / finish anchors of the gadget's decision pair.
START, FINISH = "start", "finish"
_PALETTE = (("R", "colour:red"), ("G", "colour:green"), ("B", "colour:blue"))


class UndirectedGraph:
    """A tiny undirected graph (vertex / edge sets) used as reduction input."""

    def __init__(self, vertices: Iterable[str], edges: Iterable[Tuple[str, str]], name: str = ""):
        self.vertices: Tuple[str, ...] = tuple(dict.fromkeys(vertices))
        normalised: Set[Tuple[str, str]] = set()
        for left, right in edges:
            if left == right:
                raise ReductionError("self-loops make 3-colourability trivially false; not supported")
            if left not in self.vertices or right not in self.vertices:
                raise ReductionError(f"edge ({left!r}, {right!r}) mentions an unknown vertex")
            normalised.add((min(left, right), max(left, right)))
        self.edges: Tuple[Tuple[str, str], ...] = tuple(sorted(normalised))
        self.name = name

    def __repr__(self) -> str:
        return f"<UndirectedGraph {self.name!r}: {len(self.vertices)} vertices, {len(self.edges)} edges>"


def is_three_colorable(graph: UndirectedGraph) -> bool:
    """Brute-force 3-colourability check (the reduction's ground truth)."""
    for assignment in itertools.product(range(3), repeat=len(graph.vertices)):
        colouring = dict(zip(graph.vertices, assignment))
        if all(colouring[left] != colouring[right] for left, right in graph.edges):
            return True
    return False


def three_coloring_gadget(
    graph: UndirectedGraph,
) -> Tuple[DataGraph, GraphSchemaMapping, DataRPQ, Tuple[str, str]]:
    """Build (source graph, LAV relational mapping, error query, decision pair)."""
    source = DataGraph(name=f"3col-{graph.name or 'instance'}")
    source.add_node(START, "anchor:start")
    source.add_node(FINISH, "anchor:finish")
    for palette_id, palette_value in _PALETTE:
        source.add_node(palette_id, palette_value)
    for vertex in graph.vertices:
        source.add_node(vertex, f"vertex:{vertex}")
    for vertex in graph.vertices:
        source.add_edge(vertex, "v", vertex)
        source.add_edge(START, "go", vertex)
        source.add_edge(vertex, "fin", FINISH)
        source.add_edge(vertex, "pr", "R")
        source.add_edge("R", "rp", vertex)
        source.add_edge(vertex, "pg", "G")
        source.add_edge("G", "gp", vertex)
        source.add_edge(vertex, "pb", "B")
    source.add_edge("B", "fin", FINISH)
    for left, right in graph.edges:
        source.add_edge(left, "e", right)
        source.add_edge(right, "e", left)

    mapping = lav_mapping(
        [
            ("v", "hasCol.isCol"),
            ("e", "adj"),
            ("pr", "pr"),
            ("rp", "rp"),
            ("pg", "pg"),
            ("gp", "gp"),
            ("pb", "pb"),
            ("go", "go"),
            ("fin", "fin"),
        ],
        name=f"3col-mapping-{graph.name or 'instance'}",
    )

    # Error 1: some vertex colour differs from red, green and blue
    #          (three nested inequality subscripts).
    off_palette = "hasCol . (((isCol.pr)!= . rp . pg)!= . gp . pb)!="
    # Error 2: two adjacent vertices share a colour (one equality subscript).
    clash = "hasCol . (isCol . adj . hasCol)= . isCol"
    query = equality_rpq(f"go . (({off_palette}) | ({clash})) . fin")
    return source, mapping, query, (START, FINISH)


def gadget_certain_by_coloring_adversary(
    graph: UndirectedGraph,
) -> bool:
    """Decide whether (start, finish) is certain by enumerating palette colourings.

    This is the gadget-specific shortcut used for larger inputs: the only
    adversary choices that can avoid the error query are proper palette
    colourings of the vertices, so certainty holds iff no proper
    3-colouring exists.  The generic (exponential) algorithm
    :func:`~repro.core.certain_answers.certain_answers_naive` agrees with
    this on small instances — the tests check exactly that.
    """
    source, mapping, query, (start, finish) = three_coloring_gadget(graph)
    start_node = source.node(start)
    finish_node = source.node(finish)
    palette_values = [value for _, value in _PALETTE]
    off_palette_value = "colour:none-of-the-three"

    choices = palette_values + [off_palette_value]
    for assignment in itertools.product(choices, repeat=len(graph.vertices)):
        target = _materialise_coloring(source, graph, dict(zip(graph.vertices, assignment)))
        if not is_solution(mapping, source, target):  # pragma: no cover - sanity guard
            raise ReductionError("internal error: coloured target is not a solution")
        answers = default_engine().evaluate_data_rpq(target, query)
        if (start_node, finish_node) not in answers:
            return False
    return True


def _materialise_coloring(
    source: DataGraph, graph: UndirectedGraph, colouring: Dict[str, str]
) -> DataGraph:
    """The canonical solution in which each vertex's colour node gets the chosen value."""
    target = DataGraph(alphabet={"hasCol", "isCol", "adj", "pr", "rp", "pg", "gp", "pb", "go", "fin"})
    for node in source.nodes:
        target.add_node(node.id, node.value)
    for vertex in graph.vertices:
        colour_id = ("colour-of", vertex)
        target.add_node(colour_id, colouring[vertex])
        target.add_edge(vertex, "hasCol", colour_id)
        target.add_edge(colour_id, "isCol", vertex)
        target.add_edge(START, "go", vertex)
        target.add_edge(vertex, "fin", FINISH)
        target.add_edge(vertex, "pr", "R")
        target.add_edge("R", "rp", vertex)
        target.add_edge(vertex, "pg", "G")
        target.add_edge("G", "gp", vertex)
        target.add_edge(vertex, "pb", "B")
    target.add_edge("B", "fin", FINISH)
    for left, right in graph.edges:
        target.add_edge(left, "adj", right)
        target.add_edge(right, "adj", left)
    return target


# ----------------------------------------------------------------------
# Stock inputs
# ----------------------------------------------------------------------
def triangle() -> UndirectedGraph:
    """K3: 3-colourable."""
    return UndirectedGraph("xyz", [("x", "y"), ("y", "z"), ("x", "z")], name="triangle")


def complete_graph_k4() -> UndirectedGraph:
    """K4: not 3-colourable."""
    vertices = ["k1", "k2", "k3", "k4"]
    edges = [(u, w) for i, u in enumerate(vertices) for w in vertices[i + 1 :]]
    return UndirectedGraph(vertices, edges, name="K4")


def odd_cycle(length: int = 5) -> UndirectedGraph:
    """An odd cycle: 3-colourable (but not 2-colourable)."""
    if length % 2 == 0 or length < 3:
        raise ReductionError("odd_cycle needs an odd length ≥ 3")
    vertices = [f"c{i}" for i in range(length)]
    edges = [(vertices[i], vertices[(i + 1) % length]) for i in range(length)]
    return UndirectedGraph(vertices, edges, name=f"C{length}")


def petersen_fragment() -> UndirectedGraph:
    """A wheel W5 (a 5-cycle plus a hub): not 3-colourable."""
    cycle = odd_cycle(5)
    vertices = list(cycle.vertices) + ["hub"]
    edges = list(cycle.edges) + [("hub", vertex) for vertex in cycle.vertices]
    return UndirectedGraph(vertices, edges, name="W5")
