"""Synthetic data graph generators.

The paper has no data sets; its claims concern algorithms and complexity.
The experiment suite therefore runs on synthetic data graphs produced by
the generators in this module.  All generators take an explicit
``random.Random`` seed or instance so that every experiment is
reproducible run-to-run.

Shapes provided:

* chains, cycles, trees and grids — the structured shapes used in the
  paper's gadgets and in complexity sweeps;
* uniform random graphs with a controllable edge density and value skew;
* "scale-free-ish" preferential-attachment graphs approximating the
  degree skew of social-network workloads (the paper's motivating
  application area);
* layered DAGs used by the data-exchange scenarios.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence

from ..exceptions import WorkloadError
from .graph import DataGraph
from .values import DataValue

__all__ = [
    "random_graph",
    "random_data_values",
    "chain",
    "cycle",
    "complete_graph",
    "community_graph",
    "grid",
    "random_tree",
    "preferential_attachment",
    "layered_dag",
]


def _rng(seed: Optional[int | random.Random]) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def random_data_values(
    count: int, domain_size: int, rng: Optional[int | random.Random] = None, prefix: str = "d"
) -> List[DataValue]:
    """Draw *count* data values uniformly from a domain of *domain_size* values.

    A small domain produces many repeated values (making equality tests in
    data RPQs selective); a large domain approximates all-distinct values.
    """
    if domain_size < 1:
        raise WorkloadError("domain_size must be at least 1")
    generator = _rng(rng)
    return [f"{prefix}{generator.randrange(domain_size)}" for _ in range(count)]


def chain(
    length: int,
    labels: Sequence[str] = ("a",),
    value_of: Optional[Callable[[int], DataValue]] = None,
    rng: Optional[int | random.Random] = None,
    domain_size: Optional[int] = None,
) -> DataGraph:
    """A chain of ``length`` edges cycling through *labels*.

    Values come from *value_of* if given, otherwise from a random domain
    of *domain_size* values (default: all distinct).
    """
    generator = _rng(rng)
    graph = DataGraph(alphabet=set(labels), name=f"chain-{length}")
    values = _make_values(length + 1, value_of, domain_size, generator)
    for i in range(length + 1):
        graph.add_node(f"n{i}", values[i])
    for i in range(length):
        graph.add_edge(f"n{i}", labels[i % len(labels)], f"n{i + 1}")
    return graph


def cycle(
    length: int,
    labels: Sequence[str] = ("a",),
    value_of: Optional[Callable[[int], DataValue]] = None,
    rng: Optional[int | random.Random] = None,
    domain_size: Optional[int] = None,
) -> DataGraph:
    """A directed cycle with ``length`` nodes."""
    if length < 1:
        raise WorkloadError("a cycle needs at least one node")
    generator = _rng(rng)
    graph = DataGraph(alphabet=set(labels), name=f"cycle-{length}")
    values = _make_values(length, value_of, domain_size, generator)
    for i in range(length):
        graph.add_node(f"n{i}", values[i])
    for i in range(length):
        graph.add_edge(f"n{i}", labels[i % len(labels)], f"n{(i + 1) % length}")
    return graph


def complete_graph(
    size: int,
    label: str = "e",
    value_of: Optional[Callable[[int], DataValue]] = None,
    include_loops: bool = False,
) -> DataGraph:
    """The complete directed graph on *size* nodes (used by the 3-colouring gadget tests)."""
    graph = DataGraph(alphabet={label}, name=f"K{size}")
    for i in range(size):
        graph.add_node(f"n{i}", value_of(i) if value_of else i)
    for i in range(size):
        for j in range(size):
            if i != j or include_loops:
                graph.add_edge(f"n{i}", label, f"n{j}")
    return graph


def grid(
    rows: int,
    cols: int,
    right_label: str = "right",
    down_label: str = "down",
    value_of: Optional[Callable[[int, int], DataValue]] = None,
) -> DataGraph:
    """A rows×cols grid with `right` and `down` edges."""
    graph = DataGraph(alphabet={right_label, down_label}, name=f"grid-{rows}x{cols}")
    for r in range(rows):
        for c in range(cols):
            value = value_of(r, c) if value_of else f"{r},{c}"
            graph.add_node((r, c), value)
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                graph.add_edge((r, c), right_label, (r, c + 1))
            if r + 1 < rows:
                graph.add_edge((r, c), down_label, (r + 1, c))
    return graph


def random_tree(
    size: int,
    labels: Sequence[str] = ("child",),
    rng: Optional[int | random.Random] = None,
    domain_size: Optional[int] = None,
    non_repeating: bool = False,
) -> DataGraph:
    """A random rooted tree with *size* nodes and edges pointing away from the root.

    With ``non_repeating=True`` no two children of a node share an edge
    label (the *non-repeating property* used by Lemma 2); in that case
    ``size`` children per node are capped by ``len(labels)``.
    """
    if size < 1:
        raise WorkloadError("a tree needs at least one node")
    generator = _rng(rng)
    graph = DataGraph(alphabet=set(labels), name=f"tree-{size}")
    values = _make_values(size, None, domain_size, generator)
    graph.add_node("t0", values[0])
    used_labels: dict = {"t0": set()}
    for i in range(1, size):
        if non_repeating:
            options = [
                (f"t{j}", label)
                for j in range(i)
                for label in labels
                if label not in used_labels[f"t{j}"]
            ]
            if not options:
                raise WorkloadError(
                    "cannot build a non-repeating tree of this size with this label set"
                )
            parent, label = options[generator.randrange(len(options))]
        else:
            parent = f"t{generator.randrange(i)}"
            label = labels[generator.randrange(len(labels))]
        node_id = f"t{i}"
        graph.add_node(node_id, values[i])
        graph.add_edge(parent, label, node_id)
        used_labels.setdefault(node_id, set())
        used_labels[parent].add(label)
    return graph


def random_graph(
    num_nodes: int,
    num_edges: int,
    labels: Sequence[str] = ("a", "b"),
    rng: Optional[int | random.Random] = None,
    domain_size: Optional[int] = None,
    allow_self_loops: bool = True,
) -> DataGraph:
    """A uniform random multigraph-free directed graph.

    Edges are sampled uniformly at random (without replacement on the
    triple (source, label, target)); the achievable number of edges is
    capped at ``num_nodes**2 * len(labels)``.
    """
    if num_nodes < 1:
        raise WorkloadError("random_graph needs at least one node")
    generator = _rng(rng)
    graph = DataGraph(alphabet=set(labels), name=f"random-{num_nodes}-{num_edges}")
    values = _make_values(num_nodes, None, domain_size, generator)
    for i in range(num_nodes):
        graph.add_node(f"n{i}", values[i])
    max_edges = num_nodes * num_nodes * len(labels)
    if not allow_self_loops:
        max_edges -= num_nodes * len(labels)
    target_edges = min(num_edges, max_edges)
    seen = set()
    guard = 0
    while len(seen) < target_edges and guard < 100 * target_edges + 100:
        guard += 1
        source = generator.randrange(num_nodes)
        target = generator.randrange(num_nodes)
        if not allow_self_loops and source == target:
            continue
        label = labels[generator.randrange(len(labels))]
        triple = (source, label, target)
        if triple in seen:
            continue
        seen.add(triple)
        graph.add_edge(f"n{source}", label, f"n{target}")
    return graph


def community_graph(
    num_communities: int,
    community_size: int,
    intra_edges_per_node: int = 3,
    bridges_per_community: int = 2,
    labels: Sequence[str] = ("knows",),
    bridge_label: str = "bridge",
    rng: Optional[int | random.Random] = None,
    domain_size: Optional[int] = None,
) -> DataGraph:
    """A multi-community graph sized for partitioned evaluation.

    ``num_communities`` dense clusters of ``community_size`` nodes each,
    with ``intra_edges_per_node`` random intra-community edges per node
    over *labels* and ``bridges_per_community`` sparse ``bridge_label``
    edges from each community into the next (wrapping around), so every
    pair of communities is connected but only through a thin cut.  Nodes
    are added community by community, so contiguous source blocks
    (:func:`repro.engine.partition.split_blocks`) recover the
    communities.
    """
    if num_communities < 1 or community_size < 1:
        raise WorkloadError("community_graph needs at least one community and one node each")
    generator = _rng(rng)
    graph = DataGraph(
        alphabet=set(labels) | {bridge_label},
        name=f"community-{num_communities}x{community_size}",
    )
    total = num_communities * community_size
    values = _make_values(total, None, domain_size, generator)
    for community in range(num_communities):
        for position in range(community_size):
            graph.add_node(
                f"c{community}n{position}", values[community * community_size + position]
            )
    for community in range(num_communities):
        for position in range(community_size):
            for _ in range(intra_edges_per_node):
                other = generator.randrange(community_size)
                label = labels[generator.randrange(len(labels))]
                graph.add_edge(f"c{community}n{position}", label, f"c{community}n{other}")
    if num_communities > 1:
        for community in range(num_communities):
            neighbour = (community + 1) % num_communities
            for _ in range(bridges_per_community):
                source = generator.randrange(community_size)
                target = generator.randrange(community_size)
                graph.add_edge(
                    f"c{community}n{source}", bridge_label, f"c{neighbour}n{target}"
                )
    return graph


def preferential_attachment(
    num_nodes: int,
    edges_per_node: int = 2,
    labels: Sequence[str] = ("knows",),
    rng: Optional[int | random.Random] = None,
    domain_size: Optional[int] = None,
) -> DataGraph:
    """A preferential-attachment graph approximating social-network degree skew."""
    if num_nodes < 2:
        raise WorkloadError("preferential attachment needs at least two nodes")
    generator = _rng(rng)
    graph = DataGraph(alphabet=set(labels), name=f"pa-{num_nodes}")
    values = _make_values(num_nodes, None, domain_size, generator)
    targets: List[int] = [0]
    graph.add_node("n0", values[0])
    for i in range(1, num_nodes):
        graph.add_node(f"n{i}", values[i])
        chosen = set()
        for _ in range(min(edges_per_node, i)):
            pick = targets[generator.randrange(len(targets))]
            chosen.add(pick)
        for pick in chosen:
            label = labels[generator.randrange(len(labels))]
            graph.add_edge(f"n{i}", label, f"n{pick}")
            targets.append(pick)
        targets.append(i)
    return graph


def layered_dag(
    layers: int,
    width: int,
    labels: Sequence[str] = ("next",),
    rng: Optional[int | random.Random] = None,
    domain_size: Optional[int] = None,
    density: float = 0.5,
) -> DataGraph:
    """A layered DAG: *layers* layers of *width* nodes with forward edges only."""
    if layers < 1 or width < 1:
        raise WorkloadError("layered_dag needs at least one layer and one node per layer")
    generator = _rng(rng)
    graph = DataGraph(alphabet=set(labels), name=f"dag-{layers}x{width}")
    values = _make_values(layers * width, None, domain_size, generator)
    for layer in range(layers):
        for pos in range(width):
            graph.add_node((layer, pos), values[layer * width + pos])
    for layer in range(layers - 1):
        for pos in range(width):
            for nxt in range(width):
                if generator.random() < density:
                    label = labels[generator.randrange(len(labels))]
                    graph.add_edge((layer, pos), label, (layer + 1, nxt))
    return graph


def _make_values(
    count: int,
    value_of: Optional[Callable[[int], DataValue]],
    domain_size: Optional[int],
    generator: random.Random,
) -> List[DataValue]:
    if value_of is not None:
        return [value_of(i) for i in range(count)]
    if domain_size is None:
        return [f"d{i}" for i in range(count)]
    return random_data_values(count, domain_size, generator)
