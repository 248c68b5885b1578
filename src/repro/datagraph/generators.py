"""Synthetic data graph generators.

The paper has no data sets; its claims concern algorithms and complexity.
The experiment suite therefore runs on synthetic data graphs produced by
the generators in this module.  All generators take an explicit
``random.Random`` seed or instance so that every experiment is
reproducible run-to-run.

Shapes provided:

* chains and cycles — the structured shapes used in complexity sweeps;
* uniform random graphs with a controllable edge density and value skew;
* multi-community graphs with thin cuts between dense clusters.
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
    "community_graph",
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
    """A multi-community graph: dense clusters joined by a thin cut.

    ``num_communities`` dense clusters of ``community_size`` nodes each,
    with ``intra_edges_per_node`` random intra-community edges per node
    over *labels* and ``bridges_per_community`` sparse ``bridge_label``
    edges from each community into the next (wrapping around), so every
    pair of communities is connected but only through a thin cut.  Nodes
    are added community by community, so contiguous id ranges recover the
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
