"""Realistic exchange / integration scenarios used by examples and experiments.

The paper motivates graph schema mappings with social networks and other
property-graph applications.  Each scenario bundles a synthetic source
data graph, a mapping into a target vocabulary and a set of target
queries of the fragments the paper studies, so examples, experiments and
benchmarks all pull from the same, parameterised workloads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.gsm import GraphSchemaMapping
from ..datagraph.generators import community_graph
from ..datagraph.graph import DataGraph
from ..exceptions import WorkloadError
from ..query.data_rpq import DataRPQ, equality_rpq
from ..query.rpq import RPQ, rpq

__all__ = [
    "Scenario",
    "social_network_scenario",
    "movie_catalog_scenario",
    "provenance_scenario",
    "multi_community_scenario",
]


@dataclass
class Scenario:
    """A bundled workload: source graph, mapping and named target queries."""

    name: str
    source: DataGraph
    mapping: GraphSchemaMapping
    navigational_queries: Dict[str, RPQ] = field(default_factory=dict)
    data_queries: Dict[str, DataRPQ] = field(default_factory=dict)

    def all_queries(self) -> Dict[str, RPQ | DataRPQ]:
        """Every query of the scenario, navigational and data-aware."""
        merged: Dict[str, RPQ | DataRPQ] = dict(self.navigational_queries)
        merged.update(self.data_queries)
        return merged

    def describe(self) -> str:
        """A short human-readable summary used by examples."""
        return (
            f"scenario {self.name!r}: |V|={self.source.num_nodes}, |E|={self.source.num_edges}, "
            f"{len(self.mapping)} mapping rules, {len(self.all_queries())} queries"
        )


def _rng(seed: Optional[int | random.Random]) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def social_network_scenario(
    num_people: int = 20,
    num_cities: int = 4,
    friendship_per_person: int = 2,
    rng: Optional[int | random.Random] = None,
) -> Scenario:
    """A social-network exchange scenario.

    The source holds people (valued by the city they live in), companies
    and ``friend`` / ``employee`` edges.  The mapping publishes the data
    into a target vocabulary where friendship becomes a two-step
    ``knows·knows⁻``-style connection through an invented "tie" node and
    employment becomes ``worksAt``; queries ask for same-city friends
    (an equality RPQ), friend-of-friend reachability and colleagues.
    """
    if num_people < 2:
        raise WorkloadError("social_network_scenario needs at least two people")
    generator = _rng(rng)
    source = DataGraph(alphabet={"friend", "employee"}, name=f"social-{num_people}")
    cities = [f"city{index}" for index in range(max(1, num_cities))]
    companies = [f"org{index}" for index in range(max(1, num_people // 5))]
    for index in range(num_people):
        source.add_node(f"p{index}", cities[generator.randrange(len(cities))])
    for company in companies:
        source.add_node(company, company)
    for index in range(num_people):
        for _ in range(friendship_per_person):
            other = generator.randrange(num_people)
            if other != index:
                source.add_edge(f"p{index}", "friend", f"p{other}")
        source.add_edge(f"p{index}", "employee", companies[generator.randrange(len(companies))])

    mapping = GraphSchemaMapping(
        [
            ("friend", "knows"),
            ("friend", "tie.tiedTo"),
            ("employee", "worksAt"),
        ],
        name="social-to-public",
    )
    navigational = {
        "friend-of-friend": rpq("knows.knows"),
        "reachable-circle": rpq("knows+"),
        "colleague-path": rpq("worksAt"),
    }
    data = {
        "same-city-friends": equality_rpq("(knows)="),
        "same-city-friend-of-friend": equality_rpq("(knows.knows)="),
        "different-city-tie": equality_rpq("(tie.tiedTo)!="),
        "city-repeats-on-circle": equality_rpq("knows* . (knows+)= . knows*"),
    }
    return Scenario("social-network", source, mapping, navigational, data)


def movie_catalog_scenario(
    num_movies: int = 12,
    num_directors: int = 5,
    rng: Optional[int | random.Random] = None,
) -> Scenario:
    """A movie-catalogue exchange scenario.

    The source lists movies valued by their release decade and
    ``directedBy`` / ``sequelOf`` edges; the mapping republishes direction
    through an invented credit node and keeps sequels; queries include
    same-decade sequels and directors with two movies in the same decade.
    """
    if num_movies < 2:
        raise WorkloadError("movie_catalog_scenario needs at least two movies")
    generator = _rng(rng)
    source = DataGraph(alphabet={"directedBy", "sequelOf"}, name=f"movies-{num_movies}")
    decades = ["1980s", "1990s", "2000s", "2010s"]
    for index in range(num_directors):
        source.add_node(f"dir{index}", f"director{index}")
    for index in range(num_movies):
        source.add_node(f"m{index}", decades[generator.randrange(len(decades))])
        source.add_edge(f"m{index}", "directedBy", f"dir{generator.randrange(num_directors)}")
        if index > 0 and generator.random() < 0.5:
            source.add_edge(f"m{index}", "sequelOf", f"m{generator.randrange(index)}")

    mapping = GraphSchemaMapping(
        [
            ("directedBy", "credit.creditedTo"),
            ("sequelOf", "follows"),
        ],
        name="catalog-to-graph",
    )
    navigational = {
        "franchise-depth-2": rpq("follows.follows"),
        "credited": rpq("credit.creditedTo"),
    }
    data = {
        "same-decade-sequel": equality_rpq("(follows)="),
        "same-decade-franchise": equality_rpq("follows* . (follows+)= . follows*"),
        "credit-value-mismatch": equality_rpq("(credit.creditedTo)!="),
    }
    return Scenario("movie-catalog", source, mapping, navigational, data)


def provenance_scenario(
    chain_length: int = 15,
    num_chains: int = 3,
    duplicate_every: int = 4,
    rng: Optional[int | random.Random] = None,
) -> Scenario:
    """A provenance / lineage exchange scenario.

    The source is a set of derivation chains whose node values are
    checksums, with duplicated checksums appearing periodically; the
    mapping expands each derivation step into a two-step path through an
    invented activity node.  Queries look for checksum collisions along
    lineage paths — the shape where the SQL-null approximation and the
    exact semantics can disagree.
    """
    if chain_length < 2 or num_chains < 1:
        raise WorkloadError("provenance_scenario needs chains of length ≥ 2")
    generator = _rng(rng)
    source = DataGraph(alphabet={"derivedFrom"}, name=f"provenance-{num_chains}x{chain_length}")
    for chain in range(num_chains):
        for position in range(chain_length):
            if duplicate_every and position % duplicate_every == duplicate_every - 1:
                checksum = f"chk:{chain}:dup"
            else:
                checksum = f"chk:{chain}:{position}:{generator.randrange(10_000)}"
            source.add_node((chain, position), checksum)
        for position in range(chain_length - 1):
            source.add_edge((chain, position), "derivedFrom", (chain, position + 1))

    mapping = GraphSchemaMapping(
        [("derivedFrom", "wasGeneratedBy.used")],
        name="provenance-to-prov",
    )
    navigational = {
        "two-steps": rpq("wasGeneratedBy.used.wasGeneratedBy.used"),
        "lineage": rpq("(wasGeneratedBy|used)+"),
    }
    data = {
        "checksum-collision": equality_rpq(
            "(wasGeneratedBy.used)* . ((wasGeneratedBy.used)+)= . (wasGeneratedBy.used)*"
        ),
        "adjacent-collision": equality_rpq("(wasGeneratedBy.used)="),
        "adjacent-difference": equality_rpq("(wasGeneratedBy.used)!="),
    }
    return Scenario("provenance", source, mapping, navigational, data)


def multi_community_scenario(
    num_communities: int = 12,
    community_size: int = 50,
    intra_edges_per_node: int = 3,
    bridges_per_community: int = 2,
    rng: Optional[int | random.Random] = None,
) -> Scenario:
    """A federated social network sized for partitioned evaluation.

    The source is a :func:`repro.datagraph.generators.community_graph`:
    dense ``knows`` clusters (one per regional community) joined by thin
    ``bridge`` edges, i.e. a shape contiguous source blocks
    (:func:`~repro.engine.partition.split_blocks`) split well.  The
    mapping replicates the source vocabulary unchanged (each region
    publishes its slice verbatim), so the bundled queries run both on the
    source graph — how the intra-query benchmarks use them — and as
    target queries.  The queries are full-relation reachability shapes
    whose product fixpoint is heavy enough for the ``blocks`` driver to
    amortise their fan-out: global reachability, cross-community
    friendship and a same-value (equality) variant.
    """
    if num_communities < 2:
        raise WorkloadError("multi_community_scenario needs at least two communities")
    source = community_graph(
        num_communities,
        community_size,
        intra_edges_per_node=intra_edges_per_node,
        bridges_per_community=bridges_per_community,
        labels=("knows",),
        bridge_label="bridge",
        rng=rng,
        domain_size=max(2, community_size // 4),
    )
    mapping = GraphSchemaMapping(
        [
            ("knows", "knows"),
            ("bridge", "bridge"),
        ],
        name="communities-replicate",
    )
    navigational = {
        "global-reach": rpq("(knows|bridge)*"),
        "cross-community-friends": rpq("knows*.bridge.knows*"),
        "two-hop-bridges": rpq("(knows|bridge)*.bridge.(knows|bridge)*.bridge.(knows|bridge)*"),
    }
    data = {
        "same-value-reach": equality_rpq("((knows|bridge)+)="),
        "bridge-value-mismatch": equality_rpq("(bridge)!="),
    }
    return Scenario(
        f"multi-community-{num_communities}x{community_size}",
        source,
        mapping,
        navigational,
        data,
    )
