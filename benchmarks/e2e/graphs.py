"""Seeded tiered-supplier graphs, emitted as graph JSON documents.

The benchmark's domain graph follows the supplier schema of SNIPPETS
snippet 3 (``Supplier`` nodes with a ``tier``, recursive ``supplies_to``):
``tiers x width`` supplier nodes whose data value is their tier, ``fan``
``supplies_to`` edges from each node to the tier below, one
``located_in`` edge to one of 8 region nodes, ``alt_for`` edges inside a
tier for 20 % of its nodes, and ``returns_to`` back-edges for 3 % (so
closures over ``supplies_to|returns_to`` are cyclic).

The wiring is *regular* on purpose: ``supplies_to`` is a union of ``fan``
random perfect matchings (in- and out-degree are both exactly ``fan``),
regions are dealt round-robin, the ``alt_for`` / ``returns_to`` sources
are exact per-tier counts, and each ``returns_to`` edge closes a cycle
through two of its source's own suppliers.  A seed therefore changes
*which* nodes are wired together but barely how much work a query does —
the benchmark's run-to-run spread across seeds has to stay inside the
regression bounds of ``BENCHMARK.json``.

Only the generated document ever reaches the program under test.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List

REGIONS = 8
ALT_SHARE = 0.20
RETURN_SHARE = 0.03

#: name -> (tiers, width, fan).  ``supplier_s`` (608 nodes) sits above
#: COMPACT_AUTO_MIN_NODES and the daemon's pool floor but below the SQL
#: floor; ``supplier_l`` (1,048 nodes) sits above the 1,024-node SQL
#: floor, so the ``rpq_pays`` / ``plan_pays`` routes fire.
SHAPES = {"supplier_s": (6, 100, 3), "supplier_l": (8, 130, 2)}

LABELS = ("alt_for", "located_in", "returns_to", "supplies_to")


def supplier_id(tier: int, index: int) -> str:
    return f"s{tier}_{index:03d}"


def supplier_document(seed: int, tiers: int, width: int, fan: int, name: str) -> Dict:
    """The graph document (``graph_from_dict`` shape) for one seed."""
    rng = random.Random(f"{name}:{seed}")
    regions = [f"region{r}" for r in range(REGIONS)]
    nodes: List[Dict] = [{"id": region, "value": f"R{r}"} for r, region in enumerate(regions)]
    ids = [[supplier_id(tier, i) for i in range(width)] for tier in range(tiers)]
    for tier in range(tiers):
        nodes.extend({"id": node, "value": tier} for node in ids[tier])

    edges: List[Dict] = []
    suppliers: Dict[str, List[str]] = {}  # node -> the tier-above nodes supplying it

    def add(source: str, label: str, target: str) -> None:
        edges.append({"source": source, "label": label, "target": target})

    for tier in range(1, tiers):
        chosen: Dict[str, set] = {node: set() for node in ids[tier]}
        for _ in range(fan):
            while True:  # one perfect matching that repeats no earlier edge
                below = ids[tier - 1][:]
                rng.shuffle(below)
                if all(below[i] not in chosen[ids[tier][i]] for i in range(width)):
                    break
            for i in range(width):
                chosen[ids[tier][i]].add(below[i])
        for node in ids[tier]:
            for target in sorted(chosen[node]):
                add(node, "supplies_to", target)
                suppliers.setdefault(target, []).append(node)

    for tier in range(tiers):
        order = list(range(width))
        rng.shuffle(order)
        for rank, i in enumerate(order):
            add(ids[tier][i], "located_in", regions[rank % REGIONS])
        for i in rng.sample(range(width), round(width * ALT_SHARE)):
            j = rng.randrange(width - 1)
            add(ids[tier][i], "alt_for", ids[tier][j + (j >= i)])
        if tier < tiers - 2:
            for i in rng.sample(range(width), max(1, round(width * RETURN_SHARE))):
                middle = rng.choice(suppliers[ids[tier][i]])
                add(ids[tier][i], "returns_to", rng.choice(suppliers[middle]))

    return {"name": name, "alphabet": list(LABELS), "nodes": nodes, "edges": edges}


def graph_document(name: str, seed: int, shrink: int = 1) -> Dict:
    """The named benchmark graph; ``shrink=2`` halves the tier width (the
    reduced graph ``--verify-oracle`` can afford to evaluate naively)."""
    tiers, width, fan = SHAPES[name]
    return supplier_document(seed, tiers, width // shrink, fan, name)


def graph_json(document: Dict) -> str:
    return json.dumps(document, sort_keys=True)
