"""The six benchmark workloads: fixed, seeded operation lists.

A workload is a graph shape, a *deck* (exact per-class operation counts,
so every seed runs the same mix and counts repeat exactly) and a seeded
shuffle plus seeded arguments (sources, edges to insert).  One **pass**
replays the whole list once against a freshly set-up driver; the runner
repeats passes until the requested measuring time is spent, so every
pass — and therefore every run — executes the same operations.

Deck counts are tuned so that one pass lasts 2–3 s on the 2-core
reference host and so that the median and the 90th percentile of the
pooled latencies each fall *inside* one query's cluster rather than on
the boundary between two (a boundary percentile flips between clusters
from run to run).  Adjust counts, never graph shapes.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Sequence, Tuple

from graphs import SHAPES, supplier_id

QuerySpec = Tuple[str, str]  # (dialect, text)


class Op(NamedTuple):
    """One timed operation.

    ``keys`` name the answers the operation returns, in order, for the
    oracle: ``dialect:text[|source[|target]]@version`` where *version*
    counts the mutation batches this client applied before the answer.
    """

    kind: str  # "run" | "targets" | "holds" | "mutate"
    cls: str  # op class reported as op.<cls>.p50_ms
    queries: Tuple[QuerySpec, ...]
    args: tuple
    keys: Tuple[str, ...]


def answer_key(query: QuerySpec, args: Sequence = (), version: int = 0) -> str:
    dialect, text = query
    return "|".join([f"{dialect}:{text}", *map(str, args)]) + f"@{version}"


def _run(cls: str, query: QuerySpec, version: int = 0) -> Op:
    return Op("run", cls, (query,), (), (answer_key(query, (), version),))


def _targets(cls: str, query: QuerySpec, source: str, version: int = 0) -> Op:
    return Op("targets", cls, (query,), (source,), (answer_key(query, (source,), version),))


def _holds(query: QuerySpec, source: str, target: str) -> Op:
    return Op("holds", "point", (query,), (source, target), (answer_key(query, (source, target)),))


def _deal(rng: random.Random, deck: Sequence[Tuple[object, int]]) -> List:
    """The deck's cards, each repeated its count, in seeded order."""
    cards = [card for card, count in deck for _ in range(count)]
    rng.shuffle(cards)
    return cards


class _Zipf:
    """Zipf(1.0) draws over a seeded ranking of *items*."""

    def __init__(self, rng: random.Random, items: Sequence[str]):
        self.rng = rng
        self.items = list(items)
        rng.shuffle(self.items)
        self.weights = [1.0 / rank for rank in range(1, len(self.items) + 1)]

    def draw(self, count: int) -> List[str]:
        return self.rng.choices(self.items, weights=self.weights, k=count)


def _suppliers(document: Dict) -> List[str]:
    return [node["id"] for node in document["nodes"] if not node["id"].startswith("region")]


# ----------------------------------------------------------------------
# Query texts
# ----------------------------------------------------------------------
CLOSURES = ("supplies_to+", "(supplies_to|returns_to)+", "(supplies_to|alt_for)+")
CONCATS = (
    "supplies_to*.located_in",
    "supplies_to.supplies_to.supplies_to",
    "alt_for.supplies_to*",
    "returns_to.supplies_to+",
    "supplies_to.alt_for.located_in",
)
GXPATHS = (
    ("gxpath-path", "supplies_to*.[<alt_for>]"),
    ("gxpath-node", "<supplies_to*.returns_to>"),
    ("gxpath-path", "supplies_to-.alt_for"),
)
REMS = ("!x.(supplies_to[x!=])+", "!x.((supplies_to|returns_to)[x!=])+")
REES = ("((supplies_to)+)!=", "(supplies_to.supplies_to)!=", "(alt_for)=")
CRPQS = (
    "x,z :- (x, alt_for, y), (y, supplies_to+, z), (z, located_in, r)",
    "x,r :- (x, supplies_to+, y), (y, alt_for, z), (z, located_in, r)",
    "x,z :- (x, returns_to, y), (y, supplies_to+, z), (z, alt_for, w)",
    "x,y :- (x, ree:(supplies_to.supplies_to)!=, y), (y, alt_for, z), (z, located_in, r)",
    "x,z :- (x, rem:!v.(supplies_to[v!=])+, y), (y, returns_to, z), (z, located_in, r)",
    "x,w :- (x, alt_for, y), (y, supplies_to.supplies_to, z), (z, alt_for, w)",
    "x,r :- (x, returns_to, y), (y, (supplies_to|alt_for)+, z), (z, located_in, r)",
)
POINT_TEXTS = (
    "supplies_to+",
    "supplies_to*.located_in",
    "alt_for.supplies_to*",
    "(supplies_to|returns_to)+",
    "supplies_to.supplies_to",
)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """A named operation list over one graph shape.

    ``driver`` picks how the runner executes operations: ``"fresh"`` (a
    new default-policy session per operation), ``"session"`` (one
    long-lived session) or ``"daemon"`` (``RemoteSession`` connections
    to a child ``repro serve`` process, one per client list, served in
    turn by one closed loop).
    """

    name: str
    graph: str
    driver: str
    why: str
    #: leading share of the list replayed during set-up (see harness.warmup_ops)
    warm_share = 0.0

    def client_ops(self, seed: int, document: Dict) -> List[List[Op]]:
        """One operation list per client (connection)."""
        raise NotImplementedError

    def rng(self, seed: int) -> random.Random:
        return random.Random(f"{self.name}:{seed}")


class RpqFull(Workload):
    name, graph, driver = "rpq_full", "supplier_s", "fresh"
    why = (
        "full RPQ/GXPath relations on fresh sessions: NFA product kernels, node decode "
        "and the CSR index do the work; planner, register kernels and wire do none"
    )
    # Sorted by cost: 19 cheap ops, a 52-op cluster of 11-16 ms
    # concatenations around the median, 6 mid ops, 13 ~70 ms closures
    # around the 90th percentile.
    deck = (
        (("closure", ("rpq", CLOSURES[0])), 2),
        (("closure", ("rpq", CLOSURES[1])), 5),
        (("closure", ("rpq", CLOSURES[2])), 8),
        (("concat", ("rpq", CONCATS[0])), 18),
        (("concat", ("rpq", CONCATS[1])), 18),
        (("concat", ("rpq", CONCATS[2])), 16),
        (("concat", ("rpq", CONCATS[3])), 8),
        (("concat", ("rpq", CONCATS[4])), 8),
        (("gxpath", GXPATHS[0]), 2),
        (("gxpath", GXPATHS[1]), 2),
        (("gxpath", GXPATHS[2]), 3),
    )

    def client_ops(self, seed, document):
        return [[_run(cls, query) for cls, query in _deal(self.rng(seed), self.deck)]]


class DataRpqFull(Workload):
    name, graph, driver = "data_rpq_full", "supplier_s", "fresh"
    why = (
        "full REM/REE relations on fresh sessions: the register-automaton and REE kernels "
        "dominate and the NFA kernels idle (settles compact vs dict on REM)"
    )
    deck = (
        (("rem", ("rem", REMS[0])), 3),
        (("rem", ("rem", REMS[1])), 4),
        (("ree", ("ree", REES[0])), 9),
        (("ree", ("ree", REES[1])), 5),
        (("ree", ("ree", REES[2])), 3),
    )

    def client_ops(self, seed, document):
        return [[_run(cls, query) for cls, query in _deal(self.rng(seed), self.deck)]]


class CrpqJoin(Workload):
    name, graph, driver = "crpq_join", "supplier_l", "fresh"
    why = (
        "three-atom CRPQs above the 1,024-node SQL floor: statistics, planning, joins and "
        "the SQL backend do the work; the only workload a routing change shows on"
    )
    counts = (2, 3, 3, 7, 1, 3, 1)  # the 4th (~85 ms) spans the median, the 2nd (~360 ms) p90

    def client_ops(self, seed, document):
        deck = [(("crpq", ("crpq", text)), count) for text, count in zip(CRPQS, self.counts)]
        return [[_run(cls, query) for cls, query in _deal(self.rng(seed), deck)]]


class PointLookup(Workload):
    name, graph, driver = "point_lookup", "supplier_s", "session"
    why = (
        "Zipf point lookups on one session whose key set exceeds the 1,024-entry point "
        "cache: parsing and cache keying/eviction dominate, kernels do little"
    )
    ops_per_pass = 20_000
    warm_share = 0.10

    def client_ops(self, seed, document):
        rng = self.rng(seed)
        total = self.ops_per_pass
        deck = [(("targets", ("rpq", text)), total * 16 // 100) for text in POINT_TEXTS]
        deck.append((("holds", ("rpq", POINT_TEXTS[0])), total // 10))
        deck.append((("rem", ("rem", REMS[0])), total // 10))
        cards = _deal(rng, deck)
        nodes = [node["id"] for node in document["nodes"]]
        sources = _Zipf(rng, nodes).draw(len(cards))
        suppliers = _suppliers(document)
        ops = []
        for (kind, query), source in zip(cards, sources):
            if kind == "holds":
                ops.append(_holds(query, source, rng.choice(suppliers)))
            else:
                ops.append(_targets("rem-point" if kind == "rem" else "point", query, source))
        return [ops]


class _EdgePicker:
    """Seeded choice of edges to insert or remove, tracking what exists."""

    def __init__(self, rng: random.Random, document: Dict, graph: str):
        self.rng = rng
        self.tiers, self.width, _fan = SHAPES[graph]
        self.present = {
            (edge["source"], edge["label"], edge["target"]) for edge in document["edges"]
        }
        self.removable = sorted(edge for edge in self.present if edge[1] == "supplies_to")

    def _fresh(self, label: str, tier_step: int) -> Tuple[str, str, str]:
        while True:
            tier = self.rng.randrange(tier_step, self.tiers)
            edge = (
                supplier_id(tier, self.rng.randrange(self.width)),
                label,
                supplier_id(tier - tier_step, self.rng.randrange(self.width)),
            )
            if edge not in self.present and edge[0] != edge[2]:
                self.present.add(edge)
                return edge

    def inserts(self, label: str, count: int) -> List[list]:
        step = 1 if label == "supplies_to" else 0
        return [["add_edge", *self._fresh(label, step)] for _ in range(count)]

    def removal(self) -> List[list]:
        edge = self.removable.pop(self.rng.randrange(len(self.removable)))
        self.present.discard(edge)
        return [["remove_edge", *edge]]


class MutateRequery(Workload):
    name, graph, driver = "mutate_requery", "supplier_s", "session"
    why = (
        "writes beside reads: each op is one graph.batch() then a re-run of three cached "
        "answers, loading index patching, statistics/SQL refresh and delta repair"
    )
    queries = (("rpq", CLOSURES[0]), ("rpq", CONCATS[0]), ("crpq", CRPQS[0]))
    deck = (("insert", 14), ("alt-insert", 2), ("removal", 4))

    def client_ops(self, seed, document):
        rng = self.rng(seed)
        picker = _EdgePicker(rng, document, self.graph)
        ops = []
        for version, kind in enumerate(_deal(rng, self.deck), start=1):
            if kind == "removal":
                actions = picker.removal()
            else:
                actions = picker.inserts("supplies_to" if kind == "insert" else "alt_for", 4)
            keys = tuple(answer_key(query, (), version) for query in self.queries)
            ops.append(Op("mutate", kind, self.queries, (actions,), keys))
        return [ops]


class DaemonMixed(Workload):
    name, graph, driver = "daemon_mixed", "supplier_s", "daemon"
    why = (
        "one closed loop alternating over two connections to a repro serve child: wire codec, "
        "framing, admission and pool rounds do the work; one connection's writes invalidate "
        "the other's caches"
    )
    #: connection 0 re-runs this after each of its alt_for-only batches
    alt_query = ("rpq", "alt_for.located_in")
    #: full relations of a few thousand pairs: the costly 20 % of the mix,
    #: so the 90th percentile falls inside their band
    relation_runs = (
        ("rpq", CONCATS[0]),
        ("rpq", "supplies_to.supplies_to"),
        ("rpq", "supplies_to.supplies_to.located_in"),
    )

    def client_ops(self, seed, document):
        rng = self.rng(seed)
        nodes = [node["id"] for node in document["nodes"]]
        # Connection 0: mixed reads plus alt_for-only writes.
        deck = [
            (("targets", ("rpq", POINT_TEXTS[0])), 25),
            (("targets", ("rpq", POINT_TEXTS[1])), 17),
            (("targets", ("rpq", POINT_TEXTS[2])), 16),
            (("run", ("crpq", CRPQS[5])), 4),
            (("run", self.relation_runs[0]), 6),
            (("run", self.relation_runs[1]), 6),
            (("mutate", self.alt_query), 2),
        ]
        cards = _deal(rng, deck)
        sources = _Zipf(rng, nodes).draw(len(cards) + 4)
        picker = _EdgePicker(rng, document, self.graph)
        writer, version = [], 0
        for (kind, query), source in zip(cards, sources):
            if kind == "mutate":
                version += 1
                actions = picker.inserts("alt_for", 2)
                writer.append(
                    Op("mutate", "insert", (query,), (actions,), (answer_key(query, (), version),))
                )
                # A write invalidates every version-keyed cache, so the
                # first REM point after it is the costly one.  Pinning two
                # REM points behind each write makes that happen exactly
                # once per write for any shuffle.
                for _ in range(2):
                    writer.append(_targets("rem-point", ("rem", REMS[0]), sources.pop(), version))
            elif kind == "run":
                writer.append(_run("remote-run", query, version))
            else:
                writer.append(_targets("remote-point", query, source, version))
        # Connection 1: read-only over supplies_to / located_in, so its
        # answers never depend on connection 0's writes, only its caches do.
        deck = [
            (("targets", ("rpq", POINT_TEXTS[0])), 32),
            (("targets", ("rpq", POINT_TEXTS[1])), 12),
            (("targets", ("rpq", POINT_TEXTS[4])), 16),
            (("run", self.relation_runs[0]), 7),
            (("run", self.relation_runs[1]), 7),
            (("run", self.relation_runs[2]), 6),
        ]
        cards = _deal(rng, deck)
        sources = _Zipf(rng, nodes).draw(len(cards))
        reader = [
            _run("remote-run", query) if kind == "run" else _targets("remote-point", query, source)
            for (kind, query), source in zip(cards, sources)
        ]
        return [writer, reader]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        RpqFull(), DataRpqFull(), CrpqJoin(), PointLookup(), MutateRequery(), DaemonMixed()
    )
}

#: Every op class a workload can report (op.<class>.p50_ms); the traced
#: analysis refines a local ``point`` into hit/miss and ``crpq`` by route.
OP_CLASSES = (
    "closure", "concat", "gxpath", "rem", "ree", "crpq-sql", "crpq-compact",
    "point-hit", "point-miss", "rem-point", "insert", "alt-insert", "removal",
    "remote-run", "remote-point",
)
