"""Tests for the lazily built, mutation-invalidated label index."""

from __future__ import annotations

from repro.datagraph import GraphBuilder, LabelIndex


def build_graph():
    return (
        GraphBuilder(name="index-test")
        .node("p", 1)
        .node("q", 2)
        .node("r", 1)
        .edge("p", "a", "q")
        .edge("q", "b", "r")
        .edge("p", "a", "r")
        .build()
    )


def test_label_index_is_cached_until_mutation():
    graph = build_graph()
    first = graph.label_index()
    assert graph.label_index() is first  # lazy: built once, reused
    graph.add_edge("r", "a", "p")
    second = graph.label_index()
    assert second is not first
    assert second.version == graph.version
    assert ("r", "p") in set(second.pairs("a"))


def test_every_mutation_invalidates_the_index():
    graph = build_graph()

    def current_version():
        graph.label_index()
        return graph.version

    version = current_version()
    graph.add_node("s", 3)
    assert current_version() > version

    version = current_version()
    graph.add_edge("s", "b", "p")
    assert current_version() > version

    version = current_version()
    graph.remove_edge("s", "b", "p")
    assert current_version() > version

    version = current_version()
    graph.set_value("s", 4)
    assert current_version() > version

    version = current_version()
    graph.remove_node("s")
    assert current_version() > version

    version = current_version()
    graph.declare_labels(["c"])
    assert current_version() > version


def test_noop_operations_do_not_invalidate():
    graph = build_graph()
    index = graph.label_index()
    graph.add_node("p", 1)  # re-adding an identical node is a no-op
    graph.add_edge("p", "a", "q")  # duplicate edge
    graph.remove_edge("p", "b", "q")  # absent edge
    graph.declare_labels(["a"])  # label already known
    assert graph.label_index() is index


def test_index_adjacency_matches_graph():
    graph = build_graph()
    index = graph.label_index()
    assert set(index.pairs("a")) == {("p", "q"), ("p", "r")}
    assert set(index.pairs("b")) == {("q", "r")}
    assert index.targets("a", "p") in (("q", "r"), ("r", "q"))
    assert index.targets("a", "q") == ()
    assert index.sources("b", "r") == ("q",)
    assert index.sources("missing-label", "r") == ()
    assert index.values == {"p": 1, "q": 2, "r": 1}
    assert index.labels == {"a", "b"}
    assert index.edge_labels() == {"a", "b"}
    # forward and backward views describe the same edge set
    forward = {(s, label, t) for label in index.labels for s, t in index.pairs(label)}
    backward = {
        (s, label, t)
        for label in index.labels
        for t, sources in index.predecessors(label).items()
        for s in sources
    }
    assert forward == backward == graph.edge_set()


def test_stale_index_is_rebuilt_not_served():
    graph = build_graph()
    index = graph.label_index()
    assert set(index.pairs("a")) == {("p", "q"), ("p", "r")}
    graph.remove_edge("p", "a", "r")
    rebuilt = graph.label_index()
    assert set(rebuilt.pairs("a")) == {("p", "q")}
    # the old snapshot is unchanged (immutable view of the old state)
    assert set(index.pairs("a")) == {("p", "q"), ("p", "r")}


def test_direct_construction_snapshots_current_state():
    graph = build_graph()
    index = LabelIndex(graph)
    assert index.version == graph.version
    assert index.nodes == graph.node_ids
