"""Tests for paths and data paths."""

from __future__ import annotations

import pytest
from conftest import enumerate_paths
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagraph import DataPath, Node
from repro.datagraph.paths import Path
from repro.exceptions import PathError


def _nodes(*pairs):
    return tuple(Node(node_id, value) for node_id, value in pairs)


class TestPath:
    def test_single_node_path(self):
        path = Path(_nodes(("a", 1)), ())
        assert len(path) == 0
        assert path.source == path.target == Node("a", 1)

    def test_invalid_lengths(self):
        with pytest.raises(PathError):
            Path((), ())
        with pytest.raises(PathError):
            Path(_nodes(("a", 1), ("b", 2)), ())

    def test_label_and_data_path(self):
        path = Path(_nodes(("a", 1), ("b", 2), ("c", 1)), ("x", "y"))
        assert path.label == "xy"
        assert path.label_word == ("x", "y")
        assert path.data_path() == DataPath((1, 2, 1), ("x", "y"))

    def test_concat(self):
        p1 = Path(_nodes(("a", 1), ("b", 2)), ("x",))
        p2 = Path(_nodes(("b", 2), ("c", 3)), ("y",))
        joined = p1.concat(p2)
        assert joined.nodes == _nodes(("a", 1), ("b", 2), ("c", 3))
        assert joined.labels == ("x", "y")

    def test_concat_mismatch(self):
        p1 = Path(_nodes(("a", 1), ("b", 2)), ("x",))
        p2 = Path(_nodes(("c", 3), ("d", 4)), ("y",))
        with pytest.raises(PathError):
            p1.concat(p2)

    def test_steps(self):
        path = Path(_nodes(("a", 1), ("b", 2), ("c", 3)), ("x", "y"))
        steps = list(path.steps())
        assert steps[0] == (Node("a", 1), "x", Node("b", 2))
        assert steps[1] == (Node("b", 2), "y", Node("c", 3))

    def test_is_valid_in(self, toy_graph):
        path = Path(
            (toy_graph.node("alice"), toy_graph.node("bob"), toy_graph.node("carol")),
            ("knows", "knows"),
        )
        assert path.is_valid_in(toy_graph)
        bad = Path((toy_graph.node("alice"), toy_graph.node("carol")), ("knows",))
        assert not bad.is_valid_in(toy_graph)

    def test_str(self):
        path = Path(_nodes(("a", 1), ("b", 2)), ("x",))
        assert "-[x]->" in str(path)


class TestDataPath:
    def test_single(self):
        dp = DataPath.single(7)
        assert dp.first_value == dp.last_value == 7
        assert len(dp) == 0

    def test_from_sequence(self):
        dp = DataPath.from_sequence([1, "a", 2, "b", 3])
        assert dp.values == (1, 2, 3)
        assert dp.labels == ("a", "b")

    def test_from_sequence_invalid(self):
        with pytest.raises(PathError):
            DataPath.from_sequence([1, "a"])
        with pytest.raises(PathError):
            DataPath.from_sequence([1, 2, 3])

    def test_invalid_shape(self):
        with pytest.raises(PathError):
            DataPath((), ())
        with pytest.raises(PathError):
            DataPath((1, 2), ())

    def test_concat_shares_value(self):
        left = DataPath((1, 2), ("a",))
        right = DataPath((2, 3), ("b",))
        assert left.concat(right) == DataPath((1, 2, 3), ("a", "b"))

    def test_concat_mismatch(self):
        left = DataPath((1, 2), ("a",))
        right = DataPath((5, 3), ("b",))
        with pytest.raises(PathError):
            left.concat(right)

    def test_slice(self):
        dp = DataPath((1, 2, 3, 4), ("a", "b", "c"))
        assert dp.slice(1, 3) == DataPath((2, 3, 4), ("b", "c"))
        assert dp.slice(2, 2) == DataPath.single(3)
        with pytest.raises(PathError):
            dp.slice(2, 5)

    def test_splits(self):
        dp = DataPath((1, 2, 3), ("a", "b"))
        splits = list(dp.splits())
        assert len(splits) == 3
        for left, right in splits:
            assert left.concat(right) == dp

    def test_items_and_str(self):
        dp = DataPath((1, 2), ("a",))
        assert dp.items() == (1, "a", 2)
        assert str(dp) == "1 a 2"

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8))
    @settings(max_examples=50)
    def test_splits_always_recompose(self, values):
        labels = tuple("a" for _ in range(len(values) - 1))
        dp = DataPath(tuple(values), labels)
        for left, right in dp.splits():
            assert left.concat(right) == dp


class TestGraphPathHelpers:
    def test_enumerate_paths_bounded(self, toy_graph):
        paths = list(enumerate_paths(toy_graph, "alice", max_length=2))
        # length 0 path always included
        assert any(len(p) == 0 for p in paths)
        labels = {p.label_word for p in paths}
        assert ("knows", "knows") in labels
        assert all(len(p) <= 2 for p in paths)

    def test_enumerate_paths_with_target(self, toy_graph):
        paths = list(enumerate_paths(toy_graph, "alice", max_length=3, target="dave"))
        assert paths
        assert all(p.target.id == "dave" for p in paths)

    def test_enumerate_paths_with_labels(self, toy_graph):
        paths = list(enumerate_paths(toy_graph, "alice", max_length=3, labels={"worksAt"}))
        assert {p.target.id for p in paths} == {"alice", "uni"}

    def test_enumerate_paths_chain_count(self, chain_graph_10):
        paths = list(enumerate_paths(chain_graph_10, "c0", max_length=10))
        # exactly one path of each length 0..10
        assert len(paths) == 11
