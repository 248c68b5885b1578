"""Product spaces: one configuration-space protocol for the automaton dialects.

Every automaton-based query language in the paper evaluates by
reachability in a product of the graph with some finite control — an NFA
for plain RPQs, a register automaton for memory RPQs.  (GXPath has no
product: it runs on the bit rows of :mod:`repro.engine.data`.)  The
phase kernels in :mod:`repro.engine.product` (forward
expansion, backward pruning, bitmask source propagation, answer
decoding) only ever need five operations from that product, captured
here as the **ProductSpace protocol**:

``seed_configs(node)``
    The configurations a source node *node* starts in (its "seed
    identity"): the product states reachable before reading any edge.
``successors(adjacency, config)``
    One-step expansion of *config* along the edges served by
    *adjacency* — anything with the ``targets(label, node)`` interface,
    in practice the space's :class:`~repro.datagraph.index.LabelIndex`.
``predecessors(adjacency, config)``
    One-step reverse expansion (only when :attr:`prune` is true;
    *adjacency* must serve ``sources(label, node)``).
``is_accepting(config)`` / ``node_of(config)``
    The acceptance test, and the graph node a configuration sits at —
    together they let :func:`~repro.engine.product.decode_pairs` read
    ``(source, node_of(config))`` off every accepting mask bit.

The same five operations also give every space **seeded** evaluation
(:func:`~repro.engine.product.seeded_product_relation`, the CRPQ
planner's semijoin contract) for free: restricting the nodes handed to
``seed_configs`` restricts the sources a relation is computed from, and
restricting which accepting configurations count (by ``node_of``)
restricts the targets — no space needs seeding-specific code.

Two implementations cover the paper's automaton-based languages:

* :class:`NfaProductSpace` — ``(node, state)`` configurations over a
  compiled ε-free NFA; plain RPQs.  Supports backward pruning.
* :class:`RegisterProductSpace` — ``(node, state, valuation)``
  configurations over a register automaton; memory RPQs (REM) and, via
  the REE→REM translation, equality RPQs.  One mask-propagation pass
  over this space replaces the historical per-source search: sources
  whose runs meet in the same configuration share all downstream work,
  and the source sets ride along as word-parallel big-int ORs.  Silent
  closures come from a per-space
  :class:`~repro.datapaths.register_automata.RegisterStepper`, which
  memoises them per data value (the int-id twin in
  :mod:`repro.engine.compact` uses the same stepper).
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from ..datagraph.index import LabelIndex
from ..datagraph.node import NodeId
from ..datapaths.register_automata import RegisterAutomaton, RegisterStepper
from .compiled import CompiledAutomaton

__all__ = [
    "ProductSpace",
    "NfaProductSpace",
    "RegisterProductSpace",
]


class ProductSpace:
    """Protocol base class for (graph × control) configuration spaces.

    Subclasses hold the global :class:`LabelIndex` (node ordering, data
    values) but take the *adjacency* each expansion runs over as a call
    parameter, so one space instance serves the sequential kernels and
    every source-block worker.  Configurations
    are opaque hashable values; only the space interprets them.

    :attr:`prune` declares whether the space supports backward expansion
    (:meth:`predecessors`): when true, the drivers run the
    forward/backward phases and hand the kernels a *useful* set; when
    false (register automata — valuations cannot be run backwards) the
    propagation phase simply runs unpruned.
    """

    __slots__ = ()

    #: Whether backward pruning is available (and worthwhile).
    prune: bool = False
    index: LabelIndex

    def seed_configs(self, node: NodeId) -> Iterable:
        """The configurations source *node* occupies before reading any edge."""
        raise NotImplementedError

    def successors(self, adjacency, config) -> Iterable:
        """One-step successors of *config* along *adjacency*'s edges."""
        raise NotImplementedError

    def predecessors(self, adjacency, config) -> Iterable:
        """One-step predecessors (``prune`` spaces only)."""
        raise NotImplementedError

    def is_accepting(self, config) -> bool:
        """Whether *config* witnesses an answer ending at :meth:`node_of`."""
        raise NotImplementedError

    def node_of(self, config) -> NodeId:
        """The graph node the configuration sits at."""
        raise NotImplementedError


class NfaProductSpace(ProductSpace):
    """The classical (graph × NFA) product of plain RPQ evaluation.

    Configurations are ``(node, state)`` pairs over a
    :class:`~repro.engine.compiled.CompiledAutomaton`.  This is the
    refactored form of the behaviour the kernels hard-coded before the
    protocol existed, and the only space with backward pruning (ε-free
    NFAs reverse trivially).
    """

    __slots__ = ("index", "automaton", "_moves", "_backward_moves", "_accepting")

    prune = True

    def __init__(self, index: LabelIndex, automaton: CompiledAutomaton):
        self.index = index
        self.automaton = automaton
        self._moves = automaton.moves
        self._backward_moves = automaton.backward_moves
        self._accepting = automaton.accepting

    def seed_configs(self, node: NodeId) -> List[Tuple[NodeId, int]]:
        return [(node, state) for state in self.automaton.initial]

    def successors(self, adjacency, config) -> List[Tuple[NodeId, int]]:
        node, state = config
        targets_of = adjacency.targets
        out: List[Tuple[NodeId, int]] = []
        for symbol, next_states in self._moves[state]:
            for target in targets_of(symbol, node):
                for next_state in next_states:
                    out.append((target, next_state))
        return out

    def predecessors(self, adjacency, config) -> List[Tuple[NodeId, int]]:
        node, state = config
        sources_of = adjacency.sources
        out: List[Tuple[NodeId, int]] = []
        for symbol, previous_states in self._backward_moves[state]:
            for source in sources_of(symbol, node):
                for previous_state in previous_states:
                    out.append((source, previous_state))
        return out

    def is_accepting(self, config) -> bool:
        return config[1] in self._accepting

    def node_of(self, config) -> NodeId:
        return config[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NfaProductSpace {len(self.index.nodes)} nodes x {self.automaton!r}>"


class RegisterProductSpace(ProductSpace):
    """The (graph × register automaton) product of memory-RPQ evaluation.

    Configurations are ``(node, state, valuation)`` triples: the register
    valuation is part of the control state, so the space is as large as
    the distinct register contents runs can accumulate.  Expansion steps
    a letter transition across an edge and immediately closes under the
    automaton's silent guard/store moves against the target node's data
    value, exactly as the historical per-source search did — but driven
    through the shared kernels, one propagation pass covers **all**
    sources at once: runs from different sources that meet in the same
    configuration merge their source bitmasks and share every expansion
    after the meeting point.

    Backward pruning is unsupported: guards and stores read the forward
    direction's current data value, so the product does not reverse.
    """

    __slots__ = ("index", "automaton", "null_semantics", "_values", "_stepper", "_accepting")

    prune = False

    def __init__(
        self, index: LabelIndex, automaton: RegisterAutomaton, null_semantics: bool = False
    ):
        self.index = index
        self.automaton = automaton
        self.null_semantics = null_semantics
        self._values = index.values
        self._accepting = automaton.accepting
        # Silent closures come from the stepper's per-value memo, keyed
        # by the data value itself; the valuations it hands out are its
        # canonical objects, so equal configurations mostly compare by
        # identity.
        self._stepper = RegisterStepper(automaton, null_semantics)

    def seed_configs(self, node: NodeId) -> List[Tuple[NodeId, int, object]]:
        stepper = self._stepper
        states, valuations = stepper.states, stepper.valuations
        return [
            (node, states[sv], valuations[sv]) for sv in stepper.initial(self._values[node])
        ]

    def successors(self, adjacency, config) -> List[Tuple[NodeId, int, object]]:
        node, state, valuation = config
        targets_of = adjacency.targets
        stepper = self._stepper
        states, valuations, step = stepper.states, stepper.valuations, stepper.step
        values = self._values
        sv = stepper.sv_of(state, valuation)
        out: List[Tuple[NodeId, int, object]] = []
        for symbol, target_state in self.automaton.letters_from(state):
            for neighbour in targets_of(symbol, node):
                for next_sv in step(sv, target_state, values[neighbour]):
                    out.append((neighbour, states[next_sv], valuations[next_sv]))
        return out

    def is_accepting(self, config) -> bool:
        return config[1] in self._accepting

    def node_of(self, config) -> NodeId:
        return config[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RegisterProductSpace {len(self.index.nodes)} nodes x "
            f"{self.automaton.num_states} states>"
        )

