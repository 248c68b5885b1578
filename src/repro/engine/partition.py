"""Partitioned evaluation: the forced source-block driver.

:func:`parallel_product_relation` splits one product-relation pass
across worker processes, built from the phase kernels of
:mod:`repro.engine.product` and **generic over any**
:class:`~repro.engine.spaces.ProductSpace` — plain RPQs and
register-automaton data RPQs ride the same driver (GXPath runs on bit
rows, sequentially, and declines it).  It keeps one copy of the graph but
splits the phase-3 bitmask propagation fixpoint — which dominates
full-relation evaluation — into independent blocks of source nodes.  For
pruning spaces, phases 1–2 (forward reachability + backward prune) run
once in the caller; each worker then propagates only its block's seed
bits and the per-block answer pairs are unioned.  The ``"fork"`` backend
ships the space (graph index, compiled control) to workers by
copy-on-write through :func:`~repro.engine.forkpool.run_forked`, which is
what actually buys CPU parallelism under the GIL; the ``"thread"``
backend exists for platforms without ``fork``.

The driver also runs **seeded** (``sources`` / ``targets`` restricted)
evaluation — see :func:`repro.engine.product.seeded_product_relation` —
which is how the CRPQ planner's per-atom semijoin scans inherit it
without any planner-specific driver code.

Only a forced ``ExecutionPolicy(intra_query="blocks")`` reaches this
module, through :func:`partitioned_product_relation`.
:func:`parallel_full_relation` keeps the ``(index, automaton)`` signature
for plain RPQs.  Equivalence across dialects is pinned by
``tests/engine/test_partition.py`` / ``tests/engine/test_spaces.py``, and
the ``bench_intraquery_parallel`` CI gate measures the driver against
sequential.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence, Set, Tuple

from ..datagraph.index import LabelIndex
from ..datagraph.node import NodeId
from ..exceptions import EvaluationError
from .compiled import CompiledAutomaton
from .forkpool import fork_available, run_forked
from . import product
from .product import Pair
from .spaces import NfaProductSpace, ProductSpace

__all__ = [
    "split_blocks",
    "parallel_product_relation",
    "parallel_full_relation",
    "partitioned_product_relation",
]


# ----------------------------------------------------------------------
# Source-block parallelism
# ----------------------------------------------------------------------
def split_blocks(nodes: Sequence[NodeId], num_blocks: int) -> List[Tuple[NodeId, ...]]:
    """Split *nodes* into at most *num_blocks* contiguous, near-equal blocks.

    Every node lands in exactly one block and no block is empty (fewer
    blocks are returned when there are fewer nodes than requested).
    """
    if num_blocks < 1:
        raise EvaluationError(f"num_blocks must be positive, got {num_blocks}")
    count = len(nodes)
    num_blocks = min(num_blocks, count)
    if num_blocks <= 1:
        return [tuple(nodes)] if count else []
    size, extra = divmod(count, num_blocks)
    blocks: List[Tuple[NodeId, ...]] = []
    start = 0
    for block_index in range(num_blocks):
        end = start + size + (1 if block_index < extra else 0)
        blocks.append(tuple(nodes[start:end]))
        start = end
    return blocks


def _block_worker(state, block_index: int) -> Set[Pair]:
    """Forked worker: one source block's relation (state arrives by fork)."""
    space, useful, blocks, targets = state
    return product.source_block_relation(space, useful, blocks[block_index], targets=targets)


def parallel_product_relation(
    space: ProductSpace,
    num_blocks: Optional[int] = None,
    backend: str = "auto",
    sources: Optional[Sequence[NodeId]] = None,
    targets: Optional[Set[NodeId]] = None,
) -> Set[Pair]:
    """``product_relation`` with the phase-3 fixpoint fanned out over source blocks.

    Works for any :class:`ProductSpace`: pruning spaces share the
    forward/backward phases across all blocks; non-pruning spaces (the
    register product) hand every block an unpruned fixpoint.
    With *sources* / *targets* given this is the driver-parallel form of
    :func:`~repro.engine.product.seeded_product_relation`: the blocks are
    cut from the bound source set only, so a CRPQ seeded scan fans its
    semijoin out over the same worker pool as a full relation.

    Parameters
    ----------
    num_blocks:
        Number of source blocks (and workers); defaults to the CPU count
        capped at 8.
    backend:
        ``"fork"``, ``"thread"``, or ``"auto"`` (fork when available).
    sources / targets:
        Optional endpoint restrictions (seeded evaluation); ``None``
        means unrestricted.
    """
    if backend not in {"auto", "fork", "thread"}:
        raise EvaluationError(f"unknown intra-query backend {backend!r}")
    nodes = space.index.nodes if sources is None else tuple(sources)
    if not nodes:
        return set()
    if targets is not None:
        if not targets:
            return set()
        targets = set(targets)
    useful: Optional[Set] = None
    if space.prune:
        reachable = product.forward_expand(space, product.initial_configs(space, sources))
        useful = product.backward_prune(space, reachable, targets=targets)
        if not useful:
            return set()
    workers = num_blocks if num_blocks is not None else min(os.cpu_count() or 1, 8)
    if workers < 1:
        raise EvaluationError(f"num_blocks must be positive, got {workers}")
    blocks = split_blocks(nodes, workers)
    if len(blocks) <= 1:
        return product.source_block_relation(space, useful, nodes, targets=targets)
    if backend == "auto":
        backend = "fork" if fork_available() else "thread"
    if backend == "fork" and fork_available():
        partials = run_forked((space, useful, blocks, targets), _block_worker, len(blocks))
        return set().union(*partials)
    with ThreadPoolExecutor(max_workers=len(blocks)) as pool:
        partials = pool.map(
            lambda block: product.source_block_relation(space, useful, block, targets=targets),
            blocks,
        )
        return set().union(*partials)


def parallel_full_relation(
    index: LabelIndex,
    automaton: CompiledAutomaton,
    num_blocks: Optional[int] = None,
    backend: str = "auto",
) -> Set[Pair]:
    """The plain-RPQ entry point: source-block parallelism over the NFA product."""
    return parallel_product_relation(
        NfaProductSpace(index, automaton), num_blocks=num_blocks, backend=backend
    )


# ----------------------------------------------------------------------
# Mode dispatch
# ----------------------------------------------------------------------
def partitioned_product_relation(
    space: ProductSpace,
    mode: str,
    workers: Optional[int] = None,
    sources: Optional[Sequence[NodeId]] = None,
    targets: Optional[Set[NodeId]] = None,
) -> Set[Pair]:
    """Dispatch one product space through the driver *mode* names.

    The one entry point of a forced driver, shared by the engine's
    full-relation methods and the CRPQ planner's per-atom seeded scans.
    ``"blocks"`` is the only mode; *sources* / *targets* select seeded
    (semijoin) evaluation.
    """
    if mode != "blocks":
        raise EvaluationError(f"unknown partitioned mode {mode!r}; expected 'blocks'")
    return parallel_product_relation(space, num_blocks=workers, sources=sources, targets=targets)
