"""Executable proof machinery: the paper's reduction gadgets.

The undecidability and hardness results of the paper are proved by
reductions; this sub-package turns those reductions into code so that
their structure can be validated on bounded instances:

* :mod:`repro.reductions.pcp` — PCP instances and a bounded solver;
* :mod:`repro.reductions.pcp_mapping` — the Theorem 1 gadget (source
  graph, LAV/GAV relational/reachability mapping, witness targets,
  representative error queries);
* :mod:`repro.reductions.three_coloring` — the Proposition 3 gadget
  (3-colourability as certain answering of an inequality query under a
  LAV relational mapping);
* :mod:`repro.reductions.gxpath_pcp` — the Theorem 6 / Lemma 2 gadget
  (PCP as GXPath query answering under a copy mapping), complementing the
  Theorem 7 constructions in :mod:`repro.gxpath.static_analysis`.
"""

from .gxpath_pcp import (
    pcp_tree_encoding,
    solution_extension,
    structure_error_formula,
    theorem6_mapping,
)
from .pcp import (
    SOLVABLE_EXAMPLES,
    UNSOLVABLE_EXAMPLES,
    PCPInstance,
    solve_pcp_bounded,
)
from .pcp_mapping import (
    decode_witness,
    pcp_source_graph,
    repetition_error_query,
    solution_witness_graph,
    structural_error_query,
    theorem1_mapping,
)
from .three_coloring import (
    UndirectedGraph,
    complete_graph_k4,
    gadget_certain_by_coloring_adversary,
    is_three_colorable,
    odd_cycle,
    petersen_fragment,
    three_coloring_gadget,
    triangle,
)

__all__ = [
    "PCPInstance",
    "solve_pcp_bounded",
    "SOLVABLE_EXAMPLES",
    "UNSOLVABLE_EXAMPLES",
    "pcp_source_graph",
    "theorem1_mapping",
    "solution_witness_graph",
    "decode_witness",
    "structural_error_query",
    "repetition_error_query",
    "UndirectedGraph",
    "three_coloring_gadget",
    "is_three_colorable",
    "gadget_certain_by_coloring_adversary",
    "triangle",
    "complete_graph_k4",
    "odd_cycle",
    "petersen_fragment",
    "pcp_tree_encoding",
    "theorem6_mapping",
    "solution_extension",
    "structure_error_formula",
]
