"""334-triangle graphs of groups: construction, invariants, verification.

Vertices are group elements satisfying a^3 = e; an edge joins a and b when
(ab)^4 = e.  The package builds these graphs for finite groups and for
generated finite portions of the integer matrix group SL3(Z), computes
their invariants with checkable witnesses, and verifies the mod-p
reduction lemmas that transfer colorings between them.
"""

from .cliques import CliqueResult, clique_number, verify_clique
from .coloring import (Coloring, ChromaticResult, chromatic_number_exact,
                       find_coloring_violation, heuristic_chromatic_upper,
                       improve_coloring, lift_coloring)
from .cycles import (CensusEntry, HamiltonResult, cycle_census,
                     hamiltonian_cycle, verify_cycle)
from .elements import (DirectSumElement, IntMatrix3, ModMatrix, Permutation,
                       compose, element_key, element_label,
                       has_order_dividing_3, inverse, parametric_order3,
                       serialize_element)
from .generation import (GenerationConfig, GenerationStats, PortionGraph,
                         build_portion_edges, generate_and_build,
                         generate_portion, load_seeds_file, mod_p_codomain,
                         portion_chromatic_bounds, verify_edge_preservation,
                         verify_no_identity_reduction)
from .graph import (GraphMorphism, MorphismReport, TriangleGraph,
                    build_delta334, graph_isomorphic, induced_morphism,
                    kronecker_matches_direct_sum, kronecker_product)
from .graphio import (GraphFormatError, dumps_graph, graph_from_json_dict,
                      graph_to_dot, graph_to_graphml, load_graph)
from .groups import (ElementSet, GroupSpec, enumerate_group, order3_vertices,
                     parse_group_spec)
from .invariants import (BipartiteResult, InvariantReport, PlanarityEvidence,
                         components, full_report, girth, is_bipartite,
                         nonplanarity_check)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
