"""Predimension calculus, amalgamation-class membership and transitivity
checkers for finite generalized n-gons.

The incidence graph of a geometry is a `BipartiteGraph`; the predimension
delta(A) = (n-1)|A| - (n-2)e(A) drives everything else: strong
embeddings, the d-function and closures, 0-(minimally-)algebraic pairs,
the mu-bounded class membership test, and a seeded growth engine built on
free amalgamation.  `groups` adds automorphism groups and the
transitivity battery for the bundled classical polygons.
"""

from .graph import (BipartiteGraph, GraphError, bfs_distances, distance,
                    diameter, girth, enumerate_cycles, ordered_cycles,
                    simple_paths, connected_components, is_connected,
                    is_generalized_ngon)
from .io import ParseError, parse_graph, format_graph, load_graph, save_graph
from .predimension import (delta, delta_rel, is_strong, d_min, d_rel,
                           closure, acl_relative)
from .zeroalg import (ZeroAlgebraicPair, is_zero_algebraic,
                      is_zero_minimally_algebraic, minimal_base,
                      degree_identity_check, default_body_cap,
                      enumerate_zero_min_pairs)
from .kmu import (MuFunction, ViolationReport, default_horizon, default_mu,
                  find_copies, copies_equivalent,
                  pairs_isomorphic, in_class)
from .witnesses import (make_path, make_cycle, make_gamma, make_cl_witness,
                        BaseSetSpec, find_base_set)
from .builder import AmalgamError, StepRecord, free_amalgam, grow, TEMPLATES
from .geometries import fano_graph, gq22_graph, projective_plane
from .groups import (PermGroup, format_cycles, automorphism_group,
                     is_strongly_transitive, check_remark_2_2, is_moufang,
                     stabilizer_transitivity_degree)

__version__ = "0.1.0"

__all__ = [
    "BipartiteGraph", "GraphError", "bfs_distances", "distance", "diameter",
    "girth", "enumerate_cycles", "ordered_cycles", "simple_paths",
    "connected_components", "is_connected", "is_generalized_ngon",
    "ParseError", "parse_graph", "format_graph", "load_graph", "save_graph",
    "delta", "delta_rel", "is_strong", "d_min", "d_rel", "closure",
    "acl_relative",
    "ZeroAlgebraicPair", "is_zero_algebraic",
    "is_zero_minimally_algebraic", "minimal_base", "degree_identity_check",
    "default_body_cap", "enumerate_zero_min_pairs",
    "MuFunction", "ViolationReport", "default_horizon", "default_mu",
    "find_copies", "copies_equivalent", "pairs_isomorphic",
    "in_class",
    "make_path", "make_cycle", "make_gamma", "make_cl_witness",
    "BaseSetSpec", "find_base_set",
    "AmalgamError", "StepRecord", "free_amalgam", "grow", "TEMPLATES",
    "fano_graph", "gq22_graph", "projective_plane",
    "PermGroup", "format_cycles", "automorphism_group",
    "is_strongly_transitive", "check_remark_2_2", "is_moufang",
    "stabilizer_transitivity_degree",
]
