"""Exact codegree coefficients of hypergraph characteristic polynomials.

Computes the coefficients of the adjacency characteristic polynomial of a
k-uniform hypergraph through the Veblen-hypergraph expansion: enumerating
Veblen infragraphs of a host, evaluating their associated coefficients as
sums of arborescence counts, one Laplacian minor per root-count assignment of
the edges, and assembling traces and coefficients in exact rational
arithmetic.
"""

from .hypergraph import MultiHypergraph, components, flatten, is_veblen
from .canon import AutReport, automorphisms, canonical_form
from .digraph import MultiDigraph, arborescence_count, euler_circuit_count, is_eulerian
from .rooting import assoc_coeff, assoc_coeff_connected, euler_orientations
from .veblen_enum import (
    IsoClassRecord,
    connected_infragraph_classes,
    count_all_veblen,
    count_infragraph,
    enumerate_connected_veblen,
)
from .traces import (
    codegree_coefficients,
    trace_bruteforce,
    trace_d,
    trace_vector,
)
from .simplex import simplex_Ck
from .classical import (
    charpoly_graph,
    harary_sachs_coeffs,
    threshold_search,
    threshold_single_edge,
)
from .formats import emit_table, parse_document

__version__ = "0.1.0"

__all__ = [
    "MultiHypergraph",
    "flatten",
    "components",
    "is_veblen",
    "AutReport",
    "canonical_form",
    "automorphisms",
    "MultiDigraph",
    "is_eulerian",
    "arborescence_count",
    "euler_circuit_count",
    "euler_orientations",
    "assoc_coeff",
    "assoc_coeff_connected",
    "IsoClassRecord",
    "enumerate_connected_veblen",
    "count_all_veblen",
    "connected_infragraph_classes",
    "count_infragraph",
    "trace_d",
    "trace_vector",
    "trace_bruteforce",
    "codegree_coefficients",
    "simplex_Ck",
    "charpoly_graph",
    "harary_sachs_coeffs",
    "threshold_single_edge",
    "threshold_search",
    "parse_document",
    "emit_table",
    "__version__",
]
