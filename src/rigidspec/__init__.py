"""Planar generic rigidity testing and spectral extremal checks."""

from .graphcore import (
    Graph,
    Graph6Error,
    VertexPartition,
    boundary_size,
    complete_graph,
    complete_split_graph,
    cycle_graph,
    induced_edge_count,
    is_k_connected,
    linked_cliques,
    parse_graph6,
    partition_cut,
    vertex_connectivity,
    write_graph6,
)
from .oracle import (
    DegeneratePlacementError,
    Placement,
    brute_minimally_rigid,
    brute_sparse_rank,
    cut_size_law_holds,
    numeric_rank,
    packing_condition_holds,
    packing_violation_search,
    random_placement,
    rigidity_matrix,
    trivial_motion_space,
)
from .rigidity import (
    RigidityVerdict,
    canonical_form,
    canonical_graph,
    enumerate_minimally_rigid,
    graphs_isomorphic,
    independent_edge_basis,
    is_globally_rigid,
    is_redundantly_rigid,
    is_rigid,
    laman_check,
    minimally_rigid_levels,
    pebble_rank,
    rigidity_verdict,
)
from .spectral import (
    CharQuartic,
    QuotientMatrix,
    SymmetricSpectrum,
    adjacency_spectrum,
    algebraic_connectivity,
    complete_split_rho,
    edge_lower_bound,
    hong_bound,
    hong_bound_function,
    hong_equality_condition,
    laplacian_spectrum,
    linked_cliques_char_poly,
    linked_cliques_quotient,
    linked_cliques_rho,
    max_clique_partition_edges,
    quotient_matrix,
    spectral_radius,
)
from .verify import (
    analyze_graph,
    analyze_lines,
    extremal_family_report,
    family_sweep_report,
    json_stable,
    laman_extremal_report,
    report_is_consistent,
    reports_to_csv,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
