"""Planar generic rigidity testing and spectral extremal checks."""

from .graphcore import (
    Graph,
    Graph6Error,
    complete_split_graph,
    iter_graph6_lines,
    linked_cliques,
    parse_graph6,
    vertex_connectivity,
    write_graph6,
)
from .oracle import exact_rank, packing_violation_search
from .rigidity import (
    PebbleGame,
    RigidityVerdict,
    minimally_rigid_levels,
    pebble_rank,
    rigidity_verdict,
)
from .spectral import (
    complete_split_rho,
    hong_bound,
    linked_cliques_char_poly,
    linked_cliques_rho,
    spectral_radius,
)
from .verify import (
    analyze_graph,
    analyze_lines,
    extremal_family_report,
    family_sweep_report,
    flatten_report,
    json_stable,
    laman_extremal_report,
    report_is_consistent,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
