"""Workbench for maximum common (connected) induced subgraph problems:
exact solvers, structural parameters, hardness-reduction gadget builders and
a brute-force cross-validation harness."""

from .graphs import (
    Graph,
    GraphParseError,
    GraphStats,
    MappingError,
    SizeBoundError,
    VertexMapping,
    add_universal_vertex,
    complete_graph,
    connected_components,
    cycle_graph,
    edgeless_graph,
    graph_stats,
    induced_subgraph,
    is_induced_isomorphism,
    parse_graph,
    path_graph,
    serialize_graph,
)
from .params import (
    TwinClass,
    min_feedback_vertex_set,
    min_vertex_cover,
    twin_partition,
    vertex_cover_number,
)
from .reductions import (
    CliqueInstance,
    ReductionOutput,
    ThreePartitionInstance,
    clique_to_incidence_isi,
    cross_compose,
    incidence_graph,
    isi_to_mccis,
    three_partition_to_forest_isi,
    verify_reduction,
    write_reduction,
)
from .solvers import (
    OracleBoundError,
    SolveQuery,
    SolveResult,
    SolveStats,
    enumerate_configurations,
    isi_backtracking,
    mcis_bruteforce,
    mcis_vc_fpt,
    solve,
)

__all__ = [name for name in dir() if not name.startswith("_")]
