"""Graph substrate: containers, transforms, generators, and I/O.

Public surface::

    from repro.graph import CSRGraph
    g = CSRGraph.from_edges([0, 1, 2], [1, 2, 0])
"""

from .csr import CSRGraph
from .build import (
    from_networkx,
    from_scipy_sparse,
    scipy_scc,
    to_networkx,
    to_scipy_sparse,
)
from .ops import (
    add_edges,
    disjoint_union,
    induced_subgraph,
    permute_random,
    relabel,
    remove_edges_mask,
    replicate,
)
from .condensation import compact_labels, condense, dag_depth, topological_levels
from .properties import (
    DegreeStats,
    bfs_levels,
    bfs_reach,
    degree_stats,
    graph_diameter_estimate,
    weakly_connected_components,
)
from .generators import (
    complete_digraph,
    cycle_graph,
    dag_chain_of_cliques,
    grid_dag,
    path_graph,
    planted_scc_graph,
    random_gnm,
    random_gnp,
    random_tournament,
    scc_ladder,
)
from .rmat import preferential_attachment_digraph, rmat_graph
from .suite import (
    POWER_LAW_SPECS,
    PowerLawSpec,
    build_powerlaw,
    default_scale,
    powerlaw_suite,
)
from .io import (
    read_dimacs,
    read_edge_list,
    read_matrix_market,
    read_npz,
    write_dimacs,
    write_edge_list,
    write_matrix_market,
    write_npz,
)

__all__ = [
    "CSRGraph",
    "from_networkx",
    "from_scipy_sparse",
    "scipy_scc",
    "to_networkx",
    "to_scipy_sparse",
    "add_edges",
    "disjoint_union",
    "induced_subgraph",
    "permute_random",
    "relabel",
    "remove_edges_mask",
    "replicate",
    "compact_labels",
    "condense",
    "dag_depth",
    "topological_levels",
    "DegreeStats",
    "bfs_levels",
    "bfs_reach",
    "degree_stats",
    "graph_diameter_estimate",
    "weakly_connected_components",
    "complete_digraph",
    "cycle_graph",
    "dag_chain_of_cliques",
    "grid_dag",
    "path_graph",
    "planted_scc_graph",
    "random_gnm",
    "random_gnp",
    "random_tournament",
    "scc_ladder",
    "preferential_attachment_digraph",
    "rmat_graph",
    "POWER_LAW_SPECS",
    "PowerLawSpec",
    "build_powerlaw",
    "default_scale",
    "powerlaw_suite",
    "read_dimacs",
    "read_edge_list",
    "read_matrix_market",
    "read_npz",
    "write_dimacs",
    "write_edge_list",
    "write_matrix_market",
    "write_npz",
]
