"""Toolkit for recursive matched-pair (hypercube-like) networks.

Builds networks from construction recipes, evaluates the closed-form
extremal induced-edge function and the matching component edge connectivity
values, materializes the optimal subgraphs and cuts, and cross-validates
everything against exact brute-force searches at small scale.
"""

from .construction import (
    CutReport,
    build_component_cut,
    load_cut,
    save_cut,
    select_extremal_subgraph,
    verify_cut,
)
from .formulas import (
    ConnectivityBound,
    PropertyCheck,
    binary_decomposition,
    component_edge_connectivity,
    extremal_edge_count,
    extremal_edge_increment,
    run_property_suite,
)
from .oracles import (
    MaxEdgesResult,
    MinCutResult,
    PartitionWitness,
    SearchLimits,
    max_induced_edges,
    min_component_edge_cut,
    save_partition,
)
from .recipes import (
    MAX_DIM,
    Graph,
    Recipe,
    RecipeError,
    compose,
    dumps_recipe,
    g84,
    hypercube,
    leaf,
    load_graph,
    load_recipe,
    loads_recipe,
    materialize,
    random_hl,
    save_graph,
    save_recipe,
    split,
)

__version__ = "0.1.0"
