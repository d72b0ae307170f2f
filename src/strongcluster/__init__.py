"""Deterministic strong-diameter graph clustering and network decomposition.

Two interchangeable executors produce bit-identical clusterings: a
centralized reference engine (``strong_cluster``) and a round-exact
synchronous message-passing simulation (``run_protocol``).  The ``verify``
module re-checks every claimed guarantee from first principles.
"""

from .cluster import (
    ClusterRun,
    Clustering,
    Decomposition,
    mis_via_decomposition,
    network_decomposition,
    strong_cluster,
)
from .forest import (
    ForestError,
    RootedForest,
    bfs_forest,
    delete_subtrees,
    rehang_subtree,
    subtree_nodes,
)
from .gen import FamilySpec, generate, seeded_permutation
from .graph import (
    DistMap,
    Graph,
    GraphError,
    IdAssignment,
    build_graph,
    connected_components,
    induced_diameter,
    multi_source_bfs,
    parse_edge_list,
    write_edge_list,
)
from .phase import (
    PhaseResult,
    PhaseState,
    Proposal,
    StepTrace,
    apply_step,
    compute_propose_set,
    grow_decisions,
    run_phase,
    split_terminals,
)
from .sim import (
    Message,
    MsgTag,
    ProtocolViolation,
    RoundStats,
    Simulator,
    round_budget,
    run_protocol,
)
from .verify import (
    CheckResult,
    Report,
    check_clustering,
    check_decomposition,
    check_mis,
    check_ruling,
    check_step_invariants,
)

__version__ = "0.1.0"
