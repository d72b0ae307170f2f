"""Deterministic strong-diameter graph clustering and network decomposition.

Two interchangeable executors produce bit-identical clusterings: a
centralized reference engine (``strong_cluster``) and a round-exact
synchronous message-passing simulation (``run_protocol``).  The ``verify``
module re-checks every claimed guarantee from first principles.
"""

from .cluster import (
    Clustering,
    Decomposition,
    mis_via_decomposition,
    network_decomposition,
    strong_cluster,
)
from .gen import FamilySpec, generate
from .graph import (
    Graph,
    GraphError,
    IdAssignment,
    build_graph,
    parse_edge_list,
    write_edge_list,
)
from .sim import RoundStats, run_protocol
from .verify import check_clustering, check_decomposition, check_mis

__version__ = "0.1.0"
