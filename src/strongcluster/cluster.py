"""Full clustering runs, iterated network decomposition, and the MIS demo.

``strong_cluster`` composes b phases, threading the surviving node set and
terminal set from phase to phase, and keeps every phase's result as evidence.
``network_decomposition`` repeats the clustering on the unclustered remainder
until every node is colored; the identifier assignment (and so b) stays fixed
across iterations.  A phase reads only the previous phase's survivors and
terminals, so on the reference backend the decomposition holds one phase
result at a time: both run the one phase loop, ``_phases``, which yields
each result as soon as it exists, and the decomposition drops each result
once it has read the next phase's inputs off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from .graph import Graph, GraphError, IdAssignment, connected_components, induced_diameter
from .phase import PhaseResult, run_phase

if TYPE_CHECKING:
    from .sim import RoundStats


@dataclass(frozen=True)
class Clustering:
    """Non-adjacent connected clusters, each owning exactly one terminal.

    ``n`` counts the clustered universe (the alive set the run started
    from), so coverage claims stay meaningful on residual graphs.
    """

    n: int
    b: int
    clusters: tuple[tuple[int, tuple[int, ...]], ...]
    unclustered: tuple[int, ...]

    @property
    def diameter_bound(self) -> int:
        """Twice the ruling radius 4b^3."""
        return 8 * self.b**3

    def covered(self) -> int:
        """Distinct clustered nodes: a node listed twice counts once."""
        return len(self.covered_nodes())

    def covered_nodes(self) -> set[int]:
        return {v for _, members in self.clusters for v in members}

    def to_json_dict(self, g: Graph) -> dict:
        observed = 0
        for _, members in self.clusters:
            d = induced_diameter(g, members)
            observed = max(observed, d if d is not None else -1)
        return {
            "n": self.n,
            "b": self.b,
            "coverage": self.covered(),
            "clusters": [
                {"terminal": t, "nodes": list(members)} for t, members in self.clusters
            ],
            "unclustered": list(self.unclustered),
            "diameter_bound": self.diameter_bound,
            "max_diameter_observed": observed,
        }


@dataclass(frozen=True)
class Decomposition:
    """Complete coloring where each color class induces a valid clustering."""

    colors_used: int
    color: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {"colors": self.colors_used, "color_of": list(self.color)}


@dataclass(frozen=True)
class ClusterRun:
    """One clustering execution: the clustering plus per-phase evidence.

    ``rounds`` is populated by the simulated backend only.
    """

    clustering: Clustering
    phases: tuple[PhaseResult, ...]
    rounds: "RoundStats | None" = None


def clustering_from_survivors(
    g: Graph,
    b: int,
    alive_in: Iterable[int],
    survivors: Iterable[int],
    terminals: Iterable[int],
) -> Clustering:
    """Assemble the final clustering: components of the survivor set.

    Each component must contain exactly one terminal; anything else means the
    executor broke a separation or ruling guarantee, so it is an error here
    rather than a report entry.
    """
    alive_set = set(alive_in)
    surv = set(survivors)
    term_set = set(terminals)
    comps = connected_components(g, surv)
    clusters = []
    for comp in comps:
        owners = [t for t in comp if t in term_set]
        if len(owners) != 1:
            raise GraphError(f"component {comp[:8]}... holds {len(owners)} terminals")
        clusters.append((owners[0], tuple(comp)))
    return Clustering(
        n=len(alive_set),
        b=b,
        clusters=tuple(clusters),
        unclustered=tuple(sorted(alive_set - surv)),
    )


def strong_cluster(
    g: Graph,
    ids: IdAssignment,
    backend: str = "reference",
    alive: Iterable[int] | None = None,
    debug: bool = False,
) -> ClusterRun:
    """Cluster at least half the (alive) nodes into non-adjacent low-diameter clusters.

    ``backend="reference"`` runs the centralized phase engine;
    ``backend="simulated"`` runs the synchronous message-passing executor and
    attaches its round statistics.  Both produce identical clusterings.
    ``debug=True`` records per-step snapshots, which only the reference
    backend emits, so the simulated backend rejects it.
    """
    if backend == "simulated":
        if debug:
            raise ValueError("backend='simulated' with debug=True: the simulator records no step traces")
        from .sim import run_protocol

        clustering, stats, phases = run_protocol(g, ids, alive=alive)
        return ClusterRun(clustering=clustering, phases=tuple(phases), rounds=stats)
    if backend != "reference":
        raise GraphError(f"unknown backend {backend!r}")

    start = set(range(g.n)) if alive is None else set(alive)
    phases = tuple(_phases(g, ids, start, debug))
    return ClusterRun(clustering=_clustering_after(g, ids, start, phases), phases=phases)


def _phases(g: Graph, ids: IdAssignment, start: set[int], debug: bool = False) -> Iterator[PhaseResult]:
    """Run the b phases from ``start``, yielding each result as soon as it exists.

    Phase 0 takes every node of ``start`` as a terminal; phase p + 1 takes
    phase p's survivors and surviving terminals.  ``start`` must not change
    while the generator runs.
    """
    alive: Iterable[int] = start
    q: Iterable[int] = start
    for p in range(ids.b):
        res = run_phase(g, alive, q, p, ids, debug=debug)
        alive, q = res.survivors, res.terminals_out
        yield res
        # Not kept while the next phase runs, unless the consumer keeps it.
        del res


def _clustering_after(g: Graph, ids: IdAssignment, start: set[int], phases: Iterable[PhaseResult]) -> Clustering:
    """The clustering a run from ``start`` leaves after ``phases``, read in order.

    Only the latest survivors and terminals are kept, so a stream of phases
    is read holding no result while the next phase runs.  With b = 0 there
    is no phase, and the survivors and terminals are ``start`` itself.
    """
    survivors: Iterable[int] = start
    terminals: Iterable[int] = start
    for res in phases:
        survivors, terminals = res.survivors, res.terminals_out
        del res
    return clustering_from_survivors(g, ids.b, start, survivors, terminals)


def network_decomposition(
    g: Graph,
    ids: IdAssignment,
    backend: str = "reference",
) -> tuple[Decomposition, int | None]:
    """Color every node by repeatedly clustering the unclustered remainder.

    Each iteration clusters at least half of what is left, so the color count
    stays within ceil(log2 n) + 1.  Also returns the simulated rounds summed
    over the clusterings, or None on the reference backend.

    On the reference backend each clustering streams its phases and keeps
    only the latest survivors and terminals, so no earlier phase result is
    alive while a phase runs, and ``remaining`` is handed to the first phase
    as it is, since a phase neither changes nor keeps it.  The simulated
    backend goes through ``strong_cluster``.
    """
    remaining = set(range(g.n))
    color: list[int] = [-1] * g.n
    rounds_total: int | None = None
    c = 0
    while remaining:
        if backend == "reference":
            clustering = _clustering_after(g, ids, remaining, _phases(g, ids, remaining))
        else:
            run = strong_cluster(g, ids, backend=backend, alive=remaining)
            clustering = run.clustering
            rounds_total = (rounds_total or 0) + run.rounds.rounds
            # A simulated run keeps every phase; drop it before the next one.
            del run
        covered = clustering.covered_nodes()
        if not covered:
            raise GraphError("clustering made no progress; decomposition cannot finish")
        for v in covered:
            color[v] = c
        remaining -= covered
        c += 1
    return Decomposition(colors_used=c, color=tuple(color)), rounds_total


def mis_via_decomposition(g: Graph, ids: IdAssignment, d: Decomposition) -> list[int]:
    """Maximal independent set built color class by color class.

    Within each cluster of the current color, nodes join greedily in
    ascending identifier order unless a neighbor already joined.  One greedy
    pass over all colored nodes in (color, identifier) order gives the same
    set: the clusters of one color are the components of its class, so they
    are non-adjacent, and a node's choice depends only on earlier colors and
    on the earlier nodes of its own cluster, whose relative order is kept.
    """
    color, ident = d.color, ids.ids
    order = sorted(
        (v for v in range(g.n) if 0 <= color[v] < d.colors_used),
        key=lambda v: (color[v], ident[v]),
    )
    chosen: set[int] = set()
    for v in order:
        if not any(w in chosen for w in g.adj[v]):
            chosen.add(v)
    return sorted(chosen)
