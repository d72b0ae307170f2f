"""Rooted forests over graph nodes: the BFS forest a phase starts from, and its audits.

A forest is three per-node lists of length ``g.n`` (``ForestLinks``), and
nothing else: no membership flags, no child lists and no tree sizes.

``bfs_forest`` runs a layer-synchronous BFS with numpy on the graph's cached
CSR adjacency, so its cost follows the alive set and its edges; the
pure-Python ``multi_source_bfs`` in ``graph.py`` stays the oracle's BFS, and
debug runs audit the engine's starting forest against it.  numpy is imported
inside ``bfs_forest``, so importing this module does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, GraphError, IdAssignment, _out_edges, multi_source_bfs


class ForestError(ValueError):
    """Alive node unreachable from the terminals, or drifted forest state."""


@dataclass(frozen=True)
class ForestLinks:
    """A rooted forest on a subset of graph nodes: parent links, depths, roots.

    Indexed by node, None for non-members (and ``parent`` None for roots):
    a member is a node that has a depth.  ``depth[v]`` counts hops to the
    root and ``root_of[v]`` names it.  The reference engine edits the three
    lists in place during its phase, and a phase result keeps them as its
    final forest; child lists and tree sizes follow from ``parent`` and
    ``root_of`` wherever they are needed.
    A run keeps one forest per phase, so ``parent`` and ``root_of`` make
    no int objects of their own: ``bfs_forest`` fills them with the alive
    set's own ints, and the step loop copies in ints it reads from the
    graph and from the forest.
    """

    parent: list[int | None]
    depth: list[int | None]
    root_of: list[int | None]


def bfs_forest(g: Graph, alive, terminals, ids: IdAssignment) -> ForestLinks:
    """BFS forest of G[alive] rooted at the terminal set.

    ``alive`` and ``terminals`` are sorted sequences of distinct nodes, as
    ``run_phase`` keeps its inputs, so neither is sorted again here.
    Parent choice follows the multi_source_bfs tie rule (minimum-identifier
    neighbor one layer closer), keyed by identifier rank so identifiers of
    any width share one path.  Rejects alive nodes out of range and
    terminals outside the alive set as multi_source_bfs does, and any alive
    node unreachable from the terminals.

    One layer is one numpy pass: gather the frontier's CSR edges, keep those
    into unvisited alive nodes, and sort them by (head, rank of tail),
    packed into one integer, so the first edge into each new node comes
    from its parent.
    """
    import numpy as np

    n = g.n
    if alive and not (0 <= alive[0] and alive[-1] < n):
        bad = next(v for v in alive if not 0 <= v < n)
        raise GraphError(f"alive node {bad} out of range")
    alive_arr = np.array(alive, dtype=np.intp)
    # reach[v] is -1 outside the alive set, 0 for an alive node not reached
    # yet and 1 + its BFS depth once reached; parent and origin are read
    # only where reach is positive.
    reach = np.full(n, -1, dtype=np.intp)
    reach[alive_arr] = 0
    in_range = not terminals or (0 <= terminals[0] and terminals[-1] < n)
    layer = np.array(terminals if in_range else [], dtype=np.intp)
    if not in_range or np.count_nonzero(reach[layer]):
        bad = next(s for s in terminals if not (0 <= s < n and reach[s] == 0))
        raise GraphError(f"source {bad} not in alive set")

    indptr, indices = g.csr
    rank, order = ids.rank, ids.order
    parent = np.empty(n, dtype=np.intp)
    origin = np.empty(n, dtype=np.intp)
    reach[layer] = 1
    # A root's parent slot points at itself and is never read.
    origin[layer] = parent[layer] = layer
    # The layer that reaches the last alive node is the last one expanded.
    unreached = len(alive_arr) - len(layer)
    d = 2
    while unreached and len(layer):
        tail, head = _out_edges(indptr, indices, layer)
        keep = reach[head] == 0
        key = head[keep] * n + rank[tail[keep]]
        key.sort()
        head = key // n
        first = np.empty(len(head), dtype=bool)
        first[:1] = True
        np.not_equal(head[1:], head[:-1], out=first[1:])
        layer = head[first]
        via = order[key[first] - layer * n]
        reach[layer] = d
        parent[layer] = via
        origin[layer] = origin[via]
        unreached -= len(layer)
        d += 1

    reach = reach[alive_arr]
    if unreached:
        raise ForestError(f"alive node {alive_arr[reach == 0][0]} unreachable from terminals")
    # Parents and roots are alive nodes: read them as the caller's own int
    # objects, so that every forest built on one alive set shares one int
    # per node instead of holding fresh ones.
    node = np.empty(n, dtype=object)
    node[alive_arr] = alive
    depth_l: list[int | None] = [None] * n
    root_l: list[int | None] = [None] * n
    parent_l: list[int | None] = [None] * n
    columns = (node[origin[alive_arr]].tolist(), (reach - 1).tolist(), node[parent[alive_arr]].tolist())
    for v, r, dv, u in zip(alive, *columns):
        depth_l[v] = dv
        root_l[v] = r
        if dv:
            parent_l[v] = u
    return ForestLinks(parent_l, depth_l, root_l)


def audit_bfs(g: Graph, f: ForestLinks, alive, terminals, ids: IdAssignment) -> None:
    """Check a freshly built forest against the pure-Python multi_source_bfs.

    Debug runs call this on each phase's starting forest, so the vectorised
    BFS is cross-checked wherever the step claims are.
    """
    dm = multi_source_bfs(g, alive, terminals, ids)
    for name, stored, want in (
        ("parent", f.parent, dm.parent),
        ("depth", f.depth, dm.dist),
        ("root", f.root_of, dm.origin),
    ):
        if tuple(stored) != want:
            v = next(v for v in range(g.n) if stored[v] != want[v])
            raise ForestError(f"BFS {name} drift at node {v}: forest {stored[v]}, multi_source_bfs {want[v]}")


def audit_depths(f: ForestLinks) -> None:
    """Re-derive depths and roots from parent links; raise on drift.

    Rehang arithmetic is the step most prone to off-by-one errors, so debug
    runs re-check the incrementally maintained depths structurally.
    """
    n = len(f.depth)
    for v in range(n):
        if f.depth[v] is None:
            continue
        if (f.depth[v] == 0) != (f.parent[v] is None):
            raise ForestError(f"root flag drift at node {v}")
        hops = 0
        u = v
        while f.parent[u] is not None:
            u = f.parent[u]
            hops += 1
            if hops > n:
                raise ForestError(f"parent cycle reached from node {v}")
        if hops != f.depth[v]:
            raise ForestError(f"depth drift at node {v}: stored {f.depth[v]}, walked {hops}")
        if u != f.root_of[v]:
            raise ForestError(f"root drift at node {v}: stored {f.root_of[v]}, walked {u}")
