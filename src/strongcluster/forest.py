"""Rooted forests over graph nodes: BFS construction, rehang, subtree deletion.

Per-node fields are lists of length ``g.n``, but child lists exist only for
nodes that have children, so building a forest on a small alive set inside
a large graph allocates one container per parent, not one per graph node.

``bfs_forest`` runs a layer-synchronous BFS with numpy on the graph's cached
CSR adjacency, so its cost follows the alive set and its edges; the
pure-Python ``multi_source_bfs`` in ``graph.py`` stays the oracle's BFS, and
debug runs audit the engine's starting forest against it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .graph import Graph, GraphError, IdAssignment, multi_source_bfs


class ForestError(ValueError):
    """Alive node unreachable from the terminals, or drifted forest state."""


@dataclass(frozen=True)
class ForestLinks:
    """What a finished forest keeps: membership, parent links, depths, roots.

    Indexed by node, None for non-members (and ``parent`` None for roots).
    Child lists and tree sizes follow from ``parent`` and ``root_of``, so a
    phase result holds these four lists and nothing else of its forest.
    """

    member: list[bool]
    parent: list[int | None]
    depth: list[int | None]
    root_of: list[int | None]


@dataclass
class RootedForest:
    """Forest of rooted trees on a subset of graph nodes.

    ``parent[v]`` is None for roots and for non-members; membership is
    authoritative in ``member``.  ``depth[v]`` counts hops to the root and
    ``root_of[v]`` names it.  ``children`` mirrors ``parent`` sparsely: it
    maps each member that has children to the list of them, and holds no
    key for a leaf or a non-member.  ``tree_size`` maps each root to its
    member count.
    """

    n: int
    member: list[bool]
    parent: list[int | None]
    depth: list[int | None]
    root_of: list[int | None]
    children: dict[int, list[int]]
    tree_size: dict[int, int]

    @classmethod
    def from_parents(cls, n: int, members, parent, depth, root_of) -> "RootedForest":
        """The forest on ``members`` given its per-node parent links, depths and roots.

        The one place that derives ``member``, ``children`` and ``tree_size``;
        child lists follow the order of ``members``.  The three lists are kept,
        not copied, and must hold None for every non-member.
        """
        member = [False] * n
        children: dict[int, list[int]] = {}
        for v in members:
            member[v] = True
            u = parent[v]
            if u is not None:
                kids = children.get(u)
                if kids is None:
                    children[u] = [v]
                else:
                    kids.append(v)
        tree_size = dict(Counter(map(root_of.__getitem__, members)))
        return cls(n, member, parent, depth, root_of, children, tree_size)

    def member_count(self) -> int:
        return sum(self.tree_size.values())

    # -- subtree query and in-place edits; callers uphold the preconditions --

    def subtree(self, v: int) -> list[int]:
        """Member v and all its descendants, v first, level by level."""
        children = self.children
        out = [v]
        # The loop also visits the nodes it appends.
        for u in out:
            kids = children.get(u)
            if kids:
                out.extend(kids)
        return out

    def rehang(self, v: int, new_parent: int, moved: list[int] | None = None) -> list[int]:
        """Reattach subtree(v) under new_parent; returns the moved nodes.

        new_parent must be a graph neighbor of v and a member of another
        tree, so it cannot lie inside subtree(v).  ``moved``, when given,
        is subtree(v) as collected earlier; it is used instead of a second
        walk and must still be exact.
        """
        if moved is None:
            moved = self.subtree(v)
        depth, root_of, children, tree_size = self.depth, self.root_of, self.children, self.tree_size
        new_root = root_of[new_parent]
        delta = depth[new_parent] + 1 - depth[v]
        old_parent = self.parent[v]
        if old_parent is not None:
            siblings = children[old_parent]
            siblings.remove(v)
            if not siblings:
                del children[old_parent]
            tree_size[root_of[v]] -= len(moved)
        else:
            # v was a root; its tree is absorbed wholesale.
            del tree_size[v]
        self.parent[v] = new_parent
        kids = children.get(new_parent)
        if kids is None:
            children[new_parent] = [v]
        else:
            kids.append(v)
        for u in moved:
            depth[u] += delta
            root_of[u] = new_root
        tree_size[new_root] += len(moved)
        return moved

    def delete_subtree(self, v: int, gone: list[int] | None = None) -> list[int]:
        """Remove subtree(v) of member v from the forest; returns the removed nodes.

        ``gone``, when given, is subtree(v) as collected earlier.
        """
        if gone is None:
            gone = self.subtree(v)
        old_parent = self.parent[v]
        old_root = self.root_of[v]
        if old_parent is not None:
            siblings = self.children[old_parent]
            siblings.remove(v)
            if not siblings:
                del self.children[old_parent]
            self.tree_size[old_root] -= len(gone)
        else:
            del self.tree_size[v]
        for u in gone:
            self.member[u] = False
            self.parent[u] = None
            self.depth[u] = None
            self.root_of[u] = None
            self.children.pop(u, None)
        return gone


def _out_edges(indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tail, head) arrays of every CSR edge leaving the nonempty ``nodes``, row by row."""
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    ends = counts.cumsum()
    # Edge k of the output sits at CSR position starts[row] + (k - row offset).
    pos = np.arange(ends[-1]) + (starts - ends + counts).repeat(counts)
    return nodes.repeat(counts), indices[pos]


def bfs_forest(g: Graph, alive, terminals, ids: IdAssignment | None = None) -> RootedForest:
    """BFS forest of G[alive] rooted at the terminal set.

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
    n = g.n
    alive_sorted = sorted(set(alive))
    if alive_sorted and not (0 <= alive_sorted[0] and alive_sorted[-1] < n):
        bad = next(v for v in alive_sorted if not 0 <= v < n)
        raise GraphError(f"alive node {bad} out of range")
    alive_arr = np.array(alive_sorted, dtype=np.intp)
    # reach[v] is -1 outside the alive set, 0 for an alive node not reached
    # yet and 1 + its BFS depth once reached; parent and origin are read
    # only where reach is positive.
    reach = np.full(n, -1, dtype=np.intp)
    reach[alive_arr] = 0
    sources = sorted(set(terminals))
    in_range = not sources or (0 <= sources[0] and sources[-1] < n)
    layer = np.array(sources if in_range else [], dtype=np.intp)
    if not in_range or np.count_nonzero(reach[layer]):
        bad = next(s for s in sources if not (0 <= s < n and reach[s] == 0))
        raise GraphError(f"source {bad} not in alive set")

    indptr, indices = g.csr
    if ids is None:
        rank = order = np.arange(n)
    else:
        rank, order = ids.rank, ids.order
    parent = np.empty(n, dtype=np.intp)
    origin = np.empty(n, dtype=np.intp)
    reach[layer] = 1
    origin[layer] = layer
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
    depth_l: list[int | None] = [None] * n
    root_l: list[int | None] = [None] * n
    parent_l: list[int | None] = [None] * n
    columns = (origin[alive_arr].tolist(), (reach - 1).tolist(), parent[alive_arr].tolist())
    for v, r, dv, u in zip(alive_sorted, *columns):
        depth_l[v] = dv
        root_l[v] = r
        if dv:
            parent_l[v] = u
    return RootedForest.from_parents(n, alive_sorted, parent_l, depth_l, root_l)


def audit_bfs(g: Graph, f: RootedForest, alive, terminals, ids: IdAssignment | None = None) -> None:
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
            v = next(v for v in range(f.n) if stored[v] != want[v])
            raise ForestError(f"BFS {name} drift at node {v}: forest {stored[v]}, multi_source_bfs {want[v]}")


def audit_depths(f: RootedForest) -> None:
    """Re-derive depths, roots and child lists from parent links; raise on drift.

    Rehang arithmetic is the step most prone to off-by-one errors, so debug
    runs re-check the incrementally maintained depths structurally.  The
    child lists must mirror ``parent`` exactly: each member with a parent
    appears once under it, and no key names a leaf or a non-member.
    """
    expected_children: dict[int, list[int]] = {}
    for v in range(f.n):
        if not f.member[v]:
            continue
        if f.parent[v] is not None:
            expected_children.setdefault(f.parent[v], []).append(v)
        hops = 0
        u = v
        while f.parent[u] is not None:
            u = f.parent[u]
            hops += 1
            if hops > f.n:
                raise ForestError(f"parent cycle reached from node {v}")
        if hops != f.depth[v]:
            raise ForestError(f"depth drift at node {v}: stored {f.depth[v]}, walked {hops}")
        if u != f.root_of[v]:
            raise ForestError(f"root drift at node {v}: stored {f.root_of[v]}, walked {u}")
        if (f.depth[v] == 0) != (f.parent[v] is None):
            raise ForestError(f"root flag drift at node {v}")
    for u in sorted(f.children.keys() | expected_children.keys()):
        stored = f.children.get(u)
        if stored is None or sorted(stored) != expected_children.get(u):
            raise ForestError(
                f"children drift at node {u}: stored {stored}, "
                f"parent links give {expected_children.get(u)}"
            )
    total = sum(1 for v in range(f.n) if f.member[v])
    if total != f.member_count():
        raise ForestError("tree_size totals disagree with membership")
