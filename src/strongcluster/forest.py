"""Rooted forests over graph nodes: BFS construction, rehang, subtree deletion.

Per-node fields are lists of length ``g.n``, but child lists exist only for
nodes that have children, so building a forest on a small alive set inside
a large graph allocates one container per parent, not one per graph node.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .graph import Graph, IdAssignment, multi_source_bfs


class ForestError(ValueError):
    """Alive node unreachable from the terminals, or drifted forest state."""


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
                children.setdefault(u, []).append(v)
        tree_size = dict(Counter(root_of[v] for v in members))
        return cls(n, member, parent, depth, root_of, children, tree_size)

    def roots(self) -> list[int]:
        return sorted(self.tree_size)

    def member_count(self) -> int:
        return sum(self.tree_size.values())

    # -- subtree query and in-place edits; callers uphold the preconditions --

    def subtree(self, v: int) -> list[int]:
        """Member v and all its descendants, v first."""
        children = self.children
        out = [v]
        stack = [v]
        while stack:
            kids = children.get(stack.pop())
            if kids:
                out.extend(kids)
                stack.extend(kids)
        return out

    def rehang(self, v: int, new_parent: int) -> list[int]:
        """Reattach subtree(v) under new_parent; returns the moved nodes.

        new_parent must be a graph neighbor of v and a member of another
        tree, so it cannot lie inside subtree(v).
        """
        moved = self.subtree(v)
        new_root = self.root_of[new_parent]
        old_root = self.root_of[v]
        delta = self.depth[new_parent] + 1 - self.depth[v]
        old_parent = self.parent[v]
        if old_parent is not None:
            siblings = self.children[old_parent]
            siblings.remove(v)
            if not siblings:
                del self.children[old_parent]
        else:
            # v was a root; its tree is absorbed wholesale.
            del self.tree_size[v]
        self.parent[v] = new_parent
        self.children.setdefault(new_parent, []).append(v)
        for u in moved:
            self.depth[u] += delta
            self.root_of[u] = new_root
        self.tree_size[new_root] += len(moved)
        if old_parent is not None:
            self.tree_size[old_root] -= len(moved)
        return moved

    def delete_subtree(self, v: int) -> list[int]:
        """Remove subtree(v) of member v from the forest; returns the removed nodes."""
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


def bfs_forest(g: Graph, alive, terminals, ids: IdAssignment | None = None) -> RootedForest:
    """BFS forest of G[alive] rooted at the terminal set.

    Parent choice follows the multi_source_bfs tie rule (minimum-identifier
    neighbor one layer closer).  Rejects when some alive node is unreachable
    from the terminals.
    """
    alive_sorted = sorted(alive)
    dm = multi_source_bfs(g, alive_sorted, terminals, ids)
    for v in alive_sorted:
        if dm.dist[v] is None:
            raise ForestError(f"alive node {v} unreachable from terminals")
    return RootedForest.from_parents(g.n, alive_sorted, list(dm.parent), list(dm.dist), list(dm.origin))


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
