"""Undirected graph core: construction, identifier assignment, BFS oracles.

Everything downstream (forests, phase engine, simulator, verifiers) goes
through the primitives in this module.  All types are immutable after
construction and all operations are pure functions, so they are safe to call
from parallel workers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, islice
from operator import or_
from typing import Iterable, Sequence

import numpy as np

# Sources per bit-parallel BFS pass in ``induced_diameter``.
_SOURCE_BLOCK = 1024


class GraphError(ValueError):
    """Structurally invalid graph, identifier assignment, or input file."""


def default_bits(n: int) -> int:
    """Identifier width for an n-node graph: ceil(log2(max(n, 2))), at least 1."""
    return max(1, (max(n, 2) - 1).bit_length())


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..n-1.

    Neighbor lists are sorted ascending; this is the determinism anchor for
    every tie-breaking rule built on top.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]
    edge_count: int

    def edges(self) -> Iterable[tuple[int, int]]:
        """Yield each undirected edge once, as (u, v) with u < v, sorted."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)``: the neighbors of v are ``indices[indptr[v]:indptr[v + 1]]``.

        Built on first use and kept on the graph, for the numpy BFS in
        ``forest.bfs_forest``.
        """
        indptr = np.zeros(self.n + 1, dtype=np.intp)
        np.cumsum(np.fromiter(map(len, self.adj), dtype=np.intp, count=self.n), out=indptr[1:])
        indices = np.fromiter(chain.from_iterable(self.adj), dtype=np.intp, count=int(indptr[-1]))
        return indptr, indices


@dataclass(frozen=True)
class IdAssignment:
    """Distinct b-bit identifiers, indexed by node. Requires 2**b >= n."""

    b: int
    ids: tuple[int, ...]

    @cached_property
    def order(self) -> np.ndarray:
        """The nodes in ascending identifier order."""
        return np.array(sorted(range(len(self.ids)), key=self.ids.__getitem__), dtype=np.intp)

    @cached_property
    def rank(self) -> np.ndarray:
        """Position of each node in ``order``.

        Compares like the identifiers themselves but fits a machine word
        whatever their width.
        """
        rank = np.empty(len(self.order), dtype=np.intp)
        rank[self.order] = np.arange(len(self.order))
        return rank


@dataclass(frozen=True)
class DistMap:
    """Hop distances from a source set inside an induced subgraph.

    ``dist``, ``parent`` and ``origin`` are indexed by node; unreachable nodes
    (including nodes outside the alive set) carry None.  Sources have
    dist 0, parent None, origin themselves.
    """

    dist: tuple[int | None, ...]
    parent: tuple[int | None, ...]
    origin: tuple[int | None, ...]


def build_graph(
    n: int,
    edges: Iterable[tuple[int, int]],
    ids: Sequence[int] | None = None,
    b: int | None = None,
) -> tuple[Graph, IdAssignment]:
    """Build a validated Graph plus its identifier assignment.

    Duplicate edge pairs are collapsed.  Self-loops, out-of-range endpoints,
    colliding identifiers, negative identifiers and identifiers not fitting
    in b bits are rejected.
    Without explicit ids, node k gets identifier k and b = default_bits(n).

    ``edges`` is read once, so it may be a generator.  Neighbours are
    collected in one list per node and deduplicated once per node at the
    end, which holds far less than a set per node.
    """
    if n <= 0:
        raise GraphError(f"node count must be positive, got {n}")
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop at node {u}")
        nbrs[u].append(v)
        nbrs[v].append(u)
    adj = tuple(tuple(sorted(set(a))) for a in nbrs)
    del nbrs
    edge_count = sum(len(a) for a in adj) // 2
    g = Graph(n=n, adj=adj, edge_count=edge_count)

    if ids is None:
        id_list = tuple(range(n))
        width = b if b is not None else default_bits(n)
    else:
        id_list = tuple(int(x) for x in ids)
        if len(id_list) != n:
            raise GraphError(f"expected {n} identifiers, got {len(id_list)}")
        if len(set(id_list)) != n:
            raise GraphError("identifier collision")
        width = b if b is not None else max(default_bits(n), max(id_list).bit_length())
    if width < 0 or (1 << width) < n:
        raise GraphError(f"2^b < n: b={width}, n={n}")
    for node, value in enumerate(id_list):
        if value < 0:
            raise GraphError(f"identifier {value} of node {node} is negative")
        if value >= (1 << width):
            raise GraphError(f"identifier {value} of node {node} needs more than {width} bits")
    return g, IdAssignment(b=width, ids=id_list)


def _check_alive_sources(g: Graph, alive: set[int], sources: set[int]) -> None:
    for v in alive:
        if not 0 <= v < g.n:
            raise GraphError(f"alive node {v} out of range")
    if not sources <= alive:
        bad = min(sources - alive)
        raise GraphError(f"source {bad} not in alive set")


def multi_source_bfs(
    g: Graph,
    alive: Iterable[int],
    sources: Iterable[int],
    ids: IdAssignment | None = None,
) -> DistMap:
    """BFS distances from a source set within the subgraph induced by ``alive``.

    Parent tie rule: the parent of v is the alive neighbor w with
    dist(w) = dist(v) - 1 of minimum identifier; origin(v) is inherited from
    the parent.  With ``ids=None`` the identifier of node k is k, so ties fall
    back to the minimum node index.
    """
    alive_set = set(alive)
    source_set = set(sources)
    _check_alive_sources(g, alive_set, source_set)

    dist: list[int | None] = [None] * g.n
    parent: list[int | None] = [None] * g.n
    origin: list[int | None] = [None] * g.n

    layer = list(source_set)
    for s in layer:
        dist[s] = 0
        origin[s] = s

    key = range(g.n) if ids is None else ids.ids

    # One pass per layer: the first layer-d neighbour to reach w claims it,
    # and a later one with a smaller identifier takes over.
    d = 1
    while layer:
        nxt: list[int] = []
        for u in layer:
            ku = key[u]
            for w in g.adj[u]:
                if w in alive_set:
                    dw = dist[w]
                    if dw is None:
                        dist[w] = d
                        parent[w] = u
                        nxt.append(w)
                    elif dw == d and ku < key[parent[w]]:
                        parent[w] = u
        for v in nxt:
            origin[v] = origin[parent[v]]
        layer = nxt
        d += 1

    return DistMap(dist=tuple(dist), parent=tuple(parent), origin=tuple(origin))


def connected_components(g: Graph, alive: Iterable[int]) -> list[list[int]]:
    """Partition of the alive set into components of the induced subgraph.

    Components are emitted in order of their minimum node index, each sorted.
    """
    alive_set = set(alive)
    for v in alive_set:
        if not 0 <= v < g.n:
            raise GraphError(f"alive node {v} out of range")
    seen: set[int] = set()
    out: list[list[int]] = []
    for start in sorted(alive_set):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if w in alive_set and w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        out.append(sorted(comp))
    return out


def induced_diameter(g: Graph, nodes: Iterable[int]) -> int | None:
    """Diameter of the subgraph induced by ``nodes``; None when disconnected.

    Exact, by bit-parallel BFS from all sources at once (Akiba, Iwata and
    Yoshida, SIGMOD 2013).  The k nodes are relabelled 0..k-1; each holds the
    set of sources that have reached it as the bits of a Python int, and one
    round ORs every node's neighbours' sets into its own.  The largest
    eccentricity among the sources is the number of rounds until every set
    is full; a round that changes nothing means the subgraph is
    disconnected.  Sources run in blocks of ``_SOURCE_BLOCK``, so memory is
    O(k * _SOURCE_BLOCK) bits and time is O(ceil(k / _SOURCE_BLOCK) * D * m_k)
    word operations, for diameter D and m_k induced edges.
    """
    order = sorted(set(nodes))
    if not order:
        raise GraphError("induced_diameter of empty node set")
    for v in (order[0], order[-1]):
        if not 0 <= v < g.n:
            raise GraphError(f"node {v} out of range for n={g.n}")
    local = {v: i for i, v in enumerate(order)}
    nbrs = [[local[w] for w in g.adj[v] if w in local] for v in order]
    k = len(order)
    worst = 0
    for lo in range(0, k, _SOURCE_BLOCK):
        hi = min(lo + _SOURCE_BLOCK, k)
        full = (1 << (hi - lo)) - 1
        reach = [0] * k
        for i in range(lo, hi):
            reach[i] = 1 << (i - lo)
        pending = [i for i in range(k) if reach[i] != full]
        rounds = 0
        while pending:
            get = reach.__getitem__
            grown = [reduce(or_, map(get, nbrs[i]), reach[i]) for i in pending]
            still = [i for i, x in zip(pending, grown) if x != full]
            if len(still) == len(pending) and grown == list(map(get, pending)):
                return None
            for i, x in zip(pending, grown):
                reach[i] = x
            pending = still
            rounds += 1
        worst = max(worst, rounds)
    return worst


def _edge_line(ln_no: int, body: str, n: int) -> tuple[int, int]:
    parts = body.split()
    if len(parts) != 2:
        raise GraphError(f"line {ln_no}: expected 'u v', got {body!r}")
    try:
        u, v = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphError(f"line {ln_no}: non-integer edge {body!r}") from None
    if not (0 <= u < n and 0 <= v < n):
        raise GraphError(f"line {ln_no}: edge ({u}, {v}) out of range for n={n}")
    if u == v:
        raise GraphError(f"line {ln_no}: self-loop at node {u}")
    return u, v


def _id_line(ln_no: int, body: str) -> int:
    parts = body.split()
    if len(parts) != 2 or parts[0] != "id":
        raise GraphError(f"line {ln_no}: expected 'id k', got {body!r}")
    try:
        return int(parts[1])
    except ValueError:
        raise GraphError(f"line {ln_no}: non-integer identifier {body!r}") from None


def parse_edge_list(text: str) -> tuple[Graph, IdAssignment]:
    """Parse the edge-list text format.

    Line 1: ``n m``.  Next m lines: ``u v`` (0-based endpoints).  Optionally
    followed by exactly n lines ``id k`` assigning identifier k to nodes
    0..n-1 in order.  Blank lines are skipped.  Malformed input is rejected
    with the offending line number.

    The lines are walked once: each nonblank one is numbered and stripped
    as it is reached, and no list of numbered entries is kept beside
    ``str.splitlines``' own.  A wrong line count outranks a malformed line
    within its group, so the first malformed line of a group is held back
    until the group has been counted.
    """
    entries = ((i, body) for i, line in enumerate(text.splitlines(), 1) if (body := line.strip()))
    first = next(entries, None)
    if first is None:
        raise GraphError("line 1: empty input, expected 'n m' header")
    ln_no, header = first
    parts = header.split()
    if len(parts) != 2:
        raise GraphError(f"line {ln_no}: expected 'n m' header, got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphError(f"line {ln_no}: non-integer header {header!r}") from None
    if n <= 0 or m < 0:
        raise GraphError(f"line {ln_no}: invalid sizes n={n} m={m}")

    edges: list[tuple[int, int]] = []
    bad: GraphError | None = None
    found = 0
    for ln_no, body in islice(entries, m):
        found += 1
        if bad is None:
            try:
                edges.append(_edge_line(ln_no, body, n))
            except GraphError as err:
                bad = err
    if found < m:
        raise GraphError(f"line {ln_no}: expected {m} edge lines, found {found}")
    if bad is not None:
        raise bad

    ids: list[int] = []
    group_start = found = 0
    for ln_no, body in entries:
        if not found:
            group_start = ln_no
        found += 1
        if bad is None:
            try:
                ids.append(_id_line(ln_no, body))
            except GraphError as err:
                bad = err
    if found and found != n:
        raise GraphError(
            f"line {group_start}: identifier group must have exactly {n} 'id k' lines, found {found}"
        )
    if bad is not None:
        raise bad
    return build_graph(n, edges, ids=ids if found else None)


def write_edge_list(g: Graph, ids: IdAssignment | None = None) -> str:
    """Render the edge-list text format; identifier group only if non-default."""
    out = [f"{g.n} {g.edge_count}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    if ids is not None and tuple(ids.ids) != tuple(range(g.n)):
        out.extend(f"id {k}" for k in ids.ids)
    return "\n".join(out) + "\n"
