"""Undirected graph core: construction, identifier assignment, BFS oracles.

Everything downstream (forests, phase engine, simulator, verifiers) goes
through the primitives in this module.  All types are immutable after
construction and all operations are pure functions, so they are safe to call
from parallel workers.

numpy is imported inside the functions that run it (the CSR adjacency, the
identifier order and ``induced_diameter``), so commands that call none of
them, such as ``gen`` and ``verify``, start without it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np

# Sources per bit-parallel BFS pass in ``induced_diameter``.
_SOURCE_BLOCK = 1024
# ``induced_diameter`` gathers a neighbour column on its own when at least
# this many rows have it; the rest go through one reduceat.
_COLUMN_ROWS = 64


@cache
def _bits() -> np.ndarray:
    """``_bits()[i]`` is the uint64 word with only bit i set; built on first use."""
    import numpy as np

    return np.uint64(1) << np.arange(64, dtype=np.uint64)


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
        ``forest.bfs_forest`` and ``induced_diameter``.
        """
        import numpy as np

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
        import numpy as np

        return np.array(sorted(range(len(self.ids)), key=self.ids.__getitem__), dtype=np.intp)

    @cached_property
    def rank(self) -> np.ndarray:
        """Position of each node in ``order``.

        Compares like the identifiers themselves but fits a machine word
        whatever their width.
        """
        import numpy as np

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


def eccentricity(g: Graph, nodes: Iterable[int], source: int) -> int | None:
    """Largest hop distance from ``source`` inside the subgraph induced by ``nodes``.

    None when some node is unreached, that is, when the induced subgraph is
    disconnected.  One plain BFS that reads only the members' adjacency, so
    its cost follows the node set, not n.  For a connected induced subgraph
    and any member v, ecc(v) <= diameter <= 2 * ecc(v).
    """
    members = set(nodes)
    if source not in members:
        raise GraphError(f"source {source} not in the node set")
    for v in (min(members), max(members)):
        if not 0 <= v < g.n:
            raise GraphError(f"node {v} out of range for n={g.n}")
    seen = {source}
    layer = [source]
    ecc = -1
    while layer:
        ecc += 1
        nxt: list[int] = []
        for u in layer:
            for w in g.adj[u]:
                if w in members and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        layer = nxt
    return ecc if len(seen) == len(members) else None


def _out_edges(indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tail, head) arrays of every CSR edge leaving the nonempty ``nodes``, row by row."""
    import numpy as np

    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    ends = counts.cumsum()
    # Edge k of the output sits at CSR position starts[row] + (k - row offset).
    pos = np.arange(ends[-1]) + (starts - ends + counts).repeat(counts)
    return nodes.repeat(counts), indices[pos]


def _degree_columns(g: Graph, members: np.ndarray) -> tuple[list[np.ndarray], np.ndarray, np.ndarray] | None:
    """The induced adjacency ``induced_diameter`` runs on; None when a member has no induced neighbour.

    The sorted ``members`` are relabelled 0..k-1, highest induced degree
    first, so the rows that have a j-th neighbour are a prefix for every j.
    Returns the neighbour columns that at least ``_COLUMN_ROWS`` rows have
    (column j lists the j-th neighbour of each of its rows), then the
    remaining neighbours of the fewer rows of higher degree, row after row,
    with the offset where each of those rows starts.
    """
    import numpy as np

    k = len(members)
    tail, head = _out_edges(*g.csr, members)
    pos = np.searchsorted(members, head)
    inside = np.append(members, -1)[pos] == head
    row, pos = np.searchsorted(members, tail[inside]), pos[inside]
    old_deg = np.bincount(row, minlength=k)
    if not old_deg.all():
        return None
    # Highest degree first, ties by node, as one sort of packed keys.
    key = (old_deg.max() - old_deg) * k + np.arange(k)
    key.sort()
    by_deg = key % k
    label = np.empty(k, dtype=np.intp)
    label[by_deg] = np.arange(k)
    deg = old_deg[by_deg]
    iptr = np.zeros(k + 1, dtype=np.intp)
    np.cumsum(deg, out=iptr[1:])
    # Move each row's run of neighbour slots to where its new label's run
    # starts, keeping each neighbour's offset within the run.
    nbr = np.empty(len(pos), dtype=np.intp)
    nbr[iptr[label[row]] + np.arange(len(row)) - (old_deg.cumsum() - old_deg)[row]] = label[pos]
    # rows_with[j]: the number of rows with more than j neighbours.
    rows_with = (k - np.searchsorted(deg[::-1], np.arange(int(deg[0])), side="right")).tolist()
    cols = [nbr[iptr[:c] + j] for j, c in enumerate(rows_with) if c >= _COLUMN_ROWS]
    t = len(cols)
    tail_len = deg[: rows_with[t] if t < len(rows_with) else 0] - t
    # The slots at offset t or more within their row, row after row.
    tail_nbr = nbr[np.arange(len(nbr)) - np.repeat(iptr[:-1], deg) >= t]
    return cols, tail_nbr, np.cumsum(tail_len) - tail_len


def induced_diameter(g: Graph, nodes: Iterable[int]) -> int | None:
    """Diameter of the subgraph induced by ``nodes``; None when disconnected.

    Exact, by bit-parallel BFS from all sources at once (Akiba, Iwata and
    Yoshida, SIGMOD 2013), on numpy ``uint64`` rows.  The k members are
    relabelled 0..k-1 from ``g.csr``, highest induced degree first, so the
    rows that have a j-th neighbour are a prefix for every j.  Sources run
    in blocks of ``_SOURCE_BLOCK``: row i of a (k x words) reach matrix
    holds, one bit per source of the block, the sources that have reached
    member i.  One round ORs each row's neighbours' rows into it: one
    ``take`` per neighbour column that at least ``_COLUMN_ROWS`` rows have,
    and one ``np.bitwise_or.reduceat`` over the remaining neighbours of the
    fewer rows of higher degree.  The largest eccentricity among the sources
    is the number of rounds before the first round that changes nothing.
    The subgraph is disconnected when a member has no induced neighbour, or
    when the rows then disagree: at that fixpoint each row holds the block's
    sources in its own component.

    Memory is three (k x block) bit matrices (the reach matrix, the next
    round's, and one gathered neighbour column at a time) plus the induced
    CSR and the gathered extra neighbours of the high-degree rows.  Time is
    O(ceil(k / block) * (D + 1) * m_k * block / 64) word operations, for
    block = ``_SOURCE_BLOCK``, diameter D and m_k induced edges, in
    O(ceil(k / block) * (D + 1) * columns) numpy calls.
    """
    import numpy as np

    members = np.array(sorted(set(nodes)), dtype=np.intp)
    k = len(members)
    if not k:
        raise GraphError("induced_diameter of empty node set")
    for v in (members[0], members[-1]):
        if not 0 <= v < g.n:
            raise GraphError(f"node {v} out of range for n={g.n}")
    if k == 1:
        return 0
    induced = _degree_columns(g, members)
    if induced is None:
        return None
    cols, tail_nbr, tail_seg = induced
    tail_rows = len(tail_seg)

    worst = 0
    for lo in range(0, k, _SOURCE_BLOCK):
        width = min(_SOURCE_BLOCK, k - lo)
        words = (width + 63) >> 6
        reach = np.zeros((k, words), dtype=np.uint64)
        src = np.arange(width)
        reach.ravel()[(lo + src) * words + (src >> 6)] = _bits()[src & 63]
        nxt = np.empty_like(reach)
        gathered = np.empty_like(reach)
        rounds = 0
        while True:
            np.copyto(nxt, reach)
            for col in cols:
                c = len(col)
                reach.take(col, axis=0, out=gathered[:c])
                np.bitwise_or(nxt[:c], gathered[:c], out=nxt[:c])
            if tail_rows:
                tail = reach.take(tail_nbr, axis=0)
                np.bitwise_or.reduceat(tail, tail_seg, axis=0, out=gathered[:tail_rows])
                np.bitwise_or(nxt[:tail_rows], gathered[:tail_rows], out=nxt[:tail_rows])
            if (nxt == reach).all():
                break
            reach, nxt = nxt, reach
            rounds += 1
        # Each row now holds the block's sources in its own component.
        if not (reach == reach[0]).all():
            return None
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
