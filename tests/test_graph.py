import itertools
import tracemalloc
from collections import deque

import pytest

from conftest import corpus_entries
from strongcluster.cluster import strong_cluster

from strongcluster.graph import (
    GraphError,
    IdAssignment,
    build_graph,
    connected_components,
    default_bits,
    eccentricity,
    induced_diameter,
    multi_source_bfs,
    parse_edge_list,
    write_edge_list,
)
from strongcluster.gen import FamilySpec, generate, splitmix_at


def bfs_oracle(adj, alive, source):
    """Plain one-source BFS, kept independent of the library under test."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w in alive and w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def diameter_oracle(adj, nodes):
    """All-pairs diameter by one plain BFS per node; None when disconnected."""
    alive = set(nodes)
    worst = 0
    for s in alive:
        dist = bfs_oracle(adj, alive, s)
        if len(dist) != len(alive):
            return None
        worst = max(worst, max(dist.values()))
    return worst


def random_graph(n, edge_prob_q, seed):
    """Seeded graph via the package PRNG; q is a per-pair keep threshold in 1/64ths."""
    edges = []
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            if splitmix_at(seed, k) % 64 < edge_prob_q:
                edges.append((u, v))
            k += 1
    return build_graph(n, edges)


def test_build_smallest_nontrivial():
    g, ids = build_graph(2, [(0, 1)])
    assert g.adj[0] == (1,)
    assert g.adj[1] == (0,)
    assert ids.b == 1
    assert ids.ids == (0, 1)


def test_build_single_node():
    g, ids = build_graph(1, [])
    assert g.n == 1 and g.edge_count == 0
    assert ids.b == 1


def test_build_collapses_duplicates():
    # The edges are read once, so a generator serves as well as a list.
    g, _ = build_graph(3, (e for e in [(0, 1), (1, 0), (1, 2), (2, 1)]))
    assert g.edge_count == 2
    assert g.adj == ((1,), (0, 2), (1,))


def test_build_rejects_self_loop():
    with pytest.raises(GraphError):
        build_graph(2, [(1, 1)])


def test_build_rejects_id_collision():
    with pytest.raises(GraphError):
        build_graph(2, [(0, 1)], ids=[3, 3])


def test_build_rejects_oversized_id():
    with pytest.raises(GraphError):
        build_graph(2, [(0, 1)], ids=[0, 4], b=2)


def test_build_rejects_small_bits():
    with pytest.raises(GraphError):
        build_graph(8, [], b=2)


@pytest.mark.parametrize("n,b", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (1024, 10), (1025, 11)])
def test_default_bits(n, b):
    assert default_bits(n) == b


def test_bfs_path_distances():
    g, _ = build_graph(3, [(0, 1), (1, 2)])
    dm = multi_source_bfs(g, {0, 1, 2}, {0})
    assert dm.dist == (0, 1, 2)
    assert dm.parent == (None, 0, 1)
    assert dm.origin == (0, 0, 0)


def test_bfs_tie_rule_prefers_min_identifier():
    g, _ = build_graph(3, [(0, 1), (1, 2)])
    dm = multi_source_bfs(g, {0, 1, 2}, {0, 2})
    assert dm.dist == (0, 1, 0)
    assert dm.parent[1] == 0
    assert dm.origin[1] == 0


def test_bfs_tie_rule_follows_permuted_identifiers():
    # Same shape, but node 2 now carries the smaller identifier.
    g, ids = build_graph(3, [(0, 1), (1, 2)], ids=[2, 1, 0])
    dm = multi_source_bfs(g, {0, 1, 2}, {0, 2}, ids)
    assert dm.parent[1] == 2
    assert dm.origin[1] == 2


def test_bfs_unreachable_component():
    g, _ = build_graph(4, [(0, 1), (2, 3)])
    dm = multi_source_bfs(g, {0, 1, 2, 3}, {0})
    assert dm.dist[2] is None and dm.dist[3] is None
    assert dm.origin[2] is None


def test_bfs_rejects_source_outside_alive():
    g, _ = build_graph(2, [(0, 1)])
    with pytest.raises(GraphError):
        multi_source_bfs(g, {0}, {1})


def test_bfs_matches_per_source_oracle_on_random_graphs():
    for seed in range(8):
        n = 8 * (seed + 1)
        g, _ = random_graph(n, 3, seed)
        alive = set(v for v in range(n) if v % 7 != 3)
        sources = set(v for v in alive if v % 5 == 0)
        if not sources:
            continue
        dm = multi_source_bfs(g, alive, sources)
        per_source = [bfs_oracle(g.adj, alive, s) for s in sources]
        for v in alive:
            expect = min((d[v] for d in per_source if v in d), default=None)
            assert dm.dist[v] == expect


def test_bfs_matches_oracle_exhaustively_on_tiny_graphs():
    # All graphs on up to 5 labeled nodes, two source patterns each.
    import itertools

    for n in range(2, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g, _ = build_graph(n, edges)
            alive = set(range(n))
            for sources in ({0}, {0, n - 1}):
                dm = multi_source_bfs(g, alive, sources)
                per_source = [bfs_oracle(g.adj, alive, s) for s in sources]
                for v in alive:
                    expect = min((d[v] for d in per_source if v in d), default=None)
                    assert dm.dist[v] == expect


def bfs_tree_oracle(n, adj, alive, sources, key):
    """Distances, parents and origins of a multi-source BFS, by definition.

    Distances come from a plain BFS seeded with every source; the parent of v
    is its alive neighbour one layer closer with the smallest identifier, and
    origin(v) is the source at the end of v's parent chain.
    """
    dist = dict.fromkeys(sources, 0)
    queue = deque(sources)
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w in alive and w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    parent = [None] * n
    for v, dv in dist.items():
        if dv:
            parent[v] = min((w for w in adj[v] if dist.get(w) == dv - 1), key=key)
    origin = [None] * n
    for v in dist:
        u = v
        while parent[u] is not None:
            u = parent[u]
        origin[v] = u
    return tuple(dist.get(v) for v in range(n)), tuple(parent), tuple(origin)


def test_bfs_parent_and_origin_match_oracle_on_every_graph_up_to_6_nodes():
    # Every graph on 1..6 nodes, identity and reversed identifiers, all nodes
    # and all nodes minus the last alive, one source and two sources.
    checked = 0
    for n in range(1, 7):
        id_choices = [
            IdAssignment(b=default_bits(n), ids=tuple(range(n))),
            IdAssignment(b=default_bits(n), ids=tuple(reversed(range(n)))),
        ]
        alive_choices = [set(range(n)), set(range(n - 1))] if n > 1 else [{0}]
        for g in all_graphs(n):
            for ids in id_choices:
                for alive in alive_choices:
                    for sources in {(min(alive),), (min(alive), max(alive))}:
                        dm = multi_source_bfs(g, alive, sources, ids)
                        expect = bfs_tree_oracle(n, g.adj, alive, sources, ids.ids.__getitem__)
                        assert (dm.dist, dm.parent, dm.origin) == expect, (
                            f"adj={g.adj} ids={ids.ids} alive={alive} sources={sources}"
                        )
                        checked += 1
    assert checked > 250_000


def test_components_k2():
    g, _ = build_graph(2, [(0, 1)])
    assert connected_components(g, {0, 1}) == [[0, 1]]


def test_components_isolated_nodes():
    g, _ = build_graph(2, [])
    assert connected_components(g, {0, 1}) == [[0], [1]]


def test_components_middle_removed():
    g, _ = build_graph(3, [(0, 1), (1, 2)])
    assert connected_components(g, {0, 2}) == [[0], [2]]


def test_components_partition_property():
    for seed in range(6):
        g, _ = random_graph(24, 4, seed + 100)
        alive = set(range(0, 24, 1)) - {5, 11}
        comps = connected_components(g, alive)
        flat = [v for c in comps for v in c]
        assert sorted(flat) == sorted(alive)
        assert len(set(flat)) == len(flat)
        assert [c[0] for c in comps] == sorted(c[0] for c in comps)


def test_diameter_triangle():
    g, _ = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert induced_diameter(g, {0, 1, 2}) == 1


def test_diameter_path():
    g, _ = build_graph(3, [(0, 1), (1, 2)])
    assert induced_diameter(g, {0, 1, 2}) == 2


def test_diameter_disconnected_induced():
    g, _ = build_graph(3, [(0, 1), (1, 2)])
    assert induced_diameter(g, {0, 2}) is None


def test_diameter_rejects_empty():
    g, _ = build_graph(1, [])
    with pytest.raises(GraphError):
        induced_diameter(g, set())


def test_diameter_monotone_under_added_edges():
    base, _ = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    more, _ = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
    s = {0, 1, 2, 3, 4, 5}
    assert induced_diameter(more, s) <= induced_diameter(base, s)


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield build_graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])[0]


def test_diameter_matches_oracle_on_every_induced_subgraph_up_to_5_nodes():
    checked = 0
    for n in range(1, 6):
        subsets = [
            [v for v in range(n) if mask >> v & 1] for mask in range(1, 1 << n)
        ]
        for g in all_graphs(n):
            for nodes in subsets:
                assert induced_diameter(g, nodes) == diameter_oracle(g.adj, nodes), (
                    f"n={n} adj={g.adj} nodes={nodes}"
                )
                checked += 1
    assert checked == 32767


def test_diameter_matches_oracle_on_every_6_node_graph():
    nodes = range(6)
    for g in all_graphs(6):
        assert induced_diameter(g, nodes) == diameter_oracle(g.adj, nodes), f"adj={g.adj}"


def test_diameter_matches_oracle_on_corpus_clusters():
    for name, g, ids in corpus_entries(512):
        for terminal, members in strong_cluster(g, ids).clustering.clusters:
            assert induced_diameter(g, members) == diameter_oracle(g.adj, members), (
                f"{name}: cluster of terminal {terminal}"
            )


def test_diameter_across_source_blocks():
    # 32 x 64 grid: 2048 nodes, two source blocks, corner to corner 31 + 63.
    g, _ = generate(FamilySpec("grid", n=2048, w=32))
    assert induced_diameter(g, range(2048)) == 94
    # A 1024-node star with two 10-node tails at its centre: only sources in
    # the second block (the tails) reach the far ends, 10 + 10 hops apart.
    star = [(0, v) for v in range(1, 1024)]
    tails = [(0, 1024), (0, 1034)] + [(v, v + 1) for v in range(1024, 1043) if v != 1033]
    g, _ = build_graph(1045, star + tails)
    assert induced_diameter(g, range(1044)) == 20
    assert induced_diameter(g, range(1045)) is None
    assert induced_diameter(g, [v for v in range(1044) if v != 1030]) is None


def test_diameter_rejects_out_of_range_node():
    g, _ = build_graph(2, [(0, 1)])
    with pytest.raises(GraphError):
        induced_diameter(g, {0, 2})


def _cycle_with_hub(k):
    """Cycle 0..k-1 plus hub k joined to every even node.

    Every node is within 2 hops of the hub, and two odd nodes more than 3
    apart on the cycle have no shorter path than through it, so the
    diameter is 4 for every k tested here.
    """
    return build_graph(k + 1, [(v, (v + 1) % k) for v in range(k)] + [(v, k) for v in range(0, k, 2)])[0]


@pytest.mark.parametrize("k", [63, 64, 65, 1023, 1024, 1025])
def test_diameter_at_word_and_block_edges(k):
    # k sources fill one word short, one word, one word and a bit; the
    # last three do the same for a block of _SOURCE_BLOCK = 1024 sources.
    cycle, _ = build_graph(k, [(v, (v + 1) % k) for v in range(k)])
    assert induced_diameter(cycle, range(k)) == k // 2
    # The hub's neighbours outnumber every other row's, and without the hub
    # the members are the bare cycle again.
    hub = _cycle_with_hub(k)
    assert induced_diameter(hub, range(k + 1)) == 4
    assert induced_diameter(hub, range(k)) == k // 2
    if k < 100:
        assert diameter_oracle(hub.adj, range(k + 1)) == 4
        g, _ = random_graph(k, 4, seed=k)
        members = max(connected_components(g, range(k)), key=len)
        assert induced_diameter(g, members) == diameter_oracle(g.adj, members)
        assert induced_diameter(g, range(k)) == diameter_oracle(g.adj, range(k))


def test_diameter_of_a_member_with_no_induced_neighbour_is_none():
    g, _ = build_graph(4, [(0, 1), (1, 2)])
    assert induced_diameter(g, {0, 1, 3}) is None
    assert induced_diameter(g, {0, 1, 2, 3}) is None
    assert induced_diameter(g, {3}) == 0
    assert induced_diameter(g, {1}) == 0


def test_diameter_of_a_bare_path_longer_than_a_block():
    g, _ = build_graph(1100, [(v, v + 1) for v in range(1099)])
    assert induced_diameter(g, range(1100)) == 1099
    assert induced_diameter(g, range(7, 1100)) == 1092
    assert induced_diameter(g, [v for v in range(1100) if v != 550]) is None


def test_eccentricity_is_one_bfs_inside_the_node_set():
    g, _ = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 4)])
    assert eccentricity(g, range(6), 0) == 3
    assert eccentricity(g, range(6), 2) == 3
    assert eccentricity(g, range(5), 0) == 4
    assert eccentricity(g, {0, 1, 4}, 0) is None
    assert eccentricity(g, {3}, 3) == 0
    with pytest.raises(GraphError):
        eccentricity(g, {0, 1}, 2)
    with pytest.raises(GraphError):
        eccentricity(g, {0, 6}, 0)


def test_eccentricity_brackets_the_diameter_on_every_induced_subgraph_up_to_5_nodes():
    for n in range(1, 6):
        for g in all_graphs(n):
            for mask in range(1, 1 << n):
                nodes = [v for v in range(n) if mask >> v & 1]
                dists = [bfs_oracle(g.adj, set(nodes), v) for v in nodes]
                if any(len(d) < len(nodes) for d in dists):
                    assert all(eccentricity(g, nodes, v) is None for v in nodes), (g.adj, nodes)
                    continue
                eccs = [eccentricity(g, nodes, v) for v in nodes]
                assert eccs == [max(d.values()) for d in dists], (g.adj, nodes)
                assert max(eccs) <= 2 * min(eccs)


def test_edge_list_roundtrip():
    g, ids = build_graph(4, [(0, 1), (1, 2), (2, 3)], ids=[3, 2, 1, 0])
    text = write_edge_list(g, ids)
    g2, ids2 = parse_edge_list(text)
    assert g2.adj == g.adj
    assert ids2.ids == ids.ids


def test_edge_list_default_ids_omitted():
    g, ids = build_graph(2, [(0, 1)])
    assert write_edge_list(g, ids) == "2 1\n0 1\n"


# Each rejected text with its full message, less the "line N: " prefix.
_REJECTED = {
    "": "empty input, expected 'n m' header",
    "2\n0 1\n": "expected 'n m' header, got '2'",
    "2 1\n0\n": "expected 'u v', got '0'",
    "2 1\n0 x\n": "non-integer edge '0 x'",
    "2 2\n0 1\n": "expected 2 edge lines, found 1",
    "2 1\n0 2\n": "edge (0, 2) out of range for n=2",
    "2 1\n1 1\n": "self-loop at node 1",
    "2 1\n0 1\nid 0\n": "identifier group must have exactly 2 'id k' lines, found 1",
    "2 1\n0 1\nid 0\nidx 1\n": "expected 'id k', got 'idx 1'",
    # Blank lines count for the line number and nothing else.
    "2 1\n\n0 x\n": "non-integer edge '0 x'",
    "\n  \n2 1\n\n\n1 1\n": "self-loop at node 1",
    # A \r\n line end is one line break.
    "2 1\r\n0 1\r\nid 0\r\nid 0 1\r\n": "expected 'id k', got 'id 0 1'",
    "3 2\r\n0 1\r\n\r\n1 2\r\nid 5\r\nid x\r\nid 1\r\n": "non-integer identifier 'id x'",
    # An identifier group of the wrong length is named at its first line.
    "2 1\n0 1\nid 0\nid 1\nid 2\n": "identifier group must have exactly 2 'id k' lines, found 3",
    "3 1\n0 1\n\nid 0\n\nid 1\n": "identifier group must have exactly 3 'id k' lines, found 2",
    # A wrong line count outranks a malformed line of its group.
    "2 3\n0 x\n1 0\n": "expected 3 edge lines, found 2",
    "2 1\n0 1\nidx 1\n": "identifier group must have exactly 2 'id k' lines, found 1",
}


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("2\n0 1\n", 1),
        ("2 1\n0\n", 2),
        ("2 1\n0 x\n", 2),
        ("2 2\n0 1\n", 2),
        ("2 1\n0 2\n", 2),
        ("2 1\n1 1\n", 2),
        ("2 1\n0 1\nid 0\n", 3),
        ("2 1\n0 1\nid 0\nidx 1\n", 4),
        ("2 1\n\n0 x\n", 3),
        ("\n  \n2 1\n\n\n1 1\n", 6),
        ("2 1\r\n0 1\r\nid 0\r\nid 0 1\r\n", 4),
        ("3 2\r\n0 1\r\n\r\n1 2\r\nid 5\r\nid x\r\nid 1\r\n", 6),
        ("2 1\n0 1\nid 0\nid 1\nid 2\n", 3),
        ("3 1\n0 1\n\nid 0\n\nid 1\n", 4),
        ("2 3\n0 x\n1 0\n", 3),
        ("2 1\n0 1\nidx 1\n", 3),
    ],
)
def test_edge_list_rejects_with_line_number(text, line):
    with pytest.raises(GraphError) as err:
        parse_edge_list(text)
    assert str(err.value) == f"line {line}: {_REJECTED[text]}"


def test_edge_list_line_breaks_and_blank_lines():
    # Every line break str.splitlines knows ends a line, and blank or
    # space-padded lines are skipped wherever they stand.
    g, ids = parse_edge_list("\n3 2\r0 1\x0c \n 1 2 \x0bid 2\r\n\nid 0\u2028id 1")
    assert g.adj == ((1,), (0, 2), (1,))
    assert ids.ids == (2, 0, 1)


def test_edge_list_parse_peak_follows_the_text():
    # The parse walks the lines once and keeps no list of them: on gnp
    # n=4096 with an identifier group its tracemalloc peak stays within 30
    # times the text length (a list of every line's number and text made
    # it ~47 times).
    g, ids = generate(FamilySpec(family="gnp", n=4096, p=3 / 4096, seed=1, id_seed=1))
    text = write_edge_list(g, ids)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        g2, ids2 = parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert (g2.adj, ids2.ids) == (g.adj, ids.ids)
    assert peak <= 30 * len(text), f"parse peak {peak} B for {len(text)} B of text"
