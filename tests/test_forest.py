import itertools

import pytest

from conftest import corpus_entries
from strongcluster.cluster import strong_cluster
from strongcluster.forest import ForestError, ForestLinks, audit_bfs, audit_depths, bfs_forest
from strongcluster.gen import splitmix_at
from strongcluster.graph import GraphError, build_graph, connected_components, multi_source_bfs
from strongcluster.phase import run_phase


def p3():
    return build_graph(3, [(0, 1), (1, 2)])


def test_bfs_forest_chain():
    g, ids = p3()
    f = bfs_forest(g, [0, 1, 2], [0], ids)
    assert [d is not None for d in f.depth] == [True, True, True]
    assert f.parent == [None, 0, 1]
    assert f.depth == [0, 1, 2]
    assert f.root_of == [0, 0, 0]
    audit_depths(f)


def test_bfs_forest_parents_and_roots_are_the_alive_ints():
    # Parent and root entries are the caller's own int objects, so forests
    # built on one alive set share one int per node.  Nodes above 256 are
    # not CPython's cached small ints.
    n = 600
    g, ids = build_graph(n, [(v, v + 1) for v in range(n - 1)])
    alive = [int(str(v)) for v in range(n)]
    f = bfs_forest(g, alive, [0, 300, n - 1], ids)
    assert f.parent[400] == 399 and f.root_of[400] == 300
    for v in range(n):
        assert f.root_of[v] is alive[f.root_of[v]]
        assert f.parent[v] is None or f.parent[v] is alive[f.parent[v]]


def test_bfs_forest_two_terminals_tie_rule():
    g, ids = p3()
    f = bfs_forest(g, [0, 1, 2], [0, 2], ids)
    assert f.parent[1] == 0
    assert f.root_of == [0, 0, 2]
    assert f.depth == [0, 1, 0]


def test_bfs_forest_all_terminals():
    g, ids = p3()
    f = bfs_forest(g, [0, 1, 2], [0, 1, 2], ids)
    assert f.depth == [0, 0, 0]
    assert f.parent == [None, None, None]
    assert f.root_of == [0, 1, 2]


def test_bfs_forest_rejects_unreachable():
    g, ids = build_graph(3, [(0, 1)])
    with pytest.raises(ForestError, match="unreachable"):
        bfs_forest(g, [0, 1, 2], [0], ids)


# The subtree walk, rehang and deletion happen inside the reference engine,
# which edits its forest's four lists in place.  The tests below drive them
# through run_phase, on graphs whose starting BFS forest makes one edit.

def _first_step(g, ids, alive, terminals, p):
    """The phase's result and the snapshot after its first step."""
    res = run_phase(g, alive, terminals, p, ids, debug=True)
    return res, res.step_traces[0].snapshot


def _root_path(parent, v):
    """v, then its ancestors up to its root, by parent links."""
    path = [v]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path


def _proposer_subtrees(g, ids, alive, terminals, p, j=0):
    """The proposers of step j of a debug phase, each with its subtree.

    A subtree is read off the debug snapshots: the blue members before the
    step that are red or gone after it, grouped by the proposer their
    starting BFS parent links lead through (a blue node keeps its starting
    parent until it leaves).  Each proposal's weight must be its subtree's
    size, and every node that leaves must lie in some proposer's subtree.
    """
    res = run_phase(g, alive, terminals, p, ids, debug=True)
    f0 = bfs_forest(g, sorted(alive), sorted(terminals), ids)
    if j:
        before = {v for v, (is_red, _, _) in res.step_traces[j - 1].snapshot.items() if not is_red}
    else:
        shift = ids.b - 1 - p
        before = {v for v in range(g.n) if f0.depth[v] is not None and ids.ids[f0.root_of[v]] >> shift & 1}
    after = res.step_traces[j].snapshot
    left = {v for v in before if v not in after or after[v][0]}
    subtrees = {}
    for pr in res.step_traces[j].proposals:
        subtrees[pr.proposer] = sorted(v for v in left if pr.proposer in _root_path(f0.parent, v))
        assert pr.weight == len(subtrees[pr.proposer])
    assert sorted(left) == sorted(v for sub in subtrees.values() for v in sub)
    return subtrees


def test_subtree_of_interior_node():
    # Blue tree 0 - 1 - {2, 3} and red terminal 4 next to node 1 only; the
    # identifiers hang 1 under 0, and bit 0 makes 0 blue and 4 red.
    g, ids = build_graph(5, [(0, 1), (1, 2), (1, 3), (1, 4)], ids=[1, 0, 3, 5, 2])
    assert _proposer_subtrees(g, ids, range(5), {0, 4}, 2) == {1: [1, 2, 3]}


def test_subtree_skips_children_that_left_the_blue_forest():
    # Children that turned red or left the forest in an earlier step of the
    # phase are skipped.  Blue tree 0 - 1 - {2, 3}; red chain 4 - 5 - 6,
    # whose end 6 touches 2.  Step 0: 2 joins red tree 4.  Step 1: 1, now
    # next to red 2, proposes without it.
    g, ids = build_graph(
        7, [(0, 1), (1, 2), (1, 3), (4, 5), (5, 6), (6, 2)], ids=[4, 5, 6, 3, 0, 1, 2]
    )
    assert _proposer_subtrees(g, ids, range(7), {0, 4}, 0) == {2: [2]}
    assert run_phase(g, range(7), {0, 4}, 0, ids).step_traces[0].grows == (4,)
    assert _proposer_subtrees(g, ids, range(7), {0, 4}, 0, j=1) == {1: [1, 3]}
    # Blue tree 0 - 1 - {2, 3}; red star 4 on leaves 5..12, with 5 next to
    # 3; blue terminal 13 with child 14, next to 1 and to red terminal 15
    # (b = 4, bit 0 colors odd identifiers blue).  Step 0: 3 proposes
    # weight 1 to the star of 9 and is declined, and 14 joins 15.  Step 1:
    # 1, now next to red 14, proposes without the deleted 3.
    edges = [(0, 1), (1, 2), (1, 3), (3, 5), (13, 14), (14, 1), (14, 15)]
    edges += [(4, k) for k in range(5, 13)]
    g, ids = build_graph(16, edges, ids=[3, 4, 6, 7, 0, 5, 8, 9, 10, 11, 12, 13, 14, 1, 15, 2])
    assert ids.b == 4
    terminals = {0, 4, 13, 15}
    assert _proposer_subtrees(g, ids, range(16), terminals, 3) == {3: [3], 14: [14]}
    assert run_phase(g, range(16), terminals, 3, ids).step_traces[0].deleted == (3,)
    assert _proposer_subtrees(g, ids, range(16), terminals, 3, j=1) == {1: [1, 2], 13: [13]}


def test_subtree_of_singleton_root():
    g, ids = build_graph(2, [(0, 1)])
    assert _proposer_subtrees(g, ids, {0, 1}, {0, 1}, 0) == {1: [1]}


def test_rehang_singleton_under_root():
    # On P3 with identifiers 0, 1, 2 (b = 2), blue terminal 2 joins red
    # terminal 1 at phase 0.
    g, ids = p3()
    res, after = _first_step(g, ids, {0, 1, 2}, {0, 1, 2}, 0)
    tr = res.step_traces[0]
    assert tr.grows == (1,) and tr.red_sizes == {1: 1}
    assert after == {0: (True, 0, 0), 1: (True, 0, 1), 2: (True, 1, 1)}
    assert res.final_forest.parent == [None, None, 1]
    assert multi_source_bfs(g, res.alive_in, res.terminals_in).dist == (0, 0, 0)
    audit_depths(res.final_forest)


def test_rehang_chain_depth_formula():
    # Blue chain 0 <- 1 <- 2 and red chain 3 <- 4; node 1 rehangs under red
    # node 4 and then the blue root 0 under 1.  Post depths follow
    # old - old(proposer) + depth(new parent) + 1.
    g, ids = build_graph(5, [(0, 1), (1, 2), (3, 4), (1, 4)], ids=[1, 0, 3, 2, 4])
    res, after = _first_step(g, ids, range(5), {0, 3}, 2)
    assert multi_source_bfs(g, res.alive_in, res.terminals_in).dist == (0, 1, 2, 0, 1)
    assert [pr.proposer for pr in res.step_traces[0].proposals] == [1]
    assert after == {
        0: (False, 0, 0), 1: (True, 2, 3), 2: (True, 3, 3), 3: (True, 0, 3), 4: (True, 1, 3),
    }
    assert res.step_traces[0].red_sizes == {3: 2}
    assert res.step_traces[1].red_sizes == {3: 4}
    assert res.final_forest.parent == [1, 4, 1, None, 3]
    assert res.final_forest.depth == [3, 2, 3, 0, 1]
    assert res.final_forest.root_of == [3] * 5
    audit_depths(res.final_forest)


def test_rehang_preserves_member_count():
    g, ids = build_graph(5, [(0, 1), (1, 2), (3, 4), (1, 4)], ids=[1, 0, 3, 2, 4])
    res = run_phase(g, range(5), {0, 3}, 2, ids)
    assert res.deleted == ()
    assert [d is not None for d in res.final_forest.depth] == [True] * 5
    assert res.survivors == res.alive_in


def _edit_scenario():
    """One step that rehangs one blue subtree and deletes another (b = 4).

    Red star 0 on nine nodes {0, 2..9} and red singleton 1; blue root 10
    with child 11, which touches star leaf 2; blue root 12 with child 13,
    next to red 1.  Node 11 proposes weight 1 to the star, and 2b * 1 < 9
    declines it; node 12 proposes weight 2 to tree 1, which grows.
    """
    edges = [(0, k) for k in range(2, 10)] + [(10, 11), (11, 2), (12, 1), (12, 13)]
    g, ids = build_graph(14, edges)
    assert ids.b == 4
    return g, ids, run_phase(g, range(14), {0, 1, 10, 12}, 0, ids, debug=True)


def test_delete_leaf():
    g, ids, res = _edit_scenario()
    tr = res.step_traces[0]
    assert tr.declines == (0,) and tr.deleted == (11,)
    f = res.final_forest
    assert f.depth[11] is None
    assert (f.parent[11], f.depth[11], f.root_of[11]) == (None, None, None)
    # The leaf's blue root stays, alone.
    assert (f.depth[10] is not None, f.parent[10], f.depth[10], f.root_of[10]) == (True, None, 0, 10)
    assert res.terminals_out == (0, 1, 10)


def test_delete_inner_subtree():
    # Red star 0 on 21 nodes and blue chain 21 <- 22 <- 23, whose middle node
    # touches star leaf 1: at b = 5, 2b * 2 < 21 declines, taking 23 along.
    g, ids = build_graph(24, [(0, k) for k in range(1, 21)] + [(21, 22), (22, 23), (22, 1)])
    assert ids.b == 5
    res = run_phase(g, range(24), {0, 21}, 0, ids, debug=True)
    tr = res.step_traces[0]
    assert [(pr.proposer, pr.weight) for pr in tr.proposals] == [(22, 2)]
    assert tr.declines == (0,) and tr.deleted == (22, 23)
    f = res.final_forest
    assert [d is not None for d in f.depth] == [True] * 22 + [False, False]
    assert f.parent[22:] == f.depth[22:] == f.root_of[22:] == [None, None]
    assert res.survivors == tuple(range(22))


def test_delete_empty_is_identity():
    # One red tree and nothing to propose: the phase ends on its BFS forest.
    g, ids = p3()
    res = run_phase(g, {0, 1, 2}, {0}, 0, ids)
    assert res.final_forest == bfs_forest(g, [0, 1, 2], [0], ids)
    assert res.deleted == ()


def test_delete_reduces_by_subtree_sizes():
    # On every corpus graph with n <= 64, each phase's forest loses exactly
    # the weights of its declined proposals, and a deleted node keeps no
    # parent, depth or root.
    deletions = 0
    for name, g, ids in corpus_entries(64):
        for res in strong_cluster(g, ids).phases:
            f = res.final_forest
            declined = sum(
                pr.weight for tr in res.step_traces for pr in tr.proposals if pr.target_root in tr.declines
            )
            assert sum(d is not None for d in f.depth) == len(res.alive_in) - declined, name
            assert len(res.deleted) == declined, name
            for v in res.deleted:
                assert (f.parent[v], f.depth[v], f.root_of[v]) == (None, None, None), name
            deletions += declined
    assert deletions > 100


def test_audit_after_edit_chains():
    # A rehang and a deletion in one step; the debug run audits the forest
    # after every step, and the final forest passes the audit too.
    g, ids, res = _edit_scenario()
    tr = res.step_traces[0]
    assert [(pr.proposer, pr.weight) for pr in tr.proposals] == [(11, 1), (12, 2)]
    assert tr.grows == (1,) and tr.declines == (0,)
    assert tr.red_sizes == {0: 9, 1: 1}
    f = res.final_forest
    assert (f.parent[12], f.depth[12], f.root_of[12]) == (1, 1, 1)
    assert (f.parent[13], f.depth[13], f.root_of[13]) == (12, 2, 1)
    audit_depths(f)


def _forged(f, field, v, value):
    links = {name: list(getattr(f, name)) for name in ("parent", "depth", "root_of")}
    links[field][v] = value
    return ForestLinks(**links)


@pytest.mark.parametrize(
    "forge, message",
    [
        (lambda f: _forged(f, "depth", 2, 3), "depth drift at node 2"),
        (lambda f: _forged(f, "root_of", 2, 1), "root drift at node 2"),
        (lambda f: _forged(f, "depth", 0, 1), "root flag drift at node 0"),
        # 0 -> 2 -> 1 -> 0, with a nonzero depth so the root flag holds.
        (lambda f: _forged(_forged(f, "parent", 0, 2), "depth", 0, 3), "parent cycle reached from node 0"),
    ],
    ids=["depth", "root", "root-flag", "cycle"],
)
def test_audit_rejects_forged_links(forge, message):
    g, ids = p3()
    f = bfs_forest(g, [0, 1, 2], [0], ids)
    audit_depths(f)
    with pytest.raises(ForestError, match=message):
        audit_depths(forge(f))


def test_audit_bfs_rejects_forged_parent():
    # Node 1 lies one hop from both terminals; the tie rule picks 0.
    g, ids = p3()
    f = bfs_forest(g, [0, 1, 2], [0, 2], ids)
    audit_bfs(g, f, {0, 1, 2}, {0, 2}, ids)
    with pytest.raises(ForestError, match="BFS parent drift at node 1"):
        audit_bfs(g, _forged(f, "parent", 1, 2), {0, 1, 2}, {0, 2}, ids)


def _forest_from_multi_source_bfs(g, alive, terminals, ids):
    """The engine's forest as the pure-Python oracle BFS gives it."""
    dm = multi_source_bfs(g, alive, terminals, ids)
    return ForestLinks(list(dm.parent), list(dm.dist), list(dm.origin))


def _assert_same_forest(g, alive, terminals, ids, label):
    got = bfs_forest(g, sorted(alive), sorted(terminals), ids)
    want = _forest_from_multi_source_bfs(g, alive, terminals, ids)
    for field in ("parent", "depth", "root_of"):
        assert getattr(got, field) == getattr(want, field), f"{label}: {field} differs"
    for field in ("parent", "depth", "root_of"):
        assert all(type(x) is int for x in getattr(got, field) if x is not None), label


def _reaching_terminal_sets(g, alive):
    """Every terminal set from which BFS reaches all of ``alive``."""
    comps = connected_components(g, alive)
    for picks in itertools.product(*(
        [c for r in range(1, len(comp) + 1) for c in itertools.combinations(comp, r)]
        for comp in comps
    )):
        yield {v for part in picks for v in part}


def test_bfs_forest_matches_multi_source_bfs_exhaustively():
    # Every labelled graph with n <= 4 under every alive set and every
    # terminal set that reaches it, and every labelled 5-node graph with all
    # nodes alive under every terminal set.  A 5-node case with dead nodes is
    # a smaller alive graph with edges into dead nodes, which the n <= 4
    # sweep has; all 160 208 of them would take ~15 s.
    cases = 0
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        alive_sets = [range(n)] if n == 5 else [
            [v for v in range(n) if mask >> v & 1] for mask in range(1 << n)
        ]
        for mask in range(1 << len(pairs)):
            g, ids = build_graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            for alive in alive_sets:
                for terminals in _reaching_terminal_sets(g, alive):
                    _assert_same_forest(g, alive, terminals, ids, f"n={n} mask={mask} {alive} {terminals}")
                    cases += 1
    assert cases == 3162 + 26704


def test_bfs_forest_matches_multi_source_bfs_on_corpus():
    # Seeded random alive and terminal sets on every corpus graph with
    # n <= 512 (permuted identifiers included); each component of the alive
    # set gets its smallest node as a terminal if the draw left it none.
    for k, (name, g, ids) in enumerate(corpus_entries(512)):
        alive = [v for v in range(g.n) if splitmix_at(k, v) % 4]
        terminals = {v for v in alive if splitmix_at(k + 7919, v) % 8 == 0}
        for comp in connected_components(g, alive):
            if terminals.isdisjoint(comp):
                terminals.add(comp[0])
        _assert_same_forest(g, alive, terminals, ids, name)


@pytest.mark.parametrize(
    "alive, terminals, error, message",
    [
        ({0, 1, 7}, {0}, GraphError, "alive node 7 out of range"),
        ({-1, 0, 1}, {0}, GraphError, "alive node -1 out of range"),
        ({0, 1}, {0, 2}, GraphError, "source 2 not in alive set"),
        ({0, 1}, {5}, GraphError, "source 5 not in alive set"),
        ({0, 1, 2, 3}, {0}, ForestError, "alive node 3 unreachable from terminals"),
    ],
)
def test_bfs_forest_errors_match_multi_source_bfs(alive, terminals, error, message):
    # Path 0 - 1 - 2 and an isolated node 3.  The input checks are the
    # oracle's, word for word; unreachable nodes are the forest's own error.
    g, ids = build_graph(4, [(0, 1), (1, 2)])
    with pytest.raises(error) as got:
        bfs_forest(g, sorted(alive), sorted(terminals), ids)
    assert str(got.value) == message
    if error is GraphError:
        with pytest.raises(GraphError) as oracle:
            multi_source_bfs(g, alive, terminals, ids)
        assert str(oracle.value) == message
