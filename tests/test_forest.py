import itertools

import pytest

from conftest import corpus_entries
from strongcluster.forest import ForestError, RootedForest, audit_depths, bfs_forest
from strongcluster.gen import splitmix_at
from strongcluster.graph import GraphError, build_graph, connected_components, multi_source_bfs


def p3():
    return build_graph(3, [(0, 1), (1, 2)])


def test_bfs_forest_chain():
    g, ids = p3()
    f = bfs_forest(g, {0, 1, 2}, {0}, ids)
    assert f.parent == [None, 0, 1]
    assert f.depth == [0, 1, 2]
    assert f.tree_size == {0: 3}
    audit_depths(f)


def test_bfs_forest_two_terminals_tie_rule():
    g, ids = p3()
    f = bfs_forest(g, {0, 1, 2}, {0, 2}, ids)
    assert f.parent[1] == 0
    assert f.root_of == [0, 0, 2]
    assert f.tree_size == {0: 2, 2: 1}


def test_bfs_forest_all_terminals():
    g, ids = p3()
    f = bfs_forest(g, {0, 1, 2}, {0, 1, 2}, ids)
    assert f.depth == [0, 0, 0]
    assert f.tree_size == {0: 1, 1: 1, 2: 1}


def test_from_parents_derives_children_and_tree_sizes_for_members_only():
    # Trees 0 <- 1 <- {2, 3} and 4 on six nodes; node 5 is not a member.
    parent = [None, 0, 1, 1, None, None]
    depth = [0, 1, 2, 2, 0, None]
    root_of = [0, 0, 0, 0, 4, None]
    f = RootedForest.from_parents(6, [0, 1, 2, 3, 4], parent, depth, root_of)
    assert f.member == [True] * 5 + [False]
    assert f.children == {0: [1], 1: [2, 3]}
    assert f.tree_size == {0: 4, 4: 1}
    assert sorted(f.tree_size) == [0, 4]
    audit_depths(f)


def test_bfs_forest_rejects_unreachable():
    g, ids = build_graph(3, [(0, 1)])
    with pytest.raises(ForestError, match="unreachable"):
        bfs_forest(g, {0, 1, 2}, {0}, ids)


def test_subtree_of_interior_node():
    g, ids = p3()
    f = bfs_forest(g, {0, 1, 2}, {0}, ids)
    assert sorted(f.subtree(1)) == [1, 2]
    assert f.subtree(2) == [2]
    assert sorted(f.subtree(0)) == [0, 1, 2]


def test_subtree_of_singleton_root():
    g, ids = build_graph(1, [])
    f = bfs_forest(g, {0}, {0}, ids)
    assert f.subtree(0) == [0]


def test_rehang_singleton_under_root():
    g, ids = p3()
    f = bfs_forest(g, {0, 1, 2}, {0, 1, 2}, ids)
    f2 = bfs_forest(g, {0, 1, 2}, {0, 1, 2}, ids)
    assert f2.rehang(1, 0) == [1]
    assert f2.parent[1] == 0
    assert f2.depth[1] == 1
    assert f2.tree_size == {0: 2, 2: 1}
    # The first forest shares no state with the second.
    assert f.parent[1] is None
    assert f.tree_size == {0: 1, 1: 1, 2: 1}
    audit_depths(f2)


def test_rehang_chain_depth_formula():
    # Blue chain 1 <- 2 (depths 1, 2 under root 0); node 1 rehangs under red
    # node 3 of depth 0.  Post depths follow old - old(v) + depth(new) + 1.
    g, ids = build_graph(4, [(0, 1), (1, 2), (1, 3)])
    f = bfs_forest(g, {0, 1, 2, 3}, {0, 3}, ids)
    assert f.depth == [0, 1, 2, 0]
    f2 = bfs_forest(g, {0, 1, 2, 3}, {0, 3}, ids)
    f2.rehang(1, 3)
    assert f2.depth[1] == 1
    assert f2.depth[2] == 2
    assert f2.root_of[1] == 3 and f2.root_of[2] == 3
    assert f2.tree_size == {0: 1, 3: 3}
    audit_depths(f2)


def test_rehang_preserves_member_count():
    g, ids = build_graph(4, [(0, 1), (1, 2), (1, 3)])
    f = bfs_forest(g, {0, 1, 2, 3}, {0, 3}, ids)
    f2 = bfs_forest(g, {0, 1, 2, 3}, {0, 3}, ids)
    f2.rehang(1, 3)
    assert f2.member_count() == f.member_count()


def test_delete_leaf():
    g, ids = p3()
    f = bfs_forest(g, {0, 1, 2}, {0}, ids)
    f2 = bfs_forest(g, {0, 1, 2}, {0}, ids)
    assert f2.delete_subtree(2) == [2]
    assert f2.member_count() == 2
    assert not f2.member[2]
    assert 1 not in f2.children


def test_delete_inner_subtree():
    g, ids = p3()
    f = bfs_forest(g, {0, 1, 2}, {0}, ids)
    f2 = bfs_forest(g, {0, 1, 2}, {0}, ids)
    assert sorted(f2.delete_subtree(1)) == [1, 2]
    assert f2.member == [True, False, False]
    assert f2.tree_size == {0: 1}
    assert f.member == [True, True, True]


def test_delete_empty_is_identity():
    g, ids = p3()
    f = bfs_forest(g, {0, 1, 2}, {0}, ids)
    f2 = bfs_forest(g, {0, 1, 2}, {0}, ids)
    assert f2.member == f.member
    assert f2.parent == f.parent


def test_delete_reduces_by_subtree_sizes():
    g, ids = build_graph(6, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5)])
    f = bfs_forest(g, set(range(6)), {0}, ids)
    f2 = bfs_forest(g, set(range(6)), {0}, ids)
    for v in (1, 3):
        f2.delete_subtree(v)
    assert f.member_count() - f2.member_count() == len(f.subtree(1)) + len(f.subtree(3))
    audit_depths(f2)


def test_audit_after_edit_chains():
    # A fixed little scenario mixing rehangs and deletions, audited at each stage.
    g, ids = build_graph(
        7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (3, 4), (0, 6)]
    )
    f = bfs_forest(g, set(range(7)), {0, 4}, ids)
    assert f.tree_size == {0: 4, 4: 3}
    audit_depths(f)
    f.rehang(6, 5)
    assert f.tree_size == {0: 3, 4: 4}
    assert f.depth[6] == 2
    audit_depths(f)
    f.delete_subtree(2)
    audit_depths(f)
    assert f.member_count() == 6
    assert f.tree_size == {0: 2, 4: 4}


def test_children_mirror_parent_through_rehang_and_delete():
    # Tree 0: 0 - 1 - 2 with 3 under 1; tree 4: 4 - 5.  Moving 1's subtree
    # under 5 empties 0's child list; deleting 3 then empties 1's.
    g, ids = build_graph(6, [(0, 1), (1, 2), (1, 3), (4, 5), (1, 5)])
    f = bfs_forest(g, set(range(6)), {0, 4}, ids)
    assert f.children == {0: [1], 1: [2, 3], 4: [5]}
    audit_depths(f)
    f.rehang(1, 5)
    assert f.children == {1: [2, 3], 4: [5], 5: [1]}
    audit_depths(f)
    f.delete_subtree(3)
    assert f.children == {1: [2], 4: [5], 5: [1]}
    audit_depths(f)
    f.delete_subtree(1)
    assert f.children == {4: [5]}
    audit_depths(f)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda c: c[0].append(2),   # a node listed under a parent it does not have
        lambda c: c[1].append(2),   # listed twice
        lambda c: c.__setitem__(2, []),  # an entry for a childless node
        lambda c: c.pop(0),         # a parent with its entry missing
    ],
)
def test_audit_rejects_children_that_drift_from_parent(corrupt):
    g, ids = p3()
    f = bfs_forest(g, {0, 1, 2}, {0}, ids)
    corrupt(f.children)
    with pytest.raises(ForestError, match="children drift"):
        audit_depths(f)


def _forest_from_multi_source_bfs(g, alive, terminals, ids):
    """The engine's forest as the pure-Python oracle BFS gives it."""
    members = sorted(set(alive))
    dm = multi_source_bfs(g, members, terminals, ids)
    return RootedForest.from_parents(g.n, members, list(dm.parent), list(dm.dist), list(dm.origin))


def _assert_same_forest(g, alive, terminals, ids, label):
    got = bfs_forest(g, alive, terminals, ids)
    want = _forest_from_multi_source_bfs(g, alive, terminals, ids)
    for field in ("member", "parent", "depth", "root_of", "children", "tree_size"):
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
        bfs_forest(g, alive, terminals, ids)
    assert str(got.value) == message
    if error is GraphError:
        with pytest.raises(GraphError) as oracle:
            multi_source_bfs(g, alive, terminals, ids)
        assert str(oracle.value) == message
