import itertools

import pytest

from conftest import corpus_entries
from strongcluster.cluster import strong_cluster
from strongcluster.forest import RootedForest, bfs_forest
from strongcluster.graph import build_graph
from strongcluster.gen import splitmix_at
from strongcluster.phase import (
    PhaseError,
    Proposal,
    StepTrace,
    _proposals_from_candidates,
    grow_decisions,
    run_phase,
    step_budget,
)
from strongcluster.verify import check_step_invariants


def k2():
    return build_graph(2, [(0, 1)])


def p3():
    return build_graph(3, [(0, 1), (1, 2)])


def k3():
    return build_graph(3, [(0, 1), (0, 2), (1, 2)])


def step_from_scratch(g, f, ids, p, j=0):
    """One step recomputed from f alone, applied to a rebuilt copy of f.

    The cross-check for run_phase's incremental red flags, candidate set and
    depth tally: returns (the forest after the step, the step's trace).  It
    lets rehang and delete_subtree collect each subtree themselves, so it
    also checks run_phase's reuse of the subtrees collected for the weights.
    """
    shift = ids.b - 1 - p
    red = [f.member[v] and not (ids.ids[f.root_of[v]] >> shift) & 1 for v in range(g.n)]
    candidates = {
        v for v in range(g.n)
        if f.member[v] and not red[v] and any(red[w] for w in g.adj[v])
    }
    proposals, _ = _proposals_from_candidates(g, ids, f, red, candidates)
    red_sizes = {pr.target_root: f.tree_size[pr.target_root] for pr in proposals}
    decisions = grow_decisions(proposals, red_sizes, ids.b)
    members = [v for v in range(g.n) if f.member[v]]
    nf = RootedForest.from_parents(g.n, members, list(f.parent), list(f.depth), list(f.root_of))
    deleted = []
    for pr in proposals:
        if decisions[pr.target_root]:
            nf.rehang(pr.proposer, pr.attach_at)
        else:
            deleted.extend(nf.delete_subtree(pr.proposer))
    trace = StepTrace(
        j=j,
        proposals=tuple(proposals),
        grows=tuple(sorted(r for r, ok in decisions.items() if ok)),
        declines=tuple(sorted(r for r, ok in decisions.items() if not ok)),
        deleted=tuple(sorted(deleted)),
        max_depth=max((nf.depth[v] for v in range(g.n) if nf.member[v]), default=0),
        red_sizes=red_sizes,
    )
    return nf, trace


# On K3 with identifiers 0, 1, 2 (b = 2) every blue terminal proposes to red
# terminal 0 and is accepted, so the blue terminals are the proposers and the
# red ones are the terminals that remain.

def test_split_terminals_msb():
    g, ids = k3()
    res = run_phase(g, {0, 1, 2}, {0, 1, 2}, 0, ids)
    assert res.terminals_out == (0, 1)
    assert [pr.proposer for pr in res.step_traces[0].proposals] == [2]


def test_split_terminals_second_bit():
    g, ids = k3()
    res = run_phase(g, {0, 1, 2}, {0, 1, 2}, 1, ids)
    assert res.terminals_out == (0, 2)
    assert [pr.proposer for pr in res.step_traces[0].proposals] == [1]


def test_split_terminals_empty():
    g, ids = k3()
    res = run_phase(g, set(), set(), 0, ids)
    assert res.survivors == res.terminals_out == ()
    assert all(not tr.proposals for tr in res.step_traces)


def test_split_terminals_rejects_large_phase():
    g, ids = build_graph(2, [(0, 1)])
    with pytest.raises(PhaseError):
        run_phase(g, {0, 1}, {0, 1}, 1, ids)


def test_propose_set_p3_second_phase():
    # Terminals {0, 1}; bit 1 makes 0 red and 1 blue; node 1 roots the tree {1, 2}.
    g, ids = p3()
    f = bfs_forest(g, {0, 1, 2}, {0, 1}, ids)
    _, trace = step_from_scratch(g, f, ids, 1)
    assert trace.proposals == (Proposal(proposer=1, weight=2, attach_at=0, target_root=0),)


def test_propose_set_ancestor_rule():
    # Blue chain 1 <- 2 <- 3; red singleton 0 adjacent to 2 and 3 only.
    # Both 2 and 3 are red-adjacent but 3 sits below red-adjacent 2.
    g, ids = build_graph(4, [(1, 2), (2, 3), (0, 2), (0, 3)], ids=[0, 2, 1, 3])
    parent = [None, None, 1, 2]
    depth = [0, 0, 1, 2]
    root_of = [0, 1, 1, 1]
    f = RootedForest.from_parents(4, range(4), parent, depth, root_of)
    _, trace = step_from_scratch(g, f, ids, 0)
    assert trace.proposals == (Proposal(proposer=2, weight=2, attach_at=0, target_root=0),)


def test_propose_set_empty_without_red_adjacency():
    g, ids = build_graph(4, [(0, 1), (2, 3)])
    f = bfs_forest(g, {0, 1, 2, 3}, {0, 2}, ids)
    # Terminals 0 and 2 both have bit 1 cases: 0 -> red, 2 -> red; no blues at all.
    assert step_from_scratch(g, f, ids, 1)[1].proposals == ()


def test_grow_threshold_boundary():
    props = [Proposal(proposer=9, weight=1, attach_at=5, target_root=5)]
    assert grow_decisions(props, {5: 4}, b=2) == {5: True}
    assert grow_decisions(props, {5: 5}, b=2) == {5: False}
    assert grow_decisions(props, {5: 1}, b=1) == {5: True}


def test_grow_rejects_missing_size():
    props = [Proposal(proposer=9, weight=1, attach_at=5, target_root=5)]
    with pytest.raises(PhaseError):
        grow_decisions(props, {}, b=1)


def test_apply_step_k2_first_step():
    g, ids = k2()
    f = bfs_forest(g, {0, 1}, {0, 1}, ids)
    f2, trace = step_from_scratch(g, f, ids, 0)
    assert trace.proposals == (Proposal(proposer=1, weight=1, attach_at=0, target_root=0),)
    assert trace.grows == (0,) and trace.declines == ()
    assert trace.deleted == ()
    assert f2.parent[1] == 0
    assert f2.depth[1] == 1
    assert f2.tree_size == {0: 2}
    assert f.parent[1] is None


def test_apply_step_fixed_point_on_empty_propose_set():
    g, ids = build_graph(2, [])
    f = bfs_forest(g, {0, 1}, {0, 1}, ids)
    f2, trace = step_from_scratch(g, f, ids, 0)
    assert trace.proposals == () and trace.deleted == ()
    assert f2.parent == f.parent
    assert f2.tree_size == f.tree_size


def test_apply_step_decline_deletes_proposer_subtree():
    # Red star of size 7 rooted at 0; blue singleton 7 proposes weight 1.
    # At b = 3 the threshold needs 2b * 1 = 6 >= 7, which fails: decline.
    g, ids = build_graph(8, [(0, i) for i in range(1, 7)] + [(1, 7)])
    assert ids.b == 3
    parent = [None, 0, 0, 0, 0, 0, 0, None]
    depth = [0, 1, 1, 1, 1, 1, 1, 0]
    root_of = [0, 0, 0, 0, 0, 0, 0, 7]
    f = RootedForest.from_parents(8, range(8), parent, depth, root_of)
    f2, trace = step_from_scratch(g, f, ids, 0)
    assert trace.proposals == (Proposal(proposer=7, weight=1, attach_at=1, target_root=0),)
    assert trace.declines == (0,) and trace.grows == ()
    assert trace.deleted == (7,)
    assert not f2.member[7]
    assert f2.tree_size == {0: 7}
    # Red tree untouched.
    assert f2.parent[:7] == parent[:7]


def test_run_phase_k2_hand_trace():
    g, ids = k2()
    res = run_phase(g, {0, 1}, {0, 1}, 0, ids, debug=True)
    assert res.survivors == (0, 1)
    assert res.terminals_out == (0,)
    assert res.deleted == ()
    assert res.step_traces[0].proposals == (
        Proposal(proposer=1, weight=1, attach_at=0, target_root=0),
    )
    assert res.step_traces[0].grows == (0,)
    assert res.step_traces[0].max_depth == 1
    assert len(res.step_traces) == step_budget(1) == 2
    assert res.step_traces[1].proposals == ()
    assert res.final_forest.parent[1] == 0


def test_run_phase_p3_phase0_hand_trace():
    g, ids = p3()
    res = run_phase(g, {0, 1, 2}, {0, 1, 2}, 0, ids, debug=True)
    assert res.survivors == (0, 1, 2)
    assert res.terminals_out == (0, 1)
    assert res.deleted == ()
    assert res.step_traces[0].proposals == (
        Proposal(proposer=2, weight=1, attach_at=1, target_root=1),
    )
    assert res.final_forest.root_of == [0, 1, 1]
    assert len(res.step_traces) == step_budget(2) == 8


def test_run_phase_p3_phase1_hand_trace():
    g, ids = p3()
    res = run_phase(g, {0, 1, 2}, {0, 1}, 1, ids, debug=True)
    assert res.terminals_out == (0,)
    assert res.survivors == (0, 1, 2)
    assert res.step_traces[0].proposals == (
        Proposal(proposer=1, weight=2, attach_at=0, target_root=0),
    )
    assert res.final_forest.depth == [0, 1, 2]


def test_run_phase_identity_when_single_color():
    # With b = 2, identifiers 0 and 1 share a 0 top bit: everyone red.
    g, ids = build_graph(2, [(0, 1)], ids=[0, 1], b=2)
    res = run_phase(g, {0, 1}, {0, 1}, 0, ids)
    assert res.terminals_out == (0, 1)
    assert res.deleted == ()
    assert all(not tr.proposals for tr in res.step_traces)


def test_run_phase_rejects_bad_terminals():
    g, ids = k2()
    with pytest.raises(PhaseError):
        run_phase(g, {0}, {0, 1}, 0, ids)


def random_connected_graph(n, seed):
    edges = [(i, splitmix_at(seed, i) % i) for i in range(1, n)]
    k = n
    for u in range(n):
        for v in range(u + 1, n):
            if splitmix_at(seed, k) % 8 == 0:
                edges.append((u, v))
            k += 1
    return build_graph(n, edges)


@pytest.mark.parametrize("seed", range(10))
def test_run_phase_debug_invariants_random(seed):
    g, ids = random_connected_graph(12 + seed, seed)
    res = run_phase(g, set(range(g.n)), set(range(g.n)), 0, ids, debug=True)
    assert check_step_invariants(g, res, ids).all_pass
    # Chain the next phase to exercise nontrivial starting forests too.
    if ids.b > 1 and res.survivors:
        res1 = run_phase(g, set(res.survivors), set(res.terminals_out), 1, ids, debug=True)
        assert check_step_invariants(g, res1, ids).all_pass


@pytest.mark.parametrize("seed", range(6))
def test_run_phase_matches_stepwise_apply(seed):
    g, ids = random_connected_graph(10 + seed, 77 + seed)
    res = run_phase(g, set(range(g.n)), set(range(g.n)), 0, ids)
    f = bfs_forest(g, set(range(g.n)), set(range(g.n)), ids)
    for tr in res.step_traces:
        f, tr2 = step_from_scratch(g, f, ids, 0, tr.j)
        assert tr2 == tr
    assert [v for v in range(g.n) if f.member[v]] == list(res.survivors)
    assert f.parent == res.final_forest.parent
    assert f.depth == res.final_forest.depth


@pytest.mark.parametrize("seed", range(6))
def test_proposer_subtrees_disjoint_and_cover_candidates(seed):
    g, ids = random_connected_graph(14, 200 + seed)
    f = bfs_forest(g, set(range(g.n)), set(range(g.n)), ids)
    _, trace = step_from_scratch(g, f, ids, 0)
    covered = set()
    for pr in trace.proposals:
        sub = set(f.subtree(pr.proposer))
        assert not covered & sub
        covered |= sub
    # Every red-adjacent blue node lies in exactly one proposer subtree.
    red = {v for v in range(g.n) if not ids.ids[f.root_of[v]] >> (ids.b - 1)}
    for v in range(g.n):
        if v not in red and any(w in red for w in g.adj[v]):
            assert v in covered


def test_step_trace_log_line_format():
    g, ids = k2()
    res = run_phase(g, {0, 1}, {0, 1}, 0, ids)
    assert res.step_traces[0].log_line() == (
        "step 0: proposals=[1:1→0] grow=[0] decline=[] deleted=0 maxdepth=1"
    )


def test_one_subtree_walk_per_proposal(monkeypatch):
    # Each proposer's subtree is collected once, to weigh it; the rehang or
    # deletion that follows reuses that list.
    name, g, ids = next(e for e in corpus_entries(512, min_n=512) if e[0].startswith("gnp"))
    calls = 0
    walk = RootedForest.subtree

    def counted(self, v):
        nonlocal calls
        calls += 1
        return walk(self, v)

    monkeypatch.setattr(RootedForest, "subtree", counted)
    proposals = 0
    alive = q = range(g.n)
    for p in range(ids.b):
        res = run_phase(g, alive, q, p, ids)
        proposals += sum(len(tr.proposals) for tr in res.step_traces)
        alive, q = res.survivors, res.terminals_out
    assert proposals > 100, name
    assert calls == proposals, name


def _padded(res, ids, debug):
    """The phase's traces as one tuple: the active ones, then idle steps.

    An idle step repeats the final forest: its max depth and, on debug
    runs, its member snapshot, where every member has its root's color.
    """
    active = res.step_traces._active
    f = res.final_forest
    members = [v for v in range(len(f.member)) if f.member[v]]
    shift = ids.b - 1 - res.p
    final = {
        v: (not (ids.ids[f.root_of[v]] >> shift) & 1, f.depth[v], f.root_of[v]) for v in members
    } if debug else None
    deepest = max((f.depth[v] for v in members), default=0)
    idle = tuple(
        StepTrace(j=j, proposals=(), grows=(), declines=(), deleted=(),
                  max_depth=deepest, red_sizes={}, snapshot=final)
        for j in range(len(active), step_budget(res.b))
    )
    return tuple(active) + idle


def _phases_to_check():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g, ids = build_graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            yield f"n={n} mask={mask}", g, ids, n <= 3
    for name, g, ids in corpus_entries(128):
        yield name, g, ids, g.n <= 16


def test_lazy_step_traces_read_like_the_padded_tuple():
    # Every labelled graph with n <= 5 and every corpus graph with n <= 128;
    # the small ones run in debug mode, so idle steps carry the final snapshot.
    checked = 0
    for name, g, ids, debug in _phases_to_check():
        for res in strong_cluster(g, ids, debug=debug).phases:
            traces = res.step_traces
            t = step_budget(res.b)
            eager = _padded(res, ids, debug)
            assert len(traces) == len(eager) == t, name
            assert [traces[j] for j in range(t)] == list(eager), name
            assert traces[-1] == eager[-1] and traces[-t] == eager[0], name
            for cut in (slice(None, 2), slice(-3, None, 2), slice(5, 1)):
                assert traces[cut] == eager[cut] and type(traces[cut]) is tuple, name
            assert (eager[0],) + traces[1:] == eager, name
            assert list(traces) == list(eager), name
            with pytest.raises(IndexError):
                traces[t]
            checked += 1
    assert checked > 3000


def _numpy_values(x):
    """Every numpy scalar or array inside nested tuples, lists, dicts and records."""
    if type(x).__module__.startswith("numpy"):
        yield x
    elif isinstance(x, dict):
        for k, v in x.items():
            yield from _numpy_values(k)
            yield from _numpy_values(v)
    elif isinstance(x, (tuple, list)):
        for v in x:
            yield from _numpy_values(v)
    elif hasattr(x, "__dataclass_fields__"):
        for name in x.__dataclass_fields__:
            yield from _numpy_values(getattr(x, name))


def test_phase_results_hold_only_python_values():
    # The set-up and the BFS run on numpy arrays; nothing of them may leak
    # into what a run returns.
    name, g, ids = next(e for e in corpus_entries(128, min_n=128) if e[0] == "gnp-n128-ids11")
    run = strong_cluster(g, ids, debug=True)
    assert list(_numpy_values(run.clustering)) == [], name
    for res in run.phases:
        assert list(_numpy_values(res)) == [], f"{name} p={res.p}"
        assert list(_numpy_values(list(res.step_traces))) == [], f"{name} p={res.p}"
