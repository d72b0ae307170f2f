import itertools

import pytest

from conftest import corpus_entries, labelled_graphs
from strongcluster.cluster import strong_cluster
from strongcluster.forest import ForestLinks, bfs_forest
from strongcluster.graph import build_graph
from strongcluster.gen import splitmix_at
from strongcluster.phase import (
    PhaseError,
    Proposal,
    StepTrace,
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


def _root_path(parent, v):
    """v, then its ancestors up to its root, by parent links."""
    path = [v]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path


def brute_subtree(f, v):
    """Member v and every member whose parent links lead through v."""
    return [u for u in range(len(f.depth)) if f.depth[u] is not None and v in _root_path(f.parent, u)]


def step_from_scratch(g, f, ids, p):
    """One step of the process recomputed by brute force from forest f alone.

    The independent oracle for run_phase's incremental red flags, candidate
    set, child-list walk and max depth, on plain lists and dicts: every
    color, ancestor set and subtree comes from walking parent links, and
    the depths and roots after the step are walked again.  Returns (the
    forest after the step, the step's trace); f is left as it was.
    """
    b, id_of = ids.b, ids.ids
    shift = b - 1 - p
    members = [v for v in range(g.n) if f.depth[v] is not None]
    red = {v for v in members if not id_of[f.root_of[v]] >> shift & 1}
    candidates = {v for v in members if v not in red and any(w in red for w in g.adj[v])}
    proposals = []
    for v in sorted(candidates, key=id_of.__getitem__):
        if candidates.isdisjoint(_root_path(f.parent, v)[1:]):
            attach = min((w for w in g.adj[v] if w in red), key=id_of.__getitem__)
            proposals.append(Proposal(v, len(brute_subtree(f, v)), attach, f.root_of[attach]))
    red_sizes = {}
    weights = {}
    for pr in proposals:
        red_sizes[pr.target_root] = sum(1 for u in members if f.root_of[u] == pr.target_root)
        weights[pr.target_root] = weights.get(pr.target_root, 0) + pr.weight
    grows = {r for r, w in weights.items() if 2 * b * w >= red_sizes[r]}

    parent = list(f.parent)
    deleted = []
    for pr in proposals:
        if pr.target_root in grows:
            parent[pr.proposer] = pr.attach_at
        else:
            for u in brute_subtree(f, pr.proposer):
                parent[u] = None
                deleted.append(u)
    depth = [None] * g.n
    root_of = [None] * g.n
    for v in members:
        if v not in deleted:
            path = _root_path(parent, v)
            depth[v], root_of[v] = len(path) - 1, path[-1]
    trace = StepTrace(
        proposals=tuple(proposals),
        grows=tuple(sorted(grows)),
        declines=tuple(sorted(weights.keys() - grows)),
        deleted=tuple(sorted(deleted)),
        max_depth=max((d for d in depth if d is not None), default=0),
        red_sizes=red_sizes,
    )
    return ForestLinks(parent, depth, root_of), trace


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
    f = bfs_forest(g, [0, 1, 2], [0, 1], ids)
    _, trace = step_from_scratch(g, f, ids, 1)
    assert trace.proposals == (Proposal(proposer=1, weight=2, attach_at=0, target_root=0),)


def test_propose_set_ancestor_rule():
    # Blue chain 1 <- 2 <- 3; red chain 0 <- 4, with 4 adjacent to 2 and 3.
    # Both 2 and 3 are red-adjacent but 3 sits below red-adjacent 2.
    g, ids = build_graph(5, [(0, 4), (1, 2), (2, 3), (4, 2), (4, 3)], ids=[0, 4, 1, 3, 2])
    f = bfs_forest(g, list(range(5)), [0, 1], ids)
    assert f.parent == [None, None, 1, 2, 0]
    _, trace = step_from_scratch(g, f, ids, 0)
    assert trace.proposals == (Proposal(proposer=2, weight=2, attach_at=4, target_root=0),)
    assert run_phase(g, range(5), {0, 1}, 0, ids).step_traces[0].proposals == trace.proposals


def test_proposals_listed_by_identifier_not_depth():
    # Red chain 0 <- 1; blue root 2 with child 3, both next to red 1; blue
    # chain 4 <- 5 <- 6, with 6 next to red 1.  Proposer 2 (identifier 6)
    # is at depth 0 and covers candidate 3 (identifier 4); proposer 6
    # (identifier 1) is at depth 2.  The trace lists proposer 6 first.
    edges = [(0, 1), (1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (1, 6)]
    g, ids = build_graph(7, edges, ids=[0, 3, 6, 4, 7, 2, 1])
    f = bfs_forest(g, list(range(7)), [0, 2, 4], ids)
    assert f.depth == [0, 1, 0, 1, 0, 1, 2]
    assert f.parent == [None, 0, None, 2, None, 4, 5]
    _, trace = step_from_scratch(g, f, ids, 0)
    expected = (
        Proposal(proposer=6, weight=1, attach_at=1, target_root=0),
        Proposal(proposer=2, weight=2, attach_at=1, target_root=0),
    )
    assert trace.proposals == expected
    res = run_phase(g, range(7), {0, 2, 4}, 0, ids, debug=True)
    assert res.step_traces[0].proposals == expected
    assert res.step_traces[0].log_line(0).startswith("step 0: proposals=[6:1→0,2:2→0]")
    assert check_step_invariants(g, res, ids).all_pass


def test_propose_set_empty_without_red_adjacency():
    g, ids = build_graph(4, [(0, 1), (2, 3)])
    f = bfs_forest(g, [0, 1, 2, 3], [0, 2], ids)
    # Terminals 0 and 2 both have bit 1 cases: 0 -> red, 2 -> red; no blues at all.
    assert step_from_scratch(g, f, ids, 1)[1].proposals == ()


def test_grow_threshold_boundary():
    # Red root 0 with some leaves, and blue terminal x hung off the last leaf.
    # x proposes weight 1, so 2b * w = 6 against red size leaves + 1: with 5
    # leaves the tree grows, with 6 it declines and x is deleted.
    for leaves, grows in ((5, True), (6, False)):
        x = leaves + 1
        edges = [(0, v) for v in range(1, x)] + [(leaves, x)]
        g, ids = build_graph(x + 1, edges, b=3)
        res = run_phase(g, set(range(x + 1)), {0, x}, 0, ids)
        trace = res.step_traces[0]
        assert trace.proposals == (Proposal(proposer=x, weight=1, attach_at=leaves, target_root=0),)
        assert trace.red_sizes == {0: x}
        assert (trace.grows, trace.declines) == (((0,), ()) if grows else ((), (0,)))
        assert trace.deleted == (() if grows else (x,))
        assert res.final_forest.depth[x] == (2 if grows else None)


def test_apply_step_k2_first_step():
    g, ids = k2()
    f = bfs_forest(g, [0, 1], [0, 1], ids)
    f2, trace = step_from_scratch(g, f, ids, 0)
    assert trace.proposals == (Proposal(proposer=1, weight=1, attach_at=0, target_root=0),)
    assert trace.grows == (0,) and trace.declines == ()
    assert trace.deleted == ()
    assert f2.parent[1] == 0
    assert f2.depth[1] == 1
    assert trace.red_sizes == {0: 1}
    assert f2.root_of == [0, 0]
    assert f.parent[1] is None


def test_apply_step_fixed_point_on_empty_propose_set():
    g, ids = build_graph(2, [])
    f = bfs_forest(g, [0, 1], [0, 1], ids)
    f2, trace = step_from_scratch(g, f, ids, 0)
    assert trace.proposals == () and trace.deleted == ()
    assert trace.red_sizes == {}
    assert f2 == f


def test_apply_step_decline_deletes_proposer_subtree():
    # Red star of size 7 rooted at 0; blue singleton 7 proposes weight 1.
    # At b = 3 the threshold needs 2b * 1 = 6 >= 7, which fails: decline.
    g, ids = build_graph(8, [(0, i) for i in range(1, 7)] + [(1, 7)])
    assert ids.b == 3
    parent = [None, 0, 0, 0, 0, 0, 0, None]
    f = ForestLinks(parent, [0, 1, 1, 1, 1, 1, 1, 0], [0] * 7 + [7])
    assert bfs_forest(g, list(range(8)), [0, 7], ids) == f
    f2, trace = step_from_scratch(g, f, ids, 0)
    assert trace.proposals == (Proposal(proposer=7, weight=1, attach_at=1, target_root=0),)
    assert run_phase(g, range(8), {0, 7}, 0, ids).step_traces[0].proposals == trace.proposals
    assert trace.declines == (0,) and trace.grows == ()
    assert trace.deleted == (7,)
    assert f2.depth[7] is None
    assert trace.red_sizes == {0: 7}
    assert f2.root_of == [0] * 7 + [None]
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


def _assert_phase_matches_stepwise_apply(g, ids, alive, q, p, label):
    """run_phase's traces and final forest equal the oracle's, step by step."""
    res = run_phase(g, alive, q, p, ids)
    f = bfs_forest(g, sorted(alive), sorted(q), ids)
    for j, tr in enumerate(res.step_traces):
        f, tr2 = step_from_scratch(g, f, ids, p)
        assert tr2 == tr, f"{label} p={p} step {j}"
    assert f == res.final_forest, f"{label} p={p}"
    return res


@pytest.mark.parametrize("seed", [*range(6), "n<=5"])
def test_run_phase_matches_stepwise_apply(seed):
    # A random graph per seed, or every labelled graph with n <= 5: phase 0
    # from all terminals, then phase 1 from where phase 0 ended, so phase 1
    # starts from multi-node trees.
    if seed == "n<=5":
        graphs = labelled_graphs(5)
    else:
        graphs = [(f"seed {seed}", *random_connected_graph(10 + seed, 77 + seed))]
    for label, g, ids in graphs:
        everyone = set(range(g.n))
        res = _assert_phase_matches_stepwise_apply(g, ids, everyone, everyone, 0, label)
        if ids.b > 1:
            _assert_phase_matches_stepwise_apply(g, ids, res.survivors, res.terminals_out, 1, label)


@pytest.mark.parametrize("seed", range(6))
def test_proposer_subtrees_disjoint_and_cover_candidates(seed):
    g, ids = random_connected_graph(14, 200 + seed)
    f = bfs_forest(g, list(range(g.n)), list(range(g.n)), ids)
    _, trace = step_from_scratch(g, f, ids, 0)
    covered = set()
    for pr in trace.proposals:
        sub = set(brute_subtree(f, pr.proposer))
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
    assert res.step_traces[0].log_line(0) == (
        "step 0: proposals=[1:1→0] grow=[0] decline=[] deleted=0 maxdepth=1"
    )


def _padded(res, ids, debug):
    """The phase's traces rebuilt: the active ones, then idle steps.

    The active prefix is the traces with proposals.  An idle step repeats
    the final forest: its max depth and, on debug runs, its member
    snapshot, where every member has its root's color.
    """
    active = tuple(itertools.takewhile(lambda tr: tr.proposals, res.step_traces))
    f = res.final_forest
    members = [v for v in range(len(f.depth)) if f.depth[v] is not None]
    shift = ids.b - 1 - res.p
    final = {
        v: (not (ids.ids[f.root_of[v]] >> shift) & 1, f.depth[v], f.root_of[v]) for v in members
    } if debug else None
    deepest = max((f.depth[v] for v in members), default=0)
    idle = StepTrace(proposals=(), grows=(), declines=(), deleted=(),
                     max_depth=deepest, red_sizes={}, snapshot=final)
    return active + (idle,) * (step_budget(res.b) - len(active))


def _phases_to_check():
    for name, g, ids in labelled_graphs(5):
        yield name, g, ids, g.n <= 3
    for name, g, ids in corpus_entries(128):
        yield name, g, ids, g.n <= 16


def test_idle_steps_repeat_the_final_forest():
    # Every labelled graph with n <= 5 and every corpus graph with n <= 128;
    # the small ones run in debug mode, so idle steps carry the final snapshot.
    checked = 0
    for name, g, ids, debug in _phases_to_check():
        for res in strong_cluster(g, ids, debug=debug).phases:
            assert len(res.step_traces) == step_budget(res.b), name
            assert res.step_traces == _padded(res, ids, debug), name
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
    # The BFS forest is built with numpy arrays; nothing of them may leak
    # into what a run returns.
    name, g, ids = next(e for e in corpus_entries(128, min_n=128) if e[0] == "gnp-n128-ids11")
    run = strong_cluster(g, ids, debug=True)
    assert list(_numpy_values(run.clustering)) == [], name
    for res in run.phases:
        assert list(_numpy_values(res)) == [], f"{name} p={res.p}"
        assert list(_numpy_values(res.step_traces)) == [], f"{name} p={res.p}"


@pytest.mark.parametrize(
    "alive",
    [{4, 0, 2, 1, 3}, (3, 1, 4, 0, 2), (0, 1, 1, 2, 3, 4, 4), [4, 3, 2, 1, 0], range(5)],
    ids=["set", "unsorted-tuple", "tuple-with-duplicates", "list", "range"],
)
def test_run_phase_alive_in_is_the_sorted_distinct_input(alive):
    g, ids = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    res = run_phase(g, alive, {0, 3}, 0, ids)
    assert res.alive_in == (0, 1, 2, 3, 4)
    assert type(res.alive_in) is tuple


def test_run_phase_keeps_a_sorted_tuple_input():
    # A sorted, distinct tuple is the phase input as it stands; in a run,
    # each phase's inputs are the previous phase's survivors and terminals
    # tuples themselves, and phase 0's terminals are its alive tuple.
    g, ids = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    alive = (0, 1, 2, 3, 4)
    assert run_phase(g, alive, {0, 3}, 0, ids).alive_in is alive
    q = (0, 3)
    assert run_phase(g, alive, q, 0, ids).terminals_in is q
    name, g, ids = next(e for e in corpus_entries(128, min_n=128) if e[0] == "gnp-n128-ids11")
    for backend in ("reference", "simulated"):
        phases = strong_cluster(g, ids, backend=backend).phases
        assert len(phases) == ids.b > 1
        assert phases[0].terminals_in is phases[0].alive_in, backend
        for prev, nxt in zip(phases, phases[1:]):
            assert nxt.alive_in is prev.survivors, f"{backend} {name} p={nxt.p}"
            assert nxt.terminals_in is prev.terminals_out, f"{backend} {name} p={nxt.p}"
