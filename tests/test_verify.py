import dataclasses

import pytest

from test_graph import all_graphs, bfs_oracle, diameter_oracle

from strongcluster.cluster import Clustering, Decomposition, network_decomposition, strong_cluster
from strongcluster.gen import FamilySpec, generate
from strongcluster.graph import build_graph, connected_components, multi_source_bfs
from strongcluster.phase import Proposal, StepTrace, run_phase
from strongcluster.verify import (
    check_clustering,
    check_decomposition,
    check_mis,
    check_ruling,
    check_step_invariants,
)


def p3():
    return build_graph(3, [(0, 1), (1, 2)])


def failures(report):
    return [c for c in report.checks if not c.passed]


def test_ruling_pass_on_path():
    g, _ = p3()
    assert check_ruling(g, {0, 1, 2}, {0}, 2).all_pass


def test_ruling_fail_names_farthest_node():
    g, _ = p3()
    report = check_ruling(g, {0, 1, 2}, {0}, 1)
    assert not report.all_pass
    assert "node 2" in failures(report)[0].witness


def test_ruling_all_terminals_zero_radius():
    g, _ = p3()
    assert check_ruling(g, {0, 1, 2}, {0, 1, 2}, 0).all_pass


def test_ruling_disconnected_fails():
    g, _ = build_graph(3, [(0, 1)])
    assert not check_ruling(g, {0, 1, 2}, {0}, 5).all_pass


def test_clustering_oracle_accepts_real_output():
    g, ids = generate(FamilySpec("grid", n=16, w=4))
    run = strong_cluster(g, ids)
    assert check_clustering(g, run.clustering, ids.b, ids).all_pass


def test_clustering_rejects_adjacent_clusters():
    g, ids = p3()
    bad = Clustering(
        n=3, b=ids.b,
        clusters=((0, (0, 1)), (2, (2,))),
        unclustered=(),
    )
    report = check_clustering(g, bad, ids.b)
    names = {c.name for c in failures(report)}
    assert "clusters-non-adjacent" in names
    assert any("edge" in (c.witness or "") for c in failures(report))


def test_clustering_rejects_low_coverage():
    g, ids = build_graph(4, [])
    bad = Clustering(
        n=4, b=ids.b,
        clusters=((0, (0,)),),
        unclustered=(1, 2, 3),
    )
    report = check_clustering(g, bad, ids.b)
    assert "coverage-at-least-half" in {c.name for c in failures(report)}


def test_coverage_counts_a_node_listed_twice_once():
    # Node 0 listed twice covers 1 of 4 nodes, not 2.
    g, ids = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    bad = Clustering(n=4, b=ids.b, clusters=((0, (0, 0)),), unclustered=(1, 2, 3))
    report = check_clustering(g, bad, ids.b)
    assert ("coverage-at-least-half", "covered 1 of 4, need 2") in {
        (c.name, c.witness) for c in failures(report)
    }


@pytest.mark.parametrize("reverse", [False, True])
def test_connected_and_diameter_checks_each_find_their_cluster_in_either_order(reverse):
    # Path 0-1-2 and a 10-node path 3..12.  At b=1 (bound 8) the cluster
    # {0, 2} is disconnected and the cluster 3..12 has diameter 9.
    g, _ = build_graph(13, [(0, 1), (1, 2)] + [(v, v + 1) for v in range(3, 12)])
    clusters = ((0, (0, 2)), (3, tuple(range(3, 13))))
    bad = Clustering(n=13, b=1, clusters=clusters[::-1] if reverse else clusters, unclustered=(1,))
    report = check_clustering(g, bad, 1)
    assert [(c.name, c.witness) for c in failures(report)] == [
        ("clusters-connected", "cluster of terminal node 0 splits into 2 components"),
        ("cluster-diameter", "cluster of terminal node 3 has diameter 9, bound 8"),
    ]


def test_empty_cluster_fails_connected_check():
    g, ids = p3()
    bad = Clustering(n=3, b=ids.b, clusters=((0, (0, 1, 2)), (1, ())), unclustered=())
    report = check_clustering(g, bad, ids.b)
    assert ("clusters-connected", "cluster of terminal node 1 splits into 0 components") in {
        (c.name, c.witness) for c in failures(report)
    }


def test_clustering_rejects_overlap_and_misplaced_terminal():
    g, ids = build_graph(4, [])
    bad = Clustering(
        n=4, b=ids.b,
        clusters=((0, (0, 1)), (2, (1, 2))),
        unclustered=(3,),
    )
    report = check_clustering(g, bad, ids.b)
    assert ("partition", "node 1 listed in cluster 0 and in cluster 1") in {
        (c.name, c.witness) for c in failures(report)
    }
    worse = Clustering(
        n=4, b=ids.b,
        clusters=((3, (0, 1)),),
        unclustered=(2, 3),
    )
    report = check_clustering(g, worse, ids.b)
    assert "one-terminal-per-cluster" in {c.name for c in failures(report)}


def test_step_invariants_accept_k2_run():
    g, ids = build_graph(2, [(0, 1)])
    res = run_phase(g, {0, 1}, {0, 1}, 0, ids, debug=True)
    assert check_step_invariants(g, res, ids).all_pass


def test_step_invariants_reject_forged_depth():
    g, ids = build_graph(2, [(0, 1)])
    res = run_phase(g, {0, 1}, {0, 1}, 0, ids, debug=True)
    j = 0
    tr = res.step_traces[j]
    forged_snapshot = dict(tr.snapshot)
    forged_snapshot[1] = (True, 3 + 2 * (j + 1), 0)
    traces = list(res.step_traces)
    traces[j] = dataclasses.replace(tr, snapshot=forged_snapshot)
    forged = dataclasses.replace(res, step_traces=tuple(traces))
    report = check_step_invariants(g, forged, ids)
    assert "step-depth-claims" in {c.name for c in failures(report)}


def test_step_invariants_number_steps_by_position():
    # K2 at b = 1 has t = 2 steps: node 1 joins tree 0 in step 0, and step 1
    # is idle.  A red node may sit 2(j + 1) below its starting depth after
    # step j, so the bound at position 1 is d0 + 4.
    g, ids = build_graph(2, [(0, 1)])
    res = run_phase(g, {0, 1}, {0, 1}, 0, ids, debug=True)
    assert len(res.step_traces) == 2 and res.step_traces[1].proposals == ()
    d0 = multi_source_bfs(g, res.alive_in, res.terminals_in).dist[1]

    def with_red_1_at(depth):
        tr = res.step_traces[1]
        forged_snapshot = dict(tr.snapshot)
        forged_snapshot[1] = (True, depth, 0)
        traces = (res.step_traces[0], dataclasses.replace(tr, snapshot=forged_snapshot))
        return check_step_invariants(g, dataclasses.replace(res, step_traces=traces), ids)

    assert with_red_1_at(d0 + 4).all_pass
    claim = [c for c in failures(with_red_1_at(d0 + 5)) if c.name == "step-depth-claims"]
    assert claim and claim[0].witness.startswith("step 1:")


def _k2_phase_with_one_active_step():
    # K2 at b = 2 has t = 8 steps.  In phase 1, identifier 0 is red and 1 is
    # blue: node 1 joins tree 0 in step 0, and steps 1-7 share one idle trace.
    g, ids = build_graph(2, [(0, 1)], b=2)
    res = run_phase(g, {0, 1}, {0, 1}, 1, ids, debug=True)
    idle = res.step_traces[1]
    assert len(res.step_traces) == 8 and res.step_traces[0].grows == (0,)
    assert all(tr is idle for tr in res.step_traces[1:]) and idle.proposals == ()
    return g, ids, res


def test_step_invariants_read_a_distinct_trace_inside_an_idle_run():
    # A trace forged at position 5 differs from the shared idle trace around
    # it, so the checks must read it though they read each run of one trace
    # once.  After step 5 a red node may sit d0 + 12 deep.
    g, ids, res = _k2_phase_with_one_active_step()
    idle = res.step_traces[1]
    d0 = multi_source_bfs(g, res.alive_in, res.terminals_in).dist[1]

    def with_red_1_at(depth):
        forged = dataclasses.replace(idle, snapshot={**idle.snapshot, 1: (True, depth, 0)})
        traces = res.step_traces[:5] + (forged,) + res.step_traces[6:]
        return check_step_invariants(g, dataclasses.replace(res, step_traces=traces), ids)

    assert with_red_1_at(d0 + 12).all_pass
    claim = [c for c in failures(with_red_1_at(d0 + 13)) if c.name == "step-depth-claims"]
    assert claim and claim[0].witness.startswith("step 5:")


def test_step_invariants_see_a_declined_tree_change_after_a_shared_run():
    # Tree 0 is forged to decline in step 0.  Its tree must stay as it was
    # after step 0: a change in a distinct trace after a run of shared ones
    # fails, and so does a change right after the decline, which a baseline
    # taken at the next distinct trace would miss.
    g, ids, res = _k2_phase_with_one_active_step()
    idle = res.step_traces[1]
    decline = dataclasses.replace(res.step_traces[0], grows=(), declines=(0,))
    moved = dataclasses.replace(idle, snapshot={**idle.snapshot, 1: (True, 2, 0)})
    for traces, j in (
        ((decline, idle, idle, idle, moved, idle, idle, idle), 4),
        ((decline,) + (moved,) * 7, 1),
    ):
        report = check_step_invariants(g, dataclasses.replace(res, step_traces=traces), ids)
        claim = [c for c in failures(report) if c.name == "declined-tree-frozen"]
        assert claim and claim[0].witness.endswith(f"changed at step {j} after declining at 0")


def test_step_invariants_reject_excess_blame():
    g, ids = build_graph(2, [(0, 1)])
    res = run_phase(g, {0, 1}, {0, 1}, 0, ids, debug=True)
    # Forge a decline whose blamed weight reaches the forbidden threshold.
    snap = res.step_traces[-1].snapshot
    bogus = StepTrace(
        proposals=(Proposal(proposer=1, weight=1, attach_at=0, target_root=0),),
        grows=(),
        declines=(0,),
        deleted=(1,),
        max_depth=0,
        red_sizes={0: 2},
        snapshot=snap,
    )
    traces = (bogus,) + res.step_traces[1:]
    forged = dataclasses.replace(res, step_traces=traces)
    report = check_step_invariants(g, forged, ids)
    assert "blame-ledger" in {c.name for c in failures(report)}


def test_step_invariants_reject_growth_that_keeps_the_tree_size():
    # Path 0 - 1 - 2 with red terminal 1: tree 1 grows from 1 to 3 members.
    # Forge its pre-step size to 3; a tree that grew must have gained members.
    g, ids = build_graph(3, [(0, 1), (1, 2)], ids=[2, 0, 3])
    res = run_phase(g, {0, 1, 2}, {0, 1, 2}, 0, ids, debug=True)
    tr = res.step_traces[0]
    assert tr.grows == (1,) and tr.red_sizes == {1: 1}
    assert sum(1 for s in tr.snapshot.values() if s[2] == 1) == 3
    traces = (dataclasses.replace(tr, red_sizes={1: 3}),) + res.step_traces[1:]
    report = check_step_invariants(g, dataclasses.replace(res, step_traces=traces), ids)
    assert [c.name for c in failures(report)] == ["accepted-tree-growth"]
    assert failures(report)[0].witness.endswith("grew 3 -> 3, below factor 1+1/4")


def test_step_invariants_reject_blue_node_deeper_than_its_start():
    # P4 with terminals 0 and 3: after step 0, node 3 is still blue at its
    # starting depth 0.  Forge it one level deeper; blue nodes never move.
    g, ids = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    res = run_phase(g, {0, 1, 2, 3}, {0, 3}, 0, ids, debug=True)
    tr = res.step_traces[0]
    assert tr.snapshot[3] == (False, 0, 3) and multi_source_bfs(g, res.alive_in, res.terminals_in).dist[3] == 0
    traces = (dataclasses.replace(tr, snapshot={**tr.snapshot, 3: (False, 1, 3)}),) + res.step_traces[1:]
    report = check_step_invariants(g, dataclasses.replace(res, step_traces=traces), ids)
    assert [(c.name, c.witness) for c in failures(report)] == [
        ("step-depth-claims", "step 0: blue node id 3 (index 3) depth 1 != starting 0")
    ]


def test_step_invariants_reject_tree_blamed_in_two_steps():
    # Tree 0 declines in step 0 and again in step 1; each step's blame is
    # small and matches its deletions, so only the two-step rule sees it.
    g, ids = build_graph(2, [(0, 1)])
    res = run_phase(g, {0, 1}, {0, 1}, 0, ids, debug=True)
    snap = res.step_traces[-1].snapshot

    decline = StepTrace(
        proposals=(Proposal(proposer=1, weight=1, attach_at=0, target_root=0),),
        grows=(),
        declines=(0,),
        deleted=(1,),
        max_depth=0,
        red_sizes={0: 100},
        snapshot=snap,
    )
    forged = dataclasses.replace(res, step_traces=(decline, decline) + res.step_traces[2:])
    report = check_step_invariants(g, forged, ids)
    ledger = [c for c in failures(report) if c.name == "blame-ledger"]
    assert ledger and ledger[0].witness.endswith("blamed in two steps")


def test_step_invariants_check_deletion_budget_on_simulated_phase():
    # A simulated phase carries no step traces; the budget must still count
    # its deletions.  P4 at b = 2 may lose at most 4 / (2 * 2) = 1 node.
    g, ids = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    simulated = strong_cluster(g, ids, backend="simulated").phases[0]
    assert simulated.step_traces == () and ids.b == 2
    assert check_step_invariants(g, simulated, ids).all_pass
    forged = dataclasses.replace(simulated, deleted=(0, 1, 2, 3))
    report = check_step_invariants(g, forged, ids)
    assert [c.name for c in failures(report)] == ["phase-deletion-budget"]


def test_step_invariants_reject_blue_proposer():
    # Path 0 - 1 - 2 with red terminal 1 between blue terminals 0 and 2: both
    # propose to tree 1 and it grows.  Forge proposer 2 as still blue at its
    # old depth; the tree still grew enough, so only the proposer claim sees it.
    g, ids = build_graph(3, [(0, 1), (1, 2)], ids=[2, 0, 3])
    res = run_phase(g, {0, 1, 2}, {0, 1, 2}, 0, ids, debug=True)
    tr = res.step_traces[0]
    assert [pr.proposer for pr in tr.proposals] == [0, 2] and tr.grows == (1,)
    forged_snapshot = dict(tr.snapshot)
    forged_snapshot[2] = (False, 0, 2)
    traces = (dataclasses.replace(tr, snapshot=forged_snapshot),) + res.step_traces[1:]
    forged = dataclasses.replace(res, step_traces=traces)
    report = check_step_invariants(g, forged, ids)
    assert [c.name for c in failures(report)] == ["proposers-resolved"]
    assert check_step_invariants(g, res, ids).all_pass


def test_step_invariants_label_claims_without_snapshots_skipped():
    # A simulated phase records no traces and a non-debug phase records traces
    # without snapshots: the snapshot claims must say they did not run.  The
    # blame ledger needs traces only, so it runs on the non-debug phase and
    # says it was skipped on the simulated one.
    g, ids = build_graph(2, [(0, 1)])
    simulated = strong_cluster(g, ids, backend="simulated").phases[0]
    plain = run_phase(g, {0, 1}, {0, 1}, 0, ids)
    for phase in (simulated, plain):
        names = [c.name for c in check_step_invariants(g, phase, ids).checks]
        for claim in ("step-depth-claims", "accepted-tree-growth", "proposers-resolved", "declined-tree-frozen"):
            assert f"{claim} (no snapshots, skipped)" in names
    assert "blame-ledger (no traces, skipped)" in [c.name for c in check_step_invariants(g, simulated, ids).checks]
    assert "blame-ledger" in [c.name for c in check_step_invariants(g, plain, ids).checks]


def test_decomposition_oracle_accepts_grid():
    g, ids = generate(FamilySpec("grid", n=64, w=8))
    d, _ = network_decomposition(g, ids)
    assert check_decomposition(g, d, ids.b, ids).all_pass


def test_decomposition_rejects_broken_halving():
    # Pushing one node of an all-one-color decomposition to a later color
    # leaves the first iteration covering 2 of 3, fine, but on three nodes
    # demoting two breaks the at-least-half rule.
    g, ids = build_graph(3, [])
    d, _ = network_decomposition(g, ids)
    assert d.colors_used == 1
    bad = dataclasses.replace(d, colors_used=2, color=(0, 1, 1))
    report = check_decomposition(g, bad, ids.b, ids)
    assert "per-color-clusterings" in {c.name for c in failures(report)}


def test_decomposition_rejects_large_recolor():
    g, ids = generate(FamilySpec("path", n=64))
    d, _ = network_decomposition(g, ids)
    assert d.colors_used >= 2
    # Demote most of the first color class; its iteration then covers too little.
    color = list(d.color)
    moved = 0
    for v in range(g.n):
        if color[v] == 0 and moved < 40:
            color[v] = d.colors_used - 1
            moved += 1
    bad = dataclasses.replace(d, color=tuple(color))
    assert not check_decomposition(g, bad, ids.b, ids).all_pass


def test_decomposition_rejects_uncolored():
    g, ids = build_graph(2, [(0, 1)])
    d, _ = network_decomposition(g, ids)
    bad = dataclasses.replace(d, color=(0, -1))
    report = check_decomposition(g, bad, ids.b, ids)
    assert "all-nodes-colored" in {c.name for c in failures(report)}


@pytest.mark.parametrize("color", [(0,), (0, 0, 0, 5)])
def test_decomposition_rejects_color_vector_of_wrong_length(color):
    g, ids = p3()
    report = check_decomposition(g, Decomposition(colors_used=1, color=color), ids.b, ids)
    claim = [c for c in failures(report) if c.name == "all-nodes-colored"]
    assert claim and claim[0].witness == f"color vector has {len(color)} entries for 3 nodes"


def test_decomposition_color_count_is_checked_by_name():
    # On P4, colors 0, 1, 0, 2 halve what is left each time.  Claiming four
    # colors breaks only the bound ceil(log2 4) + 1 = 3.
    g, ids = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert check_decomposition(g, Decomposition(3, (0, 1, 0, 2)), ids.b, ids).all_pass
    report = check_decomposition(g, Decomposition(4, (0, 1, 0, 2)), ids.b, ids)
    assert ("color-count", "4 colors, bound 3") in {(c.name, c.witness) for c in failures(report)}


def test_decomposition_rejects_a_color_that_clusters_nothing():
    g, ids = p3()
    report = check_decomposition(g, Decomposition(2, (0, 0, 0)), ids.b, ids)
    assert [(c.name, c.witness) for c in failures(report)] == [
        ("per-color-clusterings", "color 1 clusters nothing")
    ]


def test_json_coverage_counts_a_node_listed_twice_once():
    g, ids = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    bad = Clustering(n=4, b=ids.b, clusters=((0, (0, 0)),), unclustered=(1, 2, 3))
    assert bad.to_json_dict(g)["coverage"] == 1


def test_mis_examples():
    g, _ = p3()
    assert check_mis(g, {0, 2}).all_pass
    k2, _ = build_graph(2, [(0, 1)])
    r1 = check_mis(k2, {0, 1})
    assert not r1.all_pass and "independent" in {c.name for c in failures(r1)}
    r2 = check_mis(k2, set())
    assert not r2.all_pass and "maximal" in {c.name for c in failures(r2)}


def test_report_rendering():
    g, _ = p3()
    report = check_ruling(g, {0, 1, 2}, {0}, 1)
    text = report.to_text()
    assert text.startswith("[FAIL]")
    assert text.endswith("=> FAILED")
    doc = report.to_json_dict()
    assert doc["all_pass"] is False
    assert doc["checks"][0]["name"] == "ruling-radius"


def test_mis_rejects_out_of_range_nodes():
    g, _ = p3()
    report = check_mis(g, [0, 2, 7, -1])
    assert [c.witness for c in failures(report)] == ["node -1 outside 0..2"]


def test_clustering_rejects_out_of_range_nodes_before_other_checks():
    g, ids = p3()
    bad = Clustering(
        n=3, b=ids.b,
        clusters=((0, (0, 1)),),
        unclustered=(5,),
    )
    report = check_clustering(g, bad, ids.b)
    assert [(c.name, c.passed, c.witness) for c in report.checks] == [
        ("nodes-in-range", False, "node 5 outside 0..2")
    ]


def test_clustering_rejects_lists_that_miss_or_repeat_nodes():
    g, ids = build_graph(4, [])
    short = Clustering(
        n=4, b=ids.b,
        clusters=((0, (0,)), (2, (2,))),
        unclustered=(1,),
    )
    report = check_clustering(g, short, ids.b)
    assert [c.name for c in failures(report)] == ["partition"]
    repeated = dataclasses.replace(short, unclustered=(1, 3, 3))
    report = check_clustering(g, repeated, ids.b)
    assert [c.witness for c in failures(report)] == ["node 3 listed in unclustered and in unclustered"]


@pytest.mark.parametrize(
    "clusters, unclustered, witness",
    [
        # A node in two clusters.
        (((0, (0, 1)), (3, (3, 1))), (2,), "node 1 listed in cluster 0 and in cluster 1"),
        # A node both clustered and unclustered.
        (((0, (0, 1)), (3, (3,))), (2, 1), "node 1 listed in cluster 0 and in unclustered"),
        # A node listed twice inside one cluster.
        (((0, (0, 1, 0)),), (2, 3), "node 0 listed in cluster 0 and in cluster 0"),
    ],
)
def test_partition_rejects_every_repeated_listing(clusters, unclustered, witness):
    g, ids = build_graph(4, [(0, 1), (1, 3)])
    bad = Clustering(n=4, b=ids.b, clusters=clusters, unclustered=unclustered)
    report = check_clustering(g, bad, ids.b)
    assert ("partition", witness) in {(c.name, c.witness) for c in failures(report)}


def test_diameter_checks_reject_a_long_path_at_b1():
    # At b=1 the diameter bound is 8; the 10-node path has diameter 9.
    g, _ = build_graph(10, [(v, v + 1) for v in range(9)])
    whole = Clustering(n=10, b=1, clusters=((0, tuple(range(10))),), unclustered=())
    report = check_clustering(g, whole, 1)
    assert [c.name for c in failures(report)] == ["cluster-diameter"]
    assert "diameter 9, bound 8" in failures(report)[0].witness
    report = check_decomposition(g, Decomposition(colors_used=1, color=(0,) * 10), 1)
    assert [c.name for c in failures(report)] == ["per-color-clusterings"]
    assert "diameter 9, bound 8" in failures(report)[0].witness


def _count_exact_diameters(monkeypatch):
    """Count the oracle's exact diameter calls through its module binding."""
    import strongcluster.verify as verify

    calls = []
    real = verify.induced_diameter

    def counted(g, nodes):
        calls.append(len(set(nodes)))
        return real(g, nodes)

    monkeypatch.setattr(verify, "induced_diameter", counted)
    return calls


@pytest.mark.parametrize("n", range(1, 13))
def test_diameter_certificate_outcomes_on_paths_at_b1(monkeypatch, n):
    # At b=1, paths of 1..5 nodes pass on the certificate (ecc 4b^3 = 4 from
    # the least node), 6..9 on the exact diameter (bound 8), and 10..12 fail
    # on it.  The artifact's terminal, at an end or in the middle, does not
    # move the oracle's centre.
    g, _ = build_graph(n, [(v, v + 1) for v in range(n - 1)])
    calls = _count_exact_diameters(monkeypatch)
    for terminal in (0, n // 2):
        whole = Clustering(n=n, b=1, clusters=((terminal, tuple(range(n))),), unclustered=())
        verdicts = {c.name: c for c in check_clustering(g, whole, 1).checks}
        assert verdicts["clusters-connected"].passed
        assert verdicts["cluster-diameter"].passed is (n - 1 <= 8)
        if n - 1 > 8:
            assert verdicts["cluster-diameter"].witness == (
                f"cluster of terminal node {terminal} has diameter {n - 1}, bound 8"
            )
        assert calls == ([n] if n - 1 > 4 else [])
        del calls[:]


def test_connected_and_diameter_verdicts_match_the_oracle_on_every_graph_up_to_6_nodes(monkeypatch):
    # Every node subset of every graph with n <= 5, and the whole node set of
    # every 6-node graph, as one cluster at b = 1.  The exact diameter runs
    # only where the BFS from the least member reaches past 4b^3 = 4.
    calls = _count_exact_diameters(monkeypatch)
    checked = 0
    for n in range(1, 7):
        masks = range(1, 1 << n) if n < 6 else [(1 << n) - 1]
        for g in all_graphs(n):
            for mask in masks:
                members = tuple(v for v in range(n) if mask >> v & 1)
                rest = tuple(v for v in range(n) if not mask >> v & 1)
                one = Clustering(n=n, b=1, clusters=((members[-1], members),), unclustered=rest)
                verdicts = {c.name: c for c in check_clustering(g, one, 1).checks}
                diameter = diameter_oracle(g.adj, members)
                connected = verdicts["clusters-connected"]
                assert connected.passed is (diameter is not None), (g.adj, members)
                if diameter is None:
                    parts = len(connected_components(g, members))
                    assert connected.witness == (
                        f"cluster of terminal node {members[-1]} splits into {parts} components"
                    )
                assert verdicts["cluster-diameter"].passed
                far = diameter is not None and max(bfs_oracle(g.adj, set(members), members[0]).values()) > 4
                assert calls == ([len(members)] if far else []), (g.adj, members)
                del calls[:]
                checked += 1
    assert checked == 32767 + 32768


def test_a_passing_cube_clustering_needs_no_exact_diameter(monkeypatch):
    g, ids = generate(FamilySpec("hypercube", dim=10))
    clustering = strong_cluster(g, ids).clustering
    calls = _count_exact_diameters(monkeypatch)
    assert check_clustering(g, clustering, ids.b, ids).all_pass
    assert max(len(members) for _, members in clustering.clusters) > 900
    assert calls == []
