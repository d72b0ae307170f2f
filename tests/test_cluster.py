import itertools
import json
import tracemalloc
import weakref

import pytest

from conftest import corpus_entries
from strongcluster import cluster as cluster_module
from strongcluster.cluster import (
    Decomposition,
    mis_via_decomposition,
    network_decomposition,
    strong_cluster,
)
from strongcluster.gen import FamilySpec, generate, splitmix_at
from strongcluster.graph import IdAssignment, build_graph, connected_components, multi_source_bfs
from strongcluster.phase import run_phase
from strongcluster.sim import round_budget
from strongcluster.verify import check_clustering, check_decomposition, check_mis
from test_sim import RESIDUAL_GRAPHS


def test_k2_single_cluster():
    g, ids = build_graph(2, [(0, 1)])
    run = strong_cluster(g, ids)
    assert run.clustering.clusters == ((0, (0, 1)),)
    assert run.clustering.covered() == 2
    assert run.clustering.unclustered == ()


def test_p3_single_cluster_terminal_zero():
    g, ids = build_graph(3, [(0, 1), (1, 2)])
    run = strong_cluster(g, ids)
    assert run.clustering.clusters == ((0, (0, 1, 2)),)
    assert run.clustering.covered() == 3


def test_edgeless_all_singletons():
    g, ids = build_graph(9, [])
    run = strong_cluster(g, ids)
    assert len(run.clustering.clusters) == 9
    assert all(members == (t,) for t, members in run.clustering.clusters)


def test_clustering_json_shape_and_order():
    g, ids = build_graph(3, [(0, 1), (1, 2)])
    run = strong_cluster(g, ids)
    doc = run.clustering.to_json_dict(g)
    assert list(doc.keys()) == [
        "n", "b", "coverage", "clusters", "unclustered",
        "diameter_bound", "max_diameter_observed",
    ]
    assert doc["coverage"] == 3
    assert doc["diameter_bound"] == 8 * ids.b**3
    assert doc["max_diameter_observed"] == 2
    # Deterministic serialization.
    assert json.dumps(doc) == json.dumps(run.clustering.to_json_dict(g))


def random_connected(n, seed):
    edges = [(i, splitmix_at(seed, i) % i) for i in range(1, n)]
    k = n
    for u in range(n):
        for v in range(u + 1, n):
            if splitmix_at(seed, k) % 6 == 0:
                edges.append((u, v))
            k += 1
    return build_graph(n, edges)


@pytest.mark.parametrize("seed", range(8))
def test_phase_invariants_random(seed):
    g, ids = random_connected(20 + 3 * seed, seed)
    n, b = g.n, ids.b
    run = strong_cluster(g, ids)
    alive = set(range(n))
    for p, phase in enumerate(run.phases):
        # Deletion invariant: each phase removes at most n/(2b).
        assert 2 * b * len(phase.deleted) <= n
        alive -= set(phase.deleted)
        assert set(phase.survivors) == alive
        # Ruling invariant after phase p: radius (p+1) * 4b^2.
        if alive:
            dm = multi_source_bfs(g, alive, set(phase.terminals_out))
            assert all(dm.dist[v] is not None and dm.dist[v] <= 4 * b * b * (p + 1) for v in alive)
        # Separation invariant: same-component terminals share the first p+1 bits.
        for comp in connected_components(g, alive):
            terms = [t for t in comp if t in set(phase.terminals_out)]
            prefixes = {ids.ids[t] >> (b - 1 - p) for t in terms}
            assert len(prefixes) <= 1
    assert 2 * len(run.clustering.covered_nodes()) >= n


@pytest.mark.parametrize("seed", range(8))
def test_clustering_passes_oracle_random(seed):
    g, ids = random_connected(25, 50 + seed)
    run = strong_cluster(g, ids)
    report = check_clustering(g, run.clustering, ids.b, ids)
    assert report.all_pass, report.to_text()


def test_decomposition_k2_one_color():
    g, ids = build_graph(2, [(0, 1)])
    d, rounds_total = network_decomposition(g, ids)
    assert d.colors_used == 1
    assert rounds_total is None


def test_decomposition_simulated_sums_rounds():
    # Two clusterings, each the full calendar.
    g, ids = generate(FamilySpec("gnp", n=15, p=2.5 / 15, seed=6, id_seed=6))
    d, rounds_total = network_decomposition(g, ids, backend="simulated")
    assert d == network_decomposition(g, ids)[0]
    assert d.colors_used == 2
    assert rounds_total == 2 * round_budget(g.n, ids.b)


def test_decomposition_edgeless_one_color():
    g, ids = build_graph(8, [])
    d, _ = network_decomposition(g, ids)
    assert d.colors_used == 1


@pytest.mark.parametrize("seed", range(6))
def test_decomposition_color_bound_and_validity(seed):
    g, ids = random_connected(30, 90 + seed)
    d, _ = network_decomposition(g, ids)
    assert d.colors_used <= ids.b + 1
    report = check_decomposition(g, d, ids.b, ids)
    assert report.all_pass, report.to_text()


def test_decomposition_json_shape():
    g, ids = build_graph(2, [(0, 1)])
    d, _ = network_decomposition(g, ids)
    doc = d.to_json_dict()
    assert list(doc.keys()) == ["colors", "color_of"]
    assert doc["color_of"] == [0, 0]


def _live_phases_at_each_phase(monkeypatch, run):
    """How many earlier phase results are still alive as each phase starts."""
    seen: list[weakref.ref] = []
    live: list[int] = []

    def tracked(*args, **kwargs):
        live.append(sum(r() is not None for r in seen))
        res = run_phase(*args, **kwargs)
        seen.append(weakref.ref(res))
        return res

    with monkeypatch.context() as m:
        m.setattr(cluster_module, "run_phase", tracked)
        kept = run()
    return live, kept


def test_a_decomposition_holds_one_phase_at_a_time(monkeypatch):
    # A phase reads only the previous phase's survivors and terminals, so a
    # decomposition frees each result once it has the next phase's inputs,
    # before that phase runs; a clustering run keeps all of its b phases as
    # evidence.
    g, ids = RESIDUAL_GRAPHS["gnp-15-6"]()
    assert ids.b >= 3
    live, (d, _) = _live_phases_at_each_phase(monkeypatch, lambda: network_decomposition(g, ids))
    assert d.colors_used >= 2
    assert len(live) == d.colors_used * ids.b
    assert live == [0] * len(live)
    live, _ = _live_phases_at_each_phase(monkeypatch, lambda: strong_cluster(g, ids))
    assert live == list(range(ids.b))


def test_run_phase_leaves_a_given_set_unchanged_and_b0_runs_no_phase():
    g, ids = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    alive, q = {0, 1, 2, 3, 4}, {0, 3}
    for p in range(ids.b):
        run_phase(g, alive, alive, p, ids)
        run_phase(g, alive, q, p, ids)
        assert (alive, q) == ({0, 1, 2, 3, 4}, {0, 3})
    # With b = 0 no phase runs: the start set is the survivors and terminals.
    g, ids = build_graph(1, [], b=0)
    run = strong_cluster(g, ids)
    assert run.phases == ()
    assert run.clustering.clusters == ((0, (0,)),)
    assert network_decomposition(g, ids) == (Decomposition(colors_used=1, color=(0,)), None)


def _decomposition_of_kept_runs(g, ids):
    """The colouring built from strong_cluster runs, each keeping its phases."""
    remaining = set(range(g.n))
    color = [-1] * g.n
    c = 0
    while remaining:
        covered = strong_cluster(g, ids, alive=remaining).clustering.covered_nodes()
        for v in covered:
            color[v] = c
        remaining -= covered
        c += 1
    return Decomposition(colors_used=c, color=tuple(color))


def test_streamed_decomposition_equals_the_kept_one():
    graphs = list(corpus_entries(6))
    graphs += [(name, *make()) for name, make in sorted(RESIDUAL_GRAPHS.items())]
    residual = 0
    for name, g, ids in graphs:
        kept = _decomposition_of_kept_runs(g, ids)
        assert network_decomposition(g, ids) == (kept, None), name
        residual += kept.colors_used > 1
    assert residual >= len(RESIDUAL_GRAPHS)


def test_mis_triangle_takes_min_identifier():
    g, ids = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    d, _ = network_decomposition(g, ids)
    assert mis_via_decomposition(g, ids, d) == [0]


def test_mis_edgeless_takes_all():
    g, ids = build_graph(5, [])
    d, _ = network_decomposition(g, ids)
    assert mis_via_decomposition(g, ids, d) == [0, 1, 2, 3, 4]


def test_mis_p3_takes_endpoints():
    g, ids = build_graph(3, [(0, 1), (1, 2)])
    d, _ = network_decomposition(g, ids)
    assert mis_via_decomposition(g, ids, d) == [0, 2]


@pytest.mark.parametrize("seed", range(6))
def test_mis_valid_on_random_graphs(seed):
    g, ids = random_connected(22, 400 + seed)
    d, _ = network_decomposition(g, ids)
    s = mis_via_decomposition(g, ids, d)
    assert check_mis(g, s, ids).all_pass


def test_mis_respects_permuted_identifiers():
    g, ids = generate(FamilySpec("complete", n=4, id_seed=3))
    d, _ = network_decomposition(g, ids)
    s = mis_via_decomposition(g, ids, d)
    assert len(s) == 1
    assert ids.ids[s[0]] == min(ids.ids)


def mis_per_cluster(g, ids, d):
    """The MIS color by color, one greedy pass per cluster (a component of a color class)."""
    chosen = set()
    for c in range(d.colors_used):
        color_class = [v for v in range(g.n) if d.color[v] == c]
        for comp in connected_components(g, color_class):
            for v in sorted(comp, key=lambda x: ids.ids[x]):
                if not any(w in chosen for w in g.adj[v]):
                    chosen.add(v)
    return sorted(chosen)


def test_mis_matches_per_cluster_passes_on_every_4_node_coloring():
    # Every 4-node graph under two identifier orders and every color vector
    # over {-1, 0, 1, 2}: colors outside [0, 2) are left out by both.
    pairs = list(itertools.combinations(range(4), 2))
    for mask in range(1 << len(pairs)):
        edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
        for ident in ([0, 1, 2, 3], [2, 0, 3, 1]):
            g, ids = build_graph(4, edges, ids=ident)
            for color in itertools.product((-1, 0, 1, 2), repeat=4):
                d = Decomposition(colors_used=2, color=color)
                assert mis_via_decomposition(g, ids, d) == mis_per_cluster(g, ids, d), (edges, ident, color)


def test_all_tiny_graphs_under_every_identifier_permutation():
    # Connected graphs on up to 4 nodes, every identifier permutation: the
    # guarantees are identifier-order-independent.
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            comps = connected_components(build_graph(n, edges)[0], range(n))
            if len(comps) != 1:
                continue
            for perm in itertools.permutations(range(n)):
                g, ids = build_graph(n, edges, ids=list(perm))
                run = strong_cluster(g, ids)
                report = check_clustering(g, run.clustering, ids.b, ids)
                assert report.all_pass, (
                    f"n={n} edges={edges} ids={perm}:\n{report.to_text()}"
                )


def test_residual_alive_subset_keeps_identifiers():
    g, ids = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    run = strong_cluster(g, ids, alive={2, 3})
    assert run.clustering.n == 2
    covered = run.clustering.covered_nodes()
    assert covered <= {2, 3}


def test_one_shot_alive_iterator_gives_equal_clusterings_on_both_backends():
    g, ids = generate(FamilySpec("path", n=12))
    ref = strong_cluster(g, ids, alive=iter(range(8))).clustering
    sim = strong_cluster(g, ids, backend="simulated", alive=iter(range(8))).clustering
    assert ref.n == 8
    assert ref == sim
    assert ref == strong_cluster(g, ids, alive=set(range(8))).clustering


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("gnp", n=4096, p=3 / 4096, seed=1, id_seed=1),
        FamilySpec("grid", n=4096, w=64, seed=1, id_seed=1),
        FamilySpec("path", n=4096, seed=1, id_seed=1),
    ],
    ids=lambda spec: spec.family,
)
def test_a_run_holds_at_most_60_bytes_per_phase_per_node(spec):
    # A run keeps all b phase results.  Their forests share one int object
    # per node and each phase's inputs are the previous phase's survivors
    # and terminals, so a run holds three n-length pointer lists per phase
    # plus its node tuples; with fresh ints in every forest it held 113-124
    # bytes, and with membership and starting depths kept too, 70-73.  The
    # warm-up run fills the cached CSR adjacency and identifier order first.
    g, ids = generate(spec)
    strong_cluster(g, ids)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run = strong_cluster(g, ids)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(run.phases) == ids.b
    per = held / (ids.b * g.n)
    assert per <= 60, f"{spec.family}: {per:.1f} bytes per phase per node"


def test_debug_runs_need_the_reference_backend():
    g, ids = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="backend='simulated' with debug=True"):
        strong_cluster(g, ids, backend="simulated", debug=True)
    run = strong_cluster(g, ids, backend="reference", debug=True)
    assert run.phases and all(
        p.step_traces and all(tr.snapshot is not None for tr in p.step_traces) for p in run.phases
    )


def _induced_relabelled(g, ids, nodes):
    """G[nodes] on 0..k-1 in sorted node order, keeping identifiers and b."""
    index = {v: i for i, v in enumerate(nodes)}
    edges = [(index[u], index[w]) for u in nodes for w in g.adj[u] if w in index and u < w]
    sub, _ = build_graph(len(nodes), edges)
    return sub, IdAssignment(b=ids.b, ids=tuple(ids.ids[v] for v in nodes))


def _phase_in_node_space(res, nodes, n):
    """A phase result on G[nodes] restated in the host graph's node indices.

    A finished forest keeps no child lists or tree sizes; its depth,
    parent and root_of lists, compared here, determine both.  The
    starting BFS forest is compared through the inputs that fix it.
    """
    lift = nodes.__getitem__

    def lift_opt(v):
        return None if v is None else nodes[v]

    f = res.final_forest
    per_node = {"parent": [None] * n, "depth": [None] * n, "root_of": [None] * n}
    for i, v in enumerate(nodes):
        per_node["parent"][v] = lift_opt(f.parent[i])
        per_node["depth"][v] = f.depth[i]
        per_node["root_of"][v] = lift_opt(f.root_of[i])
    traces = [
        (
            [(lift(pr.proposer), pr.weight, lift(pr.attach_at), lift(pr.target_root))
             for pr in tr.proposals],
            [lift(r) for r in tr.grows], [lift(r) for r in tr.declines],
            [lift(v) for v in tr.deleted], tr.max_depth,
            {lift(r): size for r, size in tr.red_sizes.items()},
        )
        for tr in res.step_traces
    ]
    return {
        "terminals_in": [lift(v) for v in res.terminals_in],
        "survivors": [lift(v) for v in res.survivors],
        "terminals_out": [lift(v) for v in res.terminals_out],
        "deleted": [lift(v) for v in res.deleted],
        "traces": traces,
        **per_node,
    }


def _phase_as_is(res):
    f = res.final_forest
    return {
        "terminals_in": list(res.terminals_in),
        "survivors": list(res.survivors),
        "terminals_out": list(res.terminals_out),
        "deleted": list(res.deleted),
        "traces": [
            (
                [(pr.proposer, pr.weight, pr.attach_at, pr.target_root) for pr in tr.proposals],
                list(tr.grows), list(tr.declines), list(tr.deleted), tr.max_depth,
                tr.red_sizes,
            )
            for tr in res.step_traces
        ],
        "parent": f.parent, "depth": f.depth, "root_of": f.root_of,
    }


def test_phase_on_residual_matches_phase_on_induced_subgraph():
    # A phase on the unclustered remainder must see only that remainder: the
    # same phase on G[rest], relabelled, gives the same result node for node.
    residuals = 0
    for name, g, ids in corpus_entries(256):
        rest = list(strong_cluster(g, ids).clustering.unclustered)
        if not rest:
            continue
        residuals += 1
        sub, sub_ids = _induced_relabelled(g, ids, rest)
        for p in range(ids.b):
            host = run_phase(g, rest, rest, p, ids)
            local = run_phase(sub, range(len(rest)), range(len(rest)), p, sub_ids)
            assert _phase_as_is(host) == _phase_in_node_space(local, rest, g.n), f"{name} p={p}"
    assert residuals > 0
