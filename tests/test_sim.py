import hashlib
import itertools
import os
import subprocess
import sys

import pytest

import strongcluster
from conftest import corpus_entries
from strongcluster import sim as sim_module
from strongcluster.cluster import strong_cluster
from strongcluster.gen import FamilySpec, generate, splitmix_at
from strongcluster.graph import GraphError, build_graph
from strongcluster.sim import (
    TAGS,
    Calendar,
    ProtocolViolation,
    RoundStats,
    Simulator,
    message_bit_budget,
    payload_bits,
    round_budget,
    run_protocol,
)


def test_round_budget_b1():
    # t = 2, L_0 = 5: 5 + 2 * (3 + 25) = 61.
    assert round_budget(2, 1) == 61
    assert round_budget(1, 1) == 61


def test_round_budget_matches_staged_sum():
    for b in range(1, 9):
        t = 2 * b * b
        expect = 0
        for p in range(b):
            L = 4 * b * b * (p + 1) + 1
            expect += L + t * (3 + 5 * L)
        assert round_budget(1 << b, b) == expect


def test_round_budget_closed_form():
    for b in range(1, 14):
        assert round_budget(1, b) == 20 * b**6 + 20 * b**5 + 2 * b**4 + 18 * b**3 + b


def test_round_budget_ratio_decreasing():
    ratios = [round_budget(1, b) / b**6 for b in range(4, 17)]
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))
    assert max(ratios) <= 61


def test_round_budget_rejects_small_b():
    with pytest.raises(Exception):
        round_budget(100, 2)


def test_calendar_locate_roundtrip():
    # The layout written out from the stage lengths: per phase one BFS stage
    # of L rounds, then t = 2b^2 steps of stages A..H.
    for b in (1, 2, 3):
        cal = Calendar(b)
        expect = []
        for p in range(b):
            L = 4 * b * b * (p + 1) + 1
            stages = [("bfs", -1, L)] + [
                (name, step, length)
                for step in range(2 * b * b)
                for name, length in zip("ABCDEFGH", (1, L, L, 1, L, L, 1, L))
            ]
            for stage, step, length in stages:
                first = len(expect)
                expect += [(p, stage, step, first, first + length)] * length
        assert len(expect) == cal.total
        assert [cal.locate(r) for r in range(cal.total)] == expect


def test_message_bit_budget_boundaries():
    b = 3
    assert payload_bits(sim_module.WEIGHT_PARTIAL, b) <= message_bit_budget(b)
    assert payload_bits(sim_module.BFS_TOKEN, b) <= message_bit_budget(b)
    # Every tag fits the 4b+16 budget; test_oversized_message_is_rejected
    # shows that a width equal to the budget passes and one more does not.
    for bb in range(1, 20):
        for tag in TAGS:
            assert payload_bits(tag, bb) <= message_bit_budget(bb)


def _field_layout(b):
    d = (4 * b**3 + 1).bit_length()
    return {
        sim_module.BFS_TOKEN: b + d + 1,  # root id, distance, parent flag
        sim_module.COLOR: b + d,  # root id, depth
        sim_module.ANCESTOR_FLAG: 1,
        sim_module.SIZE_PARTIAL: b + 1,  # subtree size <= 2^b
        sim_module.WEIGHT_PARTIAL: 2 * (b + 1),  # weight sum, node count
        sim_module.PROPOSE: b + 1,  # proposal weight
        sim_module.DECISION: 1,
        sim_module.OUTCOME: 1,
        sim_module.REHANG: b + d,  # root id, depth
        sim_module.DIE: 1,
        sim_module.LEAVE: 1,
    }


def test_payload_bits_match_field_layout():
    for b in range(1, 21):
        layout = _field_layout(b)
        assert len(TAGS) == len(layout) and set(layout) == set(TAGS)
        for tag in TAGS:
            assert payload_bits(tag, b) == layout[tag], (b, tag)


def test_width_table_does_not_leak_across_b():
    # Two b values in one process, in both orders, must match what a fresh
    # interpreter computes for each graph alone.
    specs = {"path-4": (4, 2), "path-64": (64, 6)}
    in_process = {}
    for name in ("path-64", "path-4", "path-64"):
        n, b = specs[name]
        g, ids = generate(FamilySpec("path", n=n))
        assert ids.b == b
        _, stats, _ = run_protocol(g, ids)
        assert in_process.setdefault(name, stats.max_message_bits) == stats.max_message_bits
    src = os.path.dirname(os.path.dirname(strongcluster.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for name, (n, b) in specs.items():
        code = (
            "from strongcluster.gen import FamilySpec, generate\n"
            "from strongcluster.sim import run_protocol\n"
            f"g, ids = generate(FamilySpec('path', n={n}))\n"
            "print(run_protocol(g, ids)[1].max_message_bits)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert int(out.stdout) == in_process[name], name
    assert in_process["path-4"] < in_process["path-64"]


def _k2_simulator(patch_node0=None):
    g, ids = build_graph(2, [(0, 1)])
    sim = Simulator(g, ids)
    if patch_node0 is not None:
        real = sim._wake

        def wake(v, r, inbox, out, wakes):
            real(v, r, inbox, out, wakes)
            if v == 0:
                extra_out, extra_wakes = patch_node0(r)
                out += extra_out
                wakes += extra_wakes

        sim._wake = wake
    return sim


def test_oversized_message_is_rejected(monkeypatch):
    # No tag can exceed 4b+16 under the field layout, so the budget is
    # lowered instead: a message exactly at the budget passes, one bit
    # over is a violation.
    widest = payload_bits(sim_module.BFS_TOKEN, 1)
    assert widest == max(_field_layout(1).values())
    monkeypatch.setattr(sim_module, "message_bit_budget", lambda b: widest)
    _, stats = _k2_simulator().run()
    assert stats.max_message_bits == widest
    monkeypatch.setattr(sim_module, "message_bit_budget", lambda b: widest - 1)
    with pytest.raises(ProtocolViolation, match="bfs of 5 bits exceeds budget 4"):
        _k2_simulator().run()


def test_bit_budget_is_checked_at_construction(monkeypatch):
    # A payload's width depends only on its tag, so an oversized tag is
    # refused before the run, even on a graph whose run sends no message.
    monkeypatch.setattr(sim_module, "message_bit_budget", lambda b: 4)
    g, ids = build_graph(1, [])
    with pytest.raises(ProtocolViolation, match="bfs of 5 bits exceeds budget 4"):
        Simulator(g, ids)


@pytest.mark.parametrize("port", [1, -1])
def test_send_on_missing_port_is_rejected(port):
    sim = _k2_simulator(lambda r: ([(port, (sim_module.LEAVE, ()))], []))
    with pytest.raises(ProtocolViolation, match=f"node 0 sent on missing port {port}"):
        sim.run()


def test_wake_at_or_before_now_is_rejected():
    for back in (0, 1):
        sim = _k2_simulator(lambda r: ([], [r - back] if r >= back else []))
        with pytest.raises(ProtocolViolation, match="non-future wake"):
            sim.run()


def test_wake_beyond_budget_is_rejected():
    sim = _k2_simulator(lambda r: ([], [sim.cal.total]))
    with pytest.raises(ProtocolViolation, match=f"wake {sim.cal.total} beyond budget"):
        sim.run()


def test_two_messages_on_one_port_in_a_round_are_rejected():
    # At round 0 node 0 announces its BFS token on its only port; a forged
    # second message on that port in the same wakeup breaks the model.
    sim = _k2_simulator(lambda r: ([(0, (sim_module.LEAVE, ()))] if r == 0 else [], []))
    with pytest.raises(ProtocolViolation, match="node 0 sent two messages on port 0 in round 0"):
        sim.run()


def test_two_messages_on_one_port_apart_in_the_send_list_are_rejected():
    # The middle of a 3-node path sends its tokens on ports 0 and 1, then a
    # forged message on port 0 again.
    g, ids = build_graph(3, [(0, 1), (1, 2)])
    sim = Simulator(g, ids)
    real = sim._wake

    def wake(v, r, inbox, out, wakes):
        real(v, r, inbox, out, wakes)
        if v == 1 and r == 0:
            assert [port for port, _ in out] == [0, 1]
            out.append((0, (sim_module.LEAVE, ())))

    sim._wake = wake
    with pytest.raises(ProtocolViolation, match="node 1 sent two messages on port 0 in round 0"):
        sim.run()


def test_calendar_rejects_rounds_outside_budget():
    cal = Calendar(2)
    for r in (-1, cal.total):
        with pytest.raises(ProtocolViolation, match="outside budget"):
            cal.locate(r)


def test_k2_exact_rounds_and_clustering():
    g, ids = build_graph(2, [(0, 1)])
    clustering, stats, phases = run_protocol(g, ids)
    assert stats.rounds == 61
    assert clustering.clusters == ((0, (0, 1)),)
    assert phases[0].terminals_out == (0,)
    assert phases[0].survivors == (0, 1)
    assert stats.max_message_bits <= message_bit_budget(1)


def test_single_node_runs_whole_protocol():
    g, ids = build_graph(1, [])
    clustering, stats, _ = run_protocol(g, ids)
    assert stats.rounds == 61
    assert clustering.clusters == ((0, (0,)),)


def test_p3_matches_reference_per_phase():
    g, ids = build_graph(3, [(0, 1), (1, 2)])
    clustering, stats, phases = run_protocol(g, ids)
    ref = strong_cluster(g, ids)
    assert clustering == ref.clustering
    assert stats.rounds == round_budget(3, 2) == 2098
    for sim_phase, ref_phase in zip(phases, ref.phases):
        assert sim_phase.survivors == ref_phase.survivors
        assert sim_phase.terminals_out == ref_phase.terminals_out
        assert sim_phase.final_forest.parent == ref_phase.final_forest.parent
        assert sim_phase.final_forest.depth == ref_phase.final_forest.depth
        assert sim_phase.f0_depth == ref_phase.f0_depth


def random_connected(n, seed):
    edges = [(i, splitmix_at(seed, i) % i) for i in range(1, n)]
    k = n
    for u in range(n):
        for v in range(u + 1, n):
            if splitmix_at(seed, k) % 7 == 0:
                edges.append((u, v))
            k += 1
    return build_graph(n, edges)


@pytest.mark.parametrize("seed", range(12))
def test_backend_equivalence_random(seed):
    g, ids = random_connected(10 + 2 * seed, 1000 + seed)
    clustering, stats, phases = run_protocol(g, ids)
    ref = strong_cluster(g, ids)
    assert clustering == ref.clustering
    assert stats.rounds == round_budget(g.n, ids.b)
    assert stats.max_message_bits <= message_bit_budget(ids.b)
    for sp, rp in zip(phases, ref.phases):
        assert sp.survivors == rp.survivors
        assert sp.terminals_out == rp.terminals_out
        assert sp.final_forest.parent == rp.final_forest.parent
        assert sp.final_forest.depth == rp.final_forest.depth
        assert sp.final_forest.root_of == rp.final_forest.root_of


@pytest.mark.parametrize("seed", [3, 11])
def test_backend_equivalence_with_permuted_ids(seed):
    g, ids = generate(FamilySpec("grid", n=30, w=6, id_seed=seed))
    clustering, _, _ = run_protocol(g, ids)
    ref = strong_cluster(g, ids)
    assert clustering == ref.clustering


def test_backend_equivalence_disconnected():
    g, ids = build_graph(7, [(0, 1), (2, 3), (3, 4)])
    clustering, _, _ = run_protocol(g, ids)
    ref = strong_cluster(g, ids)
    assert clustering == ref.clustering


def test_alive_subset_restricts_protocol():
    g, ids = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    clustering, stats, _ = run_protocol(g, ids, alive={1, 2, 3})
    ref = strong_cluster(g, ids, alive={1, 2, 3})
    assert clustering == ref.clustering
    assert stats.rounds == round_budget(4, 2)
    assert 0 not in clustering.covered_nodes()


def test_simulator_rejects_alive_node_out_of_range():
    g, ids = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    for backend in ("reference", "simulated"):
        with pytest.raises(GraphError, match="alive node 7 out of range"):
            strong_cluster(g, ids, backend=backend, alive=[0, 1, 7])


def test_simulator_rejects_unknown_driver():
    g, ids = build_graph(2, [(0, 1)])
    with pytest.raises(ValueError, match="unknown driver 'lockstp'"):
        Simulator(g, ids, driver="lockstp")


def _forest_fields(phase):
    # A finished forest keeps no child lists or tree sizes; parent, root_of
    # and member determine both.
    f = phase.final_forest
    return {
        "member": f.member,
        "parent": f.parent,
        "depth": f.depth,
        "root_of": f.root_of,
        "f0_depth": phase.f0_depth,
        "survivors": phase.survivors,
        "terminals_out": phase.terminals_out,
        "deleted": phase.deleted,
    }


def _labelled_graphs(max_n):
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            yield f"n={n} edges={edges}", *build_graph(n, edges)


def test_simulated_phases_match_reference_field_by_field():
    # Every labelled graph with n <= 5 (1099 graphs) plus the corpus up to
    # n = 64: each phase's forest as the simulator reads it off its node
    # state must equal the reference engine's, field by field.
    checked = 0
    instances = itertools.chain(_labelled_graphs(5), corpus_entries(64))
    for name, g, ids in instances:
        _, _, phases = run_protocol(g, ids)
        ref = strong_cluster(g, ids).phases
        assert len(phases) == len(ref) == ids.b, name
        for sp, rp in zip(phases, ref):
            got, want = _forest_fields(sp), _forest_fields(rp)
            for field in want:
                assert got[field] == want[field], f"{name}: phase {rp.p} {field} differs"
        checked += 1
    assert checked > 1099


def _assert_drivers_agree(g, ids, alive=None):
    ev = Simulator(g, ids, alive=alive, driver="event", record_events=True)
    ev_out, ev_stats = ev.run()
    lk = Simulator(g, ids, alive=alive, driver="lockstep", record_events=True)
    lk_out, lk_stats = lk.run()
    assert ev.events == lk.events
    assert ev_stats == lk_stats
    assert ev_out == lk_out


@pytest.mark.parametrize("seed", range(4))
def test_lockstep_and_event_drivers_agree(seed):
    g, ids = random_connected(7 + seed, 500 + seed)
    _assert_drivers_agree(g, ids)


def _residual_alive_sets(g, ids):
    """The alive sets of network_decomposition's clusterings after the first."""
    remaining = set(range(g.n))
    while remaining:
        remaining -= strong_cluster(g, ids, alive=remaining).clustering.covered_nodes()
        if remaining:
            yield frozenset(remaining)


# Small graphs whose decomposition needs more than one clustering; most
# small graphs are covered by the first.
RESIDUAL_GRAPHS = {
    "random-10-503": lambda: random_connected(10, 503),
    "gnp-15-6": lambda: generate(FamilySpec("gnp", n=15, p=2.5 / 15, seed=6, id_seed=6)),
}


@pytest.mark.parametrize("name", sorted(RESIDUAL_GRAPHS))
def test_lockstep_and_event_drivers_agree_on_residual_runs(name):
    # The nodes clustered earlier keep their ports to the residual nodes but
    # never wake.
    g, ids = RESIDUAL_GRAPHS[name]()
    residuals = list(_residual_alive_sets(g, ids))
    assert residuals, name
    for alive in residuals:
        _assert_drivers_agree(g, ids, alive)


@pytest.mark.parametrize("name", sorted(RESIDUAL_GRAPHS))
def test_residual_runs_message_only_alive_nodes(name):
    # BFS tokens and color announcements go only on ports to the run's
    # alive set, so no message reaches a node an earlier clustering took.
    g, ids = RESIDUAL_GRAPHS[name]()
    for alive in _residual_alive_sets(g, ids):
        sim = Simulator(g, ids, alive=alive, record_events=True)
        sim.run()
        assert [e for e in sim.events if e[2] not in alive] == [], (name, sorted(alive))


@pytest.mark.parametrize("seed", range(2))
def test_lockstep_and_event_drivers_agree_on_alive_subsets(seed):
    # A residual with more traffic than real small residuals carry: about
    # two thirds of the nodes, in several pieces.
    g, ids = random_connected(8, 600 + seed)
    _assert_drivers_agree(g, ids, {v for v in range(g.n) if splitmix_at(seed, v) % 3})


def _first_round_wakes(g, ids, alive=None):
    """An event-driven run's phases, and per phase the nodes woken at its
    first round: all of them, and those woken with an empty inbox."""
    sim = Simulator(g, ids, alive=alive)
    phase_of_round = {r: p for p, r in enumerate(sim.cal.phase_start)}
    woken = {p: set() for p in phase_of_round.values()}
    timer_woken = {p: set() for p in phase_of_round.values()}
    real = sim._wake

    def wake(v, r, inbox, out, wakes):
        p = phase_of_round.get(r)
        if p is not None:
            woken[p].add(v)
            if not inbox:
                timer_woken[p].add(v)
        real(v, r, inbox, out, wakes)

    sim._wake = wake
    phases, _ = sim.run()
    return phases, woken, timer_woken


def test_only_roots_wake_at_a_phase_first_round():
    # Only a phase's roots set the timer for the next phase's first round;
    # every other survivor enters a phase at its first BFS token.  So an
    # empty-inbox wakeup at a phase's first round is at a root of the phase
    # before (a root that joined a red tree mid-phase still wakes from its
    # timer), and every root of the new phase wakes at that round.
    runs = [(name, g, ids, None) for name, g, ids in corpus_entries(128)]
    for name, make in sorted(RESIDUAL_GRAPHS.items()):
        g, ids = make()
        runs += [(name, g, ids, alive) for alive in _residual_alive_sets(g, ids)]
    rehung = 0
    for name, g, ids, alive in runs:
        phases, woken, timer_woken = _first_round_wakes(g, ids, alive)
        for p in range(1, len(phases)):
            prev = phases[p - 1]
            roots_before = {v for v in prev.alive_in if prev.f0_depth[v] == 0}
            assert timer_woken[p] <= roots_before, (name, p)
            assert set(prev.terminals_out) <= woken[p], (name, p)
            rehung += len(timer_woken[p] - set(prev.terminals_out))
    assert rehung > 0


def test_flags_fall_in_stage_b_once_per_step():
    # A candidate flags its children at B's first round, and a flagged node
    # relays its first flag only if it is no candidate itself: every flag
    # falls in stage B, and no edge carries two flags in one step.
    flags = 0
    for name, g, ids in corpus_entries(64):
        sim = Simulator(g, ids, record_events=True)
        sim.run()
        seen = set()
        for r, sender, recipient, tag, _ in sim.events:
            if tag != sim_module.ANCESTOR_FLAG:
                continue
            p, stage, step, _, _ = sim.cal.locate(r)
            assert stage == "B", (name, r)
            key = (sender, recipient, p, step)
            assert key not in seen, (name, key)
            seen.add(key)
        flags += len(seen)
    assert flags > 0


def test_event_driver_deterministic():
    g, ids = random_connected(14, 901)
    a = Simulator(g, ids, record_events=True)
    a.run()
    b = Simulator(g, ids, record_events=True)
    b.run()
    assert a.events == b.events


def test_transcript_lines():
    g, ids = build_graph(2, [(0, 1)])
    lines: list[str] = []
    run_protocol(g, ids, transcript=lines)
    assert lines[0].startswith("round 0: msgs=2")
    for line in lines:
        assert line.startswith("round ") and "msgs=" in line and "bits_max=" in line


def test_messages_scale_with_change_not_rounds():
    # A path that fully quiesces early: traffic must be far below rounds.
    g, ids = generate(FamilySpec("path", n=64))
    _, stats, _ = run_protocol(g, ids)
    assert stats.rounds == round_budget(64, 6)
    assert stats.messages_total < stats.rounds


# Recorded on the simulator before its hot path was reworked: the round
# statistics and the SHA-256 of the transcript lines and of the event log
# (one repr per event), each joined by newlines.
GOLDEN = {
    "path-64": (
        lambda: generate(FamilySpec("path", n=64)),
        RoundStats(rounds=1095126, messages_total=2037, max_message_bits=17),
        849,
        "0ec52326f219deb98f44ec9749668aa6add1dab5ebd7c3f40763f4bd4a2cac3f",
        "0b1dc35eddc0c329d369ade84eeba017e4666523cf25a218953c1112ff1d7b01",
    ),
    "random-14-901": (
        lambda: random_connected(14, 901),
        RoundStats(rounds=104068, messages_total=318, max_message_bits=14),
        53,
        "3d9aeaa5be6e54babc2f6252fba60f8fc306abd34c5ffe2c9142e448e3a01da1",
        "3ccd4c6dd11d83cd30a79c84963ffac0ae974a89d8907acd1f12302d33344f7c",
    ),
    "gnp-128-ids11": (
        lambda: generate(FamilySpec("gnp", n=128, p=3 / 128, seed=128, id_seed=11)),
        RoundStats(rounds=2700103, messages_total=5091, max_message_bits=19),
        416,
        "7d0a4600aad1658a5976fa94bfaf23a0014650e0f2f2789e8e09aa0c1c8a0b46",
        "2b9da69aae96fb273a8182c310ab8435015a56e6fbef308c3cc002b2e174a045",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_stats_transcript_and_events(name):
    make, stats, n_lines, lines_sha, events_sha = GOLDEN[name]
    g, ids = make()
    lines: list[str] = []
    sim = Simulator(g, ids, transcript=lines, record_events=True)
    _, got = sim.run()
    assert got == stats
    assert len(lines) == n_lines and len(sim.events) == stats.messages_total
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == lines_sha
    assert hashlib.sha256("\n".join(map(repr, sim.events)).encode()).hexdigest() == events_sha
