"""Independent verification of every guarantee the executors claim.

All checks are built from graph primitives (BFS, eccentricities, components,
exact induced diameters) and the recorded traces; they never call into the
phase engine or the simulator, so they stay meaningful as an oracle for
both.  Artifacts are checked against the graph: a node outside it fails a
range check.  A failing check always carries a concrete witness.  Witnesses
name nodes by identifier when an assignment is supplied, by index otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import ceil, log2
from typing import Iterable, Iterator

from .cluster import Clustering, Decomposition
from .graph import (
    Graph,
    IdAssignment,
    connected_components,
    eccentricity,
    induced_diameter,
    multi_source_bfs,
)
from .phase import PhaseResult, StepTrace


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str | None = None


@dataclass(frozen=True)
class Report:
    checks: tuple[CheckResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            suffix = f" ({c.witness})" if c.witness else ""
            lines.append(f"[{tag}] {c.name}{suffix}")
        verdict = "OK" if self.all_pass else "FAILED"
        lines.append(f"=> {verdict}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "all_pass": self.all_pass,
            "checks": [
                {"name": c.name, "pass": c.passed, "witness": c.witness}
                for c in self.checks
            ],
        }


class _Names:
    def __init__(self, ids: IdAssignment | None):
        self.ids = ids

    def __call__(self, v: int) -> str:
        if self.ids is None:
            return f"node {v}"
        return f"node id {self.ids.ids[v]} (index {v})"


def _nodes_in_range(g: Graph, nodes: Iterable[int]) -> CheckResult:
    """Every listed node must be a node of g; the witness is the least stray one."""
    stray = min((v for v in nodes if not 0 <= v < g.n), default=None)
    witness = None if stray is None else f"node {stray} outside 0..{g.n - 1}"
    return CheckResult("nodes-in-range", stray is None, witness)


def _distinct(traces: tuple[StepTrace, ...], start: int = 0) -> Iterator[tuple[int, StepTrace]]:
    """(j, trace) from ``start`` on, once per run of one repeated trace object, at its first position.

    Every snapshot claim reads a trace alone, and the depth bound
    d0 + 2(j + 1) only loosens with j, so skipping repeats keeps the verdicts.
    """
    return ((j, traces[j]) for j in range(start, len(traces)) if j == start or traces[j] is not traces[j - 1])


def check_ruling(
    g: Graph,
    alive,
    q,
    r_bound: int,
    ids: IdAssignment | None = None,
) -> Report:
    """Every alive node must sit within r_bound hops of q inside G[alive]."""
    name = _Names(ids)
    alive_set = set(alive)
    dm = multi_source_bfs(g, alive_set, set(q))
    worst_v, worst_d = None, -1
    for v in alive_set:
        d = dm.dist[v]
        if d is None:
            return Report((CheckResult("ruling-radius", False, f"{name(v)} unreachable from terminals"),))
        if d > worst_d:
            worst_v, worst_d = v, d
    ok = worst_d <= r_bound
    witness = None if worst_v is None else f"farthest {name(worst_v)} at distance {worst_d}, bound {r_bound}"
    return Report((CheckResult("ruling-radius", ok, witness if not ok else None),))


def check_clustering(
    g: Graph,
    clustering: Clustering,
    b: int,
    ids: IdAssignment | None = None,
) -> Report:
    """Structural validity of a clustering: the full claim list, with witnesses.

    Coverage is counted against ``clustering.n``, the universe the clusters
    and the unclustered list must partition between them.  A node outside the
    graph ends the report after the range check: nothing else can be
    checked about it.
    """
    name = _Names(ids)
    in_range = _nodes_in_range(
        g,
        chain(
            (t for t, _ in clustering.clusters),
            (v for _, members in clustering.clusters for v in members),
            clustering.unclustered,
        ),
    )
    if not in_range.passed:
        return Report((in_range,))
    checks: list[CheckResult] = [in_range]
    diameter_bound = 8 * b**3

    covered = clustering.covered()
    need = ceil(clustering.n / 2)
    checks.append(
        CheckResult(
            "coverage-at-least-half",
            covered >= need,
            None if covered >= need else f"covered {covered} of {clustering.n}, need {need}",
        )
    )

    # Each node is listed once, in one cluster or as unclustered.
    place: dict[int, str] = {}
    partition_witness = None
    listings = chain(
        ((v, f"cluster {i}") for i, (_, members) in enumerate(clustering.clusters) for v in members),
        ((v, "unclustered") for v in clustering.unclustered),
    )
    for v, where in listings:
        if v in place:
            partition_witness = f"{name(v)} listed in {place[v]} and in {where}"
            break
        place[v] = where
    if partition_witness is None and len(place) != clustering.n:
        partition_witness = f"clusters and unclustered hold {len(place)} nodes, universe has {clustering.n}"
    checks.append(CheckResult("partition", partition_witness is None, partition_witness))

    # One BFS per cluster, from its least member (a centre the oracle picks,
    # not the artifact), answers both checks: None means disconnected (an
    # empty cluster has no centre), and ecc <= 4b^3 proves diam <= 2 ecc <=
    # 8b^3.  Only a cluster past that certificate gets its exact diameter,
    # which decides the check and is its witness.  Each check keeps its
    # first witness.
    conn_witness = None
    diam_witness = None
    for t, members in clustering.clusters:
        if conn_witness and diam_witness:
            break
        ecc = eccentricity(g, members, min(members)) if members else None
        if ecc is None:
            if conn_witness is None:
                parts = len(connected_components(g, members))
                conn_witness = f"cluster of terminal {name(t)} splits into {parts} components"
        elif 2 * ecc > diameter_bound and diam_witness is None:
            d = induced_diameter(g, members)
            if d > diameter_bound:
                diam_witness = f"cluster of terminal {name(t)} has diameter {d}, bound {diameter_bound}"
    checks.append(CheckResult("clusters-connected", conn_witness is None, conn_witness))
    checks.append(CheckResult("cluster-diameter", diam_witness is None, diam_witness))

    owner = {v: i for i, (_, members) in enumerate(clustering.clusters) for v in members}
    adj_witness = None
    for u, v in g.edges():
        cu, cv = owner.get(u), owner.get(v)
        if cu is not None and cv is not None and cu != cv:
            adj_witness = f"edge {name(u)} -- {name(v)} joins clusters {cu} and {cv}"
            break
    checks.append(CheckResult("clusters-non-adjacent", adj_witness is None, adj_witness))

    term_witness = None
    seen_terms: set[int] = set()
    for t, members in clustering.clusters:
        if t not in members:
            term_witness = f"terminal {name(t)} outside its own cluster"
            break
        if t in seen_terms:
            term_witness = f"terminal {name(t)} owns two clusters"
            break
        seen_terms.add(t)
    checks.append(CheckResult("one-terminal-per-cluster", term_witness is None, term_witness))
    return Report(tuple(checks))


def check_step_invariants(
    g: Graph,
    phase: PhaseResult,
    ids: IdAssignment | None = None,
) -> Report:
    """Step-level claims from the recorded traces of one phase.

    The depth, growth, proposer and frozen-tree claims read the post-step
    member snapshots of a debug run.  Without them (a non-debug or simulated
    phase) those entries pass unchecked and say so in their names.  Starting
    depths are the oracle's own BFS distances in G[alive_in] from
    ``terminals_in``, not depths the phase records.  The blame ledger reads
    the traces without snapshots, so it runs on every reference phase; a
    simulated phase records no traces, and its ledger entry says it was
    skipped.  The deletion budget counts the phase's
    ``deleted`` list, so it holds a simulated phase to the same bound.
    """
    name = _Names(ids)
    checks: list[CheckResult] = []
    b = phase.b
    have_snapshots = bool(phase.step_traces) and all(tr.snapshot is not None for tr in phase.step_traces)
    skipped = "" if have_snapshots else " (no snapshots, skipped)"

    depth_witness = None
    if have_snapshots:
        start = multi_source_bfs(g, phase.alive_in, phase.terminals_in).dist
        for j, tr in _distinct(phase.step_traces):
            for v, (is_red, depth, _) in tr.snapshot.items():
                d0 = start[v]
                if is_red:
                    if depth > d0 + 2 * (j + 1):
                        depth_witness = f"step {j}: red {name(v)} depth {depth} > {d0} + {2 * (j + 1)}"
                        break
                elif depth != d0:
                    depth_witness = f"step {j}: blue {name(v)} depth {depth} != starting {d0}"
                    break
            if depth_witness:
                break
    checks.append(CheckResult(f"step-depth-claims{skipped}", depth_witness is None, depth_witness))

    growth_witness = None
    if have_snapshots:
        for j, tr in _distinct(phase.step_traces):
            for r in tr.grows:
                before = tr.red_sizes[r]
                after = sum(1 for _, (_, _, root) in tr.snapshot.items() if root == r)
                if 2 * b * after < (2 * b + 1) * before:
                    growth_witness = f"step {j}: tree {name(r)} grew {before} -> {after}, below factor 1+1/{2 * b}"
                    break
            if growth_witness:
                break
    checks.append(CheckResult(f"accepted-tree-growth{skipped}", growth_witness is None, growth_witness))

    # After its step, each proposer has joined a red tree or been deleted.
    proposer_witness = None
    if have_snapshots:
        for j, tr in _distinct(phase.step_traces):
            for pr in tr.proposals:
                state = tr.snapshot.get(pr.proposer)
                if state is not None and not state[0]:
                    proposer_witness = f"step {j}: proposer {name(pr.proposer)} still blue"
                    break
            if proposer_witness:
                break
    checks.append(CheckResult(f"proposers-resolved{skipped}", proposer_witness is None, proposer_witness))

    blame_witness = None
    declines_seen: set[int] = set()
    for j, tr in enumerate(phase.step_traces):
        declined_weight: dict[int, int] = {}
        for pr in tr.proposals:
            if pr.target_root in tr.declines:
                declined_weight[pr.target_root] = declined_weight.get(pr.target_root, 0) + pr.weight
        step_deleted = sum(declined_weight.values())
        if step_deleted != len(tr.deleted):
            blame_witness = f"step {j}: {len(tr.deleted)} deletions but {step_deleted} blamed"
            break
        for r, w in declined_weight.items():
            if r in declines_seen:
                blame_witness = f"tree {name(r)} blamed in two steps"
                break
            declines_seen.add(r)
            if 2 * b * w >= tr.red_sizes[r]:
                blame_witness = f"step {j}: tree {name(r)} blamed by {w} >= size {tr.red_sizes[r]} / {2 * b}"
                break
        if blame_witness:
            break
    no_traces = "" if phase.step_traces else " (no traces, skipped)"
    checks.append(CheckResult(f"blame-ledger{no_traces}", blame_witness is None, blame_witness))

    deleted = len(phase.deleted)
    budget_ok = 2 * b * deleted <= len(phase.alive_in)
    checks.append(
        CheckResult(
            "phase-deletion-budget",
            budget_ok,
            None if budget_ok else f"deleted {deleted} of {len(phase.alive_in)} with b={b}",
        )
    )

    freeze_witness = None
    if have_snapshots:
        declined_at: dict[int, int] = {}
        for j, tr in enumerate(phase.step_traces):
            for r in tr.declines:
                declined_at[r] = j
        for r, j0 in declined_at.items():
            baseline = None
            for j, tr in _distinct(phase.step_traces, j0):
                tree = sorted((v, s[1]) for v, s in tr.snapshot.items() if s[2] == r)
                if baseline is None:
                    baseline = tree
                elif tree != baseline:
                    freeze_witness = f"tree {name(r)} changed at step {j} after declining at {j0}"
                    break
            if freeze_witness:
                break
            tr0 = phase.step_traces[j0]
            for v, s in tr0.snapshot.items():
                if s[2] != r:
                    continue
                for w in g.adj[v]:
                    ws = tr0.snapshot.get(w)
                    if ws is not None and not ws[0]:
                        freeze_witness = f"declined tree {name(r)} member {name(v)} touches blue {name(w)}"
                        break
                if freeze_witness:
                    break
            if freeze_witness:
                break
    checks.append(CheckResult(f"declined-tree-frozen{skipped}", freeze_witness is None, freeze_witness))

    return Report(tuple(checks))


def check_decomposition(
    g: Graph,
    d: Decomposition,
    b: int,
    ids: IdAssignment | None = None,
) -> Report:
    """Replay each color through ``check_clustering``, as one clustering of what earlier colors left.

    Color c's clusters are the components of its class, the rest of the
    remainder is unclustered, and coverage counts distinct nodes.  An empty
    class fails on its own: a clustering of nothing passes.
    """
    name = _Names(ids)
    checks: list[CheckResult] = []
    n = g.n

    # A color vector of the wrong length cannot be replayed on this graph.
    if len(d.color) != n:
        colored_witness = f"color vector has {len(d.color)} entries for {n} nodes"
    else:
        uncolored = next((v for v in range(n) if not 0 <= d.color[v] < d.colors_used), None)
        colored_witness = None if uncolored is None else f"{name(uncolored)} uncolored"
    checks.append(CheckResult("all-nodes-colored", colored_witness is None, colored_witness))

    bound = ceil(log2(n)) + 1 if n > 1 else 1
    checks.append(
        CheckResult(
            "color-count",
            d.colors_used <= bound,
            None if d.colors_used <= bound else f"{d.colors_used} colors, bound {bound}",
        )
    )

    replay_witness = None
    if colored_witness is None:
        remaining = set(range(n))
        for c in range(d.colors_used):
            color_class = {v for v in remaining if d.color[v] == c}
            if not color_class:
                replay_witness = f"color {c} clusters nothing"
                break
            clusters = tuple((comp[0], tuple(comp)) for comp in connected_components(g, color_class))
            unclustered = tuple(sorted(remaining - color_class))
            report = check_clustering(g, Clustering(len(remaining), b, clusters, unclustered), b, ids)
            failed = next((ch for ch in report.checks if not ch.passed), None)
            if failed is not None:
                replay_witness = f"color {c}: {failed.name}: {failed.witness}"
                break
            remaining -= color_class
    checks.append(CheckResult("per-color-clusterings", replay_witness is None, replay_witness))
    return Report(tuple(checks))


def check_mis(g: Graph, s, ids: IdAssignment | None = None) -> Report:
    """Range, independence and maximality of a node set, brute force."""
    name = _Names(ids)
    chosen = set(s)
    in_range = _nodes_in_range(g, chosen)
    indep_witness = None
    for u, v in g.edges():
        if u in chosen and v in chosen:
            indep_witness = f"edge {name(u)} -- {name(v)} inside the set"
            break
    max_witness = None
    for v in range(g.n):
        if v not in chosen and not any(w in chosen for w in g.adj[v]):
            max_witness = f"{name(v)} could still join"
            break
    return Report(
        (
            in_range,
            CheckResult("independent", indep_witness is None, indep_witness),
            CheckResult("maximal", max_witness is None, max_witness),
        )
    )
