"""Independent verification of every guarantee the executors claim.

All checks are built from graph primitives (BFS, eccentricities, components,
exact induced diameters) and the recorded traces; they never call into the
phase engine or the simulator, so they stay meaningful as an oracle for
both.  Artifacts are checked against the graph: a node outside it fails a
range check.  Each claim is one function that returns its first witness, a
concrete counterexample, or None, and a check passes exactly when its claim
has none.  The first witness is the first failure in listing order (the
cluster list, ``g.edges()``, node or color order); the range claim names the
least stray node.  Witnesses name nodes by identifier when an assignment is
supplied, by index otherwise.
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
    """A named claim and its first witness; it passes exactly when it has none."""

    name: str
    witness: str | None = None

    @property
    def passed(self) -> bool:
        return self.witness is None


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


def _nodes_in_range(g: Graph, nodes: Iterable[int]) -> str | None:
    """The range claim: every listed node is a node of g; the witness is the least stray one."""
    stray = min((v for v in nodes if not 0 <= v < g.n), default=None)
    return None if stray is None else f"node {stray} outside 0..{g.n - 1}"


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

    def radius() -> str | None:
        alive_set = set(alive)
        dist = multi_source_bfs(g, alive_set, set(q)).dist
        far, far_d = None, -1
        for v in alive_set:
            if dist[v] is None:
                return f"{name(v)} unreachable from terminals"
            if dist[v] > far_d:
                far, far_d = v, dist[v]
        if far is None or far_d <= r_bound:
            return None
        return f"farthest {name(far)} at distance {far_d}, bound {r_bound}"

    return Report((CheckResult("ruling-radius", radius()),))


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
    clusters = clustering.clusters
    listed = chain(
        (t for t, _ in clusters),
        (v for _, members in clusters for v in members),
        clustering.unclustered,
    )
    in_range = CheckResult("nodes-in-range", _nodes_in_range(g, listed))
    if not in_range.passed:
        return Report((in_range,))

    def coverage() -> str | None:
        covered, need = clustering.covered(), ceil(clustering.n / 2)
        return None if covered >= need else f"covered {covered} of {clustering.n}, need {need}"

    def partition() -> str | None:
        # Each node is listed once, in one cluster or as unclustered.  A node
        # maps to the cluster index of its first listing, or to -1 for
        # unclustered; words are built only for the witness.
        def where(i: int) -> str:
            return "unclustered" if i < 0 else f"cluster {i}"

        place: dict[int, int] = {}
        listings = chain(
            ((v, i) for i, (_, members) in enumerate(clusters) for v in members),
            ((v, -1) for v in clustering.unclustered),
        )
        for v, i in listings:
            if v in place:
                return f"{name(v)} listed in {where(place[v])} and in {where(i)}"
            place[v] = i
        if len(place) != clustering.n:
            return f"clusters and unclustered hold {len(place)} nodes, universe has {clustering.n}"
        return None

    # One BFS per cluster, from its least member (a centre the oracle picks,
    # not the artifact), serves both the connected and the diameter claim:
    # None means disconnected (an empty cluster has no centre), and
    # ecc <= 4b^3 proves diam <= 2 ecc <= 8b^3.
    eccs = [eccentricity(g, members, min(members)) if members else None for _, members in clusters]

    def connected() -> str | None:
        for (t, members), ecc in zip(clusters, eccs):
            if ecc is None:
                parts = len(connected_components(g, members))
                return f"cluster of terminal {name(t)} splits into {parts} components"
        return None

    def diameter() -> str | None:
        # Only a cluster past the certificate gets its exact diameter, which
        # decides the claim and is its witness.
        diameter_bound = 8 * b**3
        for (t, members), ecc in zip(clusters, eccs):
            if ecc is not None and 2 * ecc > diameter_bound:
                d = induced_diameter(g, members)
                if d > diameter_bound:
                    return f"cluster of terminal {name(t)} has diameter {d}, bound {diameter_bound}"
        return None

    def non_adjacent() -> str | None:
        owner = {v: i for i, (_, members) in enumerate(clusters) for v in members}
        for u, v in g.edges():
            cu, cv = owner.get(u), owner.get(v)
            if cu is not None and cv is not None and cu != cv:
                return f"edge {name(u)} -- {name(v)} joins clusters {cu} and {cv}"
        return None

    def one_terminal() -> str | None:
        seen: set[int] = set()
        for t, members in clusters:
            if t not in members:
                return f"terminal {name(t)} outside its own cluster"
            if t in seen:
                return f"terminal {name(t)} owns two clusters"
            seen.add(t)
        return None

    return Report(
        (
            in_range,
            CheckResult("coverage-at-least-half", coverage()),
            CheckResult("partition", partition()),
            CheckResult("clusters-connected", connected()),
            CheckResult("cluster-diameter", diameter()),
            CheckResult("clusters-non-adjacent", non_adjacent()),
            CheckResult("one-terminal-per-cluster", one_terminal()),
        )
    )


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
    b = phase.b
    traces = phase.step_traces
    have_snapshots = bool(traces) and all(tr.snapshot is not None for tr in traces)
    skipped = "" if have_snapshots else " (no snapshots, skipped)"
    no_traces = "" if traces else " (no traces, skipped)"

    def depths() -> str | None:
        start = multi_source_bfs(g, phase.alive_in, phase.terminals_in).dist
        for j, tr in _distinct(traces):
            for v, (is_red, depth, _) in tr.snapshot.items():
                d0 = start[v]
                if is_red and depth > d0 + 2 * (j + 1):
                    return f"step {j}: red {name(v)} depth {depth} > {d0} + {2 * (j + 1)}"
                if not is_red and depth != d0:
                    return f"step {j}: blue {name(v)} depth {depth} != starting {d0}"
        return None

    def growth() -> str | None:
        for j, tr in _distinct(traces):
            for r in tr.grows:
                before = tr.red_sizes[r]
                after = sum(1 for _, (_, _, root) in tr.snapshot.items() if root == r)
                if 2 * b * after < (2 * b + 1) * before:
                    return f"step {j}: tree {name(r)} grew {before} -> {after}, below factor 1+1/{2 * b}"
        return None

    def proposers() -> str | None:
        # After its step, each proposer has joined a red tree or been deleted.
        for j, tr in _distinct(traces):
            for pr in tr.proposals:
                state = tr.snapshot.get(pr.proposer)
                if state is not None and not state[0]:
                    return f"step {j}: proposer {name(pr.proposer)} still blue"
        return None

    def ledger() -> str | None:
        declines_seen: set[int] = set()
        for j, tr in enumerate(traces):
            declined_weight: dict[int, int] = {}
            for pr in tr.proposals:
                if pr.target_root in tr.declines:
                    declined_weight[pr.target_root] = declined_weight.get(pr.target_root, 0) + pr.weight
            step_deleted = sum(declined_weight.values())
            if step_deleted != len(tr.deleted):
                return f"step {j}: {len(tr.deleted)} deletions but {step_deleted} blamed"
            for r, w in declined_weight.items():
                if r in declines_seen:
                    return f"tree {name(r)} blamed in two steps"
                declines_seen.add(r)
                if 2 * b * w >= tr.red_sizes[r]:
                    return f"step {j}: tree {name(r)} blamed by {w} >= size {tr.red_sizes[r]} / {2 * b}"
        return None

    def budget() -> str | None:
        deleted, alive = len(phase.deleted), len(phase.alive_in)
        return None if 2 * b * deleted <= alive else f"deleted {deleted} of {alive} with b={b}"

    def frozen() -> str | None:
        declined_at = {r: j for j, tr in enumerate(traces) for r in tr.declines}
        for r, j0 in declined_at.items():
            baseline = None
            for j, tr in _distinct(traces, j0):
                tree = sorted((v, s[1]) for v, s in tr.snapshot.items() if s[2] == r)
                if baseline is None:
                    baseline = tree
                elif tree != baseline:
                    return f"tree {name(r)} changed at step {j} after declining at {j0}"
            snapshot = traces[j0].snapshot
            for v, s in snapshot.items():
                if s[2] != r:
                    continue
                for w in g.adj[v]:
                    ws = snapshot.get(w)
                    if ws is not None and not ws[0]:
                        return f"declined tree {name(r)} member {name(v)} touches blue {name(w)}"
        return None

    return Report(
        (
            CheckResult(f"step-depth-claims{skipped}", depths() if have_snapshots else None),
            CheckResult(f"accepted-tree-growth{skipped}", growth() if have_snapshots else None),
            CheckResult(f"proposers-resolved{skipped}", proposers() if have_snapshots else None),
            CheckResult(f"blame-ledger{no_traces}", ledger()),
            CheckResult("phase-deletion-budget", budget()),
            CheckResult(f"declined-tree-frozen{skipped}", frozen() if have_snapshots else None),
        )
    )


def check_decomposition(
    g: Graph,
    d: Decomposition,
    b: int,
    ids: IdAssignment | None = None,
) -> Report:
    """Replay each color through ``check_clustering``, as one clustering of what earlier colors left.

    Color c's clusters are the components of its class, the rest of the
    remainder is unclustered, and coverage counts distinct nodes.  An empty
    class fails on its own: a clustering of nothing passes.  A decomposition
    with an uncolored node is not replayed.
    """
    name = _Names(ids)
    n = g.n

    def colored() -> str | None:
        # A color vector of the wrong length cannot be replayed on this graph.
        if len(d.color) != n:
            return f"color vector has {len(d.color)} entries for {n} nodes"
        return next((f"{name(v)} uncolored" for v in range(n) if not 0 <= d.color[v] < d.colors_used), None)

    def color_count() -> str | None:
        bound = ceil(log2(n)) + 1 if n > 1 else 1
        return None if d.colors_used <= bound else f"{d.colors_used} colors, bound {bound}"

    def replay() -> str | None:
        remaining = set(range(n))
        for c in range(d.colors_used):
            color_class = {v for v in remaining if d.color[v] == c}
            if not color_class:
                return f"color {c} clusters nothing"
            clusters = tuple((comp[0], tuple(comp)) for comp in connected_components(g, color_class))
            unclustered = tuple(sorted(remaining - color_class))
            report = check_clustering(g, Clustering(len(remaining), b, clusters, unclustered), b, ids)
            failed = next((ch for ch in report.checks if not ch.passed), None)
            if failed is not None:
                return f"color {c}: {failed.name}: {failed.witness}"
            remaining -= color_class
        return None

    all_colored = CheckResult("all-nodes-colored", colored())
    return Report(
        (
            all_colored,
            CheckResult("color-count", color_count()),
            CheckResult("per-color-clusterings", replay() if all_colored.passed else None),
        )
    )


def check_mis(g: Graph, s, ids: IdAssignment | None = None) -> Report:
    """Range, independence and maximality of a node set, brute force."""
    name = _Names(ids)
    chosen = set(s)

    def independent() -> str | None:
        for u, v in g.edges():
            if u in chosen and v in chosen:
                return f"edge {name(u)} -- {name(v)} inside the set"
        return None

    def maximal() -> str | None:
        for v in range(g.n):
            if v not in chosen and not any(w in chosen for w in g.adj[v]):
                return f"{name(v)} could still join"
        return None

    return Report(
        (
            CheckResult("nodes-in-range", _nodes_in_range(g, chosen)),
            CheckResult("independent", independent()),
            CheckResult("maximal", maximal()),
        )
    )
