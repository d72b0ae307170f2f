"""Centralized reference executor for one clustering phase.

A phase runs t = 2*b^2 propose/grow/delete steps over a rooted BFS forest.
Terminal trees are colored by one identifier bit of their root: bit value 0
is red, 1 is blue.  Red trees only grow; blue subtrees adjacent to red nodes
either join a red tree wholesale or are deleted.  All decisions within a step
read only the step's starting forest, so resolution order does not matter.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .forest import RootedForest, audit_depths, bfs_forest
from .graph import Graph, IdAssignment


class PhaseError(ValueError):
    """Phase precondition violation."""


def step_budget(b: int) -> int:
    """Number of steps per phase."""
    return 2 * b * b


@dataclass(frozen=True)
class Proposal:
    """One blue subtree offering to join a red tree.

    ``attach_at`` is the proposer's minimum-identifier red neighbor; the
    target tree is the one containing it.  ``weight`` is the proposer's
    subtree size at the start of the step.
    """

    proposer: int
    weight: int
    attach_at: int
    target_root: int


@dataclass(frozen=True)
class StepTrace:
    """Record of one step: who proposed, which trees grew, who was deleted.

    ``red_sizes`` holds the pre-step size of every red tree that received at
    least one proposal.  ``snapshot`` (debug runs only) maps each post-step
    member to (is_red, depth, root).
    """

    j: int
    proposals: tuple[Proposal, ...]
    grows: tuple[int, ...]
    declines: tuple[int, ...]
    deleted: tuple[int, ...]
    max_depth: int
    red_sizes: dict[int, int] = field(default_factory=dict)
    snapshot: dict[int, tuple[bool, int, int]] | None = None

    def log_line(self) -> str:
        props = ",".join(f"{p.proposer}:{p.weight}→{p.target_root}" for p in self.proposals)
        grow = ",".join(str(r) for r in self.grows)
        decline = ",".join(str(r) for r in self.declines)
        return (
            f"step {self.j}: proposals=[{props}] grow=[{grow}] "
            f"decline=[{decline}] deleted={len(self.deleted)} maxdepth={self.max_depth}"
        )


@dataclass(frozen=True)
class PhaseResult:
    """Outcome of one phase: survivors, surviving terminals, final forest.

    ``f0_depth`` keeps the starting BFS depth of every phase-input node
    (None for non-members); step-level depth claims are checked against it.
    """

    p: int
    b: int
    alive_in: tuple[int, ...]
    survivors: tuple[int, ...]
    terminals_out: tuple[int, ...]
    deleted: tuple[int, ...]
    final_forest: RootedForest
    step_traces: tuple[StepTrace, ...]
    f0_depth: tuple[int | None, ...]

    @classmethod
    def from_forest(
        cls,
        p: int,
        b: int,
        alive_in: tuple[int, ...],
        forest: RootedForest,
        step_traces: tuple[StepTrace, ...],
        f0_depth: tuple[int | None, ...],
    ) -> "PhaseResult":
        """Read survivors, deletions and surviving terminals off the final forest.

        ``alive_in`` is the sorted phase input; survivors and deletions keep
        its order.
        """
        member = forest.member
        return cls(
            p=p,
            b=b,
            alive_in=alive_in,
            survivors=tuple(v for v in alive_in if member[v]),
            terminals_out=tuple(forest.roots()),
            deleted=tuple(v for v in alive_in if not member[v]),
            final_forest=forest,
            step_traces=step_traces,
            f0_depth=f0_depth,
        )


def _proposals_from_candidates(
    g: Graph,
    ids: IdAssignment,
    f: RootedForest,
    red: list[bool],
    candidates: set[int],
) -> list[Proposal]:
    """Proposers are candidates with no candidate strict ancestor.

    Ancestors live in the same blue tree, so a red-adjacent ancestor is
    itself a candidate; the walk memoizes per-path results.
    """
    memo: dict[int, bool] = {}

    def weak_status(u: int) -> bool:
        # True iff u or some ancestor of u is a candidate.
        path = []
        cur: int | None = u
        while cur is not None and cur not in memo:
            path.append(cur)
            cur = f.parent[cur]
        val = memo[cur] if cur is not None else False
        for node in reversed(path):
            val = val or (node in candidates)
            memo[node] = val
        return memo[u]

    id_of = ids.ids.__getitem__
    out: list[Proposal] = []
    for v in sorted(candidates, key=id_of):
        par = f.parent[v]
        if par is not None and weak_status(par):
            continue
        attach = min((w for w in g.adj[v] if red[w]), key=id_of)
        weight = len(f.subtree(v))
        out.append(Proposal(proposer=v, weight=weight, attach_at=attach, target_root=f.root_of[attach]))
    return out


def grow_decisions(
    proposals: Iterable[Proposal],
    red_tree_sizes: Mapping[int, int],
    b: int,
) -> dict[int, bool]:
    """Per targeted red root: True (grow) iff 2b * sum(weights) >= tree size.

    Exact integer comparison; equality grows.  Roots receiving no proposals
    are absent from the result.
    """
    totals: dict[int, int] = {}
    for pr in proposals:
        if pr.target_root not in red_tree_sizes:
            raise PhaseError(f"no size for targeted root {pr.target_root}")
        totals[pr.target_root] = totals.get(pr.target_root, 0) + pr.weight
    return {r: 2 * b * w >= red_tree_sizes[r] for r, w in totals.items()}


class _DepthTally:
    """Multiset of member depths with cheap running max."""

    def __init__(self, depths: Iterable[int]):
        self.counts = Counter(depths)
        self.max = max(self.counts, default=0)

    def add(self, depths: Iterable[int]) -> None:
        counts = self.counts
        for d in depths:
            counts[d] += 1
            if d > self.max:
                self.max = d

    def remove(self, depths: Iterable[int]) -> None:
        counts = self.counts
        for d in depths:
            counts[d] -= 1
        while self.max and not counts[self.max]:
            self.max -= 1


def run_phase(
    g: Graph,
    alive: Iterable[int],
    q: Iterable[int],
    p: int,
    ids: IdAssignment,
    debug: bool = False,
) -> PhaseResult:
    """Run one full phase: BFS forest, then t = 2b^2 steps.

    Once the propose set is empty nothing can change in later steps (red
    adjacency only appears through recoloring, which only proposals cause),
    so the loop stops early and pads the remaining traces as empty.  Debug
    runs record a member snapshot in every trace and audit the incremental
    bookkeeping (depths, child lists, candidate set) against recomputation;
    ``verify.check_step_invariants`` checks the step claims on the snapshots.
    """
    alive_set = set(alive)
    q_set = set(q)
    if not q_set <= alive_set:
        raise PhaseError("terminals must be alive")
    if p >= ids.b:
        raise PhaseError(f"phase index {p} out of range for b={ids.b}")
    b = ids.b
    t = step_budget(b)
    alive_sorted = sorted(alive_set)

    f = bfs_forest(g, alive_sorted, q_set, ids)
    f0_depth = tuple(f.depth)
    if debug:
        audit_depths(f)

    # Setup touches only the alive nodes: every other node is a non-member.
    shift = b - 1 - p
    id_of, root_of, adj = ids.ids, f.root_of, g.adj
    red = [False] * g.n
    for v in alive_sorted:
        red[v] = not (id_of[root_of[v]] >> shift) & 1
    member = f.member
    candidates = {w for v in alive_sorted if red[v] for w in adj[v] if member[w] and not red[w]}

    tally = _DepthTally(f.depth[v] for v in alive_sorted)
    traces: list[StepTrace] = []

    def snapshot() -> dict[int, tuple[bool, int, int]]:
        return {
            v: (red[v], f.depth[v], f.root_of[v])
            for v in range(g.n)
            if f.member[v]
        }

    j = 0
    while j < t and candidates:
        proposals = _proposals_from_candidates(g, ids, f, red, candidates)
        assert proposals, "nonempty candidate set must yield a proposer"
        red_sizes = {pr.target_root: f.tree_size[pr.target_root] for pr in proposals}
        decisions = grow_decisions(proposals, red_sizes, b)

        deleted_step: list[int] = []
        recolored_step: list[int] = []
        for pr in proposals:
            if decisions[pr.target_root]:
                delta = f.depth[pr.attach_at] + 1 - f.depth[pr.proposer]
                moved = f.rehang(pr.proposer, pr.attach_at)
                if delta:
                    new_depths = [f.depth[u] for u in moved]
                    tally.remove(d - delta for d in new_depths)
                    tally.add(new_depths)
                recolored_step.extend(moved)
            else:
                doomed = f.subtree(pr.proposer)
                tally.remove(f.depth[u] for u in doomed)
                f.delete_subtree(pr.proposer)
                deleted_step.extend(doomed)

        for u in recolored_step:
            red[u] = True
            candidates.discard(u)
            for w in g.adj[u]:
                if f.member[w] and not red[w]:
                    candidates.add(w)
        for u in deleted_step:
            candidates.discard(u)

        trace = StepTrace(
            j=j,
            proposals=tuple(proposals),
            grows=tuple(sorted(r for r, ok in decisions.items() if ok)),
            declines=tuple(sorted(r for r, ok in decisions.items() if not ok)),
            deleted=tuple(sorted(deleted_step)),
            max_depth=tally.max,
            red_sizes=red_sizes,
            snapshot=snapshot() if debug else None,
        )
        traces.append(trace)

        if debug:
            audit_depths(f)
            assert candidates == {
                v for v in range(g.n)
                if f.member[v] and not red[v] and any(red[w] for w in g.adj[v])
            }, "candidate set drifted from recomputation"
        j += 1

    final_max = tally.max
    shared_snapshot = snapshot() if debug else None
    while len(traces) < t:
        traces.append(
            StepTrace(
                j=len(traces), proposals=(), grows=(), declines=(), deleted=(),
                max_depth=final_max, red_sizes={}, snapshot=shared_snapshot,
            )
        )

    result = PhaseResult.from_forest(p, b, tuple(alive_sorted), f, tuple(traces), f0_depth)
    assert set(result.terminals_out) <= q_set
    assert len(result.survivors) == f.member_count(), "forest gained a member outside the alive set"
    return result
