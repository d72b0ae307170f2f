"""Centralized reference executor for one clustering phase.

A phase runs t = 2*b^2 propose/grow/delete steps over a rooted BFS forest.
Terminal trees are colored by one identifier bit of their root: bit value 0
is red, 1 is blue.  Red trees only grow; blue subtrees adjacent to red nodes
propose to a red tree and join it wholesale if 2b times the weight proposed
to it is at least its size, or else are deleted.  All decisions within a
step read only the step's starting forest, so resolution order does not matter.

A step's proposers are the candidates (blue nodes next to a red node) with
no candidate strict ancestor.  Taken in starting-depth order, a candidate
either lies in a subtree already walked or is a proposer.  Once a step has
no proposals, no later step has any either, so the loop stops there.
``PhaseResult.step_traces`` is the tuple of all t traces, a trace's
position being its step index; the idle steps share one trace.

The phase set-up and the step loop are plain Python on per-node lists; only
the starting BFS forest (``forest.bfs_forest``) is built with numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import filterfalse
from typing import Iterable, NamedTuple

from .forest import ForestLinks, audit_bfs, audit_depths, bfs_forest
from .graph import Graph, IdAssignment


class PhaseError(ValueError):
    """Phase precondition violation."""


def step_budget(b: int) -> int:
    """Number of steps per phase."""
    return 2 * b * b


class Proposal(NamedTuple):
    """One blue subtree offering to join a red tree.

    ``attach_at`` is the proposer's minimum-identifier red neighbor; the
    target tree is the one containing it.  ``weight`` is the proposer's
    subtree size at the start of the step.  A named tuple: the step loop
    makes one per proposer, and a tuple is the cheapest immutable record.
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

    proposals: tuple[Proposal, ...]
    grows: tuple[int, ...]
    declines: tuple[int, ...]
    deleted: tuple[int, ...]
    max_depth: int
    red_sizes: dict[int, int] = field(default_factory=dict)
    snapshot: dict[int, tuple[bool, int, int]] | None = None

    def log_line(self, j: int) -> str:
        props = ",".join(f"{p.proposer}:{p.weight}→{p.target_root}" for p in self.proposals)
        grow = ",".join(str(r) for r in self.grows)
        decline = ",".join(str(r) for r in self.declines)
        return (
            f"step {j}: proposals=[{props}] grow=[{grow}] "
            f"decline=[{decline}] deleted={len(self.deleted)} maxdepth={self.max_depth}"
        )


@dataclass(frozen=True)
class PhaseResult:
    """Outcome of one phase: survivors, surviving terminals, final forest.

    ``alive_in`` and ``terminals_in`` are the sorted phase inputs.  An
    input that is the previous phase's ``survivors`` or ``terminals_out``
    is that tuple itself, and at phase 0 ``terminals_in`` is ``alive_in``,
    so a run's phases share their node tuples.  The starting BFS forest,
    which the graph and these inputs fix, is not kept.
    ``step_traces`` holds t traces, trace j at position j; after the last
    active step they are all one idle trace.  The simulated backend records
    no step traces: its ``step_traces`` is ().
    """

    p: int
    b: int
    alive_in: tuple[int, ...]
    terminals_in: tuple[int, ...]
    survivors: tuple[int, ...]
    terminals_out: tuple[int, ...]
    deleted: tuple[int, ...]
    final_forest: ForestLinks
    step_traces: tuple[StepTrace, ...]

    @classmethod
    def from_forest(
        cls,
        p: int,
        b: int,
        alive_in: tuple[int, ...],
        terminals_in: tuple[int, ...],
        forest: ForestLinks,
        step_traces: tuple[StepTrace, ...],
    ) -> "PhaseResult":
        """Read survivors, deletions and surviving terminals off the final forest.

        ``alive_in`` is the sorted phase input; survivors (the nodes that keep
        a depth), deletions and the surviving terminals keep its order.
        """
        depth = forest.depth
        survivors = tuple(v for v in alive_in if depth[v] is not None)
        return cls(
            p=p,
            b=b,
            alive_in=alive_in,
            terminals_in=terminals_in,
            survivors=survivors,
            # The roots are the survivors at depth 0.
            terminals_out=tuple(filterfalse(depth.__getitem__, survivors)),
            deleted=tuple(v for v in alive_in if depth[v] is None),
            final_forest=forest,
            step_traces=step_traces,
        )


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
    so the loop stops early and the remaining steps share one idle trace.
    The set-up (colors, child lists, red tree sizes, blue nodes by depth)
    is one Python pass over the alive nodes, and the candidates are read off
    the red nodes' neighbour lists.  The step loop is plain Python on lists:
    one sweep over the candidates by starting depth finds the proposers and
    walks each one's subtree, the grow rule sums weights per targeted root,
    and each moved or deleted node is visited once.  Debug runs audit the
    starting forest against ``multi_source_bfs``, record a member snapshot
    in every trace and audit the incremental bookkeeping (depths, roots,
    candidate set) against recomputation; ``verify.check_step_invariants``
    checks the step claims on the snapshots.
    """
    alive_set = set(alive)
    q_set = set(q)
    if not q_set <= alive_set:
        raise PhaseError("terminals must be alive")
    if p >= ids.b:
        raise PhaseError(f"phase index {p} out of range for b={ids.b}")
    b = ids.b
    t = step_budget(b)
    alive_in = tuple(sorted(alive_set))
    if alive_in == alive:
        # The previous phase's survivors are already the sorted input: keep
        # that tuple rather than a copy, so the phases share one.
        alive_in = alive
    # At phase 0 every alive node is a terminal; later q is a terminals_out.
    terminals_in = alive_in if len(q_set) == len(alive_in) else tuple(sorted(q_set))
    if terminals_in == q:
        terminals_in = q

    f = bfs_forest(g, alive_in, q_set, ids)
    if debug:
        audit_bfs(g, f, alive_in, q_set, ids)
        audit_depths(f)

    # The step loop edits f's three lists in place and keeps no other forest
    # state, which rests on three facts of the process:
    # - A red node's depth and root are final for the phase: only blue
    #   subtrees move or leave.
    # - A blue node keeps its starting depth and parent until it leaves, by
    #   turning red or by deletion, since blue trees lose only whole
    #   subtrees.  So the blue child lists built here, over blue members
    #   only, stay valid for the subtree walk, which skips the children that
    #   have turned red or left the forest.  And a candidate's ancestors stay
    #   shallower than it, so the proposer search takes the candidates in
    #   starting-depth order and needs no walk up the parent links.
    # - A rehang never makes a node shallower: delta = depth[attach_at] + 1
    #   - depth[proposer] >= 0, because attach_at, a red neighbour of the
    #   blue proposer in a BFS forest of G[alive], started at most one level
    #   above it, and red depths never fall below their starting depth.
    # The deepest member is thus either red, found by a running max over
    # red depths, or blue at its starting depth, found in a list of the
    # blue nodes sorted once by starting depth.
    #
    # Set-up, one pass over the alive nodes: a tree is blue when its root's
    # identifier bit is 1, and an alive node takes its root's color, flagged
    # in ``red`` or ``blue`` while it is a member.  Only red roots' tree
    # sizes are kept; every target is a red root, so the lookup cannot miss.
    # The candidates are the blue neighbours of red nodes.
    shift = b - 1 - p
    id_of = ids.ids
    blue_roots = {r for r in q_set if id_of[r] >> shift & 1}
    parent, depth, root_of, adj = f.parent, f.depth, f.root_of, g.adj
    red = [False] * g.n
    blue = [False] * g.n
    red_size: dict[int, int] = {}
    red_max = 0
    children: dict[int, list[int]] = {}
    for v in alive_in:
        r = root_of[v]
        if r in blue_roots:
            blue[v] = True
            u = parent[v]
            if u is not None:
                kids = children.get(u)
                if kids is None:
                    children[u] = [v]
                else:
                    kids.append(v)
        else:
            red[v] = True
            red_size[r] = red_size.get(r, 0) + 1
            if depth[v] > red_max:
                red_max = depth[v]
    candidates = {w for v in alive_in if red[v] for w in adj[v] if blue[w]}
    # Popped from the end as they leave, so the last one is the deepest blue member.
    blue_by_depth = sorted(filter(blue.__getitem__, alive_in), key=depth.__getitem__)
    max_depth = max(red_max, depth[blue_by_depth[-1]] if blue_by_depth else 0)
    traces: list[StepTrace] = []

    def snapshot() -> dict[int, tuple[bool, int, int]]:
        return {v: (red[v], depth[v], root_of[v]) for v in alive_in if depth[v] is not None}

    add = candidates.add
    while len(traces) < t and candidates:
        # A candidate proposes unless a strict ancestor is a candidate.  Its
        # ancestors are shallower, so in starting-depth order they come
        # first, and a candidate below one lies in a subtree already walked.
        # A proposer attaches at its minimum-identifier red neighbour and
        # weighs its subtree, collected once on the blue child lists; the
        # rehang or deletion below takes the same list.
        walked: set[int] = set()
        found: list[tuple[Proposal, list[int]]] = []
        for v in sorted(candidates, key=depth.__getitem__):
            if v in walked:
                continue
            attach = -1
            for w in adj[v]:
                if red[w] and (attach < 0 or id_of[w] < id_of[attach]):
                    attach = w
            sub = [v]
            # The loop also visits the nodes it appends.
            for u in sub:
                kids = children.get(u)
                if kids:
                    for w in kids:
                        if blue[w]:
                            sub.append(w)
            walked.update(sub)
            found.append((Proposal(v, len(sub), attach, root_of[attach]), sub))
        # The trace lists the proposals by proposer identifier.
        found.sort(key=lambda pair: id_of[pair[0].proposer])
        # A targeted red tree grows iff 2b * (weight proposed to it) >= its size.
        weights: dict[int, int] = {}
        for pr, _ in found:
            weights[pr.target_root] = weights.get(pr.target_root, 0) + pr.weight
        red_sizes = {r: red_size[r] for r in weights}
        grows = {r for r, w in weights.items() if 2 * b * w >= red_sizes[r]}

        # One pass per moved node sets its depth, root and color and adds
        # its blue member neighbours to the candidates; one pass per deleted
        # node clears it.  A node added here that turns red or is deleted
        # later in the step leaves the candidates after the loop.
        deleted_step: list[int] = []
        recolored_step: list[int] = []
        for pr, sub in found:
            target = pr.target_root
            if target in grows:
                delta = depth[pr.attach_at] + 1 - depth[pr.proposer]
                parent[pr.proposer] = pr.attach_at
                red_size[target] += len(sub)
                for u in sub:
                    d = depth[u] + delta
                    depth[u] = d
                    root_of[u] = target
                    red[u] = True
                    blue[u] = False
                    if d > red_max:
                        red_max = d
                    for w in adj[u]:
                        if blue[w]:
                            add(w)
                recolored_step.extend(sub)
            else:
                for u in sub:
                    blue[u] = False
                    parent[u] = depth[u] = root_of[u] = None
                deleted_step.extend(sub)
        candidates.difference_update(recolored_step, deleted_step)
        while blue_by_depth and not blue[blue_by_depth[-1]]:
            blue_by_depth.pop()
        max_depth = max(red_max, depth[blue_by_depth[-1]] if blue_by_depth else 0)

        traces.append(StepTrace(
            proposals=tuple(pr for pr, _ in found),
            grows=tuple(sorted(grows)),
            declines=tuple(sorted(weights.keys() - grows)),
            deleted=tuple(sorted(deleted_step)),
            max_depth=max_depth,
            red_sizes=red_sizes,
            snapshot=snapshot() if debug else None,
        ))

        if debug:
            audit_depths(f)
            assert candidates == {
                v for v in alive_in
                if blue[v] and any(red[w] for w in adj[v])
            }, "candidate set drifted from recomputation"

    # Every later step is idle and sees the final forest, so one trace serves them all.
    idle = StepTrace(
        proposals=(), grows=(), declines=(), deleted=(),
        max_depth=max_depth, red_sizes={}, snapshot=snapshot() if debug else None,
    )
    step_traces = tuple(traces) + (idle,) * (t - len(traces))
    result = PhaseResult.from_forest(p, b, alive_in, terminals_in, f, step_traces)
    assert set(result.terminals_out) <= q_set
    return result
