"""Round-accurate synchronous message-passing executor of the clustering.

Every node runs a local program whose transition is a pure function of its
own state and the messages delivered to it; the simulator owns the port
wiring and the global round counter.  The protocol follows a fixed calendar
known to all nodes (it depends only on n and b): per phase, one BFS stage of
L_p rounds followed by t = 2*b^2 steps of eight stages

    A (1)  recolor announcements from the previous step
    B (L)  ancestor-flag downcast inside blue trees
    C (L)  subtree-size convergecast inside proposer scopes
    D (1)  proposals to the minimum-identifier red neighbor
    E (L)  proposal-weight (and, at step 0, tree-size) convergecast in red trees
    F (L)  grow/decline relay from red roots
    G (1)  accept/decline notification to proposers
    H (L)  outcome downcast through proposer subtrees

with L_p = 4*b^2*(p+1) + 1, one more than the largest depth any tree can
reach during phase p, so every wave provably completes inside its stage.

Nodes transmit only when they hold new information: announcements happen
once, relays forward once, convergecast reports fire on a depth-triggered
schedule where silence means zero.  Rounds with no traffic are still rounds;
the protocol always occupies exactly ``round_budget(n, b)`` of them.  The
simulator skips waking nodes that provably would do nothing (no delivery, no
due timer), which is what keeps large instances affordable; the lockstep
driver wakes everyone every round and must behave identically.  One method,
``Simulator._run_round``, is the whole round: it wakes the round's nodes in
index order, queues each wakeup's sends in the next round's inboxes and its
timer requests on the agenda, and counts the traffic.  One rule starts
every phase: the simulator puts the phase's terminals on the agenda at its
first round (at phase 0 these are the run's alive nodes, later the previous
phase's surviving roots); every other survivor first wakes in a phase at
its first BFS token, which reaches it because the root of its tree survives.

A message is at most 4b+16 bits, and a node sends at most one message per
port per round: a wakeup that puts two messages on one port, like an
oversized payload, raises ``ProtocolViolation``.

State layout: the ``Simulator`` holds node state in per-node lists (parent
port, depth, root id, child ports, neighbor data, the convergecast
accumulators, ...), and the node program reads each of them; the port
wiring ``rev_port`` is the simulator's own.  A node's per-port state (the
identifiers and the latest data heard on each port) is a list with one slot
per port, built once; its lists of ports (children, proposers, children
that sent weight) are cleared in place; ``rev_port`` and ``live_ports`` are
per-node tuples.  No node state is a dict or a set.  One wakeup of node v
is one call of ``Simulator._wake``, which reads and writes slot v of those
lists and nothing else besides its inbox.  Fields that belong to one step
or one phase carry an epoch stamp, the step's first round or the phase
index that wrote them, and read as empty once that epoch has passed; a
list among them is cleared in place when its stamp changes, so no step or
phase rebuilds node state.  A node's color is read off its root's phase
bit.  At each phase boundary the simulator reads each survivor's parent,
depth and root off the lists into a ``ForestLinks`` and yields the phase's
result from ``Simulator.phases``; between phases it keeps only the latest
survivors and terminals.  Every simulated run reads that stream from
``cluster._backend_phases``, the one place a run of either backend starts.

A message is a plain ``(tag, data)`` tuple, and a tag is its own name, the
string the event log records: BFS_TOKEN = "bfs" (BFS wave), COLOR
(recolor announcements), ANCESTOR_FLAG, SIZE_PARTIAL and WEIGHT_PARTIAL (the
two convergecast families), PROPOSE, DECISION, and the outcome family
OUTCOME / REHANG / DIE / LEAVE; ``TAGS`` lists them all.  A payload's width
depends only on its tag.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator

# clustering_from_survivors is not called here; perfbench/layers.py wraps this binding.
from .cluster import Clustering, _backend_phases, _clustering_after, clustering_from_survivors
from .forest import ForestLinks
from .graph import Graph, GraphError, IdAssignment
from .phase import PhaseResult, step_budget


class ProtocolViolation(RuntimeError):
    """A node broke the model contract (oversized message, two messages on a port, late event)."""


# Message tags are their names, the names the event log records.
BFS_TOKEN = "bfs"
COLOR = "color"
ANCESTOR_FLAG = "flag"
SIZE_PARTIAL = "size"
WEIGHT_PARTIAL = "weight"
PROPOSE = "propose"
DECISION = "decision"
OUTCOME = "outcome"
REHANG = "rehang"
DIE = "die"
LEAVE = "leave"
TAGS = (BFS_TOKEN, COLOR, ANCESTOR_FLAG, SIZE_PARTIAL, WEIGHT_PARTIAL, PROPOSE,
        DECISION, OUTCOME, REHANG, DIE, LEAVE)

# Messages without data are the same tuple every time.
_FLAG_MSG = (ANCESTOR_FLAG, ())
_LEAVE_MSG = (LEAVE, ())
_DIE_MSG = (DIE, ())


def depth_bits(b: int) -> int:
    """Bits reserved for a depth field: depths never exceed 4*b^3 + 1."""
    return (4 * b**3 + 1).bit_length()


def payload_bits(tag: str, b: int) -> int:
    """Encoded payload width of a message with this tag under the fixed field layout."""
    d = depth_bits(b)
    sizes = {
        BFS_TOKEN: b + d + 1,
        COLOR: b + d,
        ANCESTOR_FLAG: 1,
        SIZE_PARTIAL: b + 1,
        WEIGHT_PARTIAL: 2 * (b + 1),
        PROPOSE: b + 1,
        DECISION: 1,
        OUTCOME: 1,
        REHANG: b + d,
        DIE: 1,
        LEAVE: 1,
    }
    return sizes[tag]


def message_bit_budget(b: int) -> int:
    return 4 * b + 16


@dataclass(frozen=True)
class RoundStats:
    rounds: int
    messages_total: int
    max_message_bits: int


class Calendar:
    """Fixed global round calendar for b phases; shared knowledge of all nodes."""

    _STAGES = ("A", "B", "C", "D", "E", "F", "G", "H")

    def __init__(self, b: int):
        self.b = b
        self.t = step_budget(b)
        self.L = [4 * b * b * (p + 1) + 1 for p in range(b)]
        # Per phase: the offset of each stage inside a step block, then the
        # block length; stage i spans [starts[i], starts[i + 1]).
        self.stage_starts = [
            list(accumulate((1, L, L, 1, L, L, 1, L), initial=0)) for L in self.L
        ]
        self.block = [st[-1] for st in self.stage_starts]
        starts = list(accumulate((L + self.t * blk for L, blk in zip(self.L, self.block)), initial=0))
        self.phase_start = starts[:-1]
        self.total = starts[-1]

    def locate(self, r: int) -> tuple[int, str, int, int, int]:
        """(phase, stage, step, stage_first, stage_end) of round r.

        The stage spans rounds [stage_first, stage_end); step is -1 in the
        BFS stage.
        """
        if not 0 <= r < self.total:
            raise ProtocolViolation(f"round {r} outside budget {self.total}")
        p = bisect_right(self.phase_start, r) - 1
        first_step = self.phase_start[p] + self.L[p]
        if r < first_step:
            return p, "bfs", -1, self.phase_start[p], first_step
        step, o = divmod(r - first_step, self.block[p])
        starts = self.stage_starts[p]
        i = bisect_right(starts, o) - 1
        base = r - o
        return p, self._STAGES[i], step, base + starts[i], base + starts[i + 1]


def round_budget(n: int, b: int) -> int:
    """Exact protocol length in rounds for an n-node, b-bit instance."""
    if (1 << b) < n:
        raise GraphError(f"2^b < n: b={b}, n={n}")
    return Calendar(b).total


class Simulator:
    """Delivers messages, enforces the bit budget and one message per port per round, counts rounds.

    ``driver="event"`` wakes a node only when it has deliveries or a due
    timer; ``driver="lockstep"`` wakes every node every round.  Both must
    produce identical transcripts; the lockstep driver exists to validate
    the event scheduler on small instances.  One agenda decides who wakes:
    it maps each round to the woken nodes and each of those to its inbox,
    and a timer wake is one shared empty tuple, which the first delivery to
    that node replaces with an inbox list.  The agenda is also the schedule:
    the event driver runs its earliest round next.  Both drivers run each
    round through ``_run_round``; the lockstep driver hands it every node.
    """

    def __init__(
        self,
        g: Graph,
        ids: IdAssignment,
        alive: Iterable[int] | None = None,
        driver: str = "event",
        transcript: list[str] | None = None,
        record_events: bool = False,
    ):
        round_budget(g.n, ids.b)  # raises unless b bits can name n nodes
        if driver not in ("event", "lockstep"):
            raise ValueError(f"unknown driver {driver!r}")
        n, adj = g.n, g.adj
        # The run's alive nodes, sorted: phase 0's input and terminals.
        self.start = start = tuple(range(n)) if alive is None else tuple(sorted(set(alive)))
        if start and not 0 <= start[0] <= start[-1] < n:
            raise GraphError(f"alive node {start[0] if start[0] < 0 else start[-1]} out of range")
        self.g = g
        self.ids = ids
        self.cal = Calendar(ids.b)
        self.driver = driver
        self.transcript = transcript
        # The port of v at each neighbour w: v's place in w's sorted list.
        self.rev_port = [tuple([bisect_left(adj[w], v) for w in adj[v]]) for v in range(n)]
        # Round -> node -> inbox of (port, message) pairs: the nodes woken in
        # that round, a timer wake being the shared empty tuple until a
        # delivery gives the node an inbox list.
        self.agenda: dict[int, dict[int, list[tuple[int, tuple]] | tuple[()]]] = {}
        self.messages_total = 0
        self.max_bits = 0
        # b is fixed for the run and a width depends only on the tag, so each
        # tag's width is computed, and checked against the budget, once here.
        self.widths = {tag: payload_bits(tag, ids.b) for tag in TAGS}
        budget = message_bit_budget(ids.b)
        for tag, bits in self.widths.items():
            if bits > budget:
                raise ProtocolViolation(f"message {tag} of {bits} bits exceeds budget {budget}")
        self.events: list[tuple[int, int, int, str, tuple[int, ...]]] | None = (
            [] if record_events else None
        )
        self.stats: RoundStats | None = None  # set once the phase stream is exhausted

        # Node state, one slot per node.  Ports are indices into g.adj[v];
        # a per-port field is a list with one slot per port.
        self.my_id = ids.ids
        self.alive = [False] * n
        for v in start:
            self.alive[v] = True
        # Ports to neighbors in the run's alive set, the ones BFS tokens and
        # color announcements go to.  A residual run's nodes know them from
        # the previous clustering's final state; nodes outside never wake.
        alive = self.alive
        self.live_ports = [tuple([i for i, w in enumerate(a) if alive[w]]) for a in adj]
        self.phase_of = [-1] * n  # phase whose fields the node holds
        self.parent: list[int | None] = [None] * n  # parent port; None at a root
        self.depth: list[int | None] = [None] * n
        self.root: list[int | None] = [None] * n  # root identifier; red iff its phase bit is 0
        self.children: list[list[int]] = [[] for _ in range(n)]  # child ports, cleared each phase
        self.port_id: list[list[int | None]] = [[None] * len(a) for a in adj]  # learned in phase 0
        self.nbr: list[list[tuple | None]] = [[None] * len(a) for a in adj]  # per port: (root, depth, ...)
        # Min-identifier red neighbor port.  Only BFS tokens and COLOR
        # announcements change it, so in stage H it is still the port the
        # node proposed to in stage D.
        self.red_nbr: list[int | None] = [None] * n
        self.my_size = [0] * n  # red root: size of its tree
        # Step-stamped fields: valid only while the stamp equals the step's
        # first round.
        self.recolor = [-1] * n  # step in which to announce the new color
        self.flagged = [-1] * n
        self.size_at = [-1] * n
        self.size_acc = [0] * n  # subtree size below, stage C
        self.e_at = [-1] * n  # stamp of the stage-E fields below
        self.e_weight = [0] * n  # proposal plus child weights, stage E
        self.e_count = [0] * n  # child tree sizes, stage E of step 0
        self.e_ports: list[list[int]] = [[] for _ in range(n)]  # children that sent weight
        self.props: list[list[int]] = [[] for _ in range(n)]  # proposer ports
        self.decided = [-1] * n
        self.decision = [0] * n  # 1 grow, 0 decline
        self.p = self.stage_first = self.stage_end = -1

    # -- round context -------------------------------------------------------

    def _enter(self, r: int) -> None:
        """Set the round context the node program reads for round r."""
        if self.stage_first <= r < self.stage_end:
            return
        p, self.stage, self.step, self.stage_first, self.stage_end = self.cal.locate(r)
        if p != self.p:
            cal = self.cal
            st = cal.stage_starts[p]
            self.p = p
            self.shift = cal.b - 1 - p
            self.block = cal.block[p]
            self.first_step = cal.phase_start[p] + cal.L[p]
            # Offsets from a step's first round: rel 1 of stages B, D, F and
            # G, and the last rounds of C and E, from which the convergecast
            # rounds subtract the depth.
            self.to_b, self.to_d, self.to_f, self.to_g = st[1], st[3], st[5], st[6]
            self.to_c_fire = st[3] - 1
            self.to_e_fire = st[5] - 1
        # The step epoch; the BFS stage computes step-0 rounds from it.  The
        # next step's epoch is one shared int, the recolor stamp of a rehang.
        self.epoch = self.first_step + max(self.step, 0) * self.block
        self.next_epoch = self.epoch + self.block

    # -- node program --------------------------------------------------------

    def _wake(self, v: int, r: int, inbox, out: list, wakes: list) -> None:
        """Node v's transition at round r: ingest the inbox, then act.

        Reads and writes slot v of the state lists only.  Sends go to
        ``out`` as (port, message) pairs, timer requests to ``wakes``.
        """
        if not self.alive[v]:
            return
        p, stage, S, shift = self.p, self.stage, self.epoch, self.shift
        announce = False  # the node learns its BFS depth in this wakeup
        if self.phase_of[v] != p:
            self.phase_of[v] = p
            self.children[v].clear()
            self.red_nbr[v] = None
            if self.parent[v] is None:  # a root of the last phase is a terminal
                announce = True
                self.depth[v] = 0
                root = self.root[v] = self.my_id[v]
                if not (root >> shift) & 1:
                    # Red roots must run stage F of step 0 to learn their tree size.
                    wakes.append(S + self.to_f)
            else:
                self.parent[v] = self.depth[v] = self.root[v] = None

        first = None  # port of the minimum-identifier first BFS token
        outcome = None
        for port, m in inbox:
            tag, data = m
            if tag == BFS_TOKEN or tag == COLOR:
                root = data[0]
                pid = self.port_id[v]
                if tag == BFS_TOKEN:
                    if p == 0:
                        pid[port] = root
                    if data[2]:
                        self.children[v].append(port)
                    if self.depth[v] is None:
                        if first is None:
                            first, first_dist = port, data[1]
                        else:
                            assert data[1] == first_dist, "first BFS tokens must share one distance"
                            if pid[port] < pid[first]:
                                first = port
                self.nbr[v][port] = data
                if not (root >> shift) & 1:
                    best = self.red_nbr[v]
                    if best is None or pid[port] < pid[best]:
                        self.red_nbr[v] = port
            elif tag == WEIGHT_PARTIAL or tag == PROPOSE:
                w = data[0]
                if self.e_at[v] != S:
                    self.e_at[v] = S
                    self.e_weight[v] = self.e_count[v] = 0
                    self.e_ports[v].clear()
                    self.props[v].clear()
                self.e_weight[v] += w
                if tag == PROPOSE:
                    self.props[v].append(port)
                    wakes.append(S + self.to_g)
                else:
                    self.e_count[v] += data[1]
                    if w > 0:
                        self.e_ports[v].append(port)
                if self.parent[v] is not None:
                    fire = S + self.to_e_fire - self.depth[v]
                    if fire > r:
                        wakes.append(fire)
                elif w > 0:
                    wakes.append(S + self.to_f)
            elif tag == DECISION:
                self.decided[v] = S
                self.decision[v] = data[0]
                if self.e_at[v] == S:
                    for c in self.e_ports[v]:
                        out.append((c, m))
            elif tag == OUTCOME:
                # Sent at rel 1 of stage G, so it arrives at rel 1 of stage H.
                outcome = data[0]
            elif tag == ANCESTOR_FLAG:
                if self.flagged[v] != S:
                    self.flagged[v] = S
                    # Flags arrive after B's first round, at which a flagged
                    # candidate (red_nbr set) has already flagged its children.
                    if self.red_nbr[v] is None:
                        for c in self.children[v]:
                            out.append((c, m))
                    wakes.append(S + self.to_c_fire - self.depth[v])
            elif tag == SIZE_PARTIAL:
                if self.size_at[v] != S:
                    self.size_at[v] = S
                    self.size_acc[v] = 0
                self.size_acc[v] += data[0]
            elif tag == REHANG:
                self._rehang(v, data[0], data[1] + 1, out, wakes)
            elif tag == DIE:
                self.alive[v] = False
                for c in self.children[v]:
                    out.append((c, m))
                return
            elif tag == LEAVE:
                children = self.children[v]
                if port in children:
                    children.remove(port)

        if first is not None:
            announce = True
            d = self.depth[v] = first_dist + 1
            self.parent[v] = first
            root = self.root[v] = self.nbr[v][first][0]
            if not (root >> shift) & 1:
                wakes.append(S + self.to_e_fire - d)
        if stage == "bfs":
            # A blue node seeing red neighbors during the BFS stage is a
            # step-0 candidate; it must wake for that step's flag and
            # proposal rounds.  Both lie in the future and repeated requests
            # for one round merge, so it asks on every BFS-stage wakeup.
            root = self.root[v]
            if self.red_nbr[v] is not None and root is not None and (root >> shift) & 1:
                wakes.append(S + self.to_b)
                wakes.append(S + self.to_d)
            if announce:
                pp, root, d = self.parent[v], self.root[v], self.depth[v]
                token = (BFS_TOKEN, (root, d, 0))
                for port in self.live_ports[v]:
                    out.append((port, (BFS_TOKEN, (root, d, 1)) if port == pp else token))
            return

        # Every alive node has a root once the BFS stage is over.
        red = not (self.root[v] >> shift) & 1
        if stage == "E":
            if red and r == S + self.to_e_fire - self.depth[v] and self.parent[v] is not None:
                cur = self.e_at[v] == S
                w = self.e_weight[v] if cur else 0
                if self.step == 0:
                    count = 1 + (self.e_count[v] if cur else 0)
                    out.append((self.parent[v], (WEIGHT_PARTIAL, (w, count))))
                elif w > 0:
                    out.append((self.parent[v], (WEIGHT_PARTIAL, (w, 0))))
        elif stage == "F":
            if r == self.stage_first and red and self.parent[v] is None:
                cur = self.e_at[v] == S
                if self.step == 0:
                    self.my_size[v] = 1 + (self.e_count[v] if cur else 0)
                w = self.e_weight[v] if cur else 0
                if w > 0:
                    grow = 2 * self.cal.b * w >= self.my_size[v]
                    self.decided[v] = S
                    self.decision[v] = bit = 1 if grow else 0
                    if grow:
                        self.my_size[v] += w
                    msg = (DECISION, (bit,))
                    for c in self.e_ports[v]:
                        out.append((c, msg))
        elif stage == "A":
            if self.recolor[v] == S:
                msg = (COLOR, (self.root[v], self.depth[v]))
                for port in self.live_ports[v]:
                    out.append((port, msg))
        elif stage == "B":
            # Every candidate wakes at B's first round: at step 0 by its
            # BFS-stage timer, later by the COLOR delivery that made it one
            # (none carries over, as its topmost candidate ancestor's
            # subtree joins a red tree or dies).
            if r == self.stage_first and not red and self.red_nbr[v] is not None:
                for c in self.children[v]:
                    out.append((c, _FLAG_MSG))
                wakes.append(S + self.to_d)
        elif stage == "C":
            if not red and self.flagged[v] == S and r == S + self.to_c_fire - self.depth[v]:
                size = 1 + (self.size_acc[v] if self.size_at[v] == S else 0)
                out.append((self.parent[v], (SIZE_PARTIAL, (size,))))
        elif stage == "D":
            target = self.red_nbr[v]
            if not red and target is not None and self.flagged[v] != S:
                weight = 1 + (self.size_acc[v] if self.size_at[v] == S else 0)
                out.append((target, (PROPOSE, (weight,))))
        elif stage == "G":
            if r == self.stage_first and self.e_at[v] == S and self.props[v]:
                assert self.decided[v] == S, "receipt point missed the decision"
                msg = (OUTCOME, (self.decision[v],))
                for port in self.props[v]:
                    out.append((port, msg))
        elif stage == "H":
            if r == self.stage_first and outcome is not None:
                pp = self.parent[v]
                if pp is not None:
                    out.append((pp, _LEAVE_MSG))
                if outcome:
                    target = self.red_nbr[v]
                    data = self.nbr[v][target]
                    self.parent[v] = target
                    self._rehang(v, data[0], data[1] + 1, out, wakes)
                else:
                    self.alive[v] = False
                    for c in self.children[v]:
                        out.append((c, _DIE_MSG))

    def _rehang(self, v: int, root: int, d: int, out: list, wakes: list) -> None:
        """Node v joins tree ``root`` at depth d and passes the rehang to its children."""
        self.depth[v] = d
        self.root[v] = root
        msg = (REHANG, (root, d))
        for c in self.children[v]:
            out.append((c, msg))
        # Rehang waves always complete inside stage H; the guard keeps the
        # terminal computation from scheduling anything.
        if self.stage == "H" and self.step + 1 < self.cal.t:
            self.recolor[v] = self.next_epoch
            wakes.append(self.next_epoch)

    # -- the round loop ------------------------------------------------------

    def _run_round(self, r: int, everyone: range | None = None) -> None:
        """Run round r: wake its agenda entries in index order, or the nodes
        of ``everyone``, and queue each wakeup's sends for round r + 1 and
        its timer requests on the agenda.

        A node wakes at most once per round, so two sends on one port in
        one wakeup are two messages on one edge in one round: a violation.
        A wakeup's messages to one neighbour form one run at the end of its
        inbox, so the check is one look at the inbox's last entry.  Sends in
        the final round land at ``cal.total``, the terminal computation.
        """
        self._enter(r)
        agenda, total = self.agenda, self.cal.total
        inboxes = agenda.pop(r, {})
        adj, rev_port, widths, events = self.g.adj, self.rev_port, self.widths, self.events
        wake = self._wake
        out: list[tuple[int, tuple]] = []
        wakes: list[int] = []
        nxt = None  # round r + 1's inboxes, made at the first send: a quiet round adds none
        traffic = bits_max = 0
        for v in sorted(inboxes) if everyone is None else everyone:
            wake(v, r, inboxes.get(v, ()), out, wakes)
            if out:
                if nxt is None:
                    nxt = agenda.setdefault(r + 1, {})
                nbrs, rev = adj[v], rev_port[v]
                deg = len(nbrs)
                for port, m in out:
                    bits = widths[m[0]]
                    if bits > bits_max:
                        bits_max = bits
                    if not 0 <= port < deg:
                        raise ProtocolViolation(f"node {v} sent on missing port {port}")
                    recipient = nbrs[port]
                    entry = (rev[port], m)
                    inbox = nxt.get(recipient)
                    if not inbox:  # none yet, or a timer wake's empty tuple
                        nxt[recipient] = [entry]
                    elif inbox[-1][0] == entry[0]:
                        raise ProtocolViolation(f"node {v} sent two messages on port {port} in round {r}")
                    else:
                        inbox.append(entry)
                    if events is not None:
                        events.append((r, v, recipient, m[0], m[1]))
                traffic += len(out)
                out.clear()
            if wakes:
                for t in wakes:
                    if t <= r:
                        raise ProtocolViolation(f"node {v} scheduled a non-future wake {t} at round {r}")
                    if t >= total:
                        raise ProtocolViolation(f"node {v} scheduled wake {t} beyond budget {total}")
                    agenda.setdefault(t, {}).setdefault(v, ())
                wakes.clear()
        self.messages_total += traffic
        self.max_bits = max(self.max_bits, bits_max)
        if self.transcript is not None and traffic:
            self.transcript.append(f"round {r}: msgs={traffic} bits_max={bits_max}")

    def phases(self) -> Iterator[PhaseResult]:
        """Execute all phases, yielding each phase's result at its boundary.

        Each phase starts the same way: its terminals wake at its first
        round (at phase 0 every alive node is a terminal).  The event
        driver then runs the agenda's rounds below the phase's end, the
        lockstep driver every round of the phase.  Between phases only the
        latest survivors and terminals are kept, so a consumer that drops
        each result holds one at a time.  ``stats`` is set once the stream
        is exhausted.
        """
        cal, agenda = self.cal, self.agenda
        everyone = range(self.g.n) if self.driver == "lockstep" else None
        alive_in = terminals_in = self.start
        ends = cal.phase_start[1:] + [cal.total]
        for p, (first, end) in enumerate(zip(cal.phase_start, ends)):
            for v in terminals_in:
                agenda.setdefault(first, {}).setdefault(v, ())
            if everyone is None:
                while agenda and (r := min(agenda)) < end:
                    self._run_round(r)
            else:
                for r in range(first, end):
                    self._run_round(r, everyone)
            if end == cal.total:
                self._terminal_computation()
            res = self._extract_phase(p, alive_in, terminals_in)
            alive_in, terminals_in = res.survivors, res.terminals_out
            yield res
            # Not kept while the next phase runs, unless the consumer keeps it.
            del res
        self.stats = RoundStats(cal.total, self.messages_total, self.max_bits)

    def _terminal_computation(self) -> None:
        """Process the deliveries of the final round, which may send and schedule nothing."""
        cal = self.cal
        leftovers = self.agenda.pop(cal.total, {})
        if leftovers:
            self._enter(cal.total - 1)
            self.stage = "end"
            for v, inbox in sorted(leftovers.items()):
                out: list = []
                wakes: list = []
                self._wake(v, cal.total, inbox, out, wakes)
                if out or wakes:
                    raise ProtocolViolation(f"node {v} acted after the final round")
        if self.agenda:
            raise ProtocolViolation("messages scheduled beyond the budget")

    def _extract_phase(self, p: int, alive_in: tuple[int, ...], terminals_in: tuple[int, ...]) -> PhaseResult:
        """Read phase p's result off the state lists at its boundary.

        ``alive_in`` and ``terminals_in`` are the phase's inputs: the
        previous phase's survivors and surviving terminals.  A survivor's
        root identifier names one of the phase's roots, the survivors with
        no parent port.
        """
        n, adj = self.g.n, self.g.adj
        parent: list[int | None] = [None] * n
        depth: list[int | None] = [None] * n
        root_of: list[int | None] = [None] * n
        survivors = [v for v in alive_in if self.alive[v]]
        index_of_root = {self.my_id[v]: v for v in survivors if self.parent[v] is None}
        for v in survivors:
            depth[v] = self.depth[v]
            root_of[v] = index_of_root[self.root[v]]
            pp = self.parent[v]
            if pp is not None:
                parent[v] = adj[v][pp]
        forest = ForestLinks(parent, depth, root_of)
        return PhaseResult.from_forest(p, self.cal.b, alive_in, terminals_in, forest, ())


def run_protocol(
    g: Graph,
    ids: IdAssignment,
    alive: Iterable[int] | None = None,
    transcript: list[str] | None = None,
) -> tuple[Clustering, RoundStats, list[PhaseResult]]:
    """Run the full protocol and assemble the clustering from survivors.

    The clustering itself (components of the survivor set, one terminal
    each) is read off the final state; the round budget covers exactly the
    b phases.  Every phase's result is kept and returned.
    """
    start = set(range(g.n)) if alive is None else set(alive)
    stream, sim = _backend_phases(g, ids, start, "simulated", transcript=transcript)
    phases = list(stream)
    return _clustering_after(g, ids, start, phases), sim.stats, phases
