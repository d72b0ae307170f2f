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
driver wakes everyone every round and must behave identically.

Tag vocabulary: BFS_TOKEN (BFS wave), COLOR (recolor announcements),
ANCESTOR_FLAG, SIZE_PARTIAL and WEIGHT_PARTIAL (the two convergecast
families), PROPOSE, DECISION, and the outcome family OUTCOME / REHANG /
DIE / LEAVE.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Iterable

from .cluster import Clustering, clustering_from_survivors
from .forest import RootedForest
from .graph import Graph, GraphError, IdAssignment
from .phase import PhaseResult, step_budget


class ProtocolViolation(RuntimeError):
    """A node broke the model contract (oversized message, late event)."""


class MsgTag(Enum):
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

    # Members are singletons compared by identity, so the identity hash is
    # consistent; Enum's own __hash__ hashes the name in Python code, which
    # is too slow for the per-message width lookup.
    __hash__ = object.__hash__


# EnumType defines __getattr__, so every ``MsgTag.X`` lookup takes CPython's
# slow attribute path; the node program, which compares and builds tags per
# message, uses these aliases instead.
_BFS_TOKEN = MsgTag.BFS_TOKEN
_COLOR = MsgTag.COLOR
_ANCESTOR_FLAG = MsgTag.ANCESTOR_FLAG
_SIZE_PARTIAL = MsgTag.SIZE_PARTIAL
_WEIGHT_PARTIAL = MsgTag.WEIGHT_PARTIAL
_PROPOSE = MsgTag.PROPOSE
_DECISION = MsgTag.DECISION
_OUTCOME = MsgTag.OUTCOME
_REHANG = MsgTag.REHANG
_DIE = MsgTag.DIE
_LEAVE = MsgTag.LEAVE


@dataclass(frozen=True, slots=True)
class Message:
    tag: MsgTag
    data: tuple[int, ...] = ()


def depth_bits(b: int) -> int:
    """Bits reserved for a depth field: depths never exceed 4*b^3 + 1."""
    return (4 * b**3 + 1).bit_length()


def payload_bits(m: Message, b: int) -> int:
    """Encoded payload width of a message under the fixed field layout."""
    d = depth_bits(b)
    sizes = {
        MsgTag.BFS_TOKEN: b + d + 1,
        MsgTag.COLOR: b + d,
        MsgTag.ANCESTOR_FLAG: 1,
        MsgTag.SIZE_PARTIAL: b + 1,
        MsgTag.WEIGHT_PARTIAL: 2 * (b + 1),
        MsgTag.PROPOSE: b + 1,
        MsgTag.DECISION: 1,
        MsgTag.OUTCOME: 1,
        MsgTag.REHANG: b + d,
        MsgTag.DIE: 1,
        MsgTag.LEAVE: 1,
    }
    return sizes[m.tag]


def message_bit_budget(b: int) -> int:
    return 4 * b + 16


@dataclass(frozen=True)
class RoundStats:
    rounds: int
    messages_total: int
    max_message_bits: int


@dataclass(frozen=True)
class RoundCtx:
    round: int
    phase: int
    stage: str
    step: int
    rel: int


class Calendar:
    """Fixed global round calendar for b phases; shared knowledge of all nodes."""

    _STAGES = ("A", "B", "C", "D", "E", "F", "G", "H")
    _STAGE_INDEX = {name: i for i, name in enumerate(_STAGES)}

    def __init__(self, b: int):
        self.b = b
        self.t = step_budget(b)
        self.L = [4 * b * b * (p + 1) + 1 for p in range(b)]
        self.block = [3 + 5 * L for L in self.L]
        self.phase_len = [L + self.t * blk for L, blk in zip(self.L, self.block)]
        starts = [0]
        for ln in self.phase_len:
            starts.append(starts[-1] + ln)
        self.phase_start = starts[:-1]
        self.total = starts[-1]
        # Per phase: the offset of each stage inside a step block, then the
        # block length; stage i spans [starts[i], starts[i + 1]).
        self._stage_starts = [
            list(accumulate((1, L, L, 1, L, L, 1, L), initial=0)) for L in self.L
        ]

    def locate(self, r: int) -> RoundCtx:
        if not 0 <= r < self.total:
            raise ProtocolViolation(f"round {r} outside budget {self.total}")
        p = bisect_right(self.phase_start, r) - 1
        rp = r - self.phase_start[p]
        L = self.L[p]
        if rp < L:
            return RoundCtx(round=r, phase=p, stage="bfs", step=-1, rel=rp + 1)
        step, o = divmod(rp - L, self.block[p])
        starts = self._stage_starts[p]
        i = bisect_right(starts, o) - 1
        return RoundCtx(round=r, phase=p, stage=self._STAGES[i], step=step, rel=o - starts[i] + 1)

    def abs_round(self, p: int, stage: str, step: int, rel: int) -> int:
        base = self.phase_start[p]
        if stage == "bfs":
            return base + rel - 1
        i = self._STAGE_INDEX.get(stage)
        if i is None:
            raise ProtocolViolation(f"unknown stage {stage}")
        starts = self._stage_starts[p]
        if not 1 <= rel <= starts[i + 1] - starts[i]:
            raise ProtocolViolation(f"relative round {rel} outside stage {stage}")
        return base + self.L[p] + step * self.block[p] + starts[i] + rel - 1


def round_budget(n: int, b: int) -> int:
    """Exact protocol length in rounds for an n-node, b-bit instance."""
    if (1 << b) < n:
        raise GraphError(f"2^b < n: b={b}, n={n}")
    return Calendar(b).total


class _Node:
    """Local program of one node; sees only its own state and its inbox."""

    def __init__(self, my_id: int, degree: int, ids_b: int, cal: Calendar, alive: bool):
        self.my_id = my_id
        self.deg = degree
        self.b = ids_b
        self.cal = cal
        self.alive = alive
        self.port_id: dict[int, int] = {}
        self.phase_key = -1
        self.step_key = (-1, -1)
        self.prev_view: dict | None = None
        self._phase_fields_clear()

    # -- state layout --------------------------------------------------------

    def _phase_fields_clear(self) -> None:
        self.is_terminal = False
        self.parent_port: int | None = None
        self.depth: int | None = None
        self.bfs_depth0: int | None = None
        self.root_id: int | None = None
        self.children: set[int] = set()
        self.announced = False
        self.nbr_root: dict[int, int] = {}
        self.nbr_depth: dict[int, int] = {}
        self.red_ports: set[int] = set()
        self.my_size: int | None = None
        self.recolor_due: tuple[int, int] | None = None
        self.candidate_scheduled = False
        self._step_fields_clear()

    def _step_fields_clear(self) -> None:
        self.flagged = False
        self.flag_sent = False
        self.c_fired = False
        self.acc_size = 0
        self.pending_props: list[tuple[int, int]] = []
        self.wsum_children = 0
        self.count_children = 0
        self.e_contrib_ports: list[int] = []
        self.e_fired = False
        self.decision: bool | None = None
        self.outcome: bool | None = None
        self.proposed_port: int | None = None

    def _bit(self, id_value: int, p: int) -> int:
        return (id_value >> (self.b - 1 - p)) & 1

    def _is_red_self(self, p: int) -> bool:
        return self.root_id is not None and self._bit(self.root_id, p) == 0

    def view(self) -> dict:
        return {
            "alive": self.alive,
            "parent_port": self.parent_port,
            "depth": self.depth,
            "bfs_depth0": self.bfs_depth0,
            "root_id": self.root_id,
        }

    def _phase_reset(self, ctx: RoundCtx, wakes: list[int]) -> None:
        self.prev_view = self.view()
        self.phase_key = ctx.phase
        self.step_key = (ctx.phase, -2)
        was_root = self.parent_port is None
        self._phase_fields_clear()
        self.is_terminal = was_root
        if self.is_terminal:
            self.depth = 0
            self.bfs_depth0 = 0
            self.root_id = self.my_id
        p = ctx.phase
        if p + 1 < self.cal.b:
            wakes.append(self.cal.phase_start[p + 1])
        if self.is_terminal and self._bit(self.my_id, p) == 0:
            # Red roots must run stage F of step 0 to learn their tree size.
            wakes.append(self.cal.abs_round(p, "F", 0, 1))

    def _step_reset(self, ctx: RoundCtx) -> None:
        self.step_key = (ctx.phase, ctx.step)
        self._step_fields_clear()

    # -- transition ----------------------------------------------------------

    def on_round(self, ctx: RoundCtx, inbox: list[tuple[int, Message]]):
        out: list[tuple[int, Message]] = []
        wakes: list[int] = []
        if not self.alive:
            return out, wakes
        if ctx.phase != self.phase_key:
            self._phase_reset(ctx, wakes)
        if ctx.stage != "bfs" and (ctx.phase, ctx.step) != self.step_key:
            self._step_reset(ctx)
        self._ingest(ctx, inbox, out, wakes)
        if self.alive:
            self._act(ctx, out, wakes)
        return out, wakes

    def _ingest(self, ctx, inbox, out, wakes) -> None:
        first_tokens: list[tuple[int, int]] = []
        for port, m in inbox:
            if m.tag is _BFS_TOKEN:
                root, dist, pflag = m.data
                if ctx.phase == 0:
                    self.port_id[port] = root
                self.nbr_root[port] = root
                self.nbr_depth[port] = dist
                if self._bit(root, ctx.phase) == 0:
                    self.red_ports.add(port)
                if pflag:
                    self.children.add(port)
                if self.depth is None:
                    first_tokens.append((port, dist))
            elif m.tag is _COLOR:
                root, depth = m.data
                self.nbr_root[port] = root
                self.nbr_depth[port] = depth
                if self._bit(root, ctx.phase) == 0:
                    self.red_ports.add(port)
            elif m.tag is _ANCESTOR_FLAG:
                if not self.flagged:
                    self.flagged = True
                    if not self.flag_sent and self.children:
                        for c in self.children:
                            out.append((c, Message(_ANCESTOR_FLAG)))
                        self.flag_sent = True
                    fire = self.cal.abs_round(
                        ctx.phase, "C", ctx.step, self.cal.L[ctx.phase] - self.depth
                    )
                    wakes.append(fire)
            elif m.tag is _SIZE_PARTIAL:
                self.acc_size += m.data[0]
            elif m.tag is _PROPOSE:
                self.pending_props.append((port, m.data[0]))
                if self.parent_port is not None:
                    fire = self.cal.abs_round(
                        ctx.phase, "E", ctx.step, self.cal.L[ctx.phase] - self.depth
                    )
                    if fire > ctx.round:
                        wakes.append(fire)
                else:
                    wakes.append(self.cal.abs_round(ctx.phase, "F", ctx.step, 1))
                wakes.append(self.cal.abs_round(ctx.phase, "G", ctx.step, 1))
            elif m.tag is _WEIGHT_PARTIAL:
                wsum, count = m.data
                self.wsum_children += wsum
                self.count_children += count
                if wsum > 0:
                    self.e_contrib_ports.append(port)
                if self.parent_port is not None:
                    fire = self.cal.abs_round(
                        ctx.phase, "E", ctx.step, self.cal.L[ctx.phase] - self.depth
                    )
                    if fire > ctx.round:
                        wakes.append(fire)
                elif wsum > 0:
                    wakes.append(self.cal.abs_round(ctx.phase, "F", ctx.step, 1))
            elif m.tag is _DECISION:
                self.decision = bool(m.data[0])
                for c in self.e_contrib_ports:
                    out.append((c, Message(_DECISION, m.data)))
            elif m.tag is _OUTCOME:
                self.outcome = bool(m.data[0])
            elif m.tag is _REHANG:
                root, sender_depth = m.data
                self.root_id = root
                self.depth = sender_depth + 1
                for c in self.children:
                    out.append((c, Message(_REHANG, (root, self.depth))))
                # Rehang waves always complete inside stage H; the guard keeps
                # the terminal-computation path from scheduling anything.
                if ctx.stage == "H" and ctx.step + 1 < self.cal.t:
                    self.recolor_due = (ctx.phase, ctx.step + 1)
                    wakes.append(self.cal.abs_round(ctx.phase, "A", ctx.step + 1, 1))
            elif m.tag is _DIE:
                self.alive = False
                for c in self.children:
                    out.append((c, Message(_DIE)))
                return
            elif m.tag is _LEAVE:
                self.children.discard(port)
        if first_tokens and self.depth is None:
            dists = {d for _, d in first_tokens}
            assert len(dists) == 1, "first BFS tokens must share one distance"
            self.depth = dists.pop() + 1
            self.bfs_depth0 = self.depth
            parent = min((port for port, _ in first_tokens), key=lambda q: self.port_id[q])
            self.parent_port = parent
            self.root_id = self.nbr_root[parent]
            if self._is_red_self(ctx.phase):
                fire_rel = self.cal.L[ctx.phase] - self.depth
                wakes.append(self.cal.abs_round(ctx.phase, "E", 0, fire_rel))
        # A blue node seeing red neighbors during the BFS stage is a step-0
        # candidate; it must wake for that step's flag and proposal rounds.
        if (
            ctx.stage == "bfs"
            and not self.candidate_scheduled
            and self.root_id is not None
            and not self._is_red_self(ctx.phase)
            and self.red_ports
        ):
            self.candidate_scheduled = True
            wakes.append(self.cal.abs_round(ctx.phase, "B", 0, 1))
            wakes.append(self.cal.abs_round(ctx.phase, "D", 0, 1))

    def _act(self, ctx, out, wakes) -> None:
        stage, rel, L = ctx.stage, ctx.rel, self.cal.L[ctx.phase]
        if stage == "bfs":
            if self.depth is not None and not self.announced:
                self.announced = True
                for port in range(self.deg):
                    flag = 1 if port == self.parent_port else 0
                    out.append((port, Message(_BFS_TOKEN, (self.root_id, self.depth, flag))))
            return
        red = self._is_red_self(ctx.phase)
        if stage == "A":
            if self.recolor_due == (ctx.phase, ctx.step):
                self.recolor_due = None
                for port in range(self.deg):
                    out.append((port, Message(_COLOR, (self.root_id, self.depth))))
        elif stage == "B":
            if not red and self.red_ports and not self.flag_sent and self.children:
                for c in self.children:
                    out.append((c, Message(_ANCESTOR_FLAG)))
                self.flag_sent = True
            if rel == 1 and not red and self.red_ports:
                wakes.append(self.cal.abs_round(ctx.phase, "D", ctx.step, 1))
        elif stage == "C":
            if (
                not red
                and self.flagged
                and not self.c_fired
                and rel == L - self.depth
            ):
                self.c_fired = True
                out.append((self.parent_port, Message(_SIZE_PARTIAL, (1 + self.acc_size,))))
        elif stage == "D":
            if not red and self.red_ports and not self.flagged:
                weight = 1 + self.acc_size
                target = min(self.red_ports, key=lambda q: self.port_id[q])
                self.proposed_port = target
                out.append((target, Message(_PROPOSE, (weight,))))
        elif stage == "E":
            if (
                red
                and self.parent_port is not None
                and not self.e_fired
                and rel == L - self.depth
            ):
                w = sum(x for _, x in self.pending_props) + self.wsum_children
                if ctx.step == 0 or w > 0:
                    count = 1 + self.count_children if ctx.step == 0 else 0
                    self.e_fired = True
                    out.append((self.parent_port, Message(_WEIGHT_PARTIAL, (w, count))))
        elif stage == "F":
            if rel == 1 and red and self.parent_port is None:
                if ctx.step == 0:
                    self.my_size = 1 + self.count_children
                w = sum(x for _, x in self.pending_props) + self.wsum_children
                if w > 0:
                    grow = 2 * self.b * w >= self.my_size
                    self.decision = grow
                    if grow:
                        self.my_size += w
                    for c in self.e_contrib_ports:
                        out.append((c, Message(_DECISION, (1 if grow else 0,))))
        elif stage == "G":
            if rel == 1 and self.pending_props:
                assert self.decision is not None, "receipt point missed the decision"
                bit = 1 if self.decision else 0
                for port, _ in self.pending_props:
                    out.append((port, Message(_OUTCOME, (bit,))))
        elif stage == "H":
            if rel == 1 and self.outcome is not None:
                if self.parent_port is not None:
                    out.append((self.parent_port, Message(_LEAVE)))
                if self.outcome:
                    self.parent_port = self.proposed_port
                    self.root_id = self.nbr_root[self.proposed_port]
                    self.depth = self.nbr_depth[self.proposed_port] + 1
                    for c in self.children:
                        out.append((c, Message(_REHANG, (self.root_id, self.depth))))
                    if ctx.step + 1 < self.cal.t:
                        self.recolor_due = (ctx.phase, ctx.step + 1)
                        wakes.append(self.cal.abs_round(ctx.phase, "A", ctx.step + 1, 1))
                else:
                    self.alive = False
                    for c in self.children:
                        out.append((c, Message(_DIE)))


class Simulator:
    """Delivers messages, enforces the bit budget, and counts rounds.

    ``driver="event"`` wakes a node only when it has deliveries or a due
    timer; ``driver="lockstep"`` wakes every node every round.  Both must
    produce identical transcripts; the lockstep driver exists to validate
    the event scheduler on small instances.
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
        if (1 << ids.b) < g.n:
            raise GraphError(f"2^b < n: b={ids.b}, n={g.n}")
        self.g = g
        self.ids = ids
        self.cal = Calendar(ids.b)
        self.driver = driver
        self.transcript = transcript
        self.alive0 = set(range(g.n)) if alive is None else set(alive)
        self.nodes = [
            _Node(ids.ids[v], g.degree(v), ids.b, self.cal, v in self.alive0)
            for v in range(g.n)
        ]
        pos = [{w: i for i, w in enumerate(g.adj[v])} for v in range(g.n)]
        self.rev_port = [[pos[w][v] for w in g.adj[v]] for v in range(g.n)]
        self.id_to_index = {ids.ids[v]: v for v in range(g.n)}
        self.pending: dict[int, dict[int, list[tuple[int, Message]]]] = {}
        self.wake_rounds: dict[int, set[int]] = {}
        self.heap: list[int] = []
        self.heap_set: set[int] = set()
        self.messages_total = 0
        self.max_bits = 0
        # b is fixed for the run, so each tag's width is computed once here.
        self.widths = {tag: payload_bits(Message(tag), ids.b) for tag in MsgTag}
        self.bit_budget = message_bit_budget(ids.b)
        self.events: list[tuple[int, int, int, str, tuple[int, ...]]] | None = (
            [] if record_events else None
        )

    def _push_round(self, r: int) -> None:
        if r not in self.heap_set:
            self.heap_set.add(r)
            heapq.heappush(self.heap, r)

    def _schedule_wake(self, v: int, r: int, now: int) -> None:
        if r <= now:
            raise ProtocolViolation(f"node {v} scheduled a non-future wake {r} at round {now}")
        if r >= self.cal.total:
            raise ProtocolViolation(f"node {v} scheduled wake {r} beyond budget {self.cal.total}")
        self.wake_rounds.setdefault(r, set()).add(v)
        self._push_round(r)

    def _deliver(self, sender: int, port: int, m: Message, r: int) -> int:
        """Queue one message for the next round; returns its payload width."""
        bits = self.widths[m.tag]
        if bits > self.bit_budget:
            raise ProtocolViolation(
                f"message {m.tag.value} of {bits} bits exceeds budget {self.bit_budget}"
            )
        adj = self.g.adj[sender]
        if not 0 <= port < len(adj):
            raise ProtocolViolation(f"node {sender} sent on missing port {port}")
        recipient = adj[port]
        # Sends in the final round land at cal.total; their processing is
        # the nodes' terminal computation after the last round.
        tgt = r + 1
        inboxes = self.pending.get(tgt)
        if inboxes is None:
            inboxes = self.pending[tgt] = {}
            if tgt < self.cal.total:
                self._push_round(tgt)
        inboxes.setdefault(recipient, []).append((self.rev_port[sender][port], m))
        if self.events is not None:
            self.events.append((r, sender, recipient, m.tag.value, m.data))
        return bits

    def _run_round(self, r: int, participants: set[int]) -> None:
        ctx = self.cal.locate(r)
        inboxes = self.pending.pop(r, {})
        traffic = 0
        bits_max = 0
        for v in sorted(participants | inboxes.keys()):
            out, wakes = self.nodes[v].on_round(ctx, inboxes.get(v, []))
            for port, m in out:
                bits = self._deliver(v, port, m, r)
                if bits > bits_max:
                    bits_max = bits
            traffic += len(out)
            for rw in wakes:
                self._schedule_wake(v, rw, r)
        self.messages_total += traffic
        self.max_bits = max(self.max_bits, bits_max)
        if self.transcript is not None and traffic:
            self.transcript.append(f"round {r}: msgs={traffic} bits_max={bits_max}")

    def run(self) -> tuple[list[dict], RoundStats]:
        """Execute all phases; returns per-phase extractions plus statistics."""
        boundaries = [self.cal.phase_start[p] + self.cal.phase_len[p] for p in range(self.cal.b)]
        extracted: list[dict] = []
        if self.driver == "lockstep":
            everyone = set(range(self.g.n))
            for r in range(self.cal.total):
                while len(extracted) < self.cal.b and r > boundaries[len(extracted)]:
                    extracted.append(self._extract_phase(len(extracted)))
                self._run_round(r, everyone)
        else:
            for v in self.alive0:
                self._schedule_wake(v, 0, -1)
            while self.heap:
                r = heapq.heappop(self.heap)
                self.heap_set.discard(r)
                if r >= self.cal.total:
                    break
                while len(extracted) < self.cal.b and r > boundaries[len(extracted)]:
                    extracted.append(self._extract_phase(len(extracted)))
                self._run_round(r, self.wake_rounds.pop(r, set()))
        # Terminal computation: process deliveries from the final round.
        leftovers = self.pending.pop(self.cal.total, {})
        for v, inbox in sorted(leftovers.items()):
            node = self.nodes[v]
            ctx = RoundCtx(round=self.cal.total, phase=self.cal.b - 1, stage="end", step=-1, rel=1)
            out, wakes = self._finalize_node(node, ctx, inbox)
            if out or wakes:
                raise ProtocolViolation(f"node {v} acted after the final round")
        if self.pending:
            raise ProtocolViolation("messages scheduled beyond the budget")
        while len(extracted) < self.cal.b:
            extracted.append(self._extract_phase(len(extracted)))
        stats = RoundStats(
            rounds=self.cal.total,
            messages_total=self.messages_total,
            max_message_bits=self.max_bits,
        )
        return extracted, stats

    def _finalize_node(self, node: _Node, ctx: RoundCtx, inbox):
        out: list = []
        wakes: list = []
        if node.alive:
            node._ingest(ctx, inbox, out, wakes)
        return out, wakes

    def _extract_phase(self, p: int) -> dict:
        views = []
        for v in range(self.g.n):
            node = self.nodes[v]
            if node.phase_key == p:
                views.append(node.view())
            elif node.phase_key > p:
                # Nodes reset lazily exactly once per phase, so the stash is
                # always the view of the immediately preceding phase.
                assert node.phase_key == p + 1 and node.prev_view is not None
                views.append(node.prev_view)
            else:
                assert not node.alive, f"alive node {v} skipped phase {p}"
                views.append({"alive": False, "parent_port": None, "depth": None,
                              "bfs_depth0": None, "root_id": None})
        return {"phase": p, "views": views}


def _forest_from_views(g: Graph, id_to_index: dict[int, int], views: list[dict]) -> RootedForest:
    n = g.n
    member = [bool(views[v]["alive"]) for v in range(n)]
    parent: list[int | None] = [None] * n
    depth: list[int | None] = [None] * n
    root_of: list[int | None] = [None] * n
    children: dict[int, list[int]] = {}
    tree_size: dict[int, int] = {}
    for v in range(n):
        if not member[v]:
            continue
        vw = views[v]
        depth[v] = vw["depth"]
        root_of[v] = id_to_index[vw["root_id"]]
        if vw["parent_port"] is not None:
            parent[v] = g.adj[v][vw["parent_port"]]
            children.setdefault(parent[v], []).append(v)
        tree_size[root_of[v]] = tree_size.get(root_of[v], 0) + 1
    return RootedForest(n=n, member=member, parent=parent, depth=depth,
                        root_of=root_of, children=children, tree_size=tree_size)


def run_protocol(
    g: Graph,
    ids: IdAssignment,
    alive: Iterable[int] | None = None,
    driver: str = "event",
    transcript: list[str] | None = None,
) -> tuple[Clustering, RoundStats, list[PhaseResult]]:
    """Run the full protocol and assemble the clustering from survivors.

    The clustering itself (components of the survivor set, one terminal
    each) is read off the final state; the round budget covers exactly the
    b phases.
    """
    sim = Simulator(g, ids, alive=alive, driver=driver, transcript=transcript)
    extracted, stats = sim.run()
    phases: list[PhaseResult] = []
    alive_in = sorted(sim.alive0)
    terminals_in = sorted(sim.alive0)
    for entry in extracted:
        p = entry["phase"]
        views = entry["views"]
        forest = _forest_from_views(g, sim.id_to_index, views)
        survivors = tuple(forest.members())
        terminals_out = tuple(forest.roots())
        f0_depth = tuple(
            views[v]["bfs_depth0"] if views[v]["alive"] else None for v in range(g.n)
        )
        deleted = tuple(sorted(set(alive_in) - set(survivors)))
        phases.append(
            PhaseResult(
                p=p,
                b=ids.b,
                alive_in=tuple(alive_in),
                terminals_in=tuple(terminals_in),
                survivors=survivors,
                terminals_out=terminals_out,
                deleted=deleted,
                final_forest=forest,
                step_traces=(),
                f0_depth=f0_depth,
            )
        )
        alive_in = list(survivors)
        terminals_in = list(terminals_out)
    clustering = clustering_from_survivors(
        g, ids.b, sim.alive0, alive_in, terminals_in
    )
    return clustering, stats, phases
