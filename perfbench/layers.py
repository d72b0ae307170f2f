"""Span tracing of strongcluster from outside the package.

Modules of the package import each other's functions by name, so replacing a
module-level binding (``phase.bfs_forest``, ``cli.run_protocol``, ...) with a
timing wrapper observes every call that goes through that binding without
editing the package.  Spans stay in memory with a link to the span that was
open when they started; a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import Callable


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs timing wrappers on module bindings; ``restore`` removes them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        before: Callable[[dict], None] | None = None,
        after: Callable[[tuple, dict, object], dict] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper recording one span per call.

        ``before`` may adjust the keyword arguments; ``after`` returns counts
        to attach to the span, read from the arguments and the result.  A
        binding the program no longer has is listed in ``missing``, which
        makes the benchmark run incorrect.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before(kwargs)
            span = Span(name, self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
            if after is not None:
                span.attrs = after(args, kwargs, result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def install(tracer: Tracer, sc) -> None:
    """Wrap the bindings through which strongcluster's layers call each other.

    ``sc`` is the imported ``strongcluster`` package.  A function imported
    into several modules is wrapped in each of them under one span name.
    """
    w = tracer.wrap
    w(sc.cli, "generate", "gen.generate")
    w(sc.cli, "parse_edge_list", "graph.parse_edge_list")
    for mod in (sc.graph, sc.forest, sc.verify):
        w(mod, "multi_source_bfs", "graph.multi_source_bfs")
    for mod in (sc.cluster, sc.verify):
        w(mod, "induced_diameter", "graph.induced_diameter")
        w(mod, "connected_components", "graph.connected_components")
    w(sc.phase, "bfs_forest", "forest.bfs_forest")
    w(sc.cluster, "run_phase", "phase.run_phase", after=_phase_counts)
    for mod in (sc.cluster, sc.cli):
        w(mod, "strong_cluster", "cluster.strong_cluster", after=_alive_count)
    w(sc.cli, "network_decomposition", "cluster.network_decomposition",
      after=lambda a, kw, res: {"colors": res[0].colors_used})
    for mod in (sc.cluster, sc.sim):
        w(mod, "clustering_from_survivors", "cluster.assembly")
    w(sc.cluster.Clustering, "to_json_dict", "cluster.to_json")
    w(sc.cli, "mis_via_decomposition", "cluster.mis")
    w(sc.cli, "check_clustering", "verify.check_clustering")
    w(sc.cli, "check_mis", "verify.check_mis")
    w(sc.cli, "run_protocol", "sim.run_protocol", before=_capture_transcript, after=_sim_counts)
    w(sc.cli, "_emit", "cli.emit")


def _phase_counts(args, kwargs, res) -> dict:
    traces = res.step_traces
    return {
        "active_steps": sum(1 for tr in traces if tr.proposals),
        "proposals": sum(len(tr.proposals) for tr in traces),
        "deleted": sum(len(tr.deleted) for tr in traces),
    }


def _alive_count(args, kwargs, res) -> dict:
    alive = kwargs.get("alive", args[3] if len(args) > 3 else None)
    return {"alive": args[0].n if alive is None else len(alive)}


def _capture_transcript(kwargs: dict) -> None:
    # The transcript holds one line per round that carried traffic.
    if kwargs.get("transcript") is None:
        kwargs["transcript"] = []


def _sim_counts(args, kwargs, res) -> dict:
    stats = res[1]
    return {
        "messages": stats.messages_total,
        "busy_rounds": len(kwargs["transcript"]),
        "calendar_rounds": stats.rounds,
        "max_message_bits": stats.max_message_bits,
    }


# Counts that are a deterministic function of the input and the code: they
# must repeat exactly across traced ops and runs.
EXACT = (
    "graph.bfs_calls", "forest.bfs_forest_calls", "phase.active_steps",
    "phase.proposals", "phase.deleted", "cluster.residual_alive_nodes",
    "cluster.colors", "sim.messages", "sim.busy_rounds", "sim.calendar_rounds",
    "sim.max_message_bits",
)


def op_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced op (busy seconds and counts)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration

    def busy(name: str) -> float:
        return sum(s.duration for s in spans if s.name == name)

    def calls(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    def attr(name: str, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    # Clusterings after the first inside a decomposition run on the residual
    # (still uncolored) nodes.
    residual: list[Span] = []
    first_seen: set[int] = set()
    for s in spans:
        if (s.name == "cluster.strong_cluster" and s.parent is not None
                and spans[s.parent].name == "cluster.network_decomposition"):
            if s.parent in first_seen:
                residual.append(s)
            first_seen.add(s.parent)
    diameters = [i for i, s in enumerate(spans) if s.name == "graph.induced_diameter"]
    diameter_set = set(diameters)
    diameter_bfs = sum(1 for s in spans if s.name == "graph.multi_source_bfs" and s.parent in diameter_set)
    messages = attr("sim.run_protocol", "messages")
    return {
        "graph.parse_edge_list_s": busy("graph.parse_edge_list"),
        "graph.induced_diameter_s": busy("graph.induced_diameter"),
        "graph.bfs_calls": calls("graph.multi_source_bfs"),
        "graph.bfs_per_cluster": diameter_bfs / len(diameters) if diameters else 0.0,
        "graph.connected_components_s": busy("graph.connected_components"),
        "forest.bfs_forest_s": busy("forest.bfs_forest"),
        "forest.bfs_forest_calls": calls("forest.bfs_forest"),
        "phase.run_phase_s": busy("phase.run_phase"),
        "phase.step_loop_s": sum(
            s.duration - child[i] for i, s in enumerate(spans) if s.name == "phase.run_phase"
        ),
        "phase.active_steps": attr("phase.run_phase", "active_steps"),
        "phase.proposals": attr("phase.run_phase", "proposals"),
        "phase.deleted": attr("phase.run_phase", "deleted"),
        "cluster.strong_cluster_s": busy("cluster.strong_cluster"),
        "cluster.residual_s": sum(s.duration for s in residual),
        "cluster.residual_alive_nodes": sum(s.attrs["alive"] for s in residual),
        "cluster.assembly_s": busy("cluster.assembly"),
        "cluster.to_json_s": busy("cluster.to_json"),
        "cluster.mis_s": busy("cluster.mis"),
        "cluster.colors": attr("cluster.network_decomposition", "colors"),
        "verify.check_clustering_s": busy("verify.check_clustering"),
        "verify.check_mis_s": busy("verify.check_mis"),
        "sim.run_protocol_s": busy("sim.run_protocol"),
        "sim.messages": messages,
        "sim.busy_rounds": attr("sim.run_protocol", "busy_rounds"),
        "sim.calendar_rounds": attr("sim.run_protocol", "calendar_rounds"),
        "sim.max_message_bits": attr("sim.run_protocol", "max_message_bits"),
        "sim.us_per_msg": 1e6 * busy("sim.run_protocol") / messages if messages else 0.0,
        "cli.emit_s": busy("cli.emit"),
    }


def summarize(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median of each figure over the traced ops of one run."""
    return {k: median(op[k] for op in per_op) for k in per_op[0]}
