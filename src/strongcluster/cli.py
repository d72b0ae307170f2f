"""Command-line entry point: generate, cluster, decompose, verify, bench.

Every artifact is a deterministic function of the inputs and flags, so
re-running a command reproduces its output byte for byte.  Exit codes:
0 success, 1 verification or equivalence failure, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .cluster import (
    Clustering,
    Decomposition,
    mis_via_decomposition,
    network_decomposition,
    strong_cluster,
)
from .gen import FamilySpec, generate
from .graph import Graph, GraphError, IdAssignment, parse_edge_list, write_edge_list
from .sim import run_protocol
from .verify import Report, check_clustering, check_decomposition, check_mis

FAMILIES = ("path", "cycle", "grid", "complete", "tree", "hypercube", "gnp", "star")


def _add_input_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", help="edge-list file to read the graph from")
    sub.add_argument("--family", choices=FAMILIES, help="generate the graph instead")
    sub.add_argument("--n", type=int, default=0, help="node count for generated families")
    sub.add_argument("--w", type=int, default=0, help="grid width")
    sub.add_argument("--arity", type=int, default=2, help="tree arity")
    sub.add_argument("--dim", type=int, default=0, help="hypercube dimension")
    sub.add_argument("--p", type=float, default=0.0, help="gnp edge probability")
    sub.add_argument("--seed", type=int, default=0, help="generator seed")
    sub.add_argument("--id-seed", type=int, default=None, help="seeded identifier permutation")
    sub.add_argument("--bits", type=int, default=None, help="identifier width override")


def _load_graph(args) -> tuple[Graph, IdAssignment]:
    if bool(args.input) == bool(args.family):
        raise GraphError("provide exactly one of --input or --family")
    if args.input:
        text = Path(args.input).read_text()
        g, ids = parse_edge_list(text)
    else:
        spec = FamilySpec(
            family=args.family, n=args.n, w=args.w, arity=args.arity,
            dim=args.dim, p=args.p, seed=args.seed, id_seed=args.id_seed,
        )
        g, ids = generate(spec)
    if args.bits is not None:
        from .graph import build_graph

        g, ids = build_graph(g.n, g.edges(), ids=ids.ids, b=args.bits)
    return g, ids


def _write(text: str, output: str | None) -> None:
    """Write text to the ``--output`` file, or to stdout without one."""
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(doc: dict, output: str | None) -> None:
    _write(json.dumps(doc, indent=2) + "\n", output)


def _verdict(doc: dict, report: Report) -> int:
    """Record the report's verdict in doc; print a failing report to stderr.

    Returns the command's exit status for it: 0 on PASS, 1 on FAIL.
    """
    doc["verification"] = "PASS" if report.all_pass else "FAIL"
    if report.all_pass:
        return 0
    sys.stderr.write(report.to_text() + "\n")
    return 1


def _trace_dir() -> Path:
    """The directory trace logs go to, created if missing."""
    out = Path(os.environ.get("STRONGCLUSTER_TRACE_DIR", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_cluster(args) -> int:
    g, ids = _load_graph(args)
    status = 0
    clustering = None
    stats = None
    if args.backend in ("reference", "both"):
        ref = strong_cluster(g, ids)
        clustering = ref.clustering
        if args.trace:
            out = _trace_dir()
            for phase in ref.phases:
                lines = [tr.log_line(j) for j, tr in enumerate(phase.step_traces)]
                (out / f"trace_phase{phase.p}.log").write_text("\n".join(lines) + "\n")
        # Only the clustering is read from here on: free the phases before
        # the simulator runs.
        del ref
    equal = None
    if args.backend in ("simulated", "both"):
        transcript: list[str] | None = [] if args.trace else None
        sim_clustering, stats, _ = run_protocol(g, ids, transcript=transcript)
        if clustering is None:
            clustering = sim_clustering
        else:
            equal = sim_clustering == clustering
        if args.trace and transcript is not None:
            (_trace_dir() / "transcript.log").write_text("\n".join(transcript) + "\n")
    doc = clustering.to_json_dict(g)
    if stats is not None:
        doc["rounds"] = stats.rounds
        doc["messages_total"] = stats.messages_total
        doc["max_message_bits"] = stats.max_message_bits
    if equal is not None:
        doc["equivalence"] = "PASS" if equal else "FAIL"
        if not equal:
            status = 1
    if args.verify:
        status = max(status, _verdict(doc, check_clustering(g, clustering, ids.b, ids)))
    _emit(doc, args.output)
    return status


def _cmd_decompose(args) -> int:
    g, ids = _load_graph(args)
    d, rounds_total = network_decomposition(g, ids, backend=args.backend)
    doc = d.to_json_dict()
    if rounds_total is not None:
        doc["rounds_total"] = rounds_total
    status = _verdict(doc, check_decomposition(g, d, ids.b, ids)) if args.verify else 0
    _emit(doc, args.output)
    return status


def _cmd_mis(args) -> int:
    g, ids = _load_graph(args)
    d, _ = network_decomposition(g, ids)
    chosen = mis_via_decomposition(g, ids, d)
    doc = {"n": g.n, "colors": d.colors_used, "mis": chosen}
    status = _verdict(doc, check_mis(g, chosen, ids)) if args.verify else 0
    _emit(doc, args.output)
    return status


def _cmd_verify(args) -> int:
    g, ids = _load_graph(args)
    artifact = json.loads(Path(args.artifact).read_text())
    if not isinstance(artifact, dict):
        raise GraphError(f"artifact {args.artifact}: expected a JSON object")
    if "color_of" in artifact:
        report = check_decomposition(g, _decomposition_from_doc(artifact, g.n), ids.b, ids)
    elif "clusters" in artifact:
        report = check_clustering(g, _clustering_from_doc(artifact, g.n, ids.b), ids.b, ids)
    elif "mis" in artifact:
        report = check_mis(g, _int_list(artifact, "mis"), ids)
    else:
        raise GraphError(f"unrecognized artifact {args.artifact}")
    if args.json:
        _emit(report.to_json_dict(), args.output)
    else:
        sys.stdout.write(report.to_text() + "\n")
    return 0 if report.all_pass else 1


# Artifact schema: a missing or mistyped field is an input error (exit 2);
# values that are well-formed but wrong are left to the checkers (exit 1).

def _int_field(doc: dict, key: str) -> int:
    value = doc.get(key)
    if type(value) is not int:
        raise GraphError(f"artifact field {key!r} must be an integer, got {value!r}")
    return value


def _int_list(doc: dict, key: str) -> list[int]:
    value = doc.get(key)
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise GraphError(f"artifact field {key!r} must be a list of integers")
    return value


def _clustering_from_doc(doc: dict, n: int, b: int) -> Clustering:
    """The clusters an artifact lists, over the graph's n nodes and width b.

    The artifact's own "n" and "b" are not read: coverage is counted against
    the graph, and the diameter bound comes from its identifier width.
    """
    clusters = doc["clusters"]
    if not isinstance(clusters, list) or not all(isinstance(c, dict) for c in clusters):
        raise GraphError("artifact field 'clusters' must be a list of objects")
    return Clustering(
        n=n, b=b,
        clusters=tuple((_int_field(c, "terminal"), tuple(_int_list(c, "nodes"))) for c in clusters),
        unclustered=tuple(_int_list(doc, "unclustered")),
    )


def _decomposition_from_doc(doc: dict, n: int) -> Decomposition:
    color = _int_list(doc, "color_of")
    if len(color) != n:
        raise GraphError(f"artifact field 'color_of' has {len(color)} entries for {n} nodes")
    return Decomposition(colors_used=_int_field(doc, "colors"), color=tuple(color))


def _cmd_gen(args) -> int:
    g, ids = _load_graph(args)
    _write(write_edge_list(g, ids), args.output)
    return 0


def _cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        raise GraphError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from None
    rows = ["n,b,coverage,max_diameter,rounds,rounds_per_b6"]
    for n in sizes:
        spec = FamilySpec(
            family=args.family,
            n=n,
            dim=max(n - 1, 0).bit_length() if args.family == "hypercube" else 0,
            p=args.p if args.p is not None else min(1.0, 3.0 / max(n, 1)),
            seed=args.seed,
            id_seed=args.id_seed,
        )
        g, ids = generate(spec)
        clustering, stats, _ = run_protocol(g, ids)
        doc = clustering.to_json_dict(g)
        coverage = doc["coverage"] / doc["n"]
        ratio = stats.rounds / ids.b**6
        rows.append(
            f"{g.n},{ids.b},{coverage:.6f},{doc['max_diameter_observed']},{stats.rounds},{ratio:.6f}"
        )
    _write("\n".join(rows) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strongcluster",
        description="Deterministic strong-diameter clustering, decomposition, and verification",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    c = subs.add_parser("cluster", help="cluster a graph; emit clustering JSON")
    _add_input_options(c)
    c.add_argument("--backend", choices=("reference", "simulated", "both"), default="reference")
    c.add_argument("--output", help="write JSON here instead of stdout")
    c.add_argument("--verify", action="store_true", help="run the clustering oracle")
    c.add_argument("--trace", action="store_true", help="write step traces / transcript")
    c.set_defaults(func=_cmd_cluster)

    d = subs.add_parser("decompose", help="network decomposition; emit JSON coloring")
    _add_input_options(d)
    d.add_argument("--backend", choices=("reference", "simulated"), default="reference")
    d.add_argument("--output")
    d.add_argument("--verify", action="store_true")
    d.set_defaults(func=_cmd_decompose)

    m = subs.add_parser("mis", help="maximal independent set via decomposition")
    _add_input_options(m)
    m.add_argument("--output")
    m.add_argument("--verify", action="store_true")
    m.set_defaults(func=_cmd_mis)

    v = subs.add_parser("verify", help="validate a JSON artifact against a graph")
    _add_input_options(v)
    v.add_argument("--artifact", required=True, help="clustering/decomposition/mis JSON")
    v.add_argument("--json", action="store_true", help="emit the report as JSON")
    v.add_argument("--output")
    v.set_defaults(func=_cmd_verify)

    gcmd = subs.add_parser("gen", help="emit an edge-list file for a family")
    _add_input_options(gcmd)
    gcmd.add_argument("--output")
    gcmd.set_defaults(func=_cmd_gen)

    b = subs.add_parser("bench", help="sweep a family over sizes; emit CSV")
    b.add_argument("--family", choices=FAMILIES, required=True)
    b.add_argument("--sizes", required=True, help="comma-separated node counts")
    b.add_argument("--p", type=float, default=None, help="gnp probability (default 3/n)")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--id-seed", type=int, default=None)
    b.add_argument("--output")
    b.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError:
        # A header can ask for more nodes than fit in memory.
        sys.stderr.write("error: out of memory: the input is too large\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
