#!/usr/bin/env python3
"""Layered benchmark of the strongcluster command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload is one CLI command run
in-process through ``strongcluster.cli.main`` on an edge-list file that
``strongcluster gen`` writes from the seed.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced ops and
reports the per-layer metrics.  The last line of standard output is the
result; the line before it, also written to ``perfbench/out/``, is the full
record with quartiles, digests and provenance.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-up repeats until it has run SETUP_MIN_REPS times and SETUP_MIN_SECONDS
# in total (at most SETUP_MAX_REPS), so a fast set-up gets enough samples for
# a steady median.
SETUP_MIN_REPS, SETUP_MIN_SECONDS, SETUP_MAX_REPS = 3, 3.0, 15
# A traced run makes at least this many untraced/traced op pairs whatever
# --seconds says, so the exact-count check and trace.overhead_s compare
# several ops even when one op takes longer than a third of the run.
TRACE_MIN_PAIRS = 3
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in SPEC[key]}


@dataclass(frozen=True)
class Workload:
    family: tuple[str, ...]  # `strongcluster gen` flags at full size
    toy: tuple[str, ...]     # the same family at n = 64, for the smoke check
    command: tuple[str, ...]
    gate: str                # output field that must read "PASS"


# Why these three: each makes a different module dominate the op time (see
# README.md), so a change to one layer shows on one workload and not on the
# others.
WORKLOADS = {
    "mis-gnp16k": Workload(
        ("--family", "gnp", "--n", "16384", "--p", repr(3 / 16384)),
        ("--family", "gnp", "--n", "64", "--p", repr(3 / 64)),
        ("mis", "--verify"), "verification",
    ),
    "cluster-verify-cube": Workload(
        ("--family", "hypercube", "--dim", "10"),
        ("--family", "hypercube", "--dim", "6"),
        ("cluster", "--verify"), "verification",
    ),
    "sim-path4k": Workload(
        ("--family", "path", "--n", "4096"),
        ("--family", "path", "--n", "64"),
        ("cluster", "--backend", "both"), "equivalence",
    ),
}


def load_program():
    """Import strongcluster from this checkout's sources, or exit non-zero."""
    if not (SRC / "strongcluster" / "cli.py").is_file():
        sys.exit(f"perfbench: no strongcluster sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import strongcluster
    import strongcluster.cli

    if Path(strongcluster.__file__).resolve().parent != SRC / "strongcluster":
        sys.exit(f"perfbench: imported strongcluster from {strongcluster.__file__}, not {SRC}")
    return strongcluster


def gen_argv(w: Workload, toy: bool, seed: int, path: Path) -> list[str]:
    flags = w.toy if toy else w.family
    return ["gen", *flags, "--seed", str(seed), "--id-seed", str(seed), "--output", str(path)]


def setup(argv: list[str]) -> tuple[list[float], bool]:
    """Run `strongcluster gen` repeatedly, each time in a fresh interpreter.

    Each rep pays the interpreter start, the package import, generation and
    the file write.  Returns the rep times and whether every rep wrote the
    same bytes.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    path = Path(argv[-1])
    times, digests = [], set()
    while len(times) < SETUP_MAX_REPS and (len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_SECONDS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "strongcluster", *argv], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
        digests.add(hashlib.sha256(path.read_bytes()).hexdigest())
    return times, len(digests) == 1


def read_graph(path: Path) -> tuple[int, list[tuple[int, int]]]:
    lines = path.read_text().split("\n")
    n, m = map(int, lines[0].split())
    return n, [tuple(map(int, ln.split())) for ln in lines[1 : 1 + m]]


def check_output(w: Workload, doc: dict, graph: Path) -> str | None:
    """Independent check of an op's JSON against the graph; None when it holds."""
    if doc.get(w.gate) != "PASS":
        return f"{w.gate} is {doc.get(w.gate)!r}"
    n, edges = read_graph(graph)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    if "mis" in doc:
        chosen = set(doc["mis"])
        if not chosen <= set(range(n)):
            return "MIS names a node outside the graph"
        if any(u in chosen and v in chosen for u, v in edges):
            return "MIS is not independent"
        if any(v not in chosen and not any(x in chosen for x in adj[v]) for v in range(n)):
            return "MIS is not maximal"
        return None
    owner = [-1] * n
    for i, c in enumerate(doc["clusters"]):
        for v in c["nodes"]:
            if not 0 <= v < n or owner[v] != -1:
                return f"node {v} out of range or in two clusters"
            owner[v] = i
        if c["terminal"] not in c["nodes"]:
            return f"terminal {c['terminal']} outside its cluster"
        seen, todo = {c["nodes"][0]}, deque([c["nodes"][0]])
        while todo:
            for x in adj[todo.popleft()]:
                if owner[x] == i and x not in seen:
                    seen.add(x)
                    todo.append(x)
        if len(seen) != len(c["nodes"]):
            return f"cluster of terminal {c['terminal']} is disconnected"
    covered = sum(o != -1 for o in owner)
    if sorted(doc["unclustered"]) != [v for v in range(n) if owner[v] == -1]:
        return "clusters and unclustered nodes do not partition the graph"
    if 2 * covered < n or doc["coverage"] != covered:
        return f"coverage {doc['coverage']} (counted {covered}) of {n}"
    if any(owner[u] != owner[v] and owner[u] != -1 and owner[v] != -1 for u, v in edges):
        return "an edge joins two clusters"
    return None


def source_hash() -> str:
    h = hashlib.sha256()
    for f in sorted((SRC / "strongcluster").rglob("*.py")):
        h.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int, n: int, m: int) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "source_sha256": source_hash(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "graph_n": n,
        "graph_m": m,
    }


class Ops:
    """Runs one workload's CLI command and checks every output it writes."""

    def __init__(self, sc, w: Workload, graph: Path, work: Path, expected: tuple[str | None, str]):
        self.sc, self.w, self.graph = sc, w, graph
        # Every op must write the bytes of the expected digest, or of the
        # first op when nothing is recorded for this input.
        self.expected, self.expected_from = expected
        self.out = work / "op.json"
        self.argv = [*w.command, "--input", str(graph), "--output", str(self.out)]
        self.verdicts: dict[str, str | None] = {}
        self.digests: list[str] = []
        self.problems: list[str] = []

    def run(self, tracer: layers.Tracer | None = None) -> float:
        """One op; returns its wall seconds and records its digest or failure."""
        self.out.unlink(missing_ok=True)
        gc.collect()
        if tracer is not None:
            layers.install(tracer, self.sc)
        t0 = time.perf_counter()
        try:
            rc = self.sc.cli.main(self.argv)
        except Exception:
            rc = traceback.format_exc()
        finally:
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.restore()
        problem = None
        if rc != 0:
            problem = f"exit {rc}"
        elif not self.out.is_file():
            problem = "no output written"
        else:
            data = self.out.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            self.digests.append(digest)
            if self.expected is None:
                self.expected, self.expected_from = digest, "the first op's"
            if digest != self.expected:
                problem = f"output digest {digest[:12]} differs from {self.expected_from}"
            elif digest in self.verdicts:
                problem = self.verdicts[digest]
            else:
                problem = self.verdicts[digest] = check_output(self.w, json.loads(data), self.graph)
        if problem:
            self.problems.append(problem)
        return dt


def loop(seconds: float, body, min_reps: int = 1) -> None:
    """Call ``body`` at least ``min_reps`` times, and then while the time
    spent plus its last duration fits in ``seconds``."""
    spent = last = 0.0
    reps = 0
    while True:
        t0 = time.perf_counter()
        body()
        last = time.perf_counter() - t0
        spent += last
        reps += 1
        if reps >= min_reps and spent + last > seconds:
            return


def quartiles(xs: list[float]) -> dict:
    q = quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return {"q1": q[0], "median": median(xs), "q3": q[2], "samples": len(xs), "each": xs}


def load_observed() -> dict:
    path = OUT / "observed.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def expected_digest(key: str) -> tuple[str | None, str]:
    """The output digest recorded in digests.json, else the one earlier runs saw."""
    recorded = json.loads((HERE / "digests.json").read_text()).get(key)
    if recorded:
        return recorded, "the recorded one"
    return load_observed().get(key, {}).get("digest"), "an earlier run's"


def remember(key: str, digest: str | None, counts: dict | None, code: str) -> list[str]:
    """Keep this run's digest and exact counts for later runs of this checkout.

    Returns a problem when the exact counts differ from an earlier traced
    run of the same sources.
    """
    seen = load_observed()
    entry = seen.setdefault(key, {})
    if digest is not None:
        entry.setdefault("digest", digest)
    problems = []
    if counts is not None:
        if entry.get("code") == code and entry.get("counts") != counts:
            problems.append(f"exact counts {counts} differ from an earlier run's {entry['counts']}")
        entry.update(code=code, counts=counts)
    (OUT / "observed.json").write_text(json.dumps(seen, indent=1, sort_keys=True) + "\n")
    return problems


def measure(name: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """One benchmark run; returns the full record (see the module docstring)."""
    w = WORKLOADS[name]
    sc = load_program()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        graph = work / "graph.txt"
        argv = gen_argv(w, toy, seed, graph)
        record: dict = {"workload": name, "size": "toy" if toy else "full"}
        missing: set[str] = set()
        if trace:
            # The traced run generates in-process to time gen.generate.
            tracer = layers.Tracer()
            layers.install(tracer, sc)
            try:
                gen_ok = sc.cli.main(argv) == 0
            finally:
                tracer.restore()
            missing.update(tracer.missing)
            gen_s = sum(s.duration for s in tracer.spans if s.name == "gen.generate")
        else:
            setup_times, gen_ok = setup(argv)
            record["setup_s"] = quartiles(setup_times)
        with graph.open() as f:
            n, m = map(int, f.readline().split())
        record["provenance"] = provenance(seed, n, m)
        key = f"{name}|{record['size']}|{seed}"
        ops = Ops(sc, w, graph, work, expected_digest(key))
        problems = [] if gen_ok else ["set-up failed or its reps wrote different bytes"]
        plain: list[float] = []
        if trace:
            traced: list[float] = []
            per_op: list[dict] = []

            def pair() -> None:
                plain.append(ops.run())
                tracer = layers.Tracer()
                traced.append(ops.run(tracer))
                per_op.append(layers.op_metrics(tracer.spans))
                missing.update(tracer.missing)

            loop(seconds, pair, TRACE_MIN_PAIRS)
            # A binding the program no longer has would leave its layer at 0.
            problems += [f"binding {b} not found, so its layer is not timed" for b in sorted(missing)]
            counts = [{k: op[k] for k in layers.EXACT} for op in per_op]
            if any(c != counts[0] for c in counts):
                problems.append("exact counts differ between traced ops")
            metrics = layers.summarize(per_op)
            metrics["gen.generate_s"] = gen_s
            metrics["cli.main_s"] = median(traced)
            metrics["trace.overhead_s"] = median(traced) - median(plain)
            record["traced_s"] = quartiles(traced)
            record["missing_bindings"] = sorted(missing)
            exact = counts[0]
        else:
            loop(seconds, lambda: plain.append(ops.run()))
            metrics = {
                "wall_s": median(plain),
                "setup_s": median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            exact = None
        record["wall_s"] = quartiles(plain)
        problems += remember(key, ops.expected, exact, record["provenance"]["source_sha256"])
        record.update(
            digests=sorted(set(ops.digests)),
            problems=ops.problems + problems,
            result={
                "correct": not ops.problems and not problems,
                "attempted": len(plain) + (len(traced) if trace else 0),
                "failed": len(ops.problems),
                "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
            },
        )
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    line = json.dumps(record, sort_keys=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
