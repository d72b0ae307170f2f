import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strongcluster
from strongcluster.cli import FAMILIES, main

def run_cli(*argv):
    return main(list(argv))


def test_cluster_family_both_backends(tmp_path, capsys):
    out = tmp_path / "c.json"
    rc = run_cli("cluster", "--family", "path", "--n", "3", "--backend", "both",
                 "--output", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["equivalence"] == "PASS"
    assert doc["clusters"] == [{"terminal": 0, "nodes": [0, 1, 2]}]
    assert doc["rounds"] == 2098


def test_cluster_simulated_k2_rounds(tmp_path):
    k2 = tmp_path / "k2.txt"
    k2.write_text("2 1\n0 1\n")
    out = tmp_path / "k2.json"
    rc = run_cli("cluster", "--input", str(k2), "--backend", "simulated",
                 "--output", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["rounds"] == 61
    assert doc["coverage"] == 2


def test_cluster_verify_flag(tmp_path):
    out = tmp_path / "c.json"
    rc = run_cli("cluster", "--family", "grid", "--n", "25", "--w", "5",
                 "--verify", "--output", str(out))
    assert rc == 0
    assert json.loads(out.read_text())["verification"] == "PASS"


def test_cluster_outputs_are_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run_cli("cluster", "--family", "gnp", "--n", "40", "--p", "0.1",
                       "--seed", "9", "--id-seed", "2", "--output", str(path)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_accepts_then_rejects_tampered_artifact(tmp_path):
    graph_file = tmp_path / "g.txt"
    artifact = tmp_path / "c.json"
    assert run_cli("gen", "--family", "path", "--n", "64", "--output", str(graph_file)) == 0
    assert run_cli("cluster", "--input", str(graph_file), "--output", str(artifact)) == 0
    assert run_cli("verify", "--input", str(graph_file), "--artifact", str(artifact)) == 0
    doc = json.loads(artifact.read_text())
    # Deleted path nodes separate neighboring clusters; pulling one into its
    # cluster welds two clusters together through the path.
    assert doc["unclustered"], "tamper needs an unclustered separator node"
    v = doc["unclustered"][0]
    target = next(c for c in doc["clusters"] if v - 1 in c["nodes"] or v + 1 in c["nodes"])
    target["nodes"] = sorted(target["nodes"] + [v])
    doc["unclustered"] = doc["unclustered"][1:]
    artifact.write_text(json.dumps(doc))
    assert run_cli("verify", "--input", str(graph_file), "--artifact", str(artifact)) == 1


def test_decompose_reports_simulated_rounds_only(tmp_path):
    out = tmp_path / "d.json"
    for backend, rounds in (("simulated", 2098), ("reference", None)):
        assert run_cli("decompose", "--family", "path", "--n", "4", "--backend", backend,
                       "--output", str(out)) == 0
        assert json.loads(out.read_text()).get("rounds_total") == rounds


def test_decompose_and_verify(tmp_path):
    out = tmp_path / "d.json"
    rc = run_cli("decompose", "--family", "path", "--n", "32", "--verify",
                 "--output", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["verification"] == "PASS"
    assert len(doc["color_of"]) == 32
    # Round-trip through the verify subcommand too.
    graph_file = tmp_path / "g.txt"
    assert run_cli("gen", "--family", "path", "--n", "32", "--output", str(graph_file)) == 0
    assert run_cli("verify", "--input", str(graph_file), "--artifact", str(out)) == 0


def test_mis_command(tmp_path):
    out = tmp_path / "m.json"
    rc = run_cli("mis", "--family", "path", "--n", "3", "--verify", "--output", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["mis"] == [0, 2]
    assert doc["verification"] == "PASS"


def test_gen_roundtrip(tmp_path, capsys):
    rc = run_cli("gen", "--family", "path", "--n", "3")
    assert rc == 0
    assert capsys.readouterr().out == "3 2\n0 1\n1 2\n"


def test_bench_csv(tmp_path):
    out = tmp_path / "bench.csv"
    rc = run_cli("bench", "--family", "path", "--sizes", "4,8", "--output", str(out))
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,b,coverage,max_diameter,rounds,rounds_per_b6"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "4" and first[1] == "2"
    assert first[4] == "2098"


def test_bench_explicit_zero_p_is_edgeless(tmp_path):
    # --p 0 is a probability, not "unset": every node is its own cluster.
    out = tmp_path / "bench.csv"
    rc = run_cli("bench", "--family", "gnp", "--sizes", "64", "--p", "0", "--seed", "1",
                 "--output", str(out))
    assert rc == 0
    row = dict(zip(*(line.split(",") for line in out.read_text().strip().splitlines())))
    assert row["coverage"] == "1.000000"
    assert row["max_diameter"] == "0"


def test_bad_input_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    assert run_cli("cluster", "--input", str(missing)) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 x\n")
    assert run_cli("cluster", "--input", str(bad)) == 2
    capsys.readouterr()
    bad.write_text("2 1\n0 1\nid -1\nid 1\n")
    assert run_cli("cluster", "--input", str(bad)) == 2
    assert capsys.readouterr().err == "error: identifier -1 of node 0 is negative\n"


# Run in its own interpreter: it caps its own address space at what it has
# mapped after the import plus 128 MiB, so the header's 3e8 nodes run out of
# memory at once and nothing outside that process is limited.
_CAPPED_CLUSTER = """
import resource, sys
from strongcluster.cli import main
mapped = int(open("/proc/self/statm").read().split()[0]) * resource.getpagesize()
resource.setrlimit(resource.RLIMIT_AS, (mapped + (128 << 20), resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(main(["cluster", "--input", sys.argv[1]]))
"""


@pytest.mark.skipif(not Path("/proc/self/statm").is_file(), reason="reads its mapped size from /proc")
def test_huge_header_n_is_an_input_error(tmp_path):
    huge = tmp_path / "huge.txt"
    huge.write_text("300000000 1\n0 1\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(strongcluster.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED_CLUSTER, str(huge)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 2, done.stderr
    assert done.stderr == "error: out of memory: the input is too large\n"
    assert done.stdout == ""


# Runs each command line of the JSON list in argv[1] through ``main`` in one
# fresh interpreter; the last line of its output lists, per command, the
# exit status and whether numpy was loaded after it.
_NUMPY_AFTER_EACH = """
import json, sys
from strongcluster.cli import main
after = []
for argv in json.loads(sys.argv[1]):
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    after.append([status, "numpy" in sys.modules])
sys.stdout.write("\\n" + json.dumps(after) + "\\n")
"""


def _numpy_after_each(commands):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(strongcluster.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_AFTER_EACH, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_numpy_is_imported_only_where_a_numpy_kernel_runs(tmp_path):
    # gen of every family but gnp, verify of a passing cube clustering (one
    # BFS per cluster) and --help call no numpy kernel, so a fresh process
    # does not import numpy for them; cluster (the exact diameters it
    # reports) and gen of gnp do.
    graph, artifact, out = tmp_path / "cube.txt", tmp_path / "cube.json", str(tmp_path / "out")
    assert run_cli("gen", "--family", "hypercube", "--dim", "4", "--output", str(graph)) == 0
    assert run_cli("cluster", "--input", str(graph), "--output", str(artifact)) == 0
    light = [["gen", "--family", f, "--n", "16", "--dim", "4", "--output", out] for f in FAMILIES if f != "gnp"]
    light += [["verify", "--input", str(graph), "--artifact", str(artifact)], ["--help"]]
    cluster = ["cluster", "--input", str(graph), "--output", out]
    assert _numpy_after_each(light + [cluster]) == [[0, False]] * len(light) + [[0, True]]
    gnp = ["gen", "--family", "gnp", "--n", "16", "--p", "0.2", "--output", out]
    assert _numpy_after_each([gnp]) == [[0, True]]


def test_bench_non_integer_size_exits_2(capsys):
    assert run_cli("bench", "--family", "path", "--sizes", "4,x") == 2
    assert capsys.readouterr().err.startswith("error: --sizes")


def test_gen_negative_grid_width_exits_2(capsys):
    assert run_cli("gen", "--family", "grid", "--n", "4", "--w", "-1") == 2
    assert capsys.readouterr().err == "error: grid needs w >= 0\n"


def test_negative_bits_exits_2(tmp_path, capsys):
    assert run_cli("cluster", "--family", "path", "--n", "4", "--bits", "-1") == 2
    assert capsys.readouterr().err == "error: 2^b < n: b=-1, n=4\n"
    # Zero bits still name the single node of a one-node graph.
    out = tmp_path / "one.json"
    assert run_cli("cluster", "--family", "path", "--n", "1", "--bits", "0", "--output", str(out)) == 0
    doc = json.loads(out.read_text())
    assert (doc["b"], doc["clusters"]) == (0, [{"terminal": 0, "nodes": [0]}])


def test_non_utf8_input_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"2 1\n0 1\n# caf\xe9\n")
    assert run_cli("cluster", "--input", str(bad)) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_non_utf8_artifact_exits_2(tmp_path, capsys):
    graph_file = tmp_path / "p3.txt"
    assert run_cli("gen", "--family", "path", "--n", "3", "--output", str(graph_file)) == 0
    artifact = tmp_path / "artifact.json"
    artifact.write_bytes(b'{"mis": [0, 2], "note": "caf\xe9"}')
    assert run_cli("verify", "--input", str(graph_file), "--artifact", str(artifact)) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_conflicting_inputs_exit_2():
    assert run_cli("cluster", "--family", "path", "--n", "3", "--input", "x") == 2
    assert run_cli("cluster") == 2


def test_trace_files(tmp_path, monkeypatch):
    monkeypatch.setenv("STRONGCLUSTER_TRACE_DIR", str(tmp_path / "traces"))
    rc = run_cli("cluster", "--family", "path", "--n", "3", "--backend", "both",
                 "--trace", "--output", str(tmp_path / "c.json"))
    assert rc == 0
    trace0 = (tmp_path / "traces" / "trace_phase0.log").read_text().splitlines()
    assert trace0[0].startswith("step 0: proposals=[")
    assert (tmp_path / "traces" / "transcript.log").exists()


# SHA-256 of the phase step logs that ``cluster --trace`` writes, joined in
# phase order, with the number of active steps; recorded when every trace,
# idle steps included, was still stored.
TRACE_GOLDEN = [
    (["--family", "gnp", "--n", "300", "--p", "0.01", "--seed", "5", "--id-seed", "3"],
     9, 25, "7d380e74c926541a78a2b9991bf35cb623eed8f35cb351a1bcbdf0046e3a9fa6"),
    (["--family", "grid", "--n", "400", "--w", "20", "--id-seed", "7"],
     9, 28, "5d4a6aafcf4bc338b2fd85ebfaff381db3fdb6e4b96a1fd02a64e194d5af96e4"),
]


@pytest.mark.parametrize("family, phases, active, digest", TRACE_GOLDEN)
def test_trace_logs_are_byte_identical(tmp_path, monkeypatch, family, phases, active, digest):
    monkeypatch.setenv("STRONGCLUSTER_TRACE_DIR", str(tmp_path))
    assert run_cli("cluster", *family, "--trace", "--output", str(tmp_path / "c.json")) == 0
    logs = [tmp_path / f"trace_phase{p}.log" for p in range(phases)]
    text = "".join(log.read_text() for log in logs)
    assert sum("proposals=[]" not in line for line in text.splitlines()) == active
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def verify_artifact(tmp_path, doc, *extra):
    """Run ``verify`` on path n=8 against the given artifact document."""
    graph_file = tmp_path / "p8.txt"
    assert run_cli("gen", "--family", "path", "--n", "8", "--output", str(graph_file)) == 0
    artifact = tmp_path / "artifact.json"
    artifact.write_text(json.dumps(doc))
    return run_cli("verify", "--input", str(graph_file), "--artifact", str(artifact), *extra)


def test_verify_counts_coverage_against_the_graph(tmp_path, capsys):
    doc = {"n": 1, "b": 3, "clusters": [{"terminal": 0, "nodes": [0]}], "unclustered": []}
    assert verify_artifact(tmp_path, doc) == 1
    out = capsys.readouterr().out
    assert "[FAIL] coverage-at-least-half (covered 1 of 8, need 4)" in out
    assert "[FAIL] partition (clusters and unclustered hold 1 nodes, universe has 8)" in out


def test_verify_rejects_out_of_range_cluster_node(tmp_path, capsys):
    doc = {"clusters": [{"terminal": 0, "nodes": [0, 1, 2, 3, 99]}], "unclustered": [4, 5, 6, 7]}
    assert verify_artifact(tmp_path, doc) == 1
    assert "[FAIL] nodes-in-range (node 99 outside 0..7)" in capsys.readouterr().out


def test_verify_rejects_out_of_range_mis_node(tmp_path, capsys):
    assert verify_artifact(tmp_path, {"mis": [0, 2, 4, 6, 9999]}) == 1
    assert "[FAIL] nodes-in-range (node 9999 outside 0..7)" in capsys.readouterr().out


def test_verify_diameter_bound_comes_from_the_graph(tmp_path, monkeypatch):
    import strongcluster.cli as cli

    seen = []
    real = cli.check_clustering

    def spy(g, clustering, b, ids=None):
        seen.append((b, clustering.b, clustering.n))
        return real(g, clustering, b, ids)

    monkeypatch.setattr(cli, "check_clustering", spy)
    doc = {"n": 8, "b": 1000, "clusters": [{"terminal": 0, "nodes": list(range(8))}],
           "unclustered": []}
    assert verify_artifact(tmp_path, doc) == 0
    assert seen == [(3, 3, 8)]


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"n": 8, "b": 3, "clusters": [{"terminal": 0, "nodes": [0]}]}, "'unclustered'"),
        ({"clusters": [{"nodes": [0]}], "unclustered": []}, "'terminal'"),
        ({"clusters": {}, "unclustered": []}, "'clusters'"),
        ({"colors": 1, "color_of": [0, 0, 0]}, "3 entries for 8 nodes"),
        ({"colors": "1", "color_of": [0] * 8}, "'colors'"),
        ({"mis": [0, "2"]}, "'mis'"),
        ([0, 2], "JSON object"),
    ],
)
def test_verify_malformed_artifact_exits_2(tmp_path, capsys, doc, message):
    assert verify_artifact(tmp_path, doc) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: artifact") and message in err


def test_identifiers_wider_than_63_bits_give_one_clustering(tmp_path):
    # Identifiers of any width are valid input; the engine's BFS tie rule and
    # coloring must not squeeze them through a 64-bit integer.
    ids = [2**70, 2**63 + 5, 3, 2**64 + 1]
    graph = tmp_path / "wide.txt"
    graph.write_text("4 3\n0 1\n1 2\n2 3\n" + "".join(f"id {k}\n" for k in ids))
    docs = {}
    for backend in ("reference", "simulated", "both"):
        out = tmp_path / f"{backend}.json"
        assert run_cli("cluster", "--input", str(graph), "--backend", backend,
                       "--output", str(out)) == 0
        docs[backend] = json.loads(out.read_text())
    assert docs["reference"]["b"] == 71
    assert docs["both"]["equivalence"] == "PASS"
    ref = docs["reference"]
    for backend in ("simulated", "both"):
        assert {k: docs[backend][k] for k in ref} == ref
