"""Each claim reports its first witness, and the ``verify`` reports are pinned.

An artifact that breaks one claim twice gets the witness of the failure that
comes first: in the artifact's cluster list, in ``g.edges()`` order, in node
order or in color order.  Each case lists its failures in an order that no
other order agrees with (terminal identifier, size, size of the breach), so
a claim that kept a later or a worst witness would be seen.

The text and JSON reports of the ``verify`` command on one failing
artifact of each kind are pinned by SHA-256: check names, verdicts, witness
texts, key order and layout.
"""

import hashlib
import json

import pytest

from strongcluster.cli import main
from strongcluster.cluster import Clustering, Decomposition
from strongcluster.graph import build_graph
from strongcluster.verify import check_clustering, check_decomposition, check_mis


def witnesses(report) -> dict:
    return {c.name: c.witness for c in report.checks}


def path_edges(lo: int, hi: int) -> list[tuple[int, int]]:
    """The edges of the path lo - lo+1 - ... - hi."""
    return [(v, v + 1) for v in range(lo, hi)]


@pytest.mark.parametrize(
    "n, edges, clusters, unclustered, claim, witness",
    [
        # {4, 6} and {0, 2} both skip the middle of their path.
        (
            8, path_edges(0, 2) + path_edges(4, 6),
            ((4, (4, 6)), (0, (0, 2))), (1, 3, 5, 7),
            "clusters-connected", "cluster of terminal node 4 splits into 2 components",
        ),
        # At b = 1 (bound 8) the path 11..20 has diameter 9, listed before
        # the path 0..10, whose diameter 10 is the larger breach.
        (
            21, path_edges(0, 10) + path_edges(11, 20),
            ((11, tuple(range(11, 21))), (0, tuple(range(11)))), (),
            "cluster-diameter", "cluster of terminal node 11 has diameter 9, bound 8",
        ),
        # On the path 0 - 1 - 2 - 3, edges (0, 1) and (1, 2) both join
        # clusters; the cluster list holds them in the other order.
        (
            4, path_edges(0, 3),
            ((2, (2, 3)), (1, (1,)), (0, (0,))), (),
            "clusters-non-adjacent", "edge node 0 -- node 1 joins clusters 2 and 1",
        ),
        # Terminals 3 and 1 both sit outside their clusters.
        (
            4, [],
            ((3, (0,)), (1, (2,))), (1, 3),
            "one-terminal-per-cluster", "terminal node 3 outside its own cluster",
        ),
    ],
)
def test_clustering_claims_report_their_first_failure(n, edges, clusters, unclustered, claim, witness):
    g, _ = build_graph(n, edges)
    report = check_clustering(g, Clustering(n=n, b=1, clusters=clusters, unclustered=unclustered), 1)
    assert witnesses(report)[claim] == witness


def test_mis_claims_report_their_first_failure():
    # On the path 0..9 the set {1, 2, 6, 7} holds edges (1, 2) and (6, 7),
    # and nodes 4 and 9 could still join.
    g, _ = build_graph(10, path_edges(0, 9))
    found = witnesses(check_mis(g, [7, 6, 2, 1]))
    assert found["independent"] == "edge node 1 -- node 2 inside the set"
    assert found["maximal"] == "node 4 could still join"


def test_decomposition_reports_its_first_failing_color():
    # On the path 0..7, color 0 ({0, 2, 4, 6}) covers half of the nodes;
    # color 1 covers 1 of the 4 left, and color 2 clusters nothing.
    g, _ = build_graph(8, path_edges(0, 7))
    report = check_decomposition(g, Decomposition(colors_used=4, color=(0, 1, 0, 3, 0, 3, 0, 3)), 1)
    assert witnesses(report)["per-color-clusterings"] == "color 1: coverage-at-least-half: covered 1 of 4, need 2"


def graph_file(n: int, edges: list[tuple[int, int]]) -> str:
    """An edge-list file in which node v has identifier n - 1 - v."""
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges] + [f"id {n - 1 - v}" for v in range(n)]
    return "\n".join(lines) + "\n"


# (graph, artifact, SHA-256 of the text report, SHA-256 of the --json report)
PINNED = {
    # Disconnected, adjacent, repeated listing and a terminal outside its
    # cluster; coverage and diameter pass.
    "clustering": (
        graph_file(10, path_edges(0, 4) + [(5, 6), (7, 8)]),
        {
            "clusters": [
                {"terminal": 0, "nodes": [0, 2]},
                {"terminal": 3, "nodes": [3, 4]},
                {"terminal": 9, "nodes": [5, 6]},
                {"terminal": 7, "nodes": [7, 9, 7]},
            ],
            "unclustered": [1, 8],
        },
        "8c530501bc598679d7eb3f2db47cf37ac511b7189c3772e1a993c53badc0f7b4",
        "b9d7b641581b2d8d7eb39509d803dbca3408a26252b35ddcf1951b1aa3fa240b",
    ),
    # Five colors over the bound of 4, and color 1 covers too little.
    "decomposition": (
        graph_file(8, path_edges(0, 7)),
        {"colors": 5, "color_of": [0, 1, 0, 3, 0, 3, 0, 3]},
        "cc91004f977a723a19dd2d255457566829bdc98857a6fffb36e3f2da462d0629",
        "21b03b2f164aa2732d57e82a04b5e9ef16fde56a2ff68a0bd7232805e65b373b",
    ),
    # A node outside the graph, two edges inside the set, a node that could join.
    "mis": (
        graph_file(10, path_edges(0, 9)),
        {"mis": [7, 6, 2, 1, 12]},
        "404a2694ab39497fc9de95826fe4ff219bc469716ad0ec40092bf6a49ee21002",
        "275a990b67b345a75e0ba129e57ff849e02b4ea4963a754695901dada3928d42",
    ),
}


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_verify_reports_are_byte_identical(tmp_path, capsys, kind):
    text, artifact, text_sha, json_sha = PINNED[kind]
    graph = tmp_path / "graph.txt"
    graph.write_text(text)
    doc = tmp_path / "artifact.json"
    doc.write_text(json.dumps(artifact))
    out = tmp_path / "report.json"
    args = ["verify", "--input", str(graph), "--artifact", str(doc)]
    assert main(args) == 1
    assert main(args + ["--json", "--output", str(out)]) == 1
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == text_sha
    assert hashlib.sha256(out.read_bytes()).hexdigest() == json_sha
