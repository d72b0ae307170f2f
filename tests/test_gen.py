import hashlib
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import strongcluster
from strongcluster.gen import (
    FamilySpec,
    generate,
    mix64,
    seeded_permutation,
    splitmix_at,
)
from strongcluster.graph import GraphError, build_graph, write_edge_list


def edge_set(g):
    return set(g.edges())


def scalar_screen(n, p, seed):
    """gnp by definition: pair k (row-major over u < v) iff draw k < p * 2^64."""
    threshold = round(p * float(1 << 64))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return [pair for k, pair in enumerate(pairs) if splitmix_at(seed, k) < threshold]


def test_path_three():
    g, ids = generate(FamilySpec("path", n=3))
    assert edge_set(g) == {(0, 1), (1, 2)}
    assert ids.ids == (0, 1, 2)


def test_complete_four():
    g, _ = generate(FamilySpec("complete", n=4))
    assert g.edge_count == 6


def test_cycle_edges():
    g, _ = generate(FamilySpec("cycle", n=5))
    assert g.edge_count == 5
    assert all(len(g.adj[v]) == 2 for v in range(5))


def test_star_degrees():
    g, _ = generate(FamilySpec("star", n=6))
    assert len(g.adj[0]) == 5
    assert g.edge_count == 5


def test_tree_is_connected_tree():
    g, _ = generate(FamilySpec("tree", n=10, arity=3))
    assert g.edge_count == 9


def test_gnp_zero_probability_is_edgeless():
    g, _ = generate(FamilySpec("gnp", n=100, p=0.0, seed=7))
    assert g.edge_count == 0


def test_gnp_full_probability_is_complete():
    g, _ = generate(FamilySpec("gnp", n=20, p=1.0, seed=7))
    assert g.edge_count == 190


def test_gnp_deterministic_across_calls():
    a, _ = generate(FamilySpec("gnp", n=60, p=0.1, seed=42))
    b, _ = generate(FamilySpec("gnp", n=60, p=0.1, seed=42))
    c, _ = generate(FamilySpec("gnp", n=60, p=0.1, seed=43))
    assert edge_set(a) == edge_set(b)
    assert edge_set(a) != edge_set(c)


def test_gnp_matches_scalar_screening():
    # The vectorized screen must agree with the scalar stream draw by draw.
    n, p, seed = 25, 0.3, 9
    g, _ = generate(FamilySpec("gnp", n=n, p=p, seed=seed))
    threshold = round(p * float(1 << 64))
    expected = set()
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            if splitmix_at(seed, k) < threshold:
                expected.add((u, v))
            k += 1
    assert edge_set(g) == expected


def test_hypercube_edge_count():
    for d in range(1, 7):
        g, _ = generate(FamilySpec("hypercube", dim=d))
        assert g.n == 2**d
        assert g.edge_count == d * 2 ** (d - 1)


def test_grid_edge_count_exact_rectangle():
    w, h = 5, 4
    g, _ = generate(FamilySpec("grid", n=w * h, w=w))
    assert g.edge_count == w * (h - 1) + h * (w - 1)


def test_grid_partial_last_row_connected():
    g, _ = generate(FamilySpec("grid", n=7, w=3))
    from strongcluster.graph import connected_components

    assert connected_components(g, range(7)) == [list(range(7))]


def test_identifier_permutation_distinct_and_stable():
    p1 = seeded_permutation(50, 11)
    p2 = seeded_permutation(50, 11)
    p3 = seeded_permutation(50, 12)
    assert p1 == p2
    assert sorted(p1) == list(range(50))
    assert p1 != p3


def test_generate_with_id_seed():
    g, ids = generate(FamilySpec("path", n=8, id_seed=5))
    assert sorted(ids.ids) == list(range(8))
    assert ids.b == 3


def test_splitmix_block_matches_scalar():
    # gnp keeps pair k (row by row over u < v) iff draw k of the stream is
    # below p * 2^64; its vectorized draws must match the scalar stream.
    n, p, seed = 40, 0.3, 123
    g, _ = generate(FamilySpec("gnp", n=n, p=p, seed=seed))
    threshold = round(p * float(1 << 64))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    kept = [pair for k, pair in enumerate(pairs) if splitmix_at(seed, k) < threshold]
    assert 0 < len(kept) < len(pairs)
    assert sorted(g.edges()) == kept


def test_mix64_known_values_stable():
    # Frozen self-consistency anchors; a regression here would silently
    # change every generated corpus graph.
    assert mix64(0) == mix64(0)
    vals = [splitmix_at(0, i) for i in range(4)]
    assert len(set(vals)) == 4
    assert all(0 <= v < (1 << 64) for v in vals)


def test_splitmix_matches_published_outputs():
    # The first outputs of SplitMix64 seeded with 0, as published with the
    # generator (Steele, Lea and Flood, OOPSLA 2014; Vigna's splitmix64.c).
    assert [splitmix_at(0, i) for i in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


@pytest.mark.parametrize(
    "n, p, seed",
    [
        (400, 0.05, 19),  # 79 800 draws: a block boundary falls mid-row
        (30, 0.2, -1),  # the stream base wraps modulo 2^64 like splitmix_at
        (30, 0.2, 2**64 + 5),
    ],
)
def test_gnp_stream_matches_scalar_screening_pair_by_pair(n, p, seed):
    g, _ = generate(FamilySpec("gnp", n=n, p=p, seed=seed))
    kept = scalar_screen(n, p, seed)
    assert 0 < len(kept)
    assert sorted(g.edges()) == kept


@pytest.mark.parametrize("k", [0, 217, 434])
def test_gnp_threshold_is_exact_at_the_boundary(k):
    # p * 2^64 lands just at or just above draw k (both floats are exact), so
    # pair k is decided by the draw's low bits, which a screen on the high
    # bits alone cannot see.
    n, seed = 30, 5
    pair = [(u, v) for u in range(n) for v in range(u + 1, n)][k]
    z = splitmix_at(seed, k)
    for p, present in (((z & ~0x7FF) / 2**64, False), (((z | 0x7FF) + 1) / 2**64, True)):
        g, _ = generate(FamilySpec("gnp", n=n, p=p, seed=seed))
        assert (pair in edge_set(g)) == present
        assert sorted(g.edges()) == scalar_screen(n, p, seed)


GOLDEN_GNP = FamilySpec("gnp", n=4096, p=3 / 4096, seed=4096)
GOLDEN_GNP_SHA256 = "e221bf06cadd5ce696a29fa3328a0dc50f6c267327e25f4d3b9a9ee5cb31961c"


@pytest.fixture
def started_threads(monkeypatch):
    """Every thread started while the test runs, in start order."""
    started = []
    start = threading.Thread.start

    def record(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", record)
    return started


def use_cpus(monkeypatch, k):
    """Make the screen see k usable CPUs, through what it reads for them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: k)


def test_gnp_golden_digest_over_many_blocks():
    # 8 386 560 draws: 128 blocks of the stream, the last one partial.
    g, ids = generate(GOLDEN_GNP)
    assert g.edge_count == 6029
    text = write_edge_list(g, ids)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_GNP_SHA256


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
@pytest.mark.parametrize(
    "spec, blocks",
    [
        (FamilySpec("gnp", n=362, p=0.01, seed=3), 1),  # 65 341 draws: one block
        (FamilySpec("gnp", n=400, p=0.05, seed=19), 2),  # ragged last block
        (FamilySpec("gnp", n=400, p=1.0, seed=2), 2),
        (GOLDEN_GNP, 128),
    ],
)
def test_gnp_bytes_do_not_depend_on_the_worker_count(monkeypatch, started_threads, spec, blocks, workers):
    use_cpus(monkeypatch, workers)
    text = write_edge_list(*generate(spec)).encode()
    # A worker per usable CPU, never more than the blocks; one runs inline.
    assert len(started_threads) == (0 if min(workers, blocks) == 1 else min(workers, blocks))
    if spec == GOLDEN_GNP:
        assert hashlib.sha256(text).hexdigest() == GOLDEN_GNP_SHA256
    else:
        expected = build_graph(spec.n, scalar_screen(spec.n, spec.p, spec.seed), ids=None)
        assert text == write_edge_list(*expected).encode()


def test_gnp_screen_leaves_no_thread_running(monkeypatch, started_threads):
    use_cpus(monkeypatch, 8)
    before = threading.active_count()
    generate(GOLDEN_GNP)
    assert len(started_threads) == 8
    assert threading.active_count() == before
    assert not any(t.is_alive() for t in started_threads)


def test_gnp_worker_exception_reaches_the_caller(monkeypatch, started_threads):
    # Only the ragged last block (block 127 of 128) is shorter than 2^16.
    use_cpus(monkeypatch, 8)
    raised_in = []
    flatnonzero = np.flatnonzero

    def fail_on_last_block(a):
        if len(a) < 1 << 16:
            raised_in.append(threading.current_thread())
            raise RuntimeError("block 127")
        return flatnonzero(a)

    monkeypatch.setattr(np, "flatnonzero", fail_on_last_block)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="^block 127$"):
        generate(GOLDEN_GNP)
    assert raised_in and raised_in[0] in started_threads
    assert threading.active_count() == before
    assert not any(t.is_alive() for t in started_threads)


# gen's edge list with this process pinned to one CPU first, when argv[1] is 1.
_GEN_PINNED = """
import os, sys
if sys.argv[1] == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    assert len(os.sched_getaffinity(0)) == 1
from strongcluster.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="pins the child with sched_setaffinity")
def test_gen_writes_the_same_bytes_pinned_to_one_cpu(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(strongcluster.__file__)))
    written = []
    for pinned in ("1", "0"):
        out = tmp_path / f"pinned{pinned}.txt"
        argv = ["gen", "--family", "gnp", "--n", "4096", "--seed", "4096", "--output", str(out)]
        done = subprocess.run(
            [sys.executable, "-c", _GEN_PINNED, pinned, *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        written.append(out.read_bytes())
    assert written[0] == written[1]
    assert hashlib.sha256(written[0]).hexdigest() == GOLDEN_GNP_SHA256


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("path", n=0),
        FamilySpec("cycle", n=2),
        FamilySpec("gnp", n=10, p=1.5),
        FamilySpec("nonesuch", n=3),
    ],
)
def test_invalid_specs_rejected(spec):
    with pytest.raises(GraphError):
        generate(spec)


def test_grid_rejects_negative_width():
    with pytest.raises(GraphError, match=r"^grid needs w >= 0$"):
        generate(FamilySpec("grid", n=4, w=-1))
