"""Shared corpus definition for the test and acceptance suites.

The corpus spans the generator families over sizes 2..4096 with the identity
identifier assignment plus five seeded permutations.  Hypercubes exist only
at power-of-two sizes; complete graphs stop at 128 nodes (they are trivial
for the algorithm and quadratic to simulate); cycles need n >= 3.  Graph
structures are cached per (family, size): identifier permutations reuse them.
"""

from __future__ import annotations

import functools
import itertools

from strongcluster.gen import FamilySpec, generate, seeded_permutation
from strongcluster.graph import IdAssignment, build_graph

CORPUS_SIZES = [2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512,
                1024, 2048, 4096]
ID_SEEDS = (None, 11, 22, 33, 44, 55)

_structure_cache: dict[tuple, tuple] = {}


def family_specs_for_size(n: int) -> list[FamilySpec]:
    specs = [
        FamilySpec("path", n=n),
        FamilySpec("star", n=n),
        FamilySpec("tree", n=n, arity=2),
        FamilySpec("gnp", n=n, p=min(1.0, 3.0 / n), seed=n),
    ]
    if n >= 3:
        specs.append(FamilySpec("cycle", n=n))
    if n >= 4:
        specs.append(FamilySpec("grid", n=n))
    if n & (n - 1) == 0:
        specs.append(FamilySpec("hypercube", dim=n.bit_length() - 1))
    if n <= 128:
        specs.append(FamilySpec("complete", n=n))
    return specs


def _structure(spec: FamilySpec):
    key = (spec.family, spec.n, spec.w, spec.arity, spec.dim, spec.p, spec.seed)
    if key not in _structure_cache:
        _structure_cache[key] = generate(spec)
    return _structure_cache[key]


def corpus_entries(max_n: int, id_seeds=ID_SEEDS, min_n: int = 2):
    """Yield (name, graph, ids) for every corpus instance up to max_n nodes."""
    for n in CORPUS_SIZES:
        if not min_n <= n <= max_n:
            continue
        for spec in family_specs_for_size(n):
            g, base_ids = _structure(spec)
            for id_seed in id_seeds:
                if id_seed is None:
                    ids = base_ids
                else:
                    ids = IdAssignment(
                        b=base_ids.b,
                        ids=tuple(seeded_permutation(g.n, id_seed)),
                    )
                yield f"{spec.family}-n{n}-ids{id_seed}", g, ids


@functools.cache
def labelled_graphs(max_n: int) -> tuple:
    """(label, graph, ids) for every labelled graph on 1..max_n nodes.

    Graphs come in order of n, then of edge mask over the sorted node pairs,
    with identity identifiers.  Each sweep is built once and shared by the
    test modules and by the larger sweeps, which extend it; graphs and
    identifier assignments are frozen.
    """
    if max_n < 1:
        return ()
    pairs = list(itertools.combinations(range(max_n), 2))
    graphs = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        graphs.append((f"n={max_n} edges={edges}", *build_graph(max_n, edges)))
    return labelled_graphs(max_n - 1) + tuple(graphs)
