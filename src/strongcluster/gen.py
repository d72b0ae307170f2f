"""Deterministic, seeded graph generators for the test corpus and benchmarks.

Randomness comes from SplitMix64 used in counter mode: draw i of stream
``seed`` is ``mix64(seed + (i+1) * GOLDEN)`` where ``mix64`` is the standard
SplitMix64 finalizer.  The construction is pure 64-bit integer arithmetic,
so identical (spec, seed) inputs produce byte-identical edge lists on every
platform.  gnp screens each vertex pair against ``round(p * 2**64)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, GraphError, IdAssignment, build_graph

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """SplitMix64 finalizer on a 64-bit value."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def splitmix_at(seed: int, i: int) -> int:
    """Draw i (0-based) of the SplitMix64 stream with the given seed."""
    return mix64((seed + (i + 1) * _GOLDEN) & _MASK)


def _splitmix_block(seed: int, start: int, count: int) -> np.ndarray:
    """Vectorized draws [start, start+count) of the stream; matches splitmix_at."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = (np.uint64(seed & _MASK) + idx * np.uint64(_GOLDEN))
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def seeded_permutation(n: int, seed: int) -> list[int]:
    """Fisher-Yates permutation of range(n) driven by the SplitMix64 stream."""
    out = list(range(n))
    draw = 0
    for i in range(n - 1, 0, -1):
        j = splitmix_at(seed, draw) % (i + 1)
        draw += 1
        out[i], out[j] = out[j], out[i]
    return out


@dataclass(frozen=True)
class FamilySpec:
    """Fully determines one corpus graph together with its seeds.

    ``n`` is the node count for path/cycle/complete/star/tree/grid/gnp;
    hypercube takes ``dim`` (n = 2**dim).  ``grid`` lays nodes out row-major
    with ``w`` columns (default: floor(sqrt(n))), joining horizontal and
    vertical neighbors, so any n is allowed.  ``id_seed`` of None keeps
    identifier = node index; otherwise identifiers are a seeded permutation
    of range(n).
    """

    family: str
    n: int = 0
    w: int = 0
    arity: int = 2
    dim: int = 0
    p: float = 0.0
    seed: int = 0
    id_seed: int | None = None


def _family_edges(spec: FamilySpec) -> tuple[int, list[tuple[int, int]]]:
    fam = spec.family
    n = spec.n
    if fam == "path":
        if n < 1:
            raise GraphError("path needs n >= 1")
        return n, [(i, i + 1) for i in range(n - 1)]
    if fam == "cycle":
        if n < 3:
            raise GraphError("cycle needs n >= 3")
        return n, [(i, (i + 1) % n) for i in range(n)]
    if fam == "complete":
        if n < 1:
            raise GraphError("complete needs n >= 1")
        return n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    if fam == "star":
        if n < 1:
            raise GraphError("star needs n >= 1")
        return n, [(0, i) for i in range(1, n)]
    if fam == "tree":
        if n < 1 or spec.arity < 1:
            raise GraphError("tree needs n >= 1 and arity >= 1")
        return n, [(i, (i - 1) // spec.arity) for i in range(1, n)]
    if fam == "grid":
        if n < 1:
            raise GraphError("grid needs n >= 1")
        if spec.w < 0:
            raise GraphError("grid needs w >= 0")
        w = spec.w if spec.w else max(1, int(n**0.5))
        edges = []
        for k in range(n):
            if (k % w) + 1 < w and k + 1 < n:
                edges.append((k, k + 1))
            if k + w < n:
                edges.append((k, k + w))
        return n, edges
    if fam == "hypercube":
        if spec.dim < 0:
            raise GraphError("hypercube needs dim >= 0")
        size = 1 << spec.dim
        return size, [(x, x ^ (1 << j)) for x in range(size) for j in range(spec.dim) if x < x ^ (1 << j)]
    if fam == "gnp":
        if n < 1:
            raise GraphError("gnp needs n >= 1")
        if not 0.0 <= spec.p <= 1.0:
            raise GraphError(f"gnp needs p in [0,1], got {spec.p}")
        return n, _gnp_edges(n, spec.p, spec.seed)
    raise GraphError(f"unknown family {fam!r}")


def _gnp_edges(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    threshold = round(p * float(1 << 64))
    if threshold <= 0:
        return []
    # draw < threshold as draw <= threshold - 1, which fits 64 bits even at p = 1.
    last = np.uint64(threshold - 1)
    edges: list[tuple[int, int]] = []
    counter = 0
    for u in range(n - 1):
        row = n - 1 - u
        draws = _splitmix_block(seed, counter, row)
        vs = np.nonzero(draws <= last)[0] + (u + 1)
        edges.extend((u, int(v)) for v in vs)
        counter += row
    return edges


def generate(spec: FamilySpec) -> tuple[Graph, IdAssignment]:
    """Materialize the graph and identifier assignment for a family spec."""
    n, edges = _family_edges(spec)
    ids = None if spec.id_seed is None else seeded_permutation(n, spec.id_seed)
    return build_graph(n, edges, ids=ids)
