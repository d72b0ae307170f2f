"""Deterministic, seeded graph generators for the test corpus and benchmarks.

Randomness comes from SplitMix64 used in counter mode: draw i of stream
``seed`` is ``mix64(seed + (i+1) * GOLDEN)`` where ``mix64`` is the standard
SplitMix64 finalizer.  The construction is pure 64-bit integer arithmetic,
so identical (spec, seed) inputs produce byte-identical edge lists on every
platform.  gnp keeps vertex pair k (row-major over u < v) iff draw k is below
``round(p * 2**64)``; the triangle's draws are one stream, screened in fixed
blocks of in-place uint64 arithmetic, and every kept pair passes the exact
comparison.  Each block's draws depend only on their indices, so the blocks
run on every usable CPU and are joined in block order: ``gen`` writes the
same bytes on any machine.  That screen is the only numpy here, and it
imports numpy itself, so generating any other family does not load it.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

from .graph import Graph, GraphError, IdAssignment, build_graph

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# The finalizer's two multipliers.
_M1, _M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
# gnp screens the triangle in blocks of this many draws: 2**15 and 2**16 ran
# fastest on n=16384; 2**13 and 2**17 were slower.
_BLOCK = 1 << 16


def mix64(x: int) -> int:
    """SplitMix64 finalizer on a 64-bit value."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * _M1) & _MASK
    x = ((x ^ (x >> 27)) * _M2) & _MASK
    return x ^ (x >> 31)


def splitmix_at(seed: int, i: int) -> int:
    """Draw i (0-based) of the SplitMix64 stream with the given seed."""
    return mix64((seed + (i + 1) * _GOLDEN) & _MASK)


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


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _gnp_edges(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    import numpy as np

    threshold = round(p * float(1 << 64))
    total = n * (n - 1) // 2
    if threshold <= 0 or total == 0:
        return []
    # draw < threshold as draw <= threshold - 1, which fits 64 bits even at p = 1.
    last = threshold - 1
    # mix64's last step z = y ^ (y >> 31) leaves bits 63..33 of y as they are,
    # so z <= last needs y <= coarse.  The coarse test only narrows the block;
    # every pair is kept on the exact z <= last.
    coarse = np.uint64(((last >> 33) << 33) | ((1 << 33) - 1))
    block = min(_BLOCK, total)
    m1, m2 = np.uint64(_M1), np.uint64(_M2)
    s27, s30, s31 = np.uint64(27), np.uint64(30), np.uint64(31)
    steps = np.arange(1, block + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    starts = range(0, total, block)
    # Block i's kept pair indices land in hits[i], whichever worker screens it.
    hits: list = [None] * len(starts)
    claims = iter(enumerate(starts))
    errors: list[BaseException] = []

    def screen() -> None:
        x = np.empty(block, dtype=np.uint64)
        t = np.empty(block, dtype=np.uint64)
        near = np.empty(block, dtype=bool)
        try:
            # Under the GIL each next() on the shared iterator hands out a
            # block exactly once.
            for i, start in claims:
                if errors:  # another worker failed: claim no more blocks
                    return
                m = min(block, total - start)
                xs, ts = x[:m], t[:m]
                np.add(steps[:m], np.uint64((seed + start * _GOLDEN) & _MASK), out=xs)
                np.bitwise_xor(xs, np.right_shift(xs, s30, out=ts), out=xs)
                np.multiply(xs, m1, out=xs)
                np.bitwise_xor(xs, np.right_shift(xs, s27, out=ts), out=xs)
                np.multiply(xs, m2, out=xs)
                k = np.flatnonzero(np.less_equal(xs, coarse, out=near[:m]))
                y = xs[k]
                hits[i] = k[(y ^ (y >> s31)) <= np.uint64(last)] + start
        except BaseException as e:
            errors.append(e)

    # numpy releases the GIL inside its ufunc loops, so threads screen blocks
    # in parallel; one worker (one CPU or one block) screens in the caller.
    workers = min(_usable_cpus(), len(starts))
    if workers == 1:
        screen()
    else:
        threads = []
        try:
            for _ in range(workers):
                th = threading.Thread(target=screen)
                th.start()
                threads.append(th)
        finally:
            for th in threads:
                th.join()
    if errors:
        raise errors[0]
    ks = np.concatenate(hits)
    rows = np.arange(n - 1, dtype=np.int64)
    offsets = rows * (n - 1) - rows * (rows - 1) // 2
    us = np.searchsorted(offsets, ks, side="right") - 1
    vs = ks - offsets[us] + us + 1
    return list(zip(us.tolist(), vs.tolist()))


def generate(spec: FamilySpec) -> tuple[Graph, IdAssignment]:
    """Materialize the graph and identifier assignment for a family spec."""
    n, edges = _family_edges(spec)
    ids = None if spec.id_seed is None else seeded_permutation(n, spec.id_seed)
    return build_graph(n, edges, ids=ids)
