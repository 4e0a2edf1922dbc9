"""Deterministic random generation for fuzzing.

Everything random in this package derives from SplitMix64, a tiny 64-bit
generator with fixed published constants, so any failing fuzz case can be
replayed from its seed on any platform or reimplementation:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state; z <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z <- (z XOR (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output <- z XOR (z >> 31)

``randint(lo, hi)`` reduces an output modulo the interval width (the tiny
modulo bias is irrelevant for fuzzing and keeps the description one line).
Sub-streams are derived by hashing ``"<seed>:<label>"`` with SHA-256 and
taking the first 8 bytes big-endian.

Random graphs draw an edge multiplicity for every ordered vertex pair from
the fixed table: 0 with weight 55, 1 with weight 30, and uniform in
``[2, max_parallel]`` with weight 15 (all out of 100).
"""

from __future__ import annotations

import hashlib
from typing import Sequence, TypeVar

from .graph import Edge, Graph
from .intmatrix import IntMatrix

_MASK = (1 << 64) - 1
T = TypeVar("T")


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq: Sequence[T]) -> T:
        if not seq:
            raise ValueError("choice from empty sequence")
        return seq[self.randint(0, len(seq) - 1)]


def derive_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _multiplicity(rng: SplitMix64, max_parallel: int) -> int:
    roll = rng.randint(0, 99)
    if roll < 55:
        return 0
    if roll < 85 or max_parallel < 2:
        return 1
    return rng.randint(2, max_parallel)


def random_graph(rng: SplitMix64, *, max_vertices: int = 8, max_parallel: int = 3) -> Graph:
    """A random finite multigraph; may contain sinks, sources, anything."""
    count = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(count)]
    edges: list[tuple[str, str, str]] = []
    for i in range(count):
        for j in range(count):
            for k in range(_multiplicity(rng, max_parallel)):
                edges.append((f"e{i}x{j}n{k}", f"v{i}", f"v{j}"))
    return Graph.build(vertices, edges)


def random_no_sink_graph(rng: SplitMix64, *, max_vertices: int = 8, max_parallel: int = 3) -> Graph:
    """As :func:`random_graph`, then every sink gets one outgoing edge to a
    random vertex."""
    g = random_graph(rng, max_vertices=max_vertices, max_parallel=max_parallel)
    extra = [
        Edge(f"fix{i}", v, g.vertices[rng.randint(0, len(g.vertices) - 1)])
        for i, v in enumerate(g.sinks)
    ]
    return g._edit(add_edges=extra)


def random_all_loop_graph(rng: SplitMix64, *, max_vertices: int = 6, max_parallel: int = 3) -> Graph:
    """As :func:`random_graph`, then every vertex missing a self-loop gets one.

    The result has a cycle of length one everywhere, hence neither sinks nor
    sources.
    """
    g = random_graph(rng, max_vertices=max_vertices, max_parallel=max_parallel)
    extra = [
        Edge(f"loop{i}", v, v) for i, v in enumerate(g.vertices) if not g.loops_at(v)
    ]
    return g._edit(add_edges=extra)


def random_int_matrix(rng: SplitMix64, *, max_dim: int = 8) -> IntMatrix:
    """A matrix of 1 to ``max_dim`` rows and columns, each entry uniform-ish
    in [-9, 9]."""
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    )
