from __future__ import annotations

import pytest
from hypothesis import strategies as st

from ckgraph import Graph, IntMatrix
from ckgraph.randgen import SplitMix64, derive_seed, random_graph


def G(vertex_spec: str, edge_spec: str = "") -> Graph:
    """Compact builder: ``G("u v w", "a:u>v b:v>w c:w>w")``."""
    edges = []
    for item in edge_spec.split():
        eid, _, arrow = item.partition(":")
        src, _, dst = arrow.partition(">")
        edges.append((eid, src, dst))
    return Graph.build(vertex_spec.split(), edges)


def bouquet(n: int) -> Graph:
    """One vertex carrying n loops."""
    return Graph.build(["v0"], [(f"l{i}", "v0", "v0") for i in range(1, n + 1)])


def fans(width: int, parallel: int = 1) -> Graph:
    """v and w each send ``parallel`` edges to each of ``width`` loop
    vertices, so ``expand v; contract w`` takes v to w through a multiset of
    mass ``width * parallel``."""
    loops = [f"u{i}" for i in range(width)]
    edges = [(f"l{i}", u, u) for i, u in enumerate(loops)]
    edges += [
        (f"{x}{i}.{k}", x, u) for x in "vw" for i, u in enumerate(loops) for k in range(parallel)
    ]
    return Graph.build(["v", "w", *loops], edges)


def large_random_graphs(label: str, count: int = 30, min_vertices: int = 20) -> list[Graph]:
    """Seeded graphs at the size of the benchmark's K-theory workload."""
    rng = SplitMix64(derive_seed(99, label))
    out: list[Graph] = []
    while len(out) < count:
        g = random_graph(rng, max_vertices=28, max_parallel=3)
        if len(g.vertices) >= min_vertices:
            out.append(g)
    return out


@pytest.fixture
def two_loops() -> Graph:
    return G("v0", "e0:v0>v0 f:v0>v0")


@pytest.fixture
def line_into_loops() -> Graph:
    """A length-2 line feeding the two-loop vertex."""
    return G("v0 v1 v2", "e0:v0>v0 f:v0>v0 e1:v1>v0 e2:v2>v1")


@pytest.fixture
def star_into_loops() -> Graph:
    """Two one-shot sources feeding the two-loop vertex."""
    return G("v0 v1 v2", "e0:v0>v0 f:v0>v0 e1:v1>v0 e2:v2>v0")


@st.composite
def graphs(draw, max_vertices: int = 5, max_parallel: int = 2, min_vertices: int = 1) -> Graph:
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=3 * n,
        )
    )
    counts: dict[tuple[int, int], int] = {}
    edges = []
    for i, j in pairs:
        k = counts.get((i, j), 0)
        if k >= max_parallel:
            continue
        counts[(i, j)] = k + 1
        edges.append((f"e{i}x{j}n{k}", f"v{i}", f"v{j}"))
    return Graph.build([f"v{i}" for i in range(n)], edges)


@st.composite
def no_sink_graphs(draw, max_vertices: int = 5, max_parallel: int = 2) -> Graph:
    g = draw(graphs(max_vertices=max_vertices, max_parallel=max_parallel))
    extra = []
    for i, v in enumerate(g.sinks):
        target = draw(st.sampled_from(g.vertices))
        extra.append((f"fix{i}", v, target))
    if not extra:
        return g
    return Graph.build(g.vertices, [tuple(e) for e in g.edges] + extra)


@st.composite
def all_loop_graphs(draw, max_vertices: int = 4, max_parallel: int = 2) -> Graph:
    g = draw(graphs(max_vertices=max_vertices, max_parallel=max_parallel))
    extra = [
        (f"loop{i}", v, v) for i, v in enumerate(g.vertices) if not g.loops_at(v)
    ]
    if not extra:
        return g
    return Graph.build(g.vertices, [tuple(e) for e in g.edges] + extra)


# mostly 0 and +-1, as in graph presentations, so the unit pivots do most of
# the work and the dense core is small or empty
UNIT_HEAVY = (0, 0, 0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3)


@st.composite
def dense_unit_matrices(draw, max_dim: int):
    """Matrices of 3 to ``max_dim`` rows and columns of +-1 with a few holes,
    every row and column keeping at least 3 nonzeros: each unit costs at
    least 4 at the start, so no pivot comes from the heap or from the cost-1
    stop, and the scans run on to the exact column bound.  The holes let
    units outlive the first pivot."""
    rows, cols = draw(st.integers(3, max_dim)), draw(st.integers(3, max_dim))
    flat = draw(st.lists(st.sampled_from((1, -1)), min_size=rows * cols, max_size=rows * cols))
    a = [flat[i * cols : (i + 1) * cols] for i in range(rows)]
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    for i, j in draw(st.lists(cells, max_size=rows * cols // 2)):
        if a[i][j] and sum(map(bool, a[i])) > 3 and sum(bool(row[j]) for row in a) > 3:
            a[i][j] = 0
    return IntMatrix.from_rows(a)


@st.composite
def unit_heavy_matrices(draw, max_dim: int):
    rows, cols = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    flat = draw(st.lists(st.sampled_from(UNIT_HEAVY), min_size=rows * cols, max_size=rows * cols))
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=rows // 3))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=cols // 3))
    return IntMatrix.from_rows(
        [
            [0 if i in zero_rows or j in zero_cols else flat[i * cols + j] for j in range(cols)]
            for i in range(rows)
        ]
    )
