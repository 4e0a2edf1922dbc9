"""Independent oracles used to cross-check the main implementations.

Nothing here imports the code paths under test: products are triple loops,
determinants are Laplace expansions or fraction-free eliminations,
elementary divisors come from gcds of minors, parallel-edge counts are
tallied edge by edge, isomorphism is a backtracking search over those counts
(itself checked against a plain permutation search), hereditary and
saturated sets are checked edge by edge, the text format and the edge
tables are written out from the sorted ids, the paths that source
elision turns into sources are listed forwards, from every vertex, the
least shortest path is the least of every walk listed by length, and the
core is what is left once sources are deleted pass by pass.  Two
oracles are plain loops of the program's own single steps: self-loop
saturation recomputes its loopless vertices every round and moves mass one
rewrite at a time, and a trace is inverted step by step.  The module also
builds the large inputs that the tests and the CI jobs share; it needs no
test framework.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, permutations
from math import gcd
from typing import Optional

from ckgraph import (
    CollapseVertex,
    Graph,
    GraphFormatError,
    IntMatrix,
    MoveLog,
    MoveLogBuilder,
    RewriteStep,
    RewriteTrace,
    VertexMultiset,
    expand_at,
)


def naive_product(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Triple-loop product, entry by entry, with no zero skipped."""
    x, y = a.to_rows(), b.to_rows()
    rows = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            total = 0
            for k in range(a.cols):
                total += x[i][k] * y[k][j]
            row.append(total)
        rows.append(row)
    return IntMatrix.from_rows(rows)


def laplace_determinant(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * head * laplace_determinant(minor)
    return total


def determinant(m: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination.

    The pivot is the nonzero entry of least absolute value in its column: on
    large unimodular Smith transforms the first nonzero entry can make the
    intermediate minors, and the divisions by them, orders of magnitude
    larger.  Step k keeps only the columns right of the pivot.  A row with 0
    in the pivot column is just rescaled by ``pivot / previous pivot``, or
    left as it is when the two are equal.
    """
    if m.rows != m.cols:
        raise GraphFormatError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        candidates = [(abs(row[0]), i) for i, row in enumerate(a[k:], k) if row[0]]
        if not candidates:
            return 0
        i = min(candidates)[1]
        if i != k:
            a[k], a[i] = a[i], a[k]
            sign = -sign
        p, tail = a[k][0], a[k][1:]
        for i in range(k + 1, n):
            row = a[i]
            x = row[0]
            if x:
                a[i] = [(y * p - x * z) // prev for y, z in zip(row[1:], tail)]
            elif p == prev:
                a[i] = row[1:]
            else:
                a[i] = [y * p // prev for y in row[1:]]
        prev = p
    return sign * a[n - 1][0]


def minors_gcd(m: IntMatrix, k: int) -> int:
    """gcd of all k-by-k minors (0 when every minor vanishes)."""
    rows = m.to_rows()
    value = 0
    for row_pick in combinations(range(m.rows), k):
        for col_pick in combinations(range(m.cols), k):
            sub = [[rows[i][j] for j in col_pick] for i in row_pick]
            value = gcd(value, laplace_determinant(sub))
    return value


def minors_divisors(m: IntMatrix) -> tuple[int, ...]:
    """Elementary divisors from the gcd-of-minors recurrence:
    d_k = gcd(k-minors) / gcd((k-1)-minors), while the gcds stay nonzero."""
    divisors: list[int] = []
    previous = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        current = minors_gcd(m, k)
        if current == 0:
            break
        divisors.append(current // previous)
        previous = current
    return tuple(divisors)


def derived(g: Graph) -> tuple:
    """What every graph holds as ``(_lines, _out, _in)``, from its sorted
    ids: the vertex lines and the edge lines of the text format, and each
    vertex's out-edges and in-edges in id order."""
    lines = (
        tuple(f"vertex {v}\n" for v in g.vertices),
        tuple(f"edge {eid} {src} {dst}\n" for eid, src, dst in g.edges),
    )
    out = {v: tuple(e for e in g.edges if e.src == v) for v in g.vertices}
    in_ = {v: tuple(e for e in g.edges if e.dst == v) for v in g.vertices}
    return lines, out, in_


def format_lines(g: Graph) -> str:
    """The text format of a graph, line by line from its sorted ids."""
    vertex_lines, edge_lines = derived(g)[0]
    return "".join(vertex_lines + edge_lines)


def pair_counts(g: Graph) -> Counter[tuple[str, str]]:
    """The number of edges from each vertex to each vertex; 0 for a pair
    with no edge."""
    return Counter((e.src, e.dst) for e in g.edges)


def least_shortest_path(g: Graph, src: str, dst: str) -> Optional[tuple[tuple[str, ...], str, str]]:
    """The least edge-id sequence among the shortest nonempty paths from
    ``src`` to ``dst``, with its first edge's source and last edge's range;
    ``None`` when there is none.

    Every composable sequence of edges from ``src`` is listed, one length at
    a time, up to as many edges as the graph has vertices, which is as long
    as a shortest path or cycle can be.
    """
    walks = [[e] for e in g.edges if e.src == src]
    for _ in g.vertices:
        arrivals = sorted(
            (tuple(e.eid for e in walk), walk[0].src, walk[-1].dst)
            for walk in walks
            if walk[-1].dst == dst
        )
        if arrivals:
            return arrivals[0]
        walks = [walk + [e] for walk in walks for e in g.edges if e.src == walk[-1].dst]
    return None


def is_hereditary(g: Graph, s) -> bool:
    """No edge leaves ``s``."""
    sset = set(s)
    for v in sset:
        g.require_vertex(v)
    return all(e.dst in sset for e in g.edges if e.src in sset)


def is_saturated(g: Graph, s) -> bool:
    """No regular vertex outside ``s`` sends all of its edges into ``s``.

    Only regular vertices can force membership; sinks and isolated vertices
    never do.
    """
    sset = set(s)
    for v in sset:
        g.require_vertex(v)
    for v in g.vertices:
        if v in sset:
            continue
        out = g.out_edges(v)
        if out and all(e.dst in sset for e in out):
            return False
    return True


def is_acyclic(g: Graph, among) -> bool:
    """No vertex of ``among`` reaches itself by a nonempty path that stays in
    ``among``."""
    inside = set(among)
    for v in inside:
        todo = [e.dst for e in g.out_edges(v) if e.dst in inside]
        seen = set(todo)
        while todo:
            w = todo.pop()
            if w == v:
                return False
            for e in g.out_edges(w):
                if e.dst in inside and e.dst not in seen:
                    seen.add(e.dst)
                    todo.append(e.dst)
    return True


def core_of(g: Graph) -> frozenset[str]:
    """The vertices left after deleting source vertices, with the edges they
    emit, until none is left; each pass deletes every vertex that no vertex
    still left sends an edge to."""
    left = set(g.vertices)
    while True:
        sources = {v for v in left if not any(e.src in left for e in g.in_edges(v))}
        if not sources:
            return frozenset(left)
        left -= sources


def crossing_paths(g: Graph, h) -> list[tuple[str, str]]:
    """Every path that runs outside ``h`` and ends with an edge into ``h``, as
    ``(its edge ids joined by ".", the vertex it lands at)``, sorted.

    Paths are extended forwards from every vertex outside ``h``, one
    out-edge at a time; the part of the graph outside ``h`` must be acyclic.
    """
    hset = set(h)
    found = []
    paths: list[tuple[tuple[str, ...], str]] = [((), v) for v in g.vertices if v not in hset]
    while paths:
        path, v = paths.pop()
        for e in g.out_edges(v):
            if e.dst in hset:
                found.append((".".join(path + (e.eid,)), e.dst))
            else:
                paths.append((path + (e.eid,), e.dst))
    return sorted(found)


def saturate_unit_by_unit(
    g: Graph, carry: VertexMultiset
) -> tuple[MoveLog, VertexMultiset]:
    """The move log and the carried multiset of self-loop saturation: each
    round lists the vertices without a self-loop again, expands the least
    one's mass one unit at a time, then collapses it."""
    builder = MoveLogBuilder(g)
    m = carry
    while True:
        current = builder.graph
        lacking = [v for v in current.vertices if not current.loops_at(v)]
        if not lacking:
            return builder.log(), m
        v = lacking[0]
        while m.get(v) > 0:
            m = expand_at(current, m, v)
        builder.apply(CollapseVertex(v))


def inverted(trace: RewriteTrace) -> RewriteTrace:
    """The trace that undoes ``trace``: its steps in reverse order, each
    expand a contract and each contract an expand."""
    opposite = {"expand": "contract", "contract": "expand"}
    return RewriteTrace(tuple(RewriteStep(opposite[op], v) for op, v in reversed(trace.steps)))


def brute_force_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Try every vertex bijection and compare parallel-edge counts."""
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False
    counts1, counts2 = pair_counts(g1), pair_counts(g2)
    for image in permutations(g2.vertices):
        mapping = dict(zip(g1.vertices, image))
        if all(
            counts1[v, w] == counts2[mapping[v], mapping[w]]
            for v in g1.vertices
            for w in g1.vertices
        ):
            return True
    return False


def isomorphism(g1: Graph, g2: Graph) -> Optional[dict[str, str]]:
    """A vertex bijection from ``g1`` onto ``g2`` that keeps the number of
    edges between every ordered pair of vertices, or ``None``.

    Backtracking: a vertex is tried only against the vertices of the same
    out-degree, in-degree and loop count, those with the fewest candidates
    first, and an assignment is kept only while its counts to and from the
    vertices assigned before it agree.  Equal counts give an edge bijection
    too, so the vertex map is the whole witness.
    """
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return None
    counts1, counts2 = pair_counts(g1), pair_counts(g2)

    def signature(g: Graph, counts: Counter, v: str) -> tuple[int, int, int]:
        return (len(g.out_edges(v)), len(g.in_edges(v)), counts[v, v])

    groups: dict[tuple[int, int, int], list[str]] = {}
    for w in g2.vertices:
        groups.setdefault(signature(g2, counts2, w), []).append(w)
    sig1 = {v: signature(g1, counts1, v) for v in g1.vertices}
    if Counter(sig1.values()) != Counter({s: len(ws) for s, ws in groups.items()}):
        return None
    order = sorted(g1.vertices, key=lambda v: (len(groups[sig1[v]]), sig1[v], v))
    mapping: dict[str, str] = {}

    def extend(idx: int) -> bool:
        if idx == len(order):
            return True
        v = order[idx]
        used = set(mapping.values())
        for w in groups[sig1[v]]:
            if w not in used and all(
                counts1[v, u] == counts2[w, x] and counts1[u, v] == counts2[x, w]
                for u, x in mapping.items()
            ):
                mapping[v] = w
                if extend(idx + 1):
                    return True
                del mapping[v]
        return False

    return mapping if extend(0) else None


def exhaustive_closure(g: Graph, start: set[str]) -> frozenset[str]:
    """Smallest hereditary and saturated superset, by scanning all supersets.

    Exponential; only for graphs with a handful of vertices.
    """
    from itertools import chain

    best: frozenset[str] | None = None
    vertices = list(g.vertices)
    others = [v for v in vertices if v not in start]
    for r in range(len(others) + 1):
        for extra in combinations(others, r):
            candidate = frozenset(chain(start, extra))
            hereditary = all(
                e.dst in candidate for v in candidate for e in g.out_edges(v)
            )
            saturated = all(
                v in candidate
                for v in vertices
                if g.out_degree(v) > 0
                and all(e.dst in candidate for e in g.out_edges(v))
            )
            if hereditary and saturated and (best is None or len(candidate) < len(best)):
                best = candidate
    assert best is not None  # the full vertex set always qualifies
    return best


def markowitz_unit_pivots(m: IntMatrix) -> list[tuple[int, int]]:
    """The (row, column) pivots of eliminating +-1 entries in Markowitz
    order, by a full scan of a dense copy at every step: least
    ``(r - 1) * (c - 1)`` over the remaining rows and columns, then least
    row, then least column."""
    a = m.to_rows()
    rows, cols = set(range(m.rows)), set(range(m.cols))
    pivots = []
    while True:
        keys = [
            (
                (sum(1 for k in cols if a[i][k]) - 1) * (sum(1 for k in rows if a[k][j]) - 1),
                i,
                j,
            )
            for i in rows
            for j in cols
            if a[i][j] in (1, -1)
        ]
        if not keys:
            return pivots
        _, p, c = min(keys)
        for i in rows - {p}:
            # 1 / a[p][c] = a[p][c] for a unit pivot
            q = a[i][c] * a[p][c]
            a[i] = [x - q * y for x, y in zip(a[i], a[p])]
        rows.discard(p)
        cols.discard(c)
        pivots.append((p, c))


def diamond_chain(k: int) -> Graph:
    """k diamonds in a row, a_i -> b_i, c_i -> a_(i+1); a_k feeds a loop at z."""
    edges = [("l", "z", "z"), ("t", f"a{k}", "z")]
    for i in range(k):
        edges += [
            (f"ab{i}", f"a{i}", f"b{i}"),
            (f"ac{i}", f"a{i}", f"c{i}"),
            (f"bd{i}", f"b{i}", f"a{i + 1}"),
            (f"cd{i}", f"c{i}", f"a{i + 1}"),
        ]
    vertices = ["z"] + [f"{x}{i}" for x in "abc" for i in range(k + 1) if x == "a" or i < k]
    return Graph.build(vertices, edges)


def cycle_with_chord(n: int) -> Graph:
    """The cycle c0 -> c1 -> ... -> c(n-1) -> c0, with one more edge from c0
    to c(n // 2)."""
    edges = [(f"e{i}", f"c{i}", f"c{(i + 1) % n}") for i in range(n)]
    return Graph.build([f"c{i}" for i in range(n)], edges + [("x", "c0", f"c{n // 2}")])


def line_into_loop(n: int) -> Graph:
    """The line u0 -> u1 -> ... -> u(n-1), with a loop at u(n-1)."""
    edges = [(f"e{i}", f"u{i}", f"u{i + 1}") for i in range(n - 1)]
    return Graph.build([f"u{i}" for i in range(n)], edges + [("l", f"u{n - 1}", f"u{n - 1}")])
