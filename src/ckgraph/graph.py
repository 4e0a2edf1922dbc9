"""Finite directed multigraphs with named vertices and named parallel edges.

A graph is a pair of id sets: vertices, and edges given as
``(edge id, source vertex, range vertex)`` triples.  Everything is immutable
after construction and canonically ordered (lexicographically on ids), so
serialization, fingerprints, and all derived reports are deterministic.

The module also carries the vertex-set machinery used throughout: vertex
classification, hereditary and saturated sets and their joint closure,
and vertex-simple cycles without exits.
"""

from __future__ import annotations

import hashlib
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import GraphFormatError, PreconditionError

# any character an id may not contain: whitespace (exactly the characters
# for which str.isspace holds) and the separators of the text formats
_BAD_ID_CHAR = re.compile(r"[\s#,=]")


class Edge(NamedTuple):
    eid: str
    src: str
    dst: str


def _check_id(kind: str, name: str) -> str:
    if not isinstance(name, str) or not name:
        raise GraphFormatError(f"{kind} id must be a nonempty string, got {name!r}")
    if _BAD_ID_CHAR.search(name):
        raise GraphFormatError(
            f"bad {kind} id {name!r}: ids contain no whitespace and none of '#', ',', '='"
        )
    return name


def _new_edge(e: Sequence[str]) -> Edge:
    try:
        edge = Edge(*e)
    except TypeError:
        raise GraphFormatError(f"an edge is an (id, source, range) triple, got {e!r}") from None
    _check_id("edge", edge.eid)
    return edge


def _edge_index(edges: Sequence[Edge], eid: object) -> Optional[int]:
    # the position of the edge with id eid in the sorted edges, or None;
    # the 1-tuple (eid,) sorts just before the edge with that id
    if isinstance(eid, str):
        i = bisect_left(edges, (eid,))
        if i < len(edges) and edges[i].eid == eid:
            return i
    return None


def _unknown_vertex(v: object) -> PreconditionError:
    return PreconditionError("unknown-vertex", f"no vertex {v!r} in graph")


def _vertex_line(v: str) -> str:
    return f"vertex {v}\n"


def _edge_line(e: Edge) -> str:
    return f"edge {e.eid} {e.src} {e.dst}\n"


def _cut(items: list, lines: list, positions: Iterable[int]) -> None:
    # delete the positions from items, and from their lines alongside
    for i in sorted(positions, reverse=True):
        del items[i]
        del lines[i]


def _merge(kept: list, lines: list, added: list, line) -> tuple:
    # both are sorted; a few added items go in by bisection, each with its
    # line at the same place, and with nothing kept (as in build) the added
    # ones are the result
    if not kept:
        lines.extend(map(line, added))
        return tuple(added)
    for item in added:
        i = bisect_left(kept, item)
        kept.insert(i, item)
        lines.insert(i, line(item))
    return tuple(kept)


def _patched(table: dict, end: int, dropped: Iterable[str], added_vertices: Iterable[str],
             gone: Iterable[Edge], added_edges: Iterable[Edge]) -> dict:
    # the edge table (each vertex's edges at position `end` of the Edge
    # triple, 1 for the source, 2 for the range) of an edited graph from its
    # base's, rewritten only at the vertices the edit touches; each vertex's
    # tuple is in id order, and ids are unique, so a gone edge is found by
    # bisection and cut by a slice
    table = table.copy()
    for v in dropped:
        del table[v]
    for e in gone:
        es = table.get(e[end])
        if es is not None:
            i = bisect_left(es, e)
            if i < len(es) and es[i] == e:
                table[e[end]] = es[:i] + es[i + 1:]
    new: dict[str, list[Edge]] = {v: [] for v in added_vertices}
    for e in added_edges:  # in id order
        new.setdefault(e[end], []).append(e)
    for v, es in new.items():
        table[v] = tuple(sorted(table[v] + tuple(es))) if table.get(v) else tuple(es)
    return table


@dataclass(frozen=True)
class Graph:
    """Immutable finite directed multigraph.

    ``vertices`` and ``edges`` are stored sorted, with unique well-formed ids
    and every edge endpoint a vertex; edges sort by id, since ids are
    unique.  :meth:`build` is the one entry for ids from outside and checks
    them all.  :meth:`_edit` is the program's own edit of a graph it holds
    and trusts its caller; a move names the ids it adds with :meth:`_fresh`,
    which keeps them unique.  The raw constructor is not an entry.

    ``build`` is an edit of the empty graph, so every graph gets its derived
    data from ``_edit``: the formatted vertex and edge lines ``_lines`` that
    :func:`format_graph` joins, and the edge tables ``_out`` and ``_in``,
    which map each vertex to its out- or in-edges in id order.  The keys of
    ``_out`` are the vertex set, which vertex lookups read; edge ids are
    looked up by bisection in the sorted ``edges``.  An edit cuts and
    inserts lines at the places of the dropped and added ids and rewrites
    the tables only at the vertices it touches, so the derived data equals
    what the ids give fresh, whatever the graph's history.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    _lines: tuple[tuple[str, ...], tuple[str, ...]] = field(init=False, repr=False, compare=False)
    _out: dict[str, tuple[Edge, ...]] = field(init=False, repr=False, compare=False)
    _in: dict[str, tuple[Edge, ...]] = field(init=False, repr=False, compare=False)

    @staticmethod
    def build(vertices: Iterable[str], edges: Iterable[Sequence[str]]) -> "Graph":
        """The graph on these ids, checked: the entry for input from outside.

        The id pattern is checked first, on each vertex id and then on each
        edge's arity and id, so that sorting compares only string ids (edges
        by id).  Then, in sorted order, each vertex id is checked for a
        repeat, and each edge id for a repeat before its endpoints for
        vertices.  The first fault raises ``GraphFormatError``.
        """
        new_vertices = sorted([_check_id("vertex", v) for v in vertices])
        new_edges = sorted([_new_edge(e) for e in edges], key=itemgetter(0))
        for v, w in zip(new_vertices, new_vertices[1:]):
            if v == w:
                raise GraphFormatError(f"duplicate vertex id {v!r}")
        vertex_set = set(new_vertices)
        previous = None
        for e in new_edges:
            if e.eid == previous:
                raise GraphFormatError(f"duplicate edge id {e.eid!r}")
            previous = e.eid
            for endpoint in (e.src, e.dst):
                if endpoint not in vertex_set:
                    raise GraphFormatError(f"edge {e.eid!r} endpoint {endpoint!r} is not a vertex")
        return _EMPTY._edit(add_vertices=new_vertices, add_edges=new_edges)

    def _edit(
        self,
        *,
        drop_vertices: Iterable[str] = (),
        drop_edges: Iterable[str] = (),
        add_vertices: Iterable[str] = (),
        add_edges: Iterable[Edge] = (),
    ) -> "Graph":
        """This graph less the dropped ids, plus the added ones.

        Dropping a vertex drops the edges at it; dropped ids that are not
        in this graph are ignored.  Nothing is checked: the caller passes
        each added edge as an ``Edge`` record, keeps the added ids well
        formed and unique against the kept ids and each other, and ends
        every added edge at vertices of the result.
        Python-level work is done only on the dropped and added ids: the
        base's ids are copied whole, and each added id is inserted at its
        place by bisection, so an edit that adds a few ids costs about one
        C-level copy of the base graph.  The base's lines are cut and
        inserted at the same places, and its edge tables are rewritten only
        at the vertices touched.
        """
        out, in_, base_edges = self._out, self._in, self.edges
        dropped = sorted(filter(out.__contains__, set(drop_vertices)))
        gone = set()
        for eid in drop_edges:
            i = _edge_index(base_edges, eid)
            if i is not None:
                gone.add(base_edges[i])
        for v in dropped:
            gone.update(out[v], in_[v])
        vertices, edges = list(self.vertices), list(base_edges)
        vertex_lines, edge_lines = map(list, self._lines)
        if dropped:
            _cut(vertices, vertex_lines, [bisect_left(self.vertices, v) for v in dropped])
        if gone:
            _cut(edges, edge_lines, [bisect_left(base_edges, e) for e in gone])
        new_vertices = sorted(add_vertices)
        new_edges = sorted(add_edges)  # by id, since ids are unique
        result = Graph(
            _merge(vertices, vertex_lines, new_vertices, _vertex_line),
            _merge(edges, edge_lines, new_edges, _edge_line),
        )
        result.__dict__.update(
            _lines=(tuple(vertex_lines), tuple(edge_lines)),
            _out=_patched(out, 1, dropped, new_vertices, gone, new_edges),
            _in=_patched(in_, 2, dropped, new_vertices, gone, new_edges),
        )
        return result

    def _fresh(self, kind: str, bases: Iterable[str], free: Iterable[str] = ()) -> list[str]:
        """One new ``kind`` id per base, in order, for an edit of this graph.

        Each is the base itself, or else the first of ``base_2``,
        ``base_3``, ... that is neither a ``kind`` id of this graph nor a
        name given earlier in the same call.  The ids in ``free``, which
        the same edit drops, count as free.
        """
        out, edges = self._out, self.edges
        free = set(free)
        given: set[str] = set()
        names = []
        for base in bases:
            name, k = base, 2
            while name in given or name not in free and (
                name in out if kind == "vertex" else _edge_index(edges, name) is not None
            ):
                name = f"{base}_{k}"
                k += 1
            given.add(name)
            names.append(name)
        return names

    # -- lookups ---------------------------------------------------------

    def has_vertex(self, v: str) -> bool:
        try:
            return v in self._out
        except TypeError:  # unhashable, so no vertex id, as in the edge lookups
            return False

    def require_vertex(self, v: str) -> None:
        if not self.has_vertex(v):
            raise _unknown_vertex(v)

    def edge(self, eid: str) -> Edge:
        i = _edge_index(self.edges, eid)
        if i is None:
            raise PreconditionError("unknown-edge", f"no edge {eid!r} in graph")
        return self.edges[i]

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        try:
            return self._out[v]
        except (KeyError, TypeError):
            raise _unknown_vertex(v) from None

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        try:
            return self._in[v]
        except (KeyError, TypeError):
            raise _unknown_vertex(v) from None

    def out_degree(self, v: str) -> int:
        return len(self.out_edges(v))

    def in_degree(self, v: str) -> int:
        return len(self.in_edges(v))

    def loops_at(self, v: str) -> tuple[Edge, ...]:
        return tuple([e for e in self.out_edges(v) if e.dst == v])

    @property
    def sinks(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if not self._out[v])

    @property
    def source_vertices(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if not self._in[v])


# the base of every build
_EMPTY = Graph((), ())
_EMPTY.__dict__.update(_lines=((), ()), _out={}, _in={})


# -- text format -----------------------------------------------------------


def format_graph(g: Graph) -> str:
    """Serialize deterministically: sorted vertex lines, then sorted edge lines."""
    vertex_lines, edge_lines = g._lines
    return "".join(vertex_lines) + "".join(edge_lines)


def parse_graph(text: str) -> Graph:
    """Parse the line format: ``vertex <id>`` / ``edge <id> <src> <dst>``.

    ``#`` starts a comment; blank lines are ignored.
    """
    vertices: list[str] = []
    edges: list[tuple[str, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex" and len(parts) == 2:
            vertices.append(parts[1])
        elif parts[0] == "edge" and len(parts) == 4:
            edges.append((parts[1], parts[2], parts[3]))
        else:
            raise GraphFormatError(f"line {lineno}: cannot parse {raw!r}")
    return Graph.build(vertices, edges)


def graph_fingerprint(g: Graph) -> str:
    return hashlib.sha256(format_graph(g).encode("utf-8")).hexdigest()[:16]


# -- vertex classification ---------------------------------------------------


@dataclass(frozen=True)
class VertexClass:
    """Classification of a single vertex.

    ``kind`` is one of ``"regular"``, ``"sink"`` (emits nothing), ``"source"``
    (receives nothing but emits), or ``"isolated"`` (neither emits nor
    receives).
    """

    kind: str
    in_degree: int
    out_degree: int


def classify_vertex(g: Graph, v: str) -> VertexClass:
    indeg = g.in_degree(v)
    outdeg = g.out_degree(v)
    if outdeg == 0 and indeg == 0:
        kind = "isolated"
    elif outdeg == 0:
        kind = "sink"
    elif indeg == 0:
        kind = "source"
    else:
        kind = "regular"
    return VertexClass(kind=kind, in_degree=indeg, out_degree=outdeg)


# -- reachability, hereditary and saturated sets -----------------------------


def reachable_from(g: Graph, start: Iterable[str]) -> frozenset[str]:
    """Vertices reachable from ``start`` by a path, including ``start`` itself
    (paths of length zero count)."""
    todo = list(start)
    for v in todo:
        g.require_vertex(v)
    seen = set(todo)
    while todo:
        v = todo.pop()
        for e in g.out_edges(v):
            if e.dst not in seen:
                seen.add(e.dst)
                todo.append(e.dst)
    return frozenset(seen)


def _topological_order(g: Graph, among: Sequence[str]) -> list[str]:
    # Kahn's order of the subgraph on `among`, seeded in `among` order and
    # grown while it is read; it leaves out what lies on or behind a cycle,
    # so it is complete exactly when that subgraph is acyclic
    inside = set(among)
    indeg = {v: sum(1 for e in g.in_edges(v) if e.src in inside) for v in among}
    order = [v for v in among if indeg[v] == 0]
    for v in order:
        for e in g.out_edges(v):
            if e.dst in inside:
                indeg[e.dst] -= 1
                if indeg[e.dst] == 0:
                    order.append(e.dst)
    return order


def _require_hereditary(g: Graph, hset: set[str] | frozenset[str]) -> None:
    for v in hset:
        g.require_vertex(v)
    for v in sorted(hset):
        for e in g.out_edges(v):
            if e.dst not in hset:
                raise PreconditionError(
                    "not-hereditary", f"edge {e.eid!r} leaves the set: {e.src!r} -> {e.dst!r}"
                )


def hereditary_saturated_closure(g: Graph, s: Iterable[str]) -> frozenset[str]:
    """Smallest hereditary and saturated vertex set containing ``s``.

    A vertex whose edges all land in a hereditary set leaves that set
    hereditary, so this is the saturation of the vertices reachable from
    ``s``: each regular vertex outside counts its edges that land outside,
    joins when the count reaches 0, and lowers the counts of the sources of
    its in-edges.
    """
    closed = set(reachable_from(g, s))
    # each regular vertex outside -> the number of its edges that land outside
    left = {v: sum(e.dst not in closed for e in g.out_edges(v))
            for v in g.vertices if v not in closed and g.out_edges(v)}
    joined = [v for v, n in left.items() if n == 0]
    for w in joined:
        closed.add(w)
        for e in g.in_edges(w):
            if e.src in left:
                left[e.src] -= 1
                if left[e.src] == 0:
                    joined.append(e.src)
    return frozenset(closed)


def restrict_to_hereditary(g: Graph, h: Iterable[str]) -> Graph:
    """Subgraph on a hereditary set ``h`` with every edge emitted by ``h``.

    Heredity guarantees those edges also land in ``h``.
    """
    hset = set(h)
    _require_hereditary(g, hset)
    return g._edit(drop_vertices=[v for v in g.vertices if v not in hset])


# -- paths and cycles --------------------------------------------------------


@dataclass(frozen=True)
class Path:
    """Nonempty composable edge sequence with its derived endpoints."""

    edges: tuple[str, ...]
    source: str
    target: str


def make_path(g: Graph, edge_ids: Sequence[str]) -> Path:
    if not edge_ids:
        raise PreconditionError("empty-path", "a path consists of at least one edge")
    resolved = [g.edge(eid) for eid in edge_ids]
    for first, second in zip(resolved, resolved[1:]):
        if first.dst != second.src:
            raise PreconditionError(
                "broken-path",
                f"edges {first.eid!r} and {second.eid!r} do not compose "
                f"({first.dst!r} != {second.src!r})",
            )
    return Path(tuple(edge_ids), resolved[0].src, resolved[-1].dst)


def vertex_simple_cycles_without_exit(g: Graph) -> list[Path]:
    """All vertex-simple cycles no vertex of which emits an edge off the cycle.

    Such cycles live entirely on vertices of out-degree one (a second edge at
    any cycle vertex, even one parallel to the cycle edge, is an exit), so
    they are found by following unique out-edges.  Results are based at their
    lexicographically least vertex and sorted by base.
    """
    unique_out = {v: g.out_edges(v)[0] for v in g.vertices if g.out_degree(v) == 1}
    done: set[str] = set()
    cycles: list[Path] = []
    for start in sorted(unique_out):
        if start in done:
            continue
        trail: list[Edge] = []
        position: dict[str, int] = {}
        v = start
        while v in unique_out and v not in position and v not in done:
            position[v] = len(trail)
            trail.append(unique_out[v])
            v = unique_out[v].dst
        if v in position:
            cycle = trail[position[v]:]
            base = min(range(len(cycle)), key=lambda i: cycle[i].src)
            rotated = cycle[base:] + cycle[:base]
            cycles.append(Path(tuple(e.eid for e in rotated), rotated[0].src, rotated[-1].dst))
        done.update(position)
    return sorted(cycles, key=lambda p: p.source)


def shortest_path(g: Graph, src: str, dst: str) -> Optional[Path]:
    """Shortest nonempty path from ``src`` to ``dst``; lexicographically least
    edge-id sequence among the shortest.  For ``src == dst`` this is the
    shortest cycle through the vertex.  ``None`` when no path exists.

    Each layer's paths are extended in order, and a vertex's out-edges are
    in id order, so every layer comes out in increasing order: the first
    path to reach a vertex is the least of its shortest.
    """
    g.require_vertex(src)
    g.require_vertex(dst)
    seen = {src}
    layer: list[tuple[str, tuple[str, ...]]] = [(src, ())]
    while layer:
        next_layer: list[tuple[str, tuple[str, ...]]] = []
        for v, prefix in layer:
            for e in g.out_edges(v):
                if e.dst == dst:
                    return Path(prefix + (e.eid,), src, dst)
                if e.dst not in seen:
                    seen.add(e.dst)
                    next_layer.append((e.dst, prefix + (e.eid,)))
        layer = next_layer
    return None
