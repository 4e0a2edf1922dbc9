"""Graph-to-graph transformations that preserve the algebra's invariants.

Each move is a pure function on graphs plus a small parameter record, so a
sequence of moves can be logged, serialized, and replayed against graph
fingerprints.  A move computes its result as one ``Graph._edit`` of its
input, naming the ids it drops and the fresh ids it adds: the edit keeps the
input's edges as they are and checks nothing, since the input already meets
every invariant that ``Graph.build`` enforces and ``Graph._fresh`` keeps the
added ids unique.  The table ``_MOVES`` is the one list of move spellings:
it ties each spelling name to its record type, its function and its
record's field names and spellings, read once at import, and
:func:`apply_move`, :func:`format_move` and :func:`parse_move` all read it.
Fresh ids are generated deterministically from the move's parameters and
suffixed with ``_2``, ``_3``, ... on collision, by ``Graph._fresh``.  A
collision is with an id of the graph left after the move's drops, or with an
id named earlier in the same move; so a move may reuse an id it drops:

* head vertices ``<v>~h<k>`` with edges ``<v>~h<k>e``,
* subdivision vertices ``<e>~s<k>`` with edges ``<e>~s<k>e``,
* star sources ``<v>~t<k>`` with edges ``<v>~t<k>e``,
* collapse compositions ``<e>.<f>``,
* elision sources ``src:<path>`` (edge ids joined by ``.``) with edges
  ``src:<path>~e``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Iterable, Mapping, NamedTuple, Union

from .errors import CertificateError, GraphFormatError, PreconditionError, require_int
from .graph import Edge, Graph, _require_hereditary, _topological_order, graph_fingerprint


# -- the moves ----------------------------------------------------------------

# The longest head, subdivision or star a move builds.  The move is cheap
# (``ckgraph move --move add-head:v0:3000`` on the one-vertex two-loop graph
# takes about 0.1 s end to end, CPython 3.11 on a shared 2-vCPU Xeon host),
# but ``ckgraph normalize`` of its output is not: each elided source is named
# by its path and each move's fingerprint hashes the whole text, so a head
# takes 0.8 s at 500 and 6 s at 1,000, growing as the cube of the length.
# Until outputs are sized before they are built, a longer one is refused.
MAX_LENGTH = 3000


def _require_length(n: int, what: str) -> None:
    if n > MAX_LENGTH:
        raise PreconditionError("output-too-large", f"{what} {n} exceeds the limit of {MAX_LENGTH}")


def _attach_fresh(g: Graph, counts: Iterable[tuple[str, int]], tag: str, chained: bool) -> Graph:
    # for each (v0, n), in order: n fresh vertices <v0>~<tag><k>, each emitting
    # one edge <v0>~<tag><k>e, into the vertex added before it (a line ending
    # at v0) or into v0 itself; ids named for one v0 stay taken for the next
    heads = [(v0, k) for v0, n in counts for k in range(1, n + 1)]
    bases = [f"{v0}~{tag}{k}" for v0, k in heads]
    vertices = g._fresh("vertex", bases)
    eids = g._fresh("edge", [base + "e" for base in bases])
    edges = [
        Edge(eid, vk, vertices[i - 1] if chained and k > 1 else v0)
        for i, ((v0, k), vk, eid) in enumerate(zip(heads, vertices, eids))
    ]
    return g._edit(add_vertices=vertices, add_edges=edges)


def add_head(g: Graph, v0: str, n: int) -> Graph:
    """Attach a line of ``n`` fresh vertices feeding ``v0``."""
    g.require_vertex(v0)
    require_int(n, "head length", least=1)
    _require_length(n, "head length")
    return _attach_fresh(g, [(v0, n)], "h", chained=True)


def subdivide_edge(g: Graph, e0: str, n: int) -> Graph:
    """Replace an edge by a path through ``n`` fresh vertices."""
    target = g.edge(e0)
    require_int(n, "subdivision length", least=1)
    _require_length(n, "subdivision length")
    chain = g._fresh("vertex", [f"{e0}~s{k}" for k in range(1, n + 1)])
    eids = g._fresh("edge", [f"{e0}~s{k}e" for k in range(1, n + 2)], free=[e0])
    # chain[k-1] plays the k-th new vertex: edges run
    # source(e0) -> chain[n-1] -> ... -> chain[0] -> range(e0)
    ends = [target.dst, *chain, target.src]
    edges = [Edge(eid, ends[k], ends[k - 1]) for k, eid in enumerate(eids, start=1)]
    return g._edit(drop_edges=[e0], add_vertices=chain, add_edges=edges)


def star_sources(g: Graph, v0: str, n: int) -> Graph:
    """Attach ``n`` fresh sources, each with a single edge into ``v0``."""
    g.require_vertex(v0)
    require_int(n, "source count", least=1)
    _require_length(n, "source count")
    return _attach_fresh(g, [(v0, n)], "t", chained=False)


def remove_source(g: Graph, v: str) -> Graph:
    """Delete a vertex that receives no edges, along with everything it emits."""
    if g.in_degree(v) != 0:
        raise PreconditionError("not-a-source", f"vertex {v!r} receives {g.in_degree(v)} edge(s)")
    return g._edit(drop_vertices=[v])


def collapse_vertex(g: Graph, v: str) -> Graph:
    """Remove a regular loop-free vertex, composing every in/out edge pair.

    Parallel compositions stay distinct edges.  Removing a source is a
    different move (:func:`remove_source`), so sources are rejected here.
    """
    if g.out_degree(v) == 0:
        raise PreconditionError("not-regular", f"vertex {v!r} is a sink")
    if g.in_degree(v) == 0:
        raise PreconditionError("is-a-source", f"vertex {v!r} is a source; use remove-source")
    if g.loops_at(v):
        raise PreconditionError(
            "self-loop", f"vertex {v!r} carries a cycle of length one and cannot be collapsed"
        )
    ins, outs = g.in_edges(v), g.out_edges(v)
    pairs = [(a, b) for a in ins for b in outs]
    dropped = [e.eid for e in ins + outs]
    eids = g._fresh("edge", [f"{a.eid}.{b.eid}" for a, b in pairs], free=dropped)
    edges = [Edge(eid, a.src, b.dst) for eid, (a, b) in zip(eids, pairs)]
    return g._edit(drop_vertices=[v], add_edges=edges)


def source_elision(g: Graph, h) -> Graph:
    """Collapse everything outside a hereditary set into fresh sources.

    The result keeps the restriction to ``h`` and adds, for every path whose
    last edge crosses into ``h`` from outside, one fresh source with a single
    edge to the path's range.  Requires the complement to be acyclic and no
    complement vertex to be a sink (so each one reaches ``h``).  Each path is
    listed once, by a walk back from its crossing edge, so the work and
    memory follow the output.
    """
    hset = frozenset(h)
    _require_hereditary(g, hset)
    complement = [v for v in g.vertices if v not in hset]

    order = _topological_order(g, complement)
    if len(order) != len(complement):
        stuck = sorted(set(complement).difference(order))
        raise PreconditionError(
            "complement-cyclic", f"cycle outside the set through: {', '.join(stuck)}"
        )

    # the complement is acyclic, so a walk from it that never enters h ends at a sink
    lost = [v for v in g.sinks if v not in hset]
    if lost:
        raise PreconditionError(
            "unreachable-vertex", f"vertex {lost[0]!r} has no path into the set"
        )

    # one walk per path that ends with an edge into h, from that edge back
    # one in-edge at a time, in a list that grows while it is read; h is
    # hereditary, so every in-edge of a complement vertex starts outside h
    walks = [(e.src, e.eid, e.dst) for e in g.edges if e.src not in hset and e.dst in hset]
    for v, path, landing in walks:
        walks += [(e.src, f"{e.eid}.{path}", landing) for e in g.in_edges(v)]
    new_sources = sorted((path, landing) for _, path, landing in walks)
    # h is hereditary, so the edges dropped with the complement are its out-edges
    dropped = [e.eid for v in complement for e in g.out_edges(v)]
    spellings = [spelling for spelling, _ in new_sources]
    vertices = g._fresh("vertex", [f"src:{p}" for p in spellings], free=complement)
    eids = g._fresh("edge", [f"src:{p}~e" for p in spellings], free=dropped)
    edges = [Edge(eid, s, landing) for eid, s, (_, landing) in zip(eids, vertices, new_sources)]
    return g._edit(drop_vertices=complement, add_vertices=vertices, add_edges=edges)


def attach_heads(g: Graph, lengths: Mapping[str, int] | Iterable[tuple[str, int]]) -> Graph:
    """Attach a line head of the given length to each vertex (0 = nothing).

    ``lengths`` maps vertices to lengths, or lists ``(vertex, length)`` pairs,
    at most one per vertex.
    This realizes the finite hereditary truncation of the stabilization that
    contains every original vertex.
    """
    pairs = list(lengths.items() if isinstance(lengths, Mapping) else lengths)
    heads = sorted(dict(pairs).items())
    if len(heads) != len(pairs):
        vertices = [v for v, _ in pairs]
        repeated = next(v for v in vertices if vertices.count(v) > 1)
        raise PreconditionError("bad-parameter", f"two head lengths at {repeated!r}")
    for v, n in heads:
        g.require_vertex(v)
        require_int(n, f"head length at {v!r}", least=0)
    _require_length(sum(n for _, n in heads), "total head length")
    # one edit for all heads, with the ids of adding them one by one
    return _attach_fresh(g, heads, "h", chained=True)


# -- move records ---------------------------------------------------------------


@dataclass(frozen=True)
class AddHead:
    vertex: str
    length: int


@dataclass(frozen=True)
class SubdivideEdge:
    edge: str
    length: int


@dataclass(frozen=True)
class StarSources:
    vertex: str
    count: int


@dataclass(frozen=True)
class SourceElision:
    kept: tuple[str, ...]


@dataclass(frozen=True)
class RemoveSource:
    vertex: str


@dataclass(frozen=True)
class CollapseVertex:
    vertex: str


@dataclass(frozen=True)
class AttachHeads:
    lengths: tuple[tuple[str, int], ...]


Move = Union[
    AddHead, SubdivideEdge, StarSources, SourceElision, RemoveSource, CollapseVertex, AttachHeads
]


def _format_lengths(lengths: tuple[tuple[str, int], ...]) -> str:
    return ",".join(f"{v}={n}" for v, n in lengths)


def _parse_kept(raw: str) -> tuple[str, ...]:
    kept = tuple(sorted(v for v in raw.split(",") if v))
    if not kept:
        raise GraphFormatError("empty vertex set")
    return kept


def _parse_lengths(raw: str) -> tuple[tuple[str, int], ...]:
    lengths = []
    for item in raw.split(","):
        v, _, n = item.partition("=")
        lengths.append((v, int(n)))
    return tuple(sorted(lengths))


# How a record field is spelled: (format, parse), keyed by the field's
# annotation, which this module's ``from __future__`` import keeps a string.
_FIELD_SPELLINGS = {
    "str": (str, str),
    "int": (str, int),
    "tuple[str, ...]": (",".join, _parse_kept),
    "tuple[tuple[str, int], ...]": (_format_lengths, _parse_lengths),
}


class _MoveKind(NamedTuple):
    name: str
    record: type
    function: Callable[..., Graph]
    # (field name, format, parse) for each field of the record, in order
    fields: tuple[tuple[str, Callable, Callable], ...]


# The one list of move spellings: name -> its record type, its move function
# and its record's fields with their spellings, read once here.  A move is
# spelled as its name followed by its record's fields, each after a ``:``;
# applying it calls the function with the graph and those fields.
_MOVES = {
    name: _MoveKind(
        name, record, function,
        tuple((f.name, *_FIELD_SPELLINGS[f.type]) for f in fields(record)),
    )
    for name, record, function in (
        ("add-head", AddHead, add_head),
        ("subdivide-edge", SubdivideEdge, subdivide_edge),
        ("star-sources", StarSources, star_sources),
        ("source-elision", SourceElision, source_elision),
        ("remove-source", RemoveSource, remove_source),
        ("collapse", CollapseVertex, collapse_vertex),
        ("attach-heads", AttachHeads, attach_heads),
    )
}
_KIND_OF = {kind.record: kind for kind in _MOVES.values()}


def _kind_of(move: Move) -> _MoveKind:
    kind = _KIND_OF.get(type(move))
    if kind is None:
        raise PreconditionError("bad-parameter", f"unknown move {move!r}")
    return kind


def apply_move(g: Graph, move: Move) -> Graph:
    kind = _kind_of(move)
    return kind.function(g, *[getattr(move, name) for name, _, _ in kind.fields])


def format_move(move: Move) -> str:
    kind = _kind_of(move)
    return ":".join([kind.name, *[spell(getattr(move, name)) for name, spell, _ in kind.fields]])


def parse_move(text: str) -> Move:
    """Parse the spelling produced by :func:`format_move`, and only that:
    ``02`` or ``v,u``, which it writes as ``2`` or ``u,v``, is refused.

    Trailing arguments are split from the right, so ids containing ``:``
    (elision sources) survive.
    """
    name, _, rest = text.partition(":")
    kind = _MOVES.get(name)
    if kind is None:
        raise GraphFormatError(f"unknown move {text!r}")
    raws = rest.rsplit(":", len(kind.fields) - 1)
    try:
        move = kind.record(
            *[parse(raw) for (_, _, parse), raw in zip(kind.fields, raws, strict=True)]
        )
    except ValueError as exc:
        raise GraphFormatError(f"bad move argument in {text!r}") from exc
    except GraphFormatError as exc:
        raise GraphFormatError(f"{exc} in {text!r}") from None
    if format_move(move) != text:
        raise GraphFormatError(f"bad move argument in {text!r}")
    return move


# -- move logs --------------------------------------------------------------------


@dataclass(frozen=True)
class MoveLog:
    """Applied moves with the fingerprint of each intermediate graph."""

    start: str
    steps: tuple[tuple[Move, str], ...]


class MoveLogBuilder:
    """Mutable helper used while a pipeline runs; produces a frozen log."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self._start = graph_fingerprint(graph)
        self._steps: list[tuple[Move, str]] = []

    def apply(self, move: Move) -> Graph:
        self.graph = apply_move(self.graph, move)
        self._steps.append((move, graph_fingerprint(self.graph)))
        return self.graph

    def log(self) -> MoveLog:
        return MoveLog(self._start, tuple(self._steps))


def replay_move_log(g: Graph, log: MoveLog) -> Graph:
    """Re-apply a log from its initial graph, verifying every fingerprint."""
    if graph_fingerprint(g) != log.start:
        raise CertificateError(
            f"replay starts from {graph_fingerprint(g)}, log expects {log.start}"
        )
    current = g
    for move, expected in log.steps:
        current = apply_move(current, move)
        actual = graph_fingerprint(current)
        if actual != expected:
            raise CertificateError(
                f"replay mismatch after {format_move(move)}: {actual} != {expected}"
            )
    return current


def format_move_log(log: MoveLog) -> str:
    lines = [f"start {log.start}"]
    lines += [f"{format_move(move)} {fp}" for move, fp in log.steps]
    return "".join(line + "\n" for line in lines)


def parse_move_log(text: str) -> MoveLog:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    keyword, _, start = lines[0].partition(" ") if lines else ("", "", "")
    # exactly one space, then one token: nothing after the fingerprint is dropped
    if keyword != "start" or start.split() != [start]:
        raise GraphFormatError("move log must begin with a 'start <fingerprint>' line")
    steps = []
    for line in lines[1:]:
        spelling, _, fp = line.partition(" ")
        # exactly one space between two tokens, as on the start line
        if line.split() != [spelling, fp]:
            raise GraphFormatError(f"bad move log line {line!r}")
        steps.append((parse_move(spelling), fp))
    return MoveLog(start, tuple(steps))
