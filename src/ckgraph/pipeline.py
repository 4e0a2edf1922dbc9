"""End-to-end procedures built from moves: normalization to a sink-free and
source-free graph, self-loop saturation by collapsing, full-corner and
general corner realization, and matrix amplification.  The last two share
one tail: normalize, saturate, make the multiset positive everywhere, and
realize its full corner, with the stages' move logs joined into one.

Every pipeline returns the output graph together with a replayable move log,
the K-invariants before and after, and certificate flags that are *verified
against the output*, never assumed.  A multiset of projection multiplicities
can ride along; it is transported through source removals and collapses by
expanding its mass first, which keeps its K0 class fixed at every step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .errors import CertificateError, PreconditionError, require_int
from .graph import (
    Graph,
    _topological_order,
    graph_fingerprint,
    hereditary_saturated_closure,
    restrict_to_hereditary,
)
from .ktheory import KInvariants, k0_class_divisible, k0_class_of, k_invariants
from .monoid import (
    VertexMultiset,
    _require_loops_everywhere,
    _require_no_sinks,
    _require_no_sources,
    expand_at,
    fullness_normalize,
    ones,
)
from .moves import (
    AttachHeads,
    CollapseVertex,
    MoveLog,
    MoveLogBuilder,
    RemoveSource,
    SourceElision,
    SubdivideEdge,
)


@dataclass(frozen=True)
class PipelineResult:
    """A pipeline's output; building one with a failed certificate raises."""

    graph: Graph
    log: MoveLog
    before: KInvariants
    after: KInvariants
    certificates: tuple[tuple[str, bool], ...]
    multiset: Optional[VertexMultiset] = None
    restriction: Optional[Graph] = None

    def __post_init__(self) -> None:
        failed = [name for name, ok in self.certificates if not ok]
        if failed:
            raise CertificateError(f"pipeline certificates failed: {', '.join(failed)}")

    def certificate(self, name: str) -> bool:
        return dict(self.certificates)[name]


def _require_nonempty(g: Graph) -> None:
    if not g.vertices:
        raise PreconditionError("empty-core", "the empty graph has no cycles to normalize onto")


def normalize_to_ck(g: Graph, carry: Optional[VertexMultiset] = None) -> PipelineResult:
    """Turn a finite sink-free graph into one with no sinks and no sources.

    The sink-free and source-free core is found by iterated source removal;
    the graph is rebuilt as the core plus one fresh source per crossing path,
    and each group of k sources landing at a core vertex is absorbed as a
    k-fold subdivision of that vertex's least incoming core edge.  K-groups
    and the unit profile are preserved end to end and certified.
    """
    _require_no_sinks(g)
    _require_nonempty(g)
    before = k_invariants(g)
    # every vertex Kahn's order lists has its in-edges from vertices listed
    # before it, so the order is the complement of the core in an order that
    # moves each vertex's mass whole, once, after every vertex that feeds it
    order = _topological_order(g, g.vertices)
    # nonempty and sink-free, so g has a cycle, whose vertices Kahn's order never lists
    core = frozenset(g.vertices).difference(order)
    m = carry
    if m is not None:
        for v in m.support:
            g.require_vertex(v)
        for v in order:
            if m.get(v):
                m = expand_at(g, m, v, m.get(v))

    builder = MoveLogBuilder(g)
    if core != frozenset(g.vertices):
        builder.apply(SourceElision(tuple(sorted(core))))
        elided = builder.graph
        groups: dict[str, list[str]] = {}
        # besides the core, the elision leaves only fresh sources: no in-edge, one edge into it
        for s in elided.vertices:
            if s not in core:
                landing = elided.out_edges(s)[0].dst
                groups.setdefault(landing, []).append(s)
        for v in sorted(groups):
            for s in groups[v]:
                builder.apply(RemoveSource(s))
            # v keeps an in-edge from the core, or Kahn's order would list v:
            # neither the elision, a source removal nor another subdivision cuts it
            incoming = builder.graph.in_edges(v)
            builder.apply(SubdivideEdge(incoming[0].eid, len(groups[v])))

    out = builder.graph
    after = k_invariants(out)
    certificates = (
        ("no-sinks", not out.sinks),
        ("no-sources", not out.source_vertices),
        ("k-invariants-preserved", before.groups_equal(after)),
        ("unit-profile-preserved", before.unit_profile == after.unit_profile),
    )
    return PipelineResult(out, builder.log(), before, after, certificates, multiset=m)


def self_loop_saturate(g: Graph, carry: Optional[VertexMultiset] = None) -> PipelineResult:
    """Collapse vertices until every vertex carries a cycle of length one.

    Each round collapses the least vertex without a self-loop, after moving
    its carried mass whole onto its out-neighbours; the vertex count strictly
    drops, so this terminates, and a lone vertex in a sink-free graph
    necessarily carries a loop.  A collapse drops only its vertex and keeps
    every other loop, so the vertices that lack a loop are listed once, and
    those that gained one on the way are skipped.  K-groups are preserved
    (the unit class is not, in general).
    """
    _require_no_sinks(g)
    _require_no_sources(g)
    if carry is not None:
        for v in carry.support:
            g.require_vertex(v)
    before = k_invariants(g)
    builder = MoveLogBuilder(g)
    m = carry
    for v in [v for v in g.vertices if not g.loops_at(v)]:
        if builder.graph.loops_at(v):
            continue
        if m is not None and m.get(v):
            m = expand_at(builder.graph, m, v, m.get(v))
        builder.apply(CollapseVertex(v))
    out = builder.graph
    after = k_invariants(out)
    certificates = (
        ("no-sinks", not out.sinks),
        ("no-sources", not out.source_vertices),
        ("all-self-loops", all(out.loops_at(v) for v in out.vertices)),
        ("k-invariants-preserved", before.groups_equal(after)),
    )
    return PipelineResult(out, builder.log(), before, after, certificates, multiset=m)


def _head_projection(base: Graph, corner: Graph) -> dict[str, str]:
    # send every attached head vertex to the base vertex its chain feeds: a
    # head vertex emits one edge, along a chain that ends in the base; a
    # walk stops at the first vertex already sent, and sends its whole path
    # there, so each head vertex is walked once
    sent = {v: v for v in corner.vertices if base.has_vertex(v)}
    for v in corner.vertices:
        path = []
        w = v
        while w not in sent:
            path.append(w)
            w = corner.out_edges(w)[0].dst
        for x in path:
            sent[x] = sent[w]
    return {v: sent[v] for v in corner.vertices}


def realize_full_corner(g: Graph, m: VertexMultiset) -> PipelineResult:
    """Realize the corner cut by an everywhere-positive multiset as a graph.

    The corner graph attaches a head of length ``m(u) - 1`` to each vertex
    ``u``; its vertex count equals the multiset's total mass, its K-groups
    match the base graph's, and the class of its unit maps onto the class of
    the multiset in the base K0 under the head-collapsing projection.  All of
    that is certified through the Smith transforms.
    """
    _require_no_sinks(g)
    _require_no_sources(g)
    _require_loops_everywhere(g)
    for v in m.support:
        g.require_vertex(v)
    zeros = [u for u in g.vertices if m.get(u) == 0]
    if zeros:
        raise PreconditionError(
            "zero-multiplicity",
            f"multiset must be positive everywhere; zero at {zeros[0]!r}",
        )
    before = k_invariants(g)
    builder = MoveLogBuilder(g)
    lengths = tuple(sorted((u, m.get(u) - 1) for u in g.vertices if m.get(u) > 1))
    if lengths:
        builder.apply(AttachHeads(lengths))
    out = builder.graph
    after = k_invariants(out)

    projection = _head_projection(g, out)
    relations_land_in_image = True
    for v in out.vertices:
        column: dict[str, int] = {}
        for e in out.out_edges(v):
            w = projection[e.dst]
            column[w] = column.get(w, 0) + 1
        column[projection[v]] = column.get(projection[v], 0) - 1
        # a head vertex's relation projects to zero, whose class is 0
        if any(column.values()) and not k0_class_of(g, column).is_zero():
            relations_land_in_image = False
    unit_image: dict[str, int] = {}
    for v in out.vertices:
        unit_image[projection[v]] = unit_image.get(projection[v], 0) + 1

    certificates = (
        ("no-sinks", not out.sinks),
        ("corner-size-matches", len(out.vertices) == m.total()),
        ("k-invariants-preserved", before.groups_equal(after)),
        ("k0-projection-certified", relations_land_in_image),
        ("unit-class-matches", k0_class_of(g, unit_image) == k0_class_of(g, m.to_dict())),
    )
    return PipelineResult(out, builder.log(), before, after, certificates, multiset=m)


def _corner_tail(g: Graph, carry: VertexMultiset) -> tuple[Graph, PipelineResult]:
    """Normalize, saturate, make the carried multiset positive everywhere and
    realize its full corner.

    Returns the saturated graph and the full-corner result, whose log is the
    three stages' logs joined and whose multiset is the positive one.
    """
    normalized = normalize_to_ck(g, carry=carry)
    saturated = self_loop_saturate(normalized.graph, carry=normalized.multiset)
    full = fullness_normalize(saturated.graph, saturated.multiset)
    corner = realize_full_corner(saturated.graph, full)
    steps = normalized.log.steps + saturated.log.steps + corner.log.steps
    return saturated.graph, replace(corner, log=MoveLog(normalized.log.start, steps))


def realize_corner(g: Graph, p: VertexMultiset) -> PipelineResult:
    """Realize the corner of a sink-free source-free graph cut by any nonzero
    multiset of vertex projections.

    Stages: restrict to the hereditary saturated closure of the support;
    normalize away sources while expanding the multiset off removed vertices;
    saturate self-loops while expanding through collapses; make the multiset
    positive everywhere; attach heads.  The output's K-groups equal those of
    the restriction.
    """
    _require_no_sinks(g)
    _require_no_sources(g)
    if p.is_zero():
        raise PreconditionError("zero-multiset", "a corner needs a nonzero projection")
    kept = hereditary_saturated_closure(g, p.support)  # checks that every vertex exists
    restriction = restrict_to_hereditary(g, kept)
    before = k_invariants(restriction)
    saturated, corner = _corner_tail(restriction, p)
    certificates = (
        ("no-sinks", not corner.graph.sinks),
        ("k-invariants-preserved", before.groups_equal(corner.after)),
        ("multiset-positive", all(corner.multiset.get(u) >= 1 for u in saturated.vertices)),
        ("unit-class-matches", corner.certificate("unit-class-matches")),
    )
    return replace(corner, before=before, certificates=certificates, restriction=restriction)


def matrix_amplify(g: Graph, n: int) -> PipelineResult:
    """Realize the n-by-n matrix amplification as a graph.

    The unit of the amplification is n copies of the unit, so this is the
    full corner at the multiset with multiplicity n everywhere, taken after
    normalization and saturation; the output unit class is divisible by n.
    For n = 1 the graph is returned unchanged; the empty graph is refused
    for every n.
    """
    require_int(n, "amplification factor", least=1)
    _require_no_sinks(g)
    _require_nonempty(g)
    before = k_invariants(g)
    if n == 1:
        log = MoveLog(graph_fingerprint(g), ())
        result = PipelineResult(g, log, before, before, (), multiset=ones(g))
    else:
        _, result = _corner_tail(g, ones(g).scaled(n))
    out = result.graph
    certificates = (
        ("no-sinks", not out.sinks),
        ("k-invariants-preserved", before.groups_equal(result.after)),
        # the corner's unit-class check; the identity for n = 1 has none
        *(c for c in result.certificates if c[0] == "unit-class-matches"),
        ("unit-divisible-by-factor", k0_class_divisible(out, {v: 1 for v in out.vertices}, n)),
    )
    return replace(result, before=before, certificates=certificates)
