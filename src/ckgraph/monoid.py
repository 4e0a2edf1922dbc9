"""Projection calculus on vertex multisets.

A class of projections over a graph algebra is represented by a finitely
supported multiset of vertices.  The one rewrite rule -- a unit at a regular
vertex trades for one unit at the range of each edge it emits, and back --
generates Murray-von Neumann equivalence of these classes.  This module
implements the rewrite, its telescoping along a path, a bidirectional
breadth-first equivalence oracle with replayable traces, fullness, and the
normalization that makes a full multiset everywhere positive.  The checks
for sinks, sources and missing self-loops are said here once and shared
with the pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Optional

from .errors import CertificateError, GraphFormatError, PreconditionError, require_int
from .graph import (
    Graph,
    Path,
    hereditary_saturated_closure,
    make_path,
    shortest_path,
)


@dataclass(frozen=True)
class VertexMultiset:
    """Finitely supported map from vertex ids to non-negative multiplicities.

    Zero entries are dropped, so equal multisets compare equal.  A rewrite
    changes one by ``traded``, which builds one multiset per trade.
    """

    counts: tuple[tuple[str, int], ...]

    @staticmethod
    def from_dict(mapping: Mapping[str, int]) -> "VertexMultiset":
        for v, n in mapping.items():
            if not isinstance(v, str):
                raise GraphFormatError(f"vertex id must be a string, got {v!r}")
            if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                raise GraphFormatError(f"multiplicity of {v!r} must be a non-negative int, got {n!r}")
        return VertexMultiset(tuple(sorted((v, n) for v, n in mapping.items() if n)))

    @cached_property
    def _map(self) -> dict[str, int]:
        return dict(self.counts)

    def get(self, v: str) -> int:
        return self._map.get(v, 0)

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.counts)

    def total(self) -> int:
        return sum(n for _, n in self.counts)

    def is_zero(self) -> bool:
        return not self.counts

    def to_dict(self) -> dict[str, int]:
        return dict(self.counts)

    def traded(self, removed: Mapping[str, int], added: Mapping[str, int]) -> "VertexMultiset":
        """This multiset less ``removed``, which it must hold before anything
        is added, plus ``added``."""
        merged = self.to_dict()
        for v, n in removed.items():
            merged[v] = merged.get(v, 0) - n
            if merged[v] < 0:
                raise PreconditionError(
                    "insufficient-multiplicity",
                    f"cannot remove {n} unit(s) of {v!r} from multiplicity {self.get(v)}",
                )
        for v, n in added.items():
            merged[v] = merged.get(v, 0) + n
        return VertexMultiset.from_dict(merged)

    def scaled(self, k: int) -> "VertexMultiset":
        require_int(k, "scale factor", least=0)
        return VertexMultiset.from_dict({v: k * n for v, n in self.counts})


def ones(g: Graph) -> VertexMultiset:
    return VertexMultiset.from_dict({v: 1 for v in g.vertices})


def parse_multiset(text: str) -> VertexMultiset:
    """Parse the literal form ``v0=2,v1=1``; the empty string is the zero multiset.

    A multiplicity is ASCII decimal digits, with spaces around it allowed;
    a sign, an underscore or a non-ASCII digit, which ``int`` would take, is
    refused.
    """
    counts: dict[str, int] = {}
    if not text.strip():
        return VertexMultiset.from_dict({})
    for item in text.split(","):
        if "=" not in item:
            raise GraphFormatError(f"bad multiset item {item!r}, expected <vertex>=<count>")
        v, _, raw = item.partition("=")
        v, digits = v.strip(), raw.strip()
        if not (digits.isascii() and digits.isdigit()):
            raise GraphFormatError(f"bad multiplicity in {item!r}")
        if not v:
            raise GraphFormatError(f"bad multiset item {item!r}")
        counts[v] = counts.get(v, 0) + int(digits)
    return VertexMultiset.from_dict(counts)


def format_multiset(m: VertexMultiset) -> str:
    return ",".join(f"{v}={n}" for v, n in m.counts)


class RewriteStep(NamedTuple):
    op: str  # "expand" | "contract"
    vertex: str


_OPPOSITE = {"expand": "contract", "contract": "expand"}


@dataclass(frozen=True)
class RewriteTrace:
    """Replayable step sequence turning one multiset into another."""

    steps: tuple[RewriteStep, ...]

    def replay(self, g: Graph, start: VertexMultiset) -> VertexMultiset:
        current = start
        for step in self.steps:
            if step.op == "expand":
                current = expand_at(g, current, step.vertex)
            elif step.op == "contract":
                current = contract_at(g, current, step.vertex)
            else:
                raise CertificateError(f"unknown rewrite op {step.op!r}")
        return current


def expansion_profile(g: Graph, v: str) -> dict[str, int]:
    """One unit at the range of each edge the vertex emits."""
    profile: dict[str, int] = {}
    for e in g.out_edges(v):
        profile[e.dst] = profile.get(e.dst, 0) + 1
    return profile


def _require_regular(g: Graph, v: str) -> None:
    if not g.out_edges(v):
        raise PreconditionError("not-regular", f"vertex {v!r} emits no edges")


def expand_at(g: Graph, m: VertexMultiset, v: str, k: int = 1) -> VertexMultiset:
    """Trade ``k`` units at a regular vertex for ``k`` times its out-edge
    ranges, as ``k`` single expansions would.  A vertex with no unit is
    refused as ``zero-multiplicity``; one with fewer than ``k`` by the trade."""
    require_int(k, "expansion count", least=1)
    _require_regular(g, v)
    if m.get(v) < 1:
        raise PreconditionError("zero-multiplicity", f"no unit of {v!r} to expand")
    return m.traded({v: k}, {w: k * n for w, n in expansion_profile(g, v).items()})


def contract_at(g: Graph, m: VertexMultiset, v: str) -> VertexMultiset:
    """Reverse rewrite: absorb one full out-edge profile back into the vertex."""
    _require_regular(g, v)
    return m.traded(expansion_profile(g, v), {v: 1})


def path_expansion(g: Graph, path: Path) -> VertexMultiset:
    """Telescope one unit at the path's source all the way to its target.

    Expanding step by step along the path leaves one unit at the target plus
    one unit at the range of every side edge hanging off the traversed
    vertices.  When the first edge properly leaves the source, the result
    keeps at least one unit per self-loop at the source.
    """
    checked = make_path(g, path.edges)
    if checked.source == checked.target:
        raise PreconditionError(
            "not-a-proper-path", "path expansion needs distinct source and target"
        )
    counts: dict[str, int] = {checked.target: 1}
    for eid in checked.edges:
        taken = g.edge(eid)
        for side in g.out_edges(taken.src):
            if side.eid != eid:
                counts[side.dst] = counts.get(side.dst, 0) + 1
    return VertexMultiset.from_dict(counts)


@dataclass(frozen=True)
class MvnResult:
    """``yes`` carries a replayable trace; ``no`` means one side's whole class
    was searched, with no state dropped by the mass cap, and it misses the
    other side; ``unknown`` means the step budget ran out or the cap cut the
    search, and ``stop`` says which."""

    verdict: str  # "yes" | "no" | "unknown"
    trace: Optional[RewriteTrace] = None
    stop: Optional[str] = None  # for "unknown": "budget" | "mass-cap"


def _neighbors(g: Graph, m: VertexMultiset) -> list[tuple[RewriteStep, VertexMultiset]]:
    out: list[tuple[RewriteStep, VertexMultiset]] = []
    for v in m.support:
        if g.out_edges(v):
            out.append((RewriteStep("expand", v), expand_at(g, m, v)))
    for v in g.vertices:
        if not g.out_edges(v):
            continue
        profile = expansion_profile(g, v)
        if all(m.get(w) >= n for w, n in profile.items()):
            out.append((RewriteStep("contract", v), contract_at(g, m, v)))
    return out


# a search tree: each state found, with the state and step it was reached from
_Tree = dict[VertexMultiset, Optional[tuple[VertexMultiset, RewriteStep]]]


def _join_traces(forward: _Tree, backward: _Tree, meeting: VertexMultiset) -> RewriteTrace:
    # Walking a search tree from the meeting point back to its root gives the
    # steps newest first.  Reversed, the forward half runs a -> meeting.  The
    # backward half is already in meeting -> b order, but each of its steps
    # was taken towards the meeting point, so only its direction is flipped.
    halves: list[list[RewriteStep]] = []
    for parents in (forward, backward):
        steps, state = [], meeting
        while parents[state] is not None:
            state, step = parents[state]  # type: ignore[misc]
            steps.append(step)
        halves.append(steps)
    ahead, behind = halves
    return RewriteTrace(tuple(ahead[::-1] + [RewriteStep(_OPPOSITE[op], v) for op, v in behind]))


def mvn_equivalent(g: Graph, a: VertexMultiset, b: VertexMultiset, budget: int) -> MvnResult:
    """Bidirectional breadth-first search over expand/contract rewrites.

    ``budget`` bounds the number of rewrite transitions explored.  Total mass
    is capped at ``max(mass(a), mass(b)) + budget``.  A side whose frontier
    empties with no state dropped by the cap has explored its whole class,
    so ``no`` is proved; if the cap dropped one, the answer is ``unknown``
    (the general word problem has no termination guarantee).
    """
    require_int(budget, "budget", least=0)
    for v in a.support + b.support:
        g.require_vertex(v)
    if a == b:
        return MvnResult("yes", RewriteTrace(()))
    cap = max(a.total(), b.total()) + budget

    # each side's search tree, frontier and whether the cap dropped one of its states
    parents: tuple[_Tree, _Tree] = ({a: None}, {b: None})
    frontiers: list[list[VertexMultiset]] = [[a], [b]]
    cut = [False, False]
    spent = 0

    while frontiers[0] and frontiers[1]:
        side = int(len(frontiers[0]) > len(frontiers[1]))  # the smaller, a on ties
        tree, other = parents[side], parents[1 - side]
        next_frontier: list[VertexMultiset] = []
        for state in frontiers[side]:
            for step, nxt in _neighbors(g, state):
                spent += 1
                if spent > budget:
                    return MvnResult("unknown", stop="budget")
                if nxt.total() > cap:
                    cut[side] = True
                    continue
                if nxt in tree:
                    continue
                tree[nxt] = (state, step)
                if nxt in other:
                    return MvnResult("yes", _join_traces(*parents, nxt))
                next_frontier.append(nxt)
        frontiers[side] = next_frontier
    # the frontier that emptied is the one just searched
    if cut[side]:
        return MvnResult("unknown", stop="mass-cap")
    return MvnResult("no")


def is_full(g: Graph, m: VertexMultiset) -> bool:
    """Whether the support generates everything: its hereditary saturated
    closure is the whole vertex set."""
    if m.is_zero():
        raise PreconditionError("zero-multiset", "fullness is about nonzero multisets")
    return hereditary_saturated_closure(g, m.support) == frozenset(g.vertices)


def _require_no_sinks(g: Graph) -> None:
    if g.sinks:
        raise PreconditionError("has-sink", f"sinks present: {', '.join(g.sinks)}")


def _require_no_sources(g: Graph) -> None:
    if g.source_vertices:
        raise PreconditionError("has-source", f"sources present: {', '.join(g.source_vertices)}")


def _require_loops_everywhere(g: Graph) -> None:
    missing = [v for v in g.vertices if not g.loops_at(v)]
    if missing:
        raise PreconditionError(
            "missing-self-loop", f"vertices without a self-loop: {', '.join(missing)}"
        )


def fullness_normalize(g: Graph, n: VertexMultiset) -> VertexMultiset:
    """Rewrite a full multiset into an equivalent one positive everywhere.

    Needs a finite graph with no sinks, no sources, and a self-loop at every
    vertex.  While some vertex has multiplicity zero, one unit at the least
    supported vertex with a path to it is traded for its expansion along the
    shortest path (lexicographic tie-break); the self-loops keep the traded
    vertex in the support, so the support strictly grows until it is
    everything.
    """
    _require_no_sinks(g)
    _require_no_sources(g)
    _require_loops_everywhere(g)
    if not is_full(g, n):
        raise PreconditionError("not-full", "the multiset does not generate the whole graph")
    m = n
    while True:
        missing = [w for w in g.vertices if m.get(w) == 0]
        if not missing:
            return m
        w = missing[0]
        # with a loop at every vertex the closure is the set the support
        # reaches, so a full multiset's support, which only grows, reaches w
        routes = (shortest_path(g, v, w) for v in m.support)
        route = next(r for r in routes if r is not None)
        m = m.traded({route.source: 1}, path_expansion(g, route).to_dict())
