"""
Graph moves and replayable logs
===============================

Each move rewrites a graph while preserving its K-invariants; the
isomorphism-grade moves preserve the unit profile too.  Two results of
different moves are compared here by their invariants and by where their
sources send their edges.  A move log records what was applied together with
a fingerprint of every intermediate graph, so a run can be replayed and
checked elsewhere.
"""

from ckgraph import (
    AddHead,
    Graph,
    MoveLogBuilder,
    SourceElision,
    add_head,
    collapse_vertex,
    format_graph,
    format_move_log,
    k_invariants,
    parse_move_log,
    replay_move_log,
    source_elision,
    star_sources,
    subdivide_edge,
)

loops = Graph.build(["v0"], [("e0", "v0", "v0"), ("f", "v0", "v0")])

# Attach a head: a line of two fresh vertices feeding v0.
line = add_head(loops, "v0", 2)
print(format_graph(line))

# Subdividing a loop gives the same algebra as attaching a head to its
# range; here the invariants agree exactly.
divided = subdivide_edge(loops, "e0", 2)
assert k_invariants(divided) == k_invariants(line)
print("subdivided loop:", [tuple(e) for e in divided.edges])

# Collapsing the middle of a 2-cycle composes the edges into a loop.
cycle = Graph.build(["u", "v"], [("a", "u", "v"), ("b", "v", "u")])
print("collapsed 2-cycle:", [tuple(e) for e in collapse_vertex(cycle, "v").edges])

# Source elision replaces everything outside a hereditary set by one fresh
# source per crossing path; eliding the head of `line` gives the star shape:
# two sources, each with one edge into v0, which keeps its two loops.
elided = source_elision(line, {"v0"})
star = star_sources(loops, "v0", 2)


def sources_and_loops(g):
    return [[e.dst for e in g.out_edges(s)] for s in g.source_vertices], len(g.loops_at("v0"))


assert sources_and_loops(elided) == sources_and_loops(star) == ([["v0"], ["v0"]], 2)
assert k_invariants(elided) == k_invariants(star)
print("elided head:", elided.vertices, "- star of sources:", star.vertices)
print("both: sources and loops", sources_and_loops(star), "and equal invariants")

# Logs: apply moves through a builder, serialize, parse back, replay.
builder = MoveLogBuilder(loops)
builder.apply(AddHead("v0", 2))
builder.apply(SourceElision(("v0",)))
log = builder.log()
text = format_move_log(log)
print(text)
assert replay_move_log(loops, parse_move_log(text)) == builder.graph
print("replay reproduced every fingerprint")
