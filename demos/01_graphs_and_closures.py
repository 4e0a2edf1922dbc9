"""
Graphs, vertex classes, and hereditary saturated sets
=====================================================

Build a couple of small directed multigraphs, classify their vertices, and
watch the hereditary saturated closure at work.
"""

from ckgraph import (
    Graph,
    classify_vertex,
    format_graph,
    graph_fingerprint,
    hereditary_saturated_closure,
    restrict_to_hereditary,
    vertex_simple_cycles_without_exit,
)

# One vertex with two loops: the smallest interesting graph here.
loops = Graph.build(["v0"], [("e0", "v0", "v0"), ("f", "v0", "v0")])
print(format_graph(loops))
print("v0 is", classify_vertex(loops, "v0").kind)

# A length-2 line feeding that vertex.  The line vertices are a "head".
line = Graph.build(
    ["v0", "v1", "v2"],
    [("e0", "v0", "v0"), ("f", "v0", "v0"), ("e1", "v1", "v0"), ("e2", "v2", "v1")],
)
for v in line.vertices:
    print(v, "->", classify_vertex(line, v))

# The closure of {v0} is everything: v1 sends all of its edges into the set,
# so saturation forces it in, and then v2 the same way.
print("closure of {v0}:", sorted(hereditary_saturated_closure(line, {"v0"})))

# {v0} is still hereditary (nothing escapes), so we may restrict to it.
print(format_graph(restrict_to_hereditary(line, {"v0"})))

# Cycles with no exits are the obstruction to several moves; with two loops
# at v0 each loop is an exit for the other, so there are none.
print("exit-free cycles in `line`:", vertex_simple_cycles_without_exit(line))
single = Graph.build(["w"], [("l", "w", "w")])
print("exit-free cycles in a single loop:", vertex_simple_cycles_without_exit(single))

# Ids are sorted on construction, so the text format and its fingerprint
# do not depend on the order a graph was given in; a renaming is another
# graph, with another fingerprint.
shuffled = Graph.build(
    ["v2", "v0", "v1"],
    [("e2", "v2", "v1"), ("f", "v0", "v0"), ("e1", "v1", "v0"), ("e0", "v0", "v0")],
)
assert shuffled == line and graph_fingerprint(shuffled) == graph_fingerprint(line)
renamed = Graph.build(
    ["a", "b", "c"],
    [("p", "a", "a"), ("q", "a", "a"), ("r", "b", "a"), ("s", "c", "b")],
)
print("fingerprint of line:", graph_fingerprint(line), "- of a renaming:", graph_fingerprint(renamed))
