from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckgraph import (
    Graph,
    GraphFormatError,
    PreconditionError,
    classify_vertex,
    format_graph,
    graph_fingerprint,
    hereditary_saturated_closure,
    make_path,
    parse_graph,
    reachable_from,
    restrict_to_hereditary,
    shortest_path,
    vertex_simple_cycles_without_exit,
)
from ckgraph.graph import _BAD_ID_CHAR, Edge, _topological_order
from conftest import G, all_loop_graphs, graphs
from oracles import (
    brute_force_isomorphic,
    derived,
    exhaustive_closure,
    format_lines,
    is_acyclic,
    is_hereditary,
    is_saturated,
    isomorphism,
    least_shortest_path,
    pair_counts,
)


# -- construction and text format -------------------------------------------


_SPACED = "ids contain no whitespace and none of '#', ',', '='"


def _build_message(vertices, edges) -> str | None:
    try:
        Graph.build(vertices, edges)
    except GraphFormatError as exc:
        return str(exc)
    return None


def test_build_rejects_duplicates_and_dangling_edges():
    for vertices, edges, message in (
        (["v", "v"], [], "duplicate vertex id 'v'"),
        (["v"], [("e", "v", "v"), ("e", "v", "v")], "duplicate edge id 'e'"),
        (["v"], [("e", "v", "w")], "edge 'e' endpoint 'w' is not a vertex"),
        (["v"], [("e", "v", "w"), ("e", "v", "w")], "edge 'e' endpoint 'w' is not a vertex"),
        (["v", "v"], [("e", "v", "x")], "duplicate vertex id 'v'"),
        (["has space"], [], f"bad vertex id 'has space': {_SPACED}"),
        (["a,b"], [], f"bad vertex id 'a,b': {_SPACED}"),
        ([""], [], "vertex id must be a nonempty string, got ''"),
    ):
        assert _build_message(vertices, edges) == message


def test_build_refuses_ids_and_edges_that_sorting_would_choke_on():
    for vertices, edges, message in (
        (["a", 1], [], "vertex id must be a nonempty string, got 1"),
        ([None], [], "vertex id must be a nonempty string, got None"),
        (["v"], [("e", "v")], "an edge is an (id, source, range) triple, got ('e', 'v')"),
        (
            ["v"], [("e", "v", "v", "x")],
            "an edge is an (id, source, range) triple, got ('e', 'v', 'v', 'x')",
        ),
        (["v"], [("e", "v", "v"), (1, "v", "v")], "edge id must be a nonempty string, got 1"),
        (["v"], [("e", "v", "v"), ("e", 1, "v")], "duplicate edge id 'e'"),
    ):
        assert _build_message(vertices, edges) == message


# graphs with a bad id or two, each with the message build gives for it: the
# id pattern first, vertices before edges, then repeats and endpoints in
# sorted order
_BAD_BUILDS = [
    (["v", "w", ""], [("e", "v", "w")], "vertex id must be a nonempty string, got ''"),
    (["v", "w", "has space"], [("e", "v", "w")], f"bad vertex id 'has space': {_SPACED}"),
    (["v", "w", "v"], [("e", "v", "w")], "duplicate vertex id 'v'"),
    (["v", "w", "x", "x"], [("e", "v", "w")], "duplicate vertex id 'x'"),
    (["v", "w"], [("e", "v", "w"), ("f#", "v", "v")], f"bad edge id 'f#': {_SPACED}"),
    (["v", "w"], [("e", "v", "w"), ("e", "w", "v")], "duplicate edge id 'e'"),
    (["v", "w"], [("e", "v", "w"), ("f", "v", "x")], "edge 'f' endpoint 'x' is not a vertex"),
    (["v"], [("f", "v", "w")], "edge 'f' endpoint 'w' is not a vertex"),
    (["v", "w", "z z", "a,a", "u"], [("e", "v", "w")], f"bad vertex id 'z z': {_SPACED}"),
    (
        ["v", "w", "u"], [("g", "u", "x"), ("f", "v", "y")],
        "edge 'f' endpoint 'y' is not a vertex",
    ),
]


@pytest.mark.parametrize(
    "vertices, edges, message",
    [pytest.param(*case, id=f"build{i}") for i, case in enumerate(_BAD_BUILDS)],
)
def test_build_reports_the_first_fault(vertices, edges, message):
    assert _build_message(vertices, edges) == message


def test_build_checks_ids_under_python_O():
    # the checks raise; they are not assertions that -O strips
    script = (
        "import json, sys\n"
        "from ckgraph import Graph, GraphFormatError\n"
        "out = []\n"
        "for vertices, edges, _ in json.loads(sys.argv[1]):\n"
        "    try:\n"
        "        Graph.build(vertices, edges)\n"
        "        out.append(None)\n"
        "    except GraphFormatError as exc:\n"
        "        out.append(str(exc))\n"
        "print(json.dumps([__debug__, out]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run(
        [sys.executable, "-O", "-c", script, json.dumps(_BAD_BUILDS)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(result.stdout) == [False, [message for _, _, message in _BAD_BUILDS]]


def test_edit_keeps_the_base_edges_and_drops_a_vertex_with_its_edges():
    g = G("u v w", "a:u>v b:v>w c:w>w d:u>u")
    out = g._edit(drop_vertices=["v"], add_vertices=["t"], add_edges=[Edge("e", "t", "w")])
    assert out == G("t u w", "c:w>w d:u>u e:t>w")
    assert out.edges[0] is g.edges[2] and out.edges[1] is g.edges[3]
    assert g._edit(drop_edges=["a", "b"]) == G("u v w", "c:w>w d:u>u")


def test_an_edit_may_drop_a_vertex_and_add_the_same_id_again():
    # as source_elision does when a fresh source takes a dropped vertex's id
    g = G("u v w", "a:u>v b:v>w c:w>w")
    out = g._edit(
        drop_vertices=["v"], add_vertices=["v"],
        add_edges=[Edge("d", "v", "w"), Edge("b", "u", "v")],
    )
    assert out == Graph.build(["u", "v", "w"], [("b", "u", "v"), ("c", "w", "w"), ("d", "v", "w")])
    assert (out._lines, out._out, out._in) == derived(out)
    assert out.out_edges("v") == (("d", "v", "w"),) and out.in_edges("v") == (("b", "u", "v"),)


_VERTEX_LOOKUPS = ("out_edges", "in_edges", "out_degree", "in_degree", "loops_at", "require_vertex")


def test_vertex_lookups_refuse_an_unknown_vertex_on_fresh_and_edited_graphs():
    edited = G("v w", "e:v>w l:w>w")._edit(
        drop_vertices=["v"], add_vertices=["u"], add_edges=[Edge("f", "u", "w")]
    )
    # an unhashable argument is refused like any other, as by the edge lookups
    for g, unknown in ((G("v w", "e:v>w l:w>w"), ["x", "", 3, []]), (edited, ["v", "x", 3, {}])):
        assert not any(map(g.has_vertex, unknown))
        for name in _VERTEX_LOOKUPS:
            for v in unknown:
                with pytest.raises(PreconditionError) as excinfo:
                    getattr(g, name)(v)
                assert excinfo.value.reason == "unknown-vertex"
                assert str(excinfo.value) == f"unknown-vertex: no vertex {v!r} in graph"
    assert [edited.out_degree("u"), edited.in_degree("u"), edited.in_degree("w")] == [1, 0, 2]
    assert edited.loops_at("w") == (("l", "w", "w"),) and edited.loops_at("u") == ()
    assert edited.require_vertex("u") is None


def test_id_check_agrees_with_isspace_and_separators_on_every_code_point():
    def forbidden(c: str) -> bool:
        return c.isspace() or c in "#,="

    disagree = [
        cp for cp in range(sys.maxunicode + 1)
        if bool(_BAD_ID_CHAR.search(chr(cp))) != forbidden(chr(cp))
    ]
    assert disagree == []
    for c in ["\u00a0", "\u2028", "\u3000", "\x1c", "\x85", "=", "#", "\u200b", "~", "\xe9"]:
        if forbidden(c):
            with pytest.raises(GraphFormatError):
                Graph.build([f"a{c}b"], [])
        else:
            assert Graph.build([f"a{c}b"], []).vertices == (f"a{c}b",)


def test_text_format_round_trip(line_into_loops):
    text = format_graph(line_into_loops)
    assert parse_graph(text) == line_into_loops
    assert text == (
        "vertex v0\nvertex v1\nvertex v2\n"
        "edge e0 v0 v0\nedge e1 v1 v0\nedge e2 v2 v1\nedge f v0 v0\n"
    )


def test_parser_comments_and_errors():
    g = parse_graph("# heading\nvertex v0  # trailing\n\nedge e v0 v0\n")
    assert g == G("v0", "e:v0>v0")
    with pytest.raises(GraphFormatError):
        parse_graph("vertex\n")
    with pytest.raises(GraphFormatError):
        parse_graph("edge e v0\n")
    with pytest.raises(GraphFormatError):
        parse_graph("frob v0\n")


@given(graphs())
def test_format_equals_the_line_by_line_oracle(g):
    assert format_graph(g) == format_lines(g)
    assert (g._lines, g._out, g._in) == derived(g)


@given(graphs())
def test_serialization_is_stable(g):
    assert parse_graph(format_graph(g)) == g
    assert graph_fingerprint(g) == graph_fingerprint(parse_graph(format_graph(g)))


# -- classification -----------------------------------------------------------


def test_classify_two_loop_vertex(two_loops):
    assert classify_vertex(two_loops, "v0").kind == "regular"


def test_classify_sink_and_source():
    g = G("v w", "a:v>w")
    assert classify_vertex(g, "w").kind == "sink"
    source = classify_vertex(g, "v")
    assert source.kind == "source"
    assert (source.in_degree, source.out_degree) == (0, 1)


def test_classify_isolated_and_unknown():
    g = G("v")
    assert classify_vertex(g, "v").kind == "isolated"
    with pytest.raises(PreconditionError, match="unknown-vertex"):
        classify_vertex(g, "w")


# -- hereditary / saturated machinery ------------------------------------------


def test_closure_pulls_heads_in_by_saturation(line_into_loops):
    # the line vertices emit everything into the closure, so saturation
    # forces them in one by one
    assert hereditary_saturated_closure(line_into_loops, {"v0"}) == {"v0", "v1", "v2"}


def test_closure_follows_edges(line_into_loops):
    assert hereditary_saturated_closure(line_into_loops, {"v2"}) == {"v0", "v1", "v2"}


@given(graphs(max_vertices=5), st.data())
def test_topological_order_is_complete_exactly_when_acyclic(g, data):
    among = data.draw(st.lists(st.sampled_from(g.vertices), unique=True))
    order = _topological_order(g, among)
    position = {v: i for i, v in enumerate(order)}
    assert len(position) == len(order) and set(order) <= set(among)
    # each vertex comes after every vertex of `among` that feeds it
    for e in g.edges:
        if e.src in among and e.dst in position:
            assert position.get(e.src, len(order)) < position[e.dst]
    assert (len(order) == len(among)) == is_acyclic(g, among)


def test_closure_on_all_loop_graph_is_hereditary_closure():
    g = G("a b", "la:a>a lb:b>b x:a>b")
    assert hereditary_saturated_closure(g, {"b"}) == {"b"}
    assert hereditary_saturated_closure(g, {"a"}) == {"a", "b"}


@settings(max_examples=100, deadline=None)
@given(all_loop_graphs(max_vertices=5), st.data())
def test_closure_is_the_reachable_set_when_every_vertex_has_a_loop(g, data):
    # a vertex's own loop lands outside a set it has not joined, so
    # saturation adds nothing and fullness_normalize always finds a route
    s = data.draw(st.sets(st.sampled_from(g.vertices)))
    assert hereditary_saturated_closure(g, s) == reachable_from(g, s)


def test_every_hereditary_set_is_saturated_on_all_loop_graphs_exhaustively():
    from itertools import combinations

    g = G("a b c", "la:a>a lb:b>b lc:c>c x:a>b y:b>c z:a>c")
    for r in range(4):
        for subset in combinations(g.vertices, r):
            if is_hereditary(g, subset):
                assert is_saturated(g, subset)


@settings(max_examples=40)
@given(all_loop_graphs(max_vertices=5))
def test_hereditary_implies_saturated_under_loops_everywhere(g):
    from itertools import combinations

    for r in range(len(g.vertices) + 1):
        for subset in combinations(g.vertices, r):
            if is_hereditary(g, subset):
                assert is_saturated(g, subset)


@given(graphs(max_vertices=4), st.data())
def test_closure_is_idempotent_and_monotone(g, data):
    small = set(data.draw(st.lists(st.sampled_from(g.vertices), max_size=2)))
    big = small | set(data.draw(st.lists(st.sampled_from(g.vertices), max_size=2)))
    closure_small = hereditary_saturated_closure(g, small)
    closure_big = hereditary_saturated_closure(g, big)
    assert hereditary_saturated_closure(g, closure_small) == closure_small
    assert closure_small <= closure_big
    assert is_hereditary(g, closure_small) and is_saturated(g, closure_small)


@given(graphs(max_vertices=4), st.data())
def test_closure_matches_exhaustive_search(g, data):
    start = set(data.draw(st.lists(st.sampled_from(g.vertices), max_size=3)))
    assert hereditary_saturated_closure(g, start) == exhaustive_closure(g, start)


@given(graphs(max_vertices=5), st.data())
def test_closure_interleaving_order_is_irrelevant(g, data):
    # saturate-first alternation must land on the same fixed point as the
    # hereditary-first one used by the implementation
    start = set(data.draw(st.lists(st.sampled_from(g.vertices), max_size=3)))
    closed = set(start)
    while True:
        changed = False
        for v in g.vertices:
            if v not in closed:
                out = g.out_edges(v)
                if out and all(e.dst in closed for e in out):
                    closed.add(v)
                    changed = True
        for v in list(closed):
            for e in g.out_edges(v):
                if e.dst not in closed:
                    closed.add(e.dst)
                    changed = True
        if not changed:
            break
    assert frozenset(closed) == hereditary_saturated_closure(g, start)


def test_restrict_to_hereditary(line_into_loops, two_loops):
    assert restrict_to_hereditary(line_into_loops, {"v0"}) == two_loops
    assert restrict_to_hereditary(line_into_loops, line_into_loops.vertices) == line_into_loops
    g = G("v w", "a:v>w lw:w>w")
    assert restrict_to_hereditary(g, {"w"}) == G("w", "lw:w>w")
    with pytest.raises(PreconditionError, match="not-hereditary"):
        restrict_to_hereditary(line_into_loops, {"v1"})


def test_edge_lookup_refuses_ids_that_are_not_strings(two_loops):
    for eid in (3, None):
        with pytest.raises(PreconditionError) as excinfo:
            two_loops.edge(eid)
        assert excinfo.value.reason == "unknown-edge"
        assert str(excinfo.value) == f"unknown-edge: no edge {eid!r} in graph"


def test_reachability_includes_start(line_into_loops):
    assert reachable_from(line_into_loops, {"v0"}) == {"v0"}
    assert reachable_from(line_into_loops, {"v2"}) == {"v0", "v1", "v2"}


# -- paths and cycles -----------------------------------------------------------


def test_make_path_validates_composition(line_into_loops):
    p = make_path(line_into_loops, ["e2", "e1"])
    assert (p.source, p.target) == ("v2", "v0")
    with pytest.raises(PreconditionError, match="broken-path"):
        make_path(line_into_loops, ["e1", "e2"])
    with pytest.raises(PreconditionError, match="empty-path"):
        make_path(line_into_loops, [])


def test_single_loop_is_the_only_exit_free_cycle():
    g = G("v", "l:v>v")
    assert [p.edges for p in vertex_simple_cycles_without_exit(g)] == [("l",)]


def test_double_loop_has_no_exit_free_cycle(two_loops):
    assert vertex_simple_cycles_without_exit(two_loops) == []


def test_cycle_with_extra_edge_has_an_exit():
    g = G("u v x", "a:u>v b:v>u c:v>x")
    assert vertex_simple_cycles_without_exit(g) == []
    withloop = G("u v x", "a:u>v b:v>u c:v>x lx:x>x")
    # the 2-cycle still has its exit at v; the loop at x has none
    assert [p.edges for p in vertex_simple_cycles_without_exit(withloop)] == [("lx",)]


def test_exit_free_cycles_are_sorted_and_rotated_to_least_base():
    g = G("a b c d", "p:b>c q:c>b r:d>a s:a>d")
    found = vertex_simple_cycles_without_exit(g)
    assert [p.source for p in found] == ["a", "b"]
    assert [p.edges for p in found] == [("s", "r"), ("p", "q")]


def test_shortest_path_prefers_lexicographic_ties():
    g = G("u v w", "b:u>v a:u>v c:v>w")
    p = shortest_path(g, "u", "w")
    assert p is not None and p.edges == ("a", "c")
    assert shortest_path(g, "w", "u") is None
    cyc = shortest_path(G("u", "l:u>u"), "u", "u")
    assert cyc is not None and cyc.edges == ("l",)


@settings(max_examples=150, deadline=None)
@given(graphs(max_vertices=4), st.data())
def test_shortest_path_is_the_least_of_the_shortest_listed_walks(g, data):
    # the strategy's edge ids sort as their endpoints do; renamed in a drawn
    # order, a path's ids need not sort as its vertices
    order = data.draw(st.permutations(range(len(g.edges))))
    g = Graph.build(g.vertices, [(f"e{k}", e.src, e.dst) for k, e in zip(order, g.edges)])
    for src in g.vertices:
        for dst in g.vertices:
            p = shortest_path(g, src, dst)
            found = None if p is None else (p.edges, p.source, p.target)
            assert found == least_shortest_path(g, src, dst)


# -- the isomorphism oracle that the move and pipeline tests use -----------------


def _renamed(g: Graph, prefix: str) -> Graph:
    return Graph.build(
        [f"{prefix}{v}" for v in g.vertices],
        [(f"{prefix}{e.eid}", f"{prefix}{e.src}", f"{prefix}{e.dst}") for e in g.edges],
    )


def test_loop_count_distinguishes(two_loops):
    assert isomorphism(two_loops, G("v0", "e0:v0>v0")) is None


@settings(max_examples=60)
@given(graphs(max_vertices=4), graphs(max_vertices=4))
def test_isomorphism_agrees_with_brute_force(g1, g2):
    assert (isomorphism(g1, g2) is not None) == brute_force_isomorphic(g1, g2)


def test_isomorphism_agrees_with_brute_force_at_six_vertices():
    g = G(
        "a b c d e f",
        "p:a>b q:b>c r:c>a s:d>e t:e>f u:f>d x:a>d y:a>d la:a>a",
    )
    shuffled = G(
        "n0 n1 n2 n3 n4 n5",
        "e0:n3>n4 e1:n4>n5 e2:n5>n3 e3:n0>n1 e4:n1>n2 e5:n2>n0 "
        "e6:n3>n0 e7:n3>n0 e8:n3>n3",
    )
    assert brute_force_isomorphic(g, shuffled)
    assert isomorphism(g, shuffled) is not None
    # drop one parallel edge: the count matrices can no longer match
    broken = G(
        "n0 n1 n2 n3 n4 n5",
        "e0:n3>n4 e1:n4>n5 e2:n5>n3 e3:n0>n1 e4:n1>n2 e5:n2>n0 "
        "e6:n3>n0 e7:n3>n1 e8:n3>n3",
    )
    assert not brute_force_isomorphic(g, broken)
    assert isomorphism(g, broken) is None


@given(graphs(max_vertices=5))
def test_isomorphism_is_reflexive_and_symmetric(g):
    assert isomorphism(g, g) is not None
    other = _renamed(g, "w")
    forward = isomorphism(g, other)
    assert forward is not None
    # the mapping is onto and keeps every parallel-edge count
    assert sorted(forward.values()) == list(other.vertices)
    counts = pair_counts(other)
    assert all(counts[forward[v], forward[w]] == n for (v, w), n in pair_counts(g).items())
    backward = isomorphism(other, g)
    assert backward is not None
