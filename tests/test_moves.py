from __future__ import annotations

from argparse import Namespace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckgraph import (
    AddHead,
    AttachHeads,
    CertificateError,
    CollapseVertex,
    Graph,
    GraphFormatError,
    Move,
    MoveLogBuilder,
    PreconditionError,
    RemoveSource,
    SourceElision,
    StarSources,
    SubdivideEdge,
    add_head,
    apply_move,
    attach_heads,
    collapse_vertex,
    contract_at,
    expand_at,
    format_graph,
    format_move,
    format_move_log,
    graph_fingerprint,
    k0_class_divisible,
    k_invariants,
    matrix_amplify,
    mvn_equivalent,
    parse_move,
    parse_move_log,
    parse_multiset,
    reachable_from,
    remove_source,
    replay_move_log,
    restrict_to_hereditary,
    source_elision,
    star_sources,
    subdivide_edge,
)
from ckgraph.cli import _cmd_fuzz
from ckgraph.moves import _MOVES, MAX_LENGTH
from ckgraph.randgen import SplitMix64, random_no_sink_graph
from conftest import G, bouquet, graphs, no_sink_graphs
from oracles import (
    core_of,
    crossing_paths,
    derived,
    diamond_chain,
    format_lines,
    isomorphism,
    pair_counts,
)

DATA = Path(__file__).parent / "data"


# -- add_head ------------------------------------------------------------------


def test_add_head_builds_the_line(two_loops, line_into_loops):
    grown = add_head(two_loops, "v0", 2)
    assert isomorphism(grown, line_into_loops) is not None


def test_add_head_single_source(two_loops):
    grown = add_head(two_loops, "v0", 1)
    assert grown.source_vertices == ("v0~h1",)
    assert pair_counts(grown)["v0~h1", "v0"] == 1


def test_add_head_keeps_cycles_intact():
    cyc = G("u v", "a:u>v b:v>u")
    grown = add_head(cyc, "u", 3)
    counts = pair_counts(grown)
    assert counts["u", "v"] == 1 and counts["v", "u"] == 1
    assert len(grown.vertices) == 5


@given(no_sink_graphs(max_vertices=4), st.integers(1, 3), st.data())
def test_add_head_counts(g, n, data):
    v = data.draw(st.sampled_from(g.vertices))
    grown = add_head(g, v, n)
    assert len(grown.vertices) == len(g.vertices) + n
    assert len(grown.edges) == len(g.edges) + n


def test_add_head_twice_avoids_collisions(two_loops):
    grown = add_head(add_head(two_loops, "v0", 1), "v0", 1)
    assert len(grown.vertices) == 3
    assert len({e.eid for e in grown.edges}) == 4


# -- subdivide_edge ----------------------------------------------------------------


def test_subdivision_makes_the_long_cycle(two_loops):
    divided = subdivide_edge(two_loops, "e0", 2)
    assert len(divided.vertices) == 3
    # one loop left, and a 3-cycle through the two fresh vertices
    assert len(divided.loops_at("v0")) == 1
    cycle = [e for e in divided.edges if e.eid != "f"]
    assert len(cycle) == 3


def test_subdivision_of_plain_edge_inserts_midpoint():
    g = G("u w", "e:u>w lw:w>w")
    divided = subdivide_edge(g, "e", 1)
    counts = pair_counts(divided)
    assert counts["u", "e~s1"] == 1 and counts["e~s1", "w"] == 1
    assert "e" not in [edge.eid for edge in divided.edges]


@given(no_sink_graphs(max_vertices=4), st.integers(1, 3), st.data())
def test_subdivision_counts_and_head_equivalence(g, n, data):
    if not g.edges:
        return
    e = data.draw(st.sampled_from(g.edges))
    divided = subdivide_edge(g, e.eid, n)
    assert len(divided.vertices) == len(g.vertices) + n
    assert len(divided.edges) == len(g.edges) + n
    assert k_invariants(divided).groups_equal(k_invariants(add_head(g, e.dst, n)))


# -- source_elision ------------------------------------------------------------------


def test_elision_of_the_line_makes_named_sources(line_into_loops):
    out = source_elision(line_into_loops, {"v0"})
    assert out.vertices == ("src:e1", "src:e2.e1", "v0")
    assert len(out.loops_at("v0")) == 2
    counts = pair_counts(out)
    assert counts["src:e1", "v0"] == 1 and counts["src:e2.e1", "v0"] == 1


def test_elision_with_everything_kept_is_identity(line_into_loops):
    assert source_elision(line_into_loops, line_into_loops.vertices) == line_into_loops


def test_elision_single_crossing():
    g = G("u v", "a:u>v lv:v>v")
    out = source_elision(g, {"v"})
    assert out.vertices == ("src:a", "v")
    assert pair_counts(out)["src:a", "v"] == 1
    assert len(out.loops_at("v")) == 1


def test_elision_may_reuse_a_vertex_id_it_drops():
    g = G("q src:y", "y:src:y>q l:q>q")
    out = source_elision(g, {"q"})
    assert out == Graph.build(["q", "src:y"], [("l", "q", "q"), ("src:y~e", "src:y", "q")])


def test_elision_diagnoses_each_failure():
    g = G("u v", "a:u>v lv:v>v")
    with pytest.raises(PreconditionError, match="not-hereditary"):
        source_elision(g, {"u"})
    cyc = G("u v w", "a:u>v b:v>u x:u>w lw:w>w")
    with pytest.raises(PreconditionError, match="complement-cyclic"):
        source_elision(cyc, {"w"})
    stranded = G("u w", "lw:w>w")
    with pytest.raises(PreconditionError, match="unreachable-vertex"):
        source_elision(stranded, {"w"})


@settings(max_examples=40)
@given(no_sink_graphs(max_vertices=4), st.integers(1, 3), st.data())
def test_elision_of_a_head_matches_star_sources(g, n, data):
    v = data.draw(st.sampled_from(g.vertices))
    towered = add_head(g, v, n)
    elided = source_elision(towered, g.vertices)
    assert isomorphism(elided, star_sources(g, v, n)) is not None


def _added_sources(out: Graph, h) -> list[tuple[str, str]]:
    # (path spelling, landing) of each source the elision added, sorted
    return sorted((s[len("src:"):], out.out_edges(s)[0].dst) for s in out.vertices if s not in h)


@settings(max_examples=100, deadline=None)
# a sink outside h is what the unreachable-vertex refusal needs
@given(st.one_of(no_sink_graphs(max_vertices=5), graphs(max_vertices=5)), st.data())
def test_elision_adds_one_source_per_crossing_path(g, data):
    drawn = data.draw(st.lists(st.sampled_from(g.vertices), min_size=1, max_size=3))
    for h in (core_of(g), reachable_from(g, drawn)):
        try:
            out = source_elision(g, h)
        except PreconditionError as exc:
            assert exc.reason in ("complement-cyclic", "unreachable-vertex")
            if exc.reason == "unreachable-vertex":
                complement = [v for v in g.vertices if v not in h]
                assert any(not reachable_from(g, [v]) & h for v in complement)
                named = str(exc).split("'")[1]
                assert named not in h and g.out_degree(named) == 0
            continue
        assert _added_sources(out, h) == crossing_paths(g, h)


@pytest.mark.parametrize("k", range(1, 7))
def test_elision_of_a_diamond_chain_adds_every_crossing_path(k):
    g = diamond_chain(k)
    out = source_elision(g, {"z"})
    assert _added_sources(out, {"z"}) == crossing_paths(g, {"z"})
    # z and one source per path: 2^(k - i) from a_i, 2^(k - i - 1) from b_i
    # and from c_i, 2^(k + 2) - 3 in all
    assert len(out.vertices) == 2 ** (k + 2) - 2


def test_elision_of_a_long_head_lists_its_paths_without_recursion():
    # 1,200 paths, the longest of 1,200 edges: deeper than CPython's default
    # recursion limit of 1,000
    out = source_elision(add_head(bouquet(2), "v0", 1200), ["v0"])
    assert len(out.vertices) == 1201
    assert out.out_edges("src:v0~h1e")[0].dst == "v0"


# -- star_sources -----------------------------------------------------------------------


def test_star_sources_figure(two_loops, star_into_loops):
    assert isomorphism(star_sources(two_loops, "v0", 2), star_into_loops) is not None


def test_star_and_head_share_invariants(two_loops):
    assert k_invariants(star_sources(two_loops, "v0", 2)) == k_invariants(
        add_head(two_loops, "v0", 2)
    )


def test_single_star_is_a_single_head(two_loops):
    assert (
        isomorphism(star_sources(two_loops, "v0", 1), add_head(two_loops, "v0", 1))
        is not None
    )


# -- remove_source ------------------------------------------------------------------------


def test_remove_source_shortens_the_line(line_into_loops, two_loops):
    shorter = remove_source(line_into_loops, "v2")
    assert isomorphism(shorter, add_head(two_loops, "v0", 1)) is not None


def test_remove_source_empties_single_vertex():
    g = G("v")
    assert not remove_source(g, "v").vertices


def test_remove_source_rejects_receivers(two_loops):
    with pytest.raises(PreconditionError, match="not-a-source"):
        remove_source(two_loops, "v0")


@settings(max_examples=60)
@given(no_sink_graphs(max_vertices=5))
def test_remove_source_preserves_invariants(g):
    base = k_invariants(g)
    for v in g.source_vertices:
        assert k_invariants(remove_source(g, v)).groups_equal(base)


# -- unknown vertices ---------------------------------------------------------------------


# each reads its vertex's degree or out-edges first, and that lookup refuses
_VERTEX_READERS = {
    "remove_source": remove_source,
    "collapse_vertex": collapse_vertex,
    "expand_at": lambda g, v: expand_at(g, parse_multiset("v0=1"), v),
    "contract_at": lambda g, v: contract_at(g, parse_multiset("v0=1"), v),
}


@pytest.mark.parametrize("v", ["x", 3, []], ids=repr)
@pytest.mark.parametrize("name", sorted(_VERTEX_READERS))
def test_a_move_or_rewrite_refuses_an_unknown_vertex(name, v, two_loops):
    with pytest.raises(PreconditionError) as excinfo:
        _VERTEX_READERS[name](two_loops, v)
    assert str(excinfo.value) == f"unknown-vertex: no vertex {v!r} in graph"


# -- collapse_vertex ---------------------------------------------------------------------


def test_collapse_two_cycle():
    g = G("u v", "a:u>v b:v>u")
    out = collapse_vertex(g, "v")
    assert out.vertices == ("u",)
    assert len(out.loops_at("u")) == 1
    assert out.edges[0].eid == "a.b"


def test_collapse_path_composes():
    g = G("a v b", "e1:a>v e2:v>b la:a>a lb:b>b")
    out = collapse_vertex(g, "v")
    assert pair_counts(out)["a", "b"] == 1


def test_collapse_keeps_parallel_compositions_distinct():
    g = G("a v b", "p:a>v q:a>v r:v>b s:v>b la:a>a lb:b>b")
    out = collapse_vertex(g, "v")
    assert pair_counts(out)["a", "b"] == 4


def test_collapse_may_reuse_an_edge_id_it_drops():
    # fresh names miss the ids of the graph left after the drops, not before
    g = G("u v w", "a:u>v a.b:u>v b:v>w l:w>w m:u>u")
    out = collapse_vertex(g, "v")
    assert out == G("u w", "a.b:u>w a.b.b:u>w l:w>w m:u>u")


def test_collapse_preconditions(two_loops):
    with pytest.raises(PreconditionError, match="self-loop"):
        collapse_vertex(two_loops, "v0")
    with pytest.raises(PreconditionError, match="is-a-source"):
        collapse_vertex(G("u v", "a:u>v lv:v>v"), "u")
    with pytest.raises(PreconditionError, match="not-regular"):
        collapse_vertex(G("u v", "a:u>v"), "v")


@settings(max_examples=60)
@given(no_sink_graphs(max_vertices=5))
def test_collapse_preserves_invariants(g):
    base = k_invariants(g)
    candidates = [
        v
        for v in g.vertices
        if g.in_degree(v) > 0 and g.out_degree(v) > 0 and not g.loops_at(v)
    ]
    for v in candidates[:2]:
        assert k_invariants(collapse_vertex(g, v)).groups_equal(base)


# -- attach_heads ------------------------------------------------------------------------


def test_attach_heads_identity_and_single(two_loops, line_into_loops):
    assert attach_heads(two_loops, {"v0": 0}) == two_loops
    assert isomorphism(attach_heads(two_loops, {"v0": 2}), line_into_loops) is not None


def test_attach_heads_on_two_cycle():
    g = G("u v", "a:u>v b:v>u")
    out = attach_heads(g, {"u": 1, "v": 1})
    assert len(out.vertices) == 4
    assert set(out.source_vertices) == {"u~h1", "v~h1"}


# ids that the fresh names of heads at "a" collide with
_HEAD_VERTICES = ["a", "a~h1", "a~h2", "a~h1_2", "a~h1~h1", "b"]
_HEAD_EDGES = ["a~h1e", "a~h2e", "a~h1e_2", "a~h1~h1e", "b~h1e", "x"]


@settings(max_examples=100)
@given(st.data())
def test_attach_heads_matches_the_fold_of_add_head(data):
    vertices = data.draw(st.lists(st.sampled_from(_HEAD_VERTICES), min_size=1, unique=True))
    eids = data.draw(st.lists(st.sampled_from(_HEAD_EDGES), unique=True))
    ends = st.sampled_from(vertices)
    g = Graph.build(vertices, [(eid, data.draw(ends), data.draw(ends)) for eid in eids])
    lengths = data.draw(st.dictionaries(ends, st.integers(0, 3)))
    fold = g
    for v in sorted(lengths):
        if lengths[v]:
            fold = add_head(fold, v, lengths[v])
    assert attach_heads(g, lengths) == fold


def test_attach_heads_rejects_negative(two_loops):
    with pytest.raises(PreconditionError, match="bad-parameter"):
        attach_heads(two_loops, {"v0": -1})


def test_counts_that_are_not_ints_are_refused(two_loops):
    # every count site says the one count rule: range() would raise a bare
    # TypeError on a float, True would build a head of length 1, a float
    # budget ran a search and scaled(True) returned the multiset unchanged
    one = parse_multiset("v0=1")
    sites = (
        ("head length", 1, lambda n: add_head(two_loops, "v0", n)),
        ("subdivision length", 1, lambda n: subdivide_edge(two_loops, "e0", n)),
        ("source count", 1, lambda n: star_sources(two_loops, "v0", n)),
        ("head length at 'v0'", 0, lambda n: attach_heads(two_loops, {"v0": n})),
        ("divisor", 1, lambda n: k0_class_divisible(two_loops, {"v0": 1}, n)),
        ("amplification factor", 1, lambda n: matrix_amplify(two_loops, n)),
        ("budget", 0, lambda n: mvn_equivalent(two_loops, one, parse_multiset("v0=2"), n)),
        ("scale factor", 0, lambda n: one.scaled(n)),
        ("case count", 0, lambda n: _cmd_fuzz(Namespace(seed=1, cases=n), None)),
    )
    for what, least, call in sites:
        below = f"must be {'positive' if least else 'non-negative'}, got {least - 1}"
        refusals = ((2.5, "must be an int, got 2.5"), (True, "must be an int, got True"))
        for n, message in (*refusals, (least - 1, below)):
            with pytest.raises(PreconditionError) as refused:
                call(n)
            assert refused.value.reason == "bad-parameter"
            assert str(refused.value) == f"bad-parameter: {what} {message}"


def test_attach_heads_refuses_a_repeated_vertex(two_loops):
    # a dict of the pairs would keep only the last length of v0, while the
    # record and the log keep both
    with pytest.raises(PreconditionError, match="bad-parameter: .*'v0'"):
        attach_heads(two_loops, [("v0", 1), ("v0", 2)])
    move = parse_move("attach-heads:v0=1,v0=2")
    with pytest.raises(PreconditionError, match="bad-parameter: .*'v0'"):
        apply_move(two_loops, move)


def test_lengths_above_the_limit_are_refused(two_loops):
    builds = {
        "add_head": lambda n: add_head(two_loops, "v0", n),
        "star_sources": lambda n: star_sources(two_loops, "v0", n),
        "subdivide_edge": lambda n: subdivide_edge(two_loops, "e0", n),
        "attach_heads": lambda n: attach_heads(two_loops, {"v0": n}),
    }
    for name, build in builds.items():
        assert len(build(MAX_LENGTH).vertices) == MAX_LENGTH + 1, name
        with pytest.raises(PreconditionError, match=f"output-too-large: .*{MAX_LENGTH + 1}"):
            build(MAX_LENGTH + 1)
    # heads within the limit each, whose total is not
    islands = G("u v", "lu:u>u lv:v>v")
    half = MAX_LENGTH // 2
    built = attach_heads(islands, {"u": half, "v": MAX_LENGTH - half})
    assert len(built.vertices) == MAX_LENGTH + 2
    with pytest.raises(PreconditionError, match=f"output-too-large: total .*{MAX_LENGTH + 1}"):
        attach_heads(islands, {"u": half, "v": MAX_LENGTH - half + 1})


# -- move records and logs ---------------------------------------------------------------


def test_move_spelling_round_trip():
    moves = [
        AddHead("v0", 2),
        SubdivideEdge("e0", 1),
        StarSources("src:e2.e1", 3),
        SourceElision(("u", "v")),
        RemoveSource("v2"),
        CollapseVertex("v1"),
        AttachHeads((("u", 1), ("v", 0))),
    ]
    for move in moves:
        assert parse_move(format_move(move)) == move
    with pytest.raises(GraphFormatError):
        parse_move("frobnicate:v0")
    with pytest.raises(GraphFormatError):
        parse_move("add-head:v0:x")


def test_move_table_covers_every_record():
    assert {kind.record for kind in _MOVES.values()} == set(Move.__args__)


def test_unknown_move_records_are_rejected(two_loops):
    with pytest.raises(PreconditionError, match="bad-parameter"):
        apply_move(two_loops, ("add-head", "v0", 1))
    with pytest.raises(PreconditionError, match="bad-parameter"):
        format_move(("add-head", "v0", 1))


def test_attach_heads_takes_the_pairs_of_its_record(two_loops):
    pairs = (("v0", 2),)
    assert attach_heads(two_loops, pairs) == attach_heads(two_loops, dict(pairs))
    assert apply_move(two_loops, AttachHeads(pairs)) == attach_heads(two_loops, pairs)


def test_move_log_replay_and_text(two_loops):
    builder = MoveLogBuilder(two_loops)
    builder.apply(AddHead("v0", 2))
    builder.apply(SourceElision(("v0",)))
    log = builder.log()
    assert replay_move_log(two_loops, log) == builder.graph
    assert parse_move_log(format_move_log(log)) == log


def test_move_log_refuses_a_start_line_with_anything_else(two_loops):
    start = graph_fingerprint(two_loops)
    assert parse_move_log(f"start {start}\n").start == start
    for line in ("", "start", "start ", f"start {start} extra", f"start  {start}", f"begin {start}"):
        with pytest.raises(GraphFormatError, match="start <fingerprint>"):
            parse_move_log(line + "\n")


def test_move_log_refuses_a_step_line_that_is_not_one_spelling_and_one_fingerprint(two_loops):
    start = graph_fingerprint(two_loops)
    log = parse_move_log(f"start {start}\nadd-head:v0:2 fp\n")
    assert log.steps == ((AddHead("v0", 2), "fp"),)
    # two spaces once left a trailing space on the spelling, which int() read
    for line in ("add-head:v0:2  fp", "add-head:v0:2 fp extra", "add-head:v0:2\tfp", "add-head:v0:2"):
        with pytest.raises(GraphFormatError, match="bad move log line"):
            parse_move_log(f"start {start}\n{line}\n")


def test_integer_fields_are_ascii_digits_with_an_optional_minus(two_loops):
    assert parse_move("add-head:v0:12") == AddHead("v0", 12)
    assert parse_move("attach-heads:u=3,v=0") == AttachHeads((("u", 3), ("v", 0)))
    # int() reads the first four and the last two, as moves whose spelling
    # differs from the text; it refuses the other two, though str.isdigit
    # holds for a superscript two
    for text in (
        "add-head:v0:1_0",
        "add-head:v0:\u0663",
        "add-head:v0:+1",
        "add-head:v0: 1",
        "add-head:v0:-",
        "subdivide-edge:e0:\u00b2",
        "attach-heads:u=1_0",
        "attach-heads:u=\u0663",
    ):
        with pytest.raises(GraphFormatError, match="bad move argument"):
            parse_move(text)
    # a negative length parses and is refused by the move itself
    move = parse_move("add-head:v0:-1")
    assert move == AddHead("v0", -1) and format_move(move) == "add-head:v0:-1"
    with pytest.raises(PreconditionError, match="bad-parameter"):
        apply_move(two_loops, move)


def test_a_move_parses_from_the_one_text_format_move_writes(two_loops):
    # each parses to a record that format_move writes differently
    for text in (
        "add-head:v0:02",
        "add-head:v0:-0",
        "attach-heads:v=1,u=2",
        "source-elision:v,u",
        "source-elision:u,,v",
    ):
        with pytest.raises(GraphFormatError, match="bad move argument"):
            parse_move(text)
    with pytest.raises(PreconditionError, match="bad-parameter"):
        apply_move(two_loops, parse_move("add-head:v0:-1"))


def test_move_log_detects_divergence(two_loops):
    builder = MoveLogBuilder(two_loops)
    builder.apply(AddHead("v0", 1))
    log = builder.log()
    other = G("v0", "e0:v0>v0")
    with pytest.raises(CertificateError):
        replay_move_log(other, log)


def _pick_move(rng: SplitMix64, g: Graph) -> Move:
    # every record of the move table, with arguments that apply
    kind = rng.randint(0, 6)
    if kind == 1 and g.edges:
        return SubdivideEdge(rng.choice(g.edges).eid, rng.randint(1, 3))
    if kind == 2:
        return StarSources(rng.choice(g.vertices), rng.randint(1, 3))
    if kind == 3 and g.source_vertices:
        return RemoveSource(rng.choice(g.source_vertices))
    if kind == 4:
        chain = [
            v for v in g.vertices
            if not g.loops_at(v) and 0 < g.in_degree(v) * g.out_degree(v) <= 2
        ]
        if chain:
            return CollapseVertex(rng.choice(chain))
    if kind == 5:
        return SourceElision(tuple(sorted(reachable_from(g, [rng.choice(g.vertices)]))))
    if kind == 6:
        lengths = {rng.choice(g.vertices): rng.randint(0, 2) for _ in range(3)}
        return AttachHeads(tuple(sorted(lengths.items())))
    return AddHead(rng.choice(g.vertices), rng.randint(1, 3))


def test_the_generator_refuses_an_empty_range_or_sequence():
    with pytest.raises(ValueError, match=r"empty range \[2, 1\]"):
        SplitMix64(1).randint(2, 1)
    with pytest.raises(ValueError, match="choice from empty sequence"):
        SplitMix64(1).choice([])


def test_seeded_move_log_keeps_its_pinned_fingerprints():
    # moves, fresh ids and fingerprints of every step, as first recorded
    # when every move rebuilt its whole result through Graph.build
    rng = SplitMix64(1)
    g = random_no_sink_graph(rng, max_vertices=40, max_parallel=2)
    builder = MoveLogBuilder(g)
    for _ in range(30):
        builder.apply(_pick_move(rng, builder.graph))
    text = format_move_log(builder.log())
    assert text == (DATA / "pinned_moves.log").read_text()
    assert replay_move_log(g, parse_move_log(text)) == builder.graph


@settings(max_examples=80)
@given(graphs(max_vertices=5), st.data())
def test_every_move_result_meets_the_invariants_of_build(g, data):
    # Graph._edit checks nothing, so this is what guards the ids a move adds;
    # four moves in a row, so fresh ids meet the ids of earlier moves
    for _ in range(4):
        if not g.vertices:
            break
        seed = data.draw(st.integers(0, 2**64 - 1))
        try:
            g = apply_move(g, _pick_move(SplitMix64(seed), g))
        except PreconditionError:
            continue
        assert Graph.build(g.vertices, g.edges) == g


def _carries_what_a_fresh_graph_computes(g: Graph) -> None:
    assert (g._lines, g._out, g._in) == derived(g)
    assert format_graph(g) == format_lines(g)


@settings(max_examples=80)
@given(graphs(max_vertices=6), st.data())
def test_edits_carry_the_derived_data_a_fresh_graph_computes(g, data):
    # moves over the whole move table, plus the edits that drop vertices,
    # and a vertex of high in-degree that loses its edges one at a time
    for _ in range(6):
        if not g.vertices:
            break
        kind = data.draw(st.sampled_from(["move", "restrict", "remove-source", "star"]))
        try:
            if kind == "restrict":
                v = data.draw(st.sampled_from(g.vertices))
                g = restrict_to_hereditary(g, reachable_from(g, [v]))
            elif kind == "remove-source" and g.source_vertices:
                g = remove_source(g, data.draw(st.sampled_from(g.source_vertices)))
            elif kind == "star":
                before = g
                g = star_sources(g, data.draw(st.sampled_from(g.vertices)), 20)
                for v in sorted(set(g.vertices) - set(before.vertices)):
                    _carries_what_a_fresh_graph_computes(g)
                    g = remove_source(g, v)
                assert g == before
            else:
                seed = data.draw(st.integers(0, 2**64 - 1))
                g = apply_move(g, _pick_move(SplitMix64(seed), g))
        except PreconditionError:
            continue
        _carries_what_a_fresh_graph_computes(g)


# -- invariance fuzz (the full-size sweep lives in the acceptance suite) -------------------


@settings(max_examples=30)
@given(no_sink_graphs(max_vertices=4), st.data())
def test_every_move_preserves_k_groups(g, data):
    base = k_invariants(g)
    v = data.draw(st.sampled_from(g.vertices))
    outputs = [add_head(g, v, 1), star_sources(g, v, 1), attach_heads(g, {v: 2})]
    if g.edges:
        e = data.draw(st.sampled_from(g.edges))
        outputs.append(subdivide_edge(g, e.eid, 1))
    for moved in outputs:
        assert k_invariants(moved).groups_equal(base)


@settings(max_examples=30)
@given(no_sink_graphs(max_vertices=4), st.data())
def test_isomorphism_grade_moves_preserve_unit_profile(g, data):
    v = data.draw(st.sampled_from(g.vertices))
    n = data.draw(st.integers(1, 2))
    head = k_invariants(add_head(g, v, n))
    assert head == k_invariants(star_sources(g, v, n))
    if g.edges:
        e = data.draw(st.sampled_from(g.edges))
        assert k_invariants(subdivide_edge(g, e.eid, n)) == k_invariants(add_head(g, e.dst, n))
    core = core_of(g)
    if core:
        assert k_invariants(source_elision(g, core)) == k_invariants(g)
