from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckgraph import (
    Graph,
    GraphFormatError,
    PreconditionError,
    RewriteStep,
    RewriteTrace,
    VertexMultiset,
    contract_at,
    expand_at,
    expansion_profile,
    format_multiset,
    fullness_normalize,
    is_full,
    make_path,
    mvn_equivalent,
    parse_multiset,
    path_expansion,
    shortest_path,
)
from conftest import G, all_loop_graphs, fans, graphs, no_sink_graphs
from oracles import inverted


def ms(text: str) -> VertexMultiset:
    return parse_multiset(text)


# -- multiset basics ------------------------------------------------------------


def test_multiset_literal_round_trip():
    m = ms("v1=1,v0=2")
    assert format_multiset(m) == "v0=2,v1=1"
    assert parse_multiset(format_multiset(m)) == m
    assert ms("v0=0") == ms("")
    assert ms("v0=1,v0=2") == ms("v0=3")
    with pytest.raises(GraphFormatError):
        parse_multiset("v0")
    with pytest.raises(GraphFormatError):
        parse_multiset("v0=x")


def test_multiset_multiplicities_are_ascii_digits():
    # int() takes each of these; a multiset literal does not
    for raw in ("+1", "-1", "1_0", "\u0661", "\uff11", "1.0", "", " "):
        with pytest.raises(GraphFormatError, match="bad multiplicity in"):
            parse_multiset(f"v0={raw}")
    assert ms(" v0 = 2 , v1=\t10 ") == ms("v0=2,v1=10")
    with pytest.raises(GraphFormatError, match="bad multiset item"):
        parse_multiset("=1")


def test_multiset_refuses_a_bool_multiplicity():
    # True == 1, but format_multiset would write it as "v0=True", which
    # parse_multiset refuses
    for flag in (True, False):
        with pytest.raises(GraphFormatError, match="non-negative int"):
            VertexMultiset.from_dict({"v0": flag})
    assert VertexMultiset.from_dict({"v0": 1}) == ms("v0=1")


def test_multiset_arithmetic_guards():
    m = ms("v0=1")
    with pytest.raises(PreconditionError, match="insufficient-multiplicity"):
        m.traded({"v0": 2}, {})
    assert m.traded({}, {"v0": 1}).total() == 2
    assert m.scaled(3) == ms("v0=3")


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.sampled_from("abc"), st.integers(0, 3)),
    st.dictionaries(st.sampled_from("abc"), st.integers(0, 3)),
    st.dictionaries(st.sampled_from("abc"), st.integers(0, 3)),
)
def test_a_trade_removes_what_the_multiset_holds_then_adds(held, removed, added):
    m = VertexMultiset.from_dict(held)
    if all(m.get(v) >= n for v, n in removed.items()):
        net = {v: m.get(v) - removed.get(v, 0) + added.get(v, 0) for v in "abc"}
        assert m.traded(removed, added) == VertexMultiset.from_dict(net)
    else:
        with pytest.raises(PreconditionError, match="insufficient-multiplicity"):
            m.traded(removed, added)


# -- expand / contract ------------------------------------------------------------


def test_expand_splits_over_out_edges():
    g = G("v a b", "x:v>a y:v>b")
    assert expand_at(g, ms("v=1"), "v") == ms("a=1,b=1")


def test_expand_on_two_loops(two_loops):
    assert expand_at(two_loops, ms("v0=1"), "v0") == ms("v0=2")


def test_expand_keeps_unit_for_each_self_loop():
    g = G("v w", "l:v>v e:v>w")
    assert expand_at(g, ms("v=1"), "v") == ms("v=1,w=1")


def test_expand_preconditions(two_loops):
    with pytest.raises(PreconditionError, match="zero-multiplicity"):
        expand_at(two_loops, ms(""), "v0")
    sinky = G("v w", "a:v>w")
    with pytest.raises(PreconditionError, match="not-regular"):
        expand_at(sinky, ms("w=1"), "w")


def test_contract_inverts_expand(two_loops):
    m = ms("v0=3")
    assert contract_at(two_loops, expand_at(two_loops, m, "v0"), "v0") == m


def test_contract_pays_for_its_profile_before_it_adds():
    # v's profile is v=2,w=1: a trade netting removed against added would
    # accept v=1,w=1, since 1 - 2 + 1 = 0 at v
    g = G("v w", "a:v>v b:v>v c:v>w")
    with pytest.raises(PreconditionError, match="insufficient-multiplicity"):
        contract_at(g, ms("v=1,w=1"), "v")
    assert contract_at(g, ms("v=2,w=1"), "v") == ms("v=1")


@given(no_sink_graphs(max_vertices=4), st.data())
def test_expanding_k_units_is_k_single_expansions(g, data):
    counts = data.draw(st.dictionaries(st.sampled_from(g.vertices), st.integers(0, 4)))
    m = VertexMultiset.from_dict(counts)
    v = data.draw(st.sampled_from(g.vertices))
    k = data.draw(st.integers(1, 5))
    if m.get(v) == 0:
        with pytest.raises(PreconditionError, match="zero-multiplicity"):
            expand_at(g, m, v, k)
    elif m.get(v) < k:
        with pytest.raises(PreconditionError, match="insufficient-multiplicity"):
            expand_at(g, m, v, k)
    else:
        single = m
        for _ in range(k):
            single = expand_at(g, single, v)
        assert expand_at(g, m, v, k) == single


def test_expanding_k_units_at_a_sink_is_not_regular():
    g = G("u v", "a:u>v")
    with pytest.raises(PreconditionError, match="not-regular"):
        expand_at(g, ms("v=2"), "v", 2)


# -- path expansion ---------------------------------------------------------------


def test_path_expansion_straight_edge():
    g = G("v w lw", "e:v>w lw:lw>lw")
    # silence the unused vertex: the only edge out of v is e
    g = G("v w", "e:v>w")
    assert path_expansion(g, make_path(g, ["e"])) == ms("w=1")


def test_path_expansion_with_side_loop():
    g = G("v w", "l:v>v e:v>w")
    assert path_expansion(g, make_path(g, ["e"])) == ms("v=1,w=1")


def test_path_expansion_down_a_line(line_into_loops):
    p = make_path(line_into_loops, ["e2", "e1"])
    assert path_expansion(line_into_loops, p) == ms("v0=1")


def test_path_expansion_requires_distinct_endpoints(two_loops):
    with pytest.raises(PreconditionError, match="not-a-proper-path"):
        path_expansion(two_loops, make_path(two_loops, ["e0"]))


@settings(max_examples=60)
@given(all_loop_graphs(max_vertices=4), st.data())
def test_path_expansion_replays_as_expand_steps(g, data):
    pairs = [
        (v, w)
        for v in g.vertices
        for w in g.vertices
        if v != w and shortest_path(g, v, w) is not None
    ]
    if not pairs:
        return
    v, w = data.draw(st.sampled_from(pairs))
    route = shortest_path(g, v, w)
    assert route is not None
    # one expand step at the source of each edge of the route
    trace = RewriteTrace(tuple(RewriteStep("expand", g.edge(eid).src) for eid in route.edges))
    assert trace.replay(g, ms(f"{v}=1")) == path_expansion(g, route)


# -- equivalence oracle ---------------------------------------------------------------


def test_equal_multisets_are_equivalent(two_loops):
    result = mvn_equivalent(two_loops, ms("v0=2"), ms("v0=2"), 10)
    assert result.verdict == "yes" and result.trace is not None
    assert result.trace.steps == ()


def test_two_loop_doubling_is_one_step(two_loops):
    result = mvn_equivalent(two_loops, ms("v0=1"), ms("v0=2"), 100)
    assert result.verdict == "yes" and result.trace is not None
    assert len(result.trace.steps) == 1
    assert result.trace.replay(two_loops, ms("v0=1")) == ms("v0=2")


def test_disconnected_loops_are_inequivalent():
    g = G("u v", "lu:u>u lv:v>v")
    assert mvn_equivalent(g, ms("u=1"), ms("v=1"), 500).verdict == "no"


def test_budget_exhaustion_is_unknown():
    g = G("u v", "a:u>v b:v>u lu:u>u")
    assert mvn_equivalent(g, ms("u=1"), ms("u=1,v=5"), 0).verdict in ("unknown", "no")
    result = mvn_equivalent(g, ms("u=1"), ms("v=9"), 1)
    assert (result.verdict, result.stop) == ("unknown", "budget")


@pytest.mark.parametrize("budget, verdict", [(2, "unknown"), (3, "unknown"), (200, "yes")])
def test_a_search_the_mass_cap_cut_answers_no_no(budget, verdict):
    # below budget 4 the cap, 1 + budget, drops the expansion of v, and both
    # searches then end; that proves nothing about states above the cap
    g = fans(5)
    result = mvn_equivalent(g, ms("v=1"), ms("w=1"), budget)
    assert result.verdict == verdict
    assert result.stop == ("mass-cap" if verdict == "unknown" else None)
    if verdict == "yes":
        assert result.trace is not None and len(result.trace.steps) == 2
        assert result.trace.replay(g, ms("v=1")) == ms("w=1")


@pytest.mark.parametrize("swap", [False, True])
def test_a_side_the_mass_cap_cut_does_not_block_the_other_sides_no(swap):
    # v0 is a sink and no edge enters v1, so b's class is {v0=2}: b's side
    # empties with nothing dropped and proves "no", while a second expansion
    # of v1 from a passes the cap of 4 + 10 and cuts a's side first
    g = G(
        "v0 v1 v2",
        "a1:v1>v0 a2:v1>v0 l1:v1>v1 l2:v1>v1 b1:v1>v2 b2:v1>v2 b3:v1>v2"
        " m1:v2>v2 m2:v2>v2 m3:v2>v2",
    )
    a, b = ms("v0=2,v1=2"), ms("v0=2")
    if swap:
        a, b = b, a
    result = mvn_equivalent(g, a, b, 10)
    assert (result.verdict, result.trace, result.stop) == ("no", None, None)


def test_a_join_past_the_default_cap_is_unknown():
    # one loop vertex u and 10,002 parallel edges to it from each of v and w:
    # the cap of the command's default budget, 10,001, drops the expansion
    g = fans(1, parallel=10_002)
    assert len(g.edges) == 20_005
    result = mvn_equivalent(g, ms("v=1"), ms("w=1"), 10_000)
    assert (result.verdict, result.stop) == ("unknown", "mass-cap")


@settings(max_examples=300, deadline=None)
@given(graphs(max_vertices=3), st.data())
def test_no_no_for_a_pair_that_one_expand_and_one_contract_join(base, data):
    # fresh vertices v and w send edges to the same vertices of base, as in
    # the fans above: a wide fan and a small budget are where the cap bites
    targets = data.draw(st.lists(st.sampled_from(base.vertices), min_size=1, max_size=6))
    fans = [(f"{x}{i}", x, t) for x in "vw" for i, t in enumerate(targets)]
    g = Graph.build([*base.vertices, "v", "w"], [*base.edges, *fans])
    counts = data.draw(st.dictionaries(st.sampled_from(g.vertices), st.integers(0, 2)))
    a = VertexMultiset.from_dict({**counts, "v": counts.get("v", 0) + 1})
    expandable = [u for u in a.support if g.out_degree(u)]
    middle = expand_at(g, a, data.draw(st.sampled_from(expandable)))
    # never empty: it holds w after expanding v, and else the vertex expanded
    contractible = [
        u
        for u in g.vertices
        if g.out_degree(u) and all(middle.get(x) >= n for x, n in expansion_profile(g, u).items())
    ]
    b = contract_at(g, middle, data.draw(st.sampled_from(contractible)))
    assert mvn_equivalent(g, a, b, data.draw(st.integers(0, 6))).verdict != "no"


def test_trace_is_replayable_both_ways():
    g = G("u v", "a:u>v b:v>u lu:u>u")
    a, b = ms("u=2"), ms("u=1,v=1")
    result = mvn_equivalent(g, a, b, 2000)
    assert result.verdict == "yes" and result.trace is not None
    assert result.trace.replay(g, a) == b
    assert inverted(result.trace).replay(g, b) == a


def test_yes_trace_with_a_multi_step_backward_half_replays():
    # the backward half of this trace has more than one step; joining it in
    # reversed order gave a trace that does not lead from a to b
    g = G("v0 v1 v2", "l:v0>v0 x:v0>v2 p:v1>v0 q:v1>v0 y:v2>v0")
    a, b = ms("v2=1"), ms("v1=1,v2=2")
    result = mvn_equivalent(g, a, b, 2000)
    assert result.verdict == "yes" and result.trace is not None
    assert result.trace.replay(g, a) == b


@settings(max_examples=200, deadline=None)
@given(graphs(max_vertices=4), st.data())
def test_every_yes_trace_replays_from_a_to_b(g, data):
    counts = st.dictionaries(st.sampled_from(g.vertices), st.integers(0, 2))
    a = VertexMultiset.from_dict(data.draw(counts))
    b = VertexMultiset.from_dict(data.draw(counts))
    result = mvn_equivalent(g, a, b, 2000)
    if result.verdict == "yes":
        assert result.trace is not None
        assert result.trace.replay(g, a) == b
        assert inverted(result.trace).replay(g, b) == a


def test_bad_trace_op_is_rejected(two_loops):
    with pytest.raises(Exception):
        RewriteTrace((RewriteStep("teleport", "v0"),)).replay(two_loops, ms("v0=1"))


# -- fullness -----------------------------------------------------------------------


def test_fullness_examples(two_loops, line_into_loops):
    assert is_full(two_loops, ms("v0=1"))
    # saturation walks up the line, so a unit at the base is already full
    assert is_full(line_into_loops, ms("v0=1"))
    g = G("u v", "lu:u>u lv:v>v a:u>v b:v>u")
    assert is_full(g, ms("u=1"))
    assert not is_full(G("u v", "lu:u>u lv:v>v"), ms("u=1"))
    with pytest.raises(PreconditionError, match="zero-multiset"):
        is_full(two_loops, ms(""))


def test_fullness_normalize_identity_on_positive(two_loops):
    assert fullness_normalize(two_loops, ms("v0=2")) == ms("v0=2")


def test_fullness_normalize_two_vertices():
    g = G("u v", "lu:u>u lv:v>v a:u>v")
    out = fullness_normalize(g, ms("u=1"))
    assert out == ms("u=1,v=1")
    assert mvn_equivalent(g, ms("u=1"), out, 10_000).verdict == "yes"


def test_fullness_normalize_three_cycle():
    g = G("a b c", "la:a>a lb:b>b lc:c>c x:a>b y:b>c z:c>a")
    out = fullness_normalize(g, ms("a=2"))
    assert all(out.get(v) >= 1 for v in g.vertices)
    assert mvn_equivalent(g, ms("a=2"), out, 10_000).verdict == "yes"


def test_fullness_normalize_preconditions(two_loops):
    with pytest.raises(PreconditionError, match="has-sink"):
        fullness_normalize(G("v w", "a:v>w"), ms("v=1"))
    with pytest.raises(PreconditionError, match="missing-self-loop"):
        fullness_normalize(G("u v", "a:u>v b:v>u"), ms("u=1"))
    with pytest.raises(PreconditionError, match="not-full"):
        fullness_normalize(G("u v", "lu:u>u lv:v>v"), ms("u=1"))


@settings(max_examples=40)
@given(all_loop_graphs(max_vertices=4, max_parallel=3), st.data())
def test_fullness_normalize_is_certified_by_the_oracle(g, data):
    v = data.draw(st.sampled_from(g.vertices))
    start = ms(f"{v}=1")
    if not is_full(g, start):
        return
    out = fullness_normalize(g, start)
    assert set(out.support) == set(g.vertices)
    assert mvn_equivalent(g, start, out, 10_000).verdict == "yes"
