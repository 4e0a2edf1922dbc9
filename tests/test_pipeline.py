from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckgraph import (
    CertificateError,
    Graph,
    PreconditionError,
    VertexMultiset,
    add_head,
    expand_at,
    is_cuntz_krieger,
    k0_class_of,
    k_invariants,
    matrix_amplify,
    mvn_equivalent,
    normalize_to_ck,
    parse_multiset,
    realize_corner,
    realize_full_corner,
    remove_source,
    replay_move_log,
    restrict_to_hereditary,
    self_loop_saturate,
    source_elision,
    subdivide_edge,
)
from ckgraph import pipeline
from ckgraph.pipeline import _head_projection
from ckgraph.randgen import SplitMix64, derive_seed, random_all_loop_graph
from conftest import G, all_loop_graphs, bouquet, no_sink_graphs
from oracles import core_of, diamond_chain, isomorphism, saturate_unit_by_unit


def ms(text: str) -> VertexMultiset:
    return parse_multiset(text)


# -- normalize_to_ck ---------------------------------------------------------------


def test_normalize_line_gives_subdivision_shape(two_loops, line_into_loops):
    result = normalize_to_ck(line_into_loops)
    assert isomorphism(result.graph, subdivide_edge(two_loops, "e0", 2)) is not None
    assert dict(result.certificates) == {
        "no-sinks": True,
        "no-sources": True,
        "k-invariants-preserved": True,
        "unit-profile-preserved": True,
    }
    assert replay_move_log(line_into_loops, result.log) == result.graph


def test_normalize_is_identity_on_normal_graphs(two_loops):
    result = normalize_to_ck(two_loops)
    assert result.graph == two_loops
    assert result.log.steps == ()


def test_normalize_star_matches_line(line_into_loops, star_into_loops):
    a = normalize_to_ck(line_into_loops)
    b = normalize_to_ck(star_into_loops)
    assert isomorphism(a.graph, b.graph) is not None


def test_normalize_refuses_sinks_and_empty():
    with pytest.raises(PreconditionError, match="has-sink"):
        normalize_to_ck(G("v w", "a:v>w"))
    with pytest.raises(PreconditionError, match="empty-core"):
        normalize_to_ck(Graph.build([], []))
    # isolated vertices count as sinks, so sink-free pipelines refuse them
    with pytest.raises(PreconditionError, match="has-sink"):
        normalize_to_ck(G("v0 island", "e0:v0>v0 f:v0>v0"))


def test_core_of_line(line_into_loops):
    assert core_of(line_into_loops) == {"v0"}


@settings(max_examples=60, deadline=None)
@given(no_sink_graphs(max_vertices=5))
def test_normalize_is_idempotent_up_to_isomorphism(g):
    once = normalize_to_ck(g)
    # a nonempty sink-free graph has a cycle, so its core is never empty; the
    # output keeps exactly the core's vertices of g (the fresh ones are named
    # apart from g's v0, v1, ...)
    core = core_of(g)
    assert core
    assert core == set(once.graph.vertices) & set(g.vertices)
    twice = normalize_to_ck(once.graph)
    assert twice.graph == once.graph
    assert isomorphism(once.graph, twice.graph) is not None
    verdict, _ = is_cuntz_krieger(g)
    assert verdict


def test_normalize_transports_multiset(line_into_loops):
    result = normalize_to_ck(line_into_loops, carry=ms("v2=1"))
    # one unit at the top of the line telescopes to the base
    assert result.multiset == ms("v0=1")


# -- self_loop_saturate ----------------------------------------------------------------


def _assert_landings_keep_a_core_in_edge(g: Graph) -> None:
    # normalize_to_ck's stages up to each subdivision: every core vertex has
    # an in-edge from the core, which no stage before its subdivision cuts
    core = core_of(g)
    h = source_elision(g, sorted(core))
    groups: dict[str, list[str]] = {}
    for s in h.vertices:
        if s not in core and h.in_degree(s) == 0:
            groups.setdefault(h.out_edges(s)[0].dst, []).append(s)
    for v in sorted(groups):
        for s in sorted(groups[v]):
            h = remove_source(h, s)
        assert any(e.src in core for e in h.in_edges(v))
        h = subdivide_edge(h, min(e.eid for e in h.in_edges(v)), len(groups[v]))


@settings(max_examples=100, deadline=None)
@given(no_sink_graphs(max_vertices=6))
def test_a_landing_vertex_keeps_an_in_edge_from_the_core(g):
    _assert_landings_keep_a_core_in_edge(g)


@pytest.mark.parametrize("k", range(1, 7))
def test_a_diamond_chain_landing_keeps_an_in_edge_from_the_core(k):
    _assert_landings_keep_a_core_in_edge(diamond_chain(k))


def test_saturate_two_cycle_to_single_loop():
    out = self_loop_saturate(G("u v", "a:u>v b:v>u"))
    assert len(out.graph.vertices) == 1
    assert len(out.graph.edges) == 1


def test_saturate_three_cycle_needs_two_collapses():
    g = G("a b c", "x:a>b y:b>c z:c>a")
    out = self_loop_saturate(g)
    assert len(out.graph.vertices) == 1
    assert len(out.log.steps) == 2


def test_saturate_identity_when_loops_everywhere(two_loops):
    out = self_loop_saturate(two_loops)
    assert out.graph == two_loops and out.log.steps == ()


def test_saturate_preconditions():
    with pytest.raises(PreconditionError, match="has-source"):
        self_loop_saturate(G("u v", "a:u>v lv:v>v"))


@settings(max_examples=50, deadline=None)
@given(no_sink_graphs(max_vertices=5))
def test_saturate_after_normalize(g):
    normalized = normalize_to_ck(g)
    saturated = self_loop_saturate(normalized.graph)
    assert all(saturated.graph.loops_at(v) for v in saturated.graph.vertices)
    assert saturated.after.groups_equal(k_invariants(g))


@settings(max_examples=60, deadline=None)
@given(no_sink_graphs(max_vertices=5), st.data())
def test_saturate_matches_the_round_by_round_loop(g, data):
    # the core of a nonempty sink-free graph is nonempty, sink-free and
    # source-free
    g = restrict_to_hereditary(g, core_of(g))
    counts = data.draw(st.dictionaries(st.sampled_from(g.vertices), st.integers(0, 3)))
    carry = VertexMultiset.from_dict(counts)
    result = self_loop_saturate(g, carry)
    assert (result.log, result.multiset) == saturate_unit_by_unit(g, carry)


@pytest.mark.parametrize(
    "stage",
    [
        pytest.param(lambda g, m: normalize_to_ck(g, carry=m), id="normalize_to_ck"),
        pytest.param(lambda g, m: self_loop_saturate(g, carry=m), id="self_loop_saturate"),
        pytest.param(realize_full_corner, id="realize_full_corner"),
    ],
)
def test_a_multiset_naming_a_vertex_the_graph_lacks_is_refused(stage, two_loops):
    with pytest.raises(PreconditionError, match="unknown-vertex: no vertex 'zz' in graph"):
        stage(two_loops, ms("zz=3,v0=1"))


# -- realize_full_corner ------------------------------------------------------------------


def test_full_corner_unit_multiset_is_identity(two_loops):
    result = realize_full_corner(two_loops, ms("v0=1"))
    assert result.graph == two_loops and result.log.steps == ()


def test_full_corner_triple_mass(two_loops):
    result = realize_full_corner(two_loops, ms("v0=3"))
    assert len(result.graph.vertices) == 3
    assert result.after.groups_equal(result.before)
    assert result.certificate("unit-class-matches")
    assert isomorphism(result.graph, add_head(two_loops, "v0", 2)) is not None


def test_full_corner_mixed_mass():
    g = G("u v", "lu:u>u lv:v>v a:u>v b:v>u")
    result = realize_full_corner(g, ms("u=2,v=1"))
    assert set(result.graph.vertices) == {"u", "v", "u~h1"}


def test_full_corner_preconditions(two_loops):
    with pytest.raises(PreconditionError, match="zero-multiplicity"):
        realize_full_corner(G("u v", "lu:u>u lv:v>v a:u>v"), ms("u=1"))
    with pytest.raises(PreconditionError, match="missing-self-loop"):
        realize_full_corner(G("u v", "a:u>v b:v>u"), ms("u=1,v=1"))


def _hop_walk(base: Graph, corner: Graph) -> dict[str, str]:
    """Each corner vertex's base vertex, found by walking its head chain."""
    projection = {}
    for v in corner.vertices:
        w = v
        while not base.has_vertex(w):
            w = corner.out_edges(w)[0].dst
        projection[v] = w
    return projection


def test_head_projection_matches_the_hop_walk_on_random_corners():
    rng = SplitMix64(derive_seed(5, "head-projection"))
    for _ in range(40):
        g = random_all_loop_graph(rng, max_vertices=5, max_parallel=2)
        m = VertexMultiset.from_dict({v: rng.randint(1, 12) for v in g.vertices})
        corner = realize_full_corner(g, m).graph
        # every head vertex emits one edge, so each walk follows one chain
        assert all(corner.out_degree(v) == 1 for v in corner.vertices if not g.has_vertex(v))
        assert _head_projection(g, corner) == _hop_walk(g, corner)


def test_full_corner_refuses_a_projection_that_leaves_the_k0_class(monkeypatch):
    # K0 = Z/2 + Z/2 with u and v as generators: sending the head vertex of
    # u to v maps its relation to u - v, which is not 0
    g = G("u v", "l1:u>u l2:u>u l3:u>u m1:v>v m2:v>v m3:v>v")
    m = ms("u=2,v=1")
    projection = pipeline._head_projection
    assert realize_full_corner(g, m).certificate("k0-projection-certified")
    monkeypatch.setattr(
        pipeline, "_head_projection", lambda base, corner: {**projection(base, corner), "u~h1": "v"}
    )
    with pytest.raises(CertificateError, match="k0-projection-certified"):
        realize_full_corner(g, m)


@settings(max_examples=50, deadline=None)
@given(all_loop_graphs(max_vertices=4), st.data())
def test_full_corner_unit_class_equals_multiset_class(g, data):
    m = VertexMultiset.from_dict(
        {v: data.draw(st.integers(1, 4)) for v in g.vertices}
    )
    result = realize_full_corner(g, m)
    # recompute the unit class through the head projection, independently
    projection = _hop_walk(g, result.graph)
    unit_image: dict[str, int] = {}
    for v in result.graph.vertices:
        unit_image[projection[v]] = unit_image.get(projection[v], 0) + 1
    assert k0_class_of(g, unit_image) == k0_class_of(g, m.to_dict())
    assert len(result.graph.vertices) == m.total()


# -- realize_corner -------------------------------------------------------------------------


def test_corner_all_ones_is_unit_corner(two_loops):
    result = realize_corner(two_loops, ms("v0=1"))
    assert result.graph == two_loops


def test_corner_of_doubled_unit(two_loops):
    result = realize_corner(two_loops, ms("v0=2"))
    assert isomorphism(result.graph, add_head(two_loops, "v0", 1)) is not None
    assert result.certificate("unit-class-matches")


def test_corner_walkthrough_on_two_cycle_with_loop():
    g = G("u v", "lu:u>u a:u>v b:v>u")
    result = realize_corner(g, ms("v=1"))
    assert result.restriction == g  # the closure of {v} is everything
    assert result.multiset is not None
    assert all(result.multiset.get(x) >= 1 for x in result.graph.vertices if "~" not in x)
    assert result.after.groups_equal(k_invariants(g))
    assert not result.graph.sinks


def test_corner_log_replays_from_the_restriction(two_loops):
    g = G("u v", "lu:u>u lv:v>v a:u>v b:v>u x:u>v")
    result = realize_corner(g, ms("v=3"))
    assert result.restriction is not None
    assert replay_move_log(result.restriction, result.log) == result.graph


def test_corner_stage_handoffs_are_oracle_certified():
    g = G("u v", "lu:u>u a:u>v b:v>u")
    p = ms("v=1")
    normalized = normalize_to_ck(g, carry=p)
    assert normalized.multiset is not None
    assert mvn_equivalent(g, p, normalized.multiset, 10_000).verdict == "yes"
    saturated = self_loop_saturate(normalized.graph, carry=normalized.multiset)
    from ckgraph import fullness_normalize

    assert saturated.multiset is not None
    full = fullness_normalize(saturated.graph, saturated.multiset)
    assert (
        mvn_equivalent(saturated.graph, saturated.multiset, full, 10_000).verdict == "yes"
    )


def test_corner_rejects_zero_projection(two_loops):
    with pytest.raises(PreconditionError, match="zero-multiset"):
        realize_corner(two_loops, ms(""))


@settings(max_examples=25, deadline=None)
@given(all_loop_graphs(max_vertices=3), st.data())
def test_corner_is_stable_under_projection_rewrites(g, data):
    v = data.draw(st.sampled_from(g.vertices))
    p = VertexMultiset.from_dict({v: 2})
    a = realize_corner(g, p)
    b = realize_corner(g, expand_at(g, p, v))
    assert a.after == b.after


# -- matrix_amplify ---------------------------------------------------------------------------


def test_amplify_by_one_is_identity(line_into_loops):
    result = matrix_amplify(line_into_loops, 1)
    assert result.graph == line_into_loops and result.log.steps == ()


def test_amplify_by_one_checks_its_certificates(monkeypatch, line_into_loops):
    names = [name for name, _ in matrix_amplify(line_into_loops, 1).certificates]
    assert names == ["no-sinks", "k-invariants-preserved", "unit-divisible-by-factor"]
    monkeypatch.setattr(pipeline, "k0_class_divisible", lambda g, coefficients, k: False)
    for n in (1, 2):
        with pytest.raises(CertificateError, match="unit-divisible-by-factor"):
            matrix_amplify(line_into_loops, n)


def test_amplify_single_loop_by_three():
    result = matrix_amplify(bouquet(1), 3)
    assert len(result.graph.vertices) == 3
    inv = result.after
    assert (inv.k0_torsion, inv.k0_rank, inv.k1_rank) == ((), 1, 1)
    assert inv.unit_profile.divisible_by[2]  # divisible by 3
    assert result.certificate("unit-divisible-by-factor")


def test_amplify_two_loops_by_two(two_loops):
    result = matrix_amplify(two_loops, 2)
    assert isomorphism(result.graph, add_head(two_loops, "v0", 1)) is not None
    assert result.after.groups_equal(k_invariants(two_loops))


def test_amplify_normalizes_first(line_into_loops):
    result = matrix_amplify(line_into_loops, 2)
    assert not result.graph.sinks
    assert result.after.groups_equal(k_invariants(line_into_loops))
    assert result.certificate("unit-divisible-by-factor")


def test_amplify_rejects_bad_factor(two_loops):
    with pytest.raises(PreconditionError, match="bad-parameter"):
        matrix_amplify(two_loops, 0)


def test_amplify_refuses_the_empty_graph_for_every_factor():
    for n in (1, 2, 3):
        with pytest.raises(PreconditionError) as excinfo:
            matrix_amplify(Graph.build([], []), n)
        assert str(excinfo.value) == "empty-core: the empty graph has no cycles to normalize onto"


@settings(max_examples=30, deadline=None)
@given(no_sink_graphs(max_vertices=4), st.integers(2, 3))
def test_amplify_certificates_hold(g, n):
    result = matrix_amplify(g, n)
    assert result.after.groups_equal(k_invariants(g))
    assert result.certificate("unit-divisible-by-factor")
    assert result.multiset is not None and result.multiset.total() == len(result.graph.vertices)
