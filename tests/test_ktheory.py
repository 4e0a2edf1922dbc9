from __future__ import annotations

import gc
import weakref
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ckgraph import (
    Graph,
    IntMatrix,
    PreconditionError,
    SnfResult,
    expand_at,
    format_graph,
    format_k_invariants,
    is_cuntz_krieger,
    k0_class_divisible,
    k0_class_of,
    k_invariants,
    k_presentation_matrix,
    normalize_to_ck,
    parse_graph,
    parse_multiset,
    realize_corner,
    smith_normal_form,
)
from ckgraph import ktheory
from ckgraph.ktheory import K0Class, _engine, _engine_of, _K0Engine
from ckgraph.randgen import SplitMix64, derive_seed
from conftest import G, bouquet, graphs, large_random_graphs, no_sink_graphs, unit_heavy_matrices
from oracles import diamond_chain, naive_product, pair_counts

DATA = Path(__file__).parent / "data"


def test_invariants_of_two_loop_vertex(two_loops):
    inv = k_invariants(two_loops)
    assert (inv.k0_torsion, inv.k0_rank, inv.k1_rank) == ((), 0, 0)
    assert inv.unit_profile.order == 1


def test_invariants_of_single_loop():
    inv = k_invariants(bouquet(1))
    assert (inv.k0_torsion, inv.k0_rank, inv.k1_rank) == ((), 1, 1)
    assert inv.unit_profile.order is None


def test_invariants_with_a_sink():
    inv = k_invariants(G("v w", "a:v>w"))
    # only v is regular: the presentation is the single column (-1, 1)
    assert k_presentation_matrix(G("v w", "a:v>w")) == IntMatrix.from_rows([[-1], [1]])
    assert (inv.k0_rank, inv.k1_rank) == (1, 0)


def test_edgeless_graph_is_all_free():
    inv = k_invariants(G("a b"))
    assert (inv.k0_torsion, inv.k0_rank, inv.k1_rank) == ((), 2, 0)
    assert inv.unit_profile.order is None


def test_is_cuntz_krieger_examples(two_loops, line_into_loops):
    verdict, witness = is_cuntz_krieger(two_loops)
    assert verdict and witness.k0_rank == witness.k1_rank == 0
    verdict, witness = is_cuntz_krieger(G("v w", "a:v>w"))
    assert not verdict
    assert (witness.k0_rank, witness.k1_rank) == (1, 0)
    assert witness.sinks == ("w",)
    # sources are fine, they normalize away
    verdict, _ = is_cuntz_krieger(line_into_loops)
    assert verdict


def test_is_cuntz_krieger_rejects_empty_graph():
    with pytest.raises(PreconditionError, match="empty-graph"):
        is_cuntz_krieger(Graph.build([], []))


@settings(max_examples=150)
@given(graphs(max_vertices=6, max_parallel=3))
def test_rank_difference_counts_sinks(g):
    inv = k_invariants(g)
    assert inv.k0_rank - inv.k1_rank == len(g.sinks)
    assert (inv.k0_rank == inv.k1_rank) == (not g.sinks)
    assert inv.k1_rank <= inv.k0_rank + len(inv.k0_torsion)


@given(graphs(max_vertices=5), st.randoms(use_true_random=False))
def test_invariants_survive_relabeling(g, rnd):
    vertex_names = list(g.vertices)
    edge_names = [e.eid for e in g.edges]
    new_v = [f"w{i}" for i in range(len(vertex_names))]
    new_e = [f"x{i}" for i in range(len(edge_names))]
    rnd.shuffle(new_v)
    rnd.shuffle(new_e)
    vmap = dict(zip(vertex_names, new_v))
    emap = dict(zip(edge_names, new_e))
    relabeled = Graph.build(
        [vmap[v] for v in g.vertices],
        [(emap[e.eid], vmap[e.src], vmap[e.dst]) for e in g.edges],
    )
    assert k_invariants(relabeled) == k_invariants(g)


@given(graphs(max_vertices=5))
def test_unit_divisibility_flags_are_downward_closed(g):
    flags = k_invariants(g).unit_profile.divisible_by
    for k in range(1, 13):
        if flags[k - 1]:
            for j in range(1, k):
                if k % j == 0:
                    assert flags[j - 1]
    assert flags[0]
    ones = {v: 1 for v in g.vertices}
    assert flags == tuple(k0_class_divisible(g, ones, k) for k in range(1, 13))


def test_invariants_and_verdict_compute_the_unit_class_once(monkeypatch):
    calls = []
    class_of = _K0Engine.class_of

    def counted(engine, coefficients):
        calls.append(coefficients)
        return class_of(engine, coefficients)

    monkeypatch.setattr(_K0Engine, "class_of", counted)
    g = G("u v w", "a:u>v b:v>u c:u>u d:w>u")
    assert k_invariants(g).unit_profile.divisible_by[0]
    assert is_cuntz_krieger(g)[0]
    assert k_invariants(g).unit_profile.order == 1
    assert len(calls) == 1


def test_k0_class_of_presentation_columns_vanish(line_into_loops):
    g = line_into_loops
    counts = pair_counts(g)
    for v in g.vertices:
        if g.out_degree(v) == 0:
            continue
        column = {w: counts[v, w] for w in g.vertices}
        column[v] = column.get(v, 0) - 1
        assert k0_class_of(g, column).is_zero()


@settings(max_examples=40)
@given(no_sink_graphs(max_vertices=4), st.data())
def test_equivalence_verdicts_respect_the_k0_class(g, data):
    from ckgraph import VertexMultiset, mvn_equivalent

    a = VertexMultiset.from_dict({v: data.draw(st.integers(0, 2)) for v in g.vertices})
    b = VertexMultiset.from_dict({v: data.draw(st.integers(0, 2)) for v in g.vertices})
    result = mvn_equivalent(g, a, b, 300)
    if result.verdict == "yes":
        assert k0_class_of(g, a.to_dict()) == k0_class_of(g, b.to_dict())


@settings(max_examples=60)
@given(no_sink_graphs(max_vertices=4), st.data())
def test_rewrites_fix_the_k0_class(g, data):
    from ckgraph import VertexMultiset

    m = VertexMultiset.from_dict(
        {v: data.draw(st.integers(0, 2)) for v in g.vertices}
    )
    expandable = [v for v in m.support if g.out_degree(v) > 0]
    if not expandable:
        return
    v = data.draw(st.sampled_from(expandable))
    expanded = expand_at(g, m, v)
    assert k0_class_of(g, m.to_dict()) == k0_class_of(g, expanded.to_dict())


def test_unit_profile_of_three_loop_bouquet():
    # K0 is Z/2 generated by the unit: order two, divisible exactly by odd k
    inv = k_invariants(bouquet(3))
    assert inv.k0_torsion == (2,)
    assert inv.unit_profile.order == 2
    assert inv.unit_profile.divisible_by == tuple(k % 2 == 1 for k in range(1, 13))
    assert k0_class_divisible(bouquet(3), {"v0": 1}, 3)
    assert not k0_class_divisible(bouquet(3), {"v0": 1}, 2)


def test_k0_queries_refuse_a_coefficient_or_divisor_that_is_not_an_int():
    # 1.5 would be read as a torsion residue, and True as the divisor 1
    g = bouquet(3)
    for x in (1.5, 2.0, True):
        with pytest.raises(PreconditionError, match="bad-parameter: coefficient"):
            k0_class_of(g, {"v0": x})
        with pytest.raises(PreconditionError, match="bad-parameter: divisor"):
            k0_class_divisible(g, {"v0": 1}, x)
    with pytest.raises(PreconditionError, match="divisor must be positive, got 0"):
        k0_class_divisible(g, {"v0": 1}, 0)


def test_invariant_record_format(two_loops):
    assert format_k_invariants(k_invariants(two_loops)) == (
        "k0_torsion = -\n"
        "k0_rank = 0\n"
        "k1_rank = 0\n"
        "unit_order = 1\n"
        "unit_divisible = 1,2,3,4,5,6,7,8,9,10,11,12\n"
    )
    assert format_k_invariants(k_invariants(bouquet(1))) == (
        "k0_torsion = -\n"
        "k0_rank = 1\n"
        "k1_rank = 1\n"
        "unit_order = infinite\n"
        "unit_divisible = 1\n"
    )


def test_presentation_columns_have_zero_class_at_benchmark_size():
    # each column is a relation of K0, so the Smith transform u must send it
    # into the image of the diagonal
    for g in large_random_graphs("large-relations"):
        pres = k_presentation_matrix(g)
        for c in range(pres.cols):
            column = {v: pres.data[i][c] for i, v in enumerate(g.vertices) if c in pres.data[i]}
            assert k0_class_of(g, column).is_zero()


def _presentation_oracle(g: Graph) -> IntMatrix:
    """One column per regular vertex w: the edges from w to each vertex, less
    1 at w itself, counted pair by pair."""
    regulars = [w for w in g.vertices if g.out_degree(w)]
    counts = pair_counts(g)
    return IntMatrix.from_rows(
        [[counts[w, v] - (v == w) for w in regulars] for v in g.vertices]
    )


@settings(max_examples=150)
@given(graphs(max_vertices=6, max_parallel=3))
# one loop cancels the -1 at its vertex: the entry is 0 and must not be stored
@example(bouquet(1))
def test_presentation_matches_the_pair_count_oracle(g):
    assert k_presentation_matrix(g) == _presentation_oracle(g)


def test_presentation_matches_the_pair_count_oracle_at_benchmark_size():
    for g in large_random_graphs("presentation-oracle", count=10):
        assert k_presentation_matrix(g) == _presentation_oracle(g)


def test_engine_lives_on_its_graph_object(monkeypatch, two_loops):
    calls = []
    real = ktheory.smith_normal_form

    def counted(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(ktheory, "smith_normal_form", counted)
    g = G("u v w", "a:u>v b:v>u c:u>u d:w>u")
    # one graph object: one Smith form, whatever asks
    inv = k_invariants(g)
    assert is_cuntz_krieger(g)[0] and k0_class_of(g, {"w": 1}).is_zero()  # K0 is 0
    assert k_invariants(g) is inv and len(calls) == 1
    # an equal graph that is another object builds its own engine
    for copy in (g._edit(), parse_graph(format_graph(g))):
        assert copy == g and k_invariants(copy) == inv
        assert _engine_of(copy) is not _engine_of(g)
    assert len(calls) == 3
    # the engine is freed with its graph
    engine = weakref.ref(_engine_of(G("v", "a:v>v b:v>v")))
    gc.collect()
    assert engine() is None
    # the engine keeps no Smith result, and the K0 path builds none of the
    # dense d, u and v
    def built(self):
        raise AssertionError("the K0 path built a dense Smith matrix")

    for name in ("u", "v", "d"):
        monkeypatch.setattr(SnfResult, name, property(built))
    for h in (two_loops, bouquet(3), G("v w", "a:v>w"), *large_random_graphs("engine-rows", 5)):
        k_invariants(h)
        is_cuntz_krieger(h)
        k0_class_divisible(h, {v: 1 for v in h.vertices}, 2)
        engine = _engine_of(h)
        assert not any(isinstance(getattr(engine, f.name), SnfResult) for f in fields(engine))


def _dense_class(snf, x: list[int]) -> K0Class:
    """The class of x by the whole dense u that the Smith result builds on
    access, against its diagonal padded with 0 to one entry per row."""
    size = len(x)
    diagonal = snf.diagonal + (0,) * (size - len(snf.diagonal))
    y = naive_product(snf.u, IntMatrix.from_rows([[c] for c in x])).entries
    return K0Class(
        tuple(r % d for r, d in zip(y, diagonal) if d > 1),
        tuple(r for r, d in zip(y, diagonal) if d == 0),
    )


def test_class_of_matches_the_dense_u_at_benchmark_size():
    # the engine keeps the rows of u whose divisor is not 1; the oracle
    # multiplies by the whole dense u
    rng = SplitMix64(derive_seed(99, "class-of-oracle"))
    for g in large_random_graphs("class-of-oracle", count=10):
        snf = smith_normal_form(k_presentation_matrix(g))
        for _ in range(3):
            x = [rng.randint(-3, 3) for _ in range(len(g.vertices))]
            assert k0_class_of(g, dict(zip(g.vertices, x))) == _dense_class(snf, x)


@settings(max_examples=100, deadline=None)
@given(unit_heavy_matrices(max_dim=10), st.data())
def test_class_of_matches_the_dense_u_on_unit_heavy_matrices(m, data):
    # long unit-pivot chains and small cores, where L is far from the identity
    vertices = tuple(f"v{i:02d}" for i in range(m.rows))
    engine = _engine(vertices, m)
    x = data.draw(st.lists(st.integers(-5, 5), min_size=m.rows, max_size=m.rows))
    assert engine.class_of(dict(zip(vertices, x))) == _dense_class(smith_normal_form(m), x)


def _check_rows(engine: _K0Engine, vertices: tuple[str, ...], snf) -> None:
    """Every row that ``cokernel`` gives by back substitution is the row of
    the dense u, which ``_solve`` builds, at a diagonal entry other than 1,
    reduced mod that entry unless it is 0; its torsion is the divisors
    greater than 1; and the engine keeps those rows, labelled by vertex."""
    diagonal = snf.diagonal + (0,) * (len(vertices) - len(snf.diagonal))
    kept = []
    for line, d in zip(snf.u.to_rows(), diagonal):
        if d != 1:
            reduced = (x % d if d else x for x in line)
            kept.append({i: x for i, x in enumerate(reduced) if x})
    assert snf.cokernel() == (tuple(d for d in diagonal if d > 1), kept)
    assert engine.rows == tuple({vertices[i]: x for i, x in row.items()} for row in kept)


def test_coordinate_rows_match_the_dense_u_at_benchmark_size():
    for g in large_random_graphs("u-rows", count=10):
        _check_rows(_engine_of(g), g.vertices, smith_normal_form(k_presentation_matrix(g)))


@settings(max_examples=100, deadline=None)
@given(unit_heavy_matrices(max_dim=10))
def test_coordinate_rows_match_the_dense_u_on_unit_heavy_matrices(m):
    vertices = tuple(f"v{i:02d}" for i in range(m.rows))
    _check_rows(_engine(vertices, m), vertices, smith_normal_form(m))


def test_class_queries_on_a_long_head_cost_their_support():
    # 2,000 relations and 100 vertices on a 2,000-vertex head: fast only if
    # each query costs its own support, not a walk of the unit-pivot factor L
    base = parse_graph((DATA / "bouquet3.graph").read_text())
    head = realize_corner(base, parse_multiset("v0=2000")).graph
    pres = k_presentation_matrix(head)
    columns: list[dict[str, int]] = [{} for _ in range(pres.cols)]
    for v, row in zip(head.vertices, pres.data):
        for c, x in row.items():
            columns[c][v] = x
    assert len(columns) == 2000
    assert all(k0_class_of(head, column).is_zero() for column in columns)
    unit = k0_class_of(head, {"v0": 1})
    assert unit == K0Class((1,), ())  # K0 is Z/2, generated by v0
    assert all(k0_class_of(head, {v: 1}) == unit for v in head.vertices[::20])


def test_class_queries_refuse_keys_that_are_not_vertex_ids():
    g = bouquet(3)
    for key in ("u", 5, None, ("u",)):
        for query in (lambda x: k0_class_of(g, x), lambda x: k0_class_divisible(g, x, 2)):
            with pytest.raises(PreconditionError) as excinfo:
                query({"v0": 1, key: 1})
            assert str(excinfo.value) == f"unknown-vertex: no vertex {key!r} in graph"


def test_large_presentations_keep_their_pinned_divisors():
    # sizes where the former elimination was cubic: a 400-vertex head on the
    # two-loop vertex, and the source elision of six diamonds
    loops = parse_graph((DATA / "example_loops.graph").read_text())
    head = k_presentation_matrix(realize_corner(loops, parse_multiset("v0=400")).graph)
    assert (head.rows, head.cols) == (400, 400)
    assert smith_normal_form(head).diagonal == (1,) * 400
    diamonds = k_presentation_matrix(normalize_to_ck(diamond_chain(6)).graph)
    assert (diamonds.rows, diamonds.cols) == (254, 254)
    assert smith_normal_form(diamonds).diagonal == (1,) * 253 + (0,)


def test_phase_one_factors_stay_sparse_on_a_long_head():
    # on this head the forward factors u1 and v1 filled in to about 500,000
    # nonzeros each; L and R hold at most two entries per pivot
    loops = parse_graph((DATA / "example_loops.graph").read_text())
    head = k_presentation_matrix(realize_corner(loops, parse_multiset("v0=2000")).graph)
    assert (head.rows, head.cols) == (2000, 2000)
    result = smith_normal_form(head)
    stored = [getattr(result, f.name) for f in fields(result)]
    sparse = [f for f in stored if isinstance(f, tuple) and f and isinstance(f[0], dict)]
    assert sparse
    for factor in sparse:
        assert sum(map(len, factor)) <= 2 * head.rows
