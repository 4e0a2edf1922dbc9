"""Acceptance suite: one test per criterion, each ending in a printed
pass line (run with ``pytest tests/test_acceptance.py -s`` to see them).

Every randomized sweep derives from SplitMix64 with the seed below, so any
failure replays exactly.  Time limits are asserted alongside the properties.
"""

from __future__ import annotations

import itertools
import json
import time
from pathlib import Path

from ckgraph import (
    Edge,
    Graph,
    IntMatrix,
    add_head,
    attach_heads,
    collapse_vertex,
    fullness_normalize,
    is_full,
    k0_class_of,
    k_invariants,
    mvn_equivalent,
    normalize_to_ck,
    parse_multiset,
    path_expansion,
    realize_full_corner,
    remove_source,
    shortest_path,
    smith_normal_form,
    source_elision,
    star_sources,
    subdivide_edge,
    verify_snf,
)
from ckgraph.cli import run as cli_run
from ckgraph.randgen import (
    SplitMix64,
    derive_seed,
    random_all_loop_graph,
    random_graph,
    random_int_matrix,
    random_no_sink_graph,
)
from conftest import G, bouquet
from oracles import core_of, isomorphism, minors_divisors, pair_counts

SEED = 0xCC2026
HERE = Path(__file__).parent


def _stamp(number: int, name: str, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {number} overran its budget: {elapsed:.1f}s"
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s < {limit:.0f}s)")


def test_criterion_1_head_elision_matches_star_sources():
    started = time.perf_counter()
    base = G("v0", "e0:v0>v0 f:v0>v0")
    towered = add_head(base, "v0", 2)
    elided = source_elision(towered, {"v0"})
    # two crossing paths, one source each, landing on the two-loop vertex
    assert elided.vertices == ("src:v0~h1e", "src:v0~h2e.v0~h1e", "v0")
    counts = pair_counts(elided)
    assert all(counts[s, "v0"] == 1 for s in elided.source_vertices)
    assert len(elided.loops_at("v0")) == 2
    witness = isomorphism(elided, star_sources(base, "v0", 2))
    assert witness is not None
    _stamp(1, "head elision matches star sources", started, 1.0)


def test_criterion_2_rank_equality_iff_no_sinks():
    started = time.perf_counter()
    rng = SplitMix64(derive_seed(SEED, "acceptance-rank"))
    for _ in range(1000):
        g = random_graph(rng, max_vertices=8, max_parallel=3)
        inv = k_invariants(g)
        assert (inv.k0_rank == inv.k1_rank) == (not g.sinks)
    _stamp(2, "rank K0 = rank K1 iff no sinks (1000 graphs)", started, 30.0)


def test_criterion_3_moves_preserve_invariants():
    started = time.perf_counter()
    rng = SplitMix64(derive_seed(SEED, "acceptance-moves"))
    graphs_done = moves_done = 0
    for _ in range(500):
        g = random_no_sink_graph(rng, max_vertices=6, max_parallel=2)
        base = k_invariants(g)
        moved = []
        for v in g.vertices:
            moved.append(add_head(g, v, 1))
            moved.append(star_sources(g, v, 1))
        for e in g.edges:
            moved.append(subdivide_edge(g, e.eid, 1))
        for v in g.source_vertices:
            moved.append(remove_source(g, v))
        for v in g.vertices:
            if g.in_degree(v) > 0 and g.out_degree(v) > 0 and not g.loops_at(v):
                moved.append(collapse_vertex(g, v))
        moved.append(attach_heads(g, {g.vertices[0]: 1}))
        core = core_of(g)
        if core != frozenset(g.vertices):
            moved.append(source_elision(g, core))
        for out in moved:
            assert k_invariants(out).groups_equal(base)
        moves_done += len(moved)

        # isomorphism-grade moves additionally preserve the unit profile
        for e in g.edges:
            assert k_invariants(subdivide_edge(g, e.eid, 1)) == k_invariants(
                add_head(g, e.dst, 1)
            )
        for v in g.vertices:
            assert k_invariants(star_sources(g, v, 1)) == k_invariants(add_head(g, v, 1))
        if core != frozenset(g.vertices):
            assert k_invariants(source_elision(g, core)) == base
        graphs_done += 1
    assert graphs_done == 500
    _stamp(3, f"move invariance ({graphs_done} graphs, {moves_done} moves)", started, 60.0)


def test_criterion_4_snf_certificates_and_minor_oracle():
    started = time.perf_counter()
    rng = SplitMix64(derive_seed(SEED, "acceptance-snf"))
    cross_checked = 0
    for _ in range(1000):
        m = random_int_matrix(rng, max_dim=8)
        result = smith_normal_form(m)
        verify_snf(m, result)
        if m.rows <= 4 and m.cols <= 4:
            assert result.divisors() == minors_divisors(m)
            cross_checked += 1
    assert cross_checked >= 100
    _stamp(4, f"SNF certificates (1000 matrices, {cross_checked} minor-checked)", started, 30.0)


def _enumerate_small_graphs(n: int, max_parallel: int = 2):
    pairs = [(i, j) for i in range(n) for j in range(n)]
    vertices = tuple(f"v{i}" for i in range(n))
    for counts in itertools.product(range(max_parallel + 1), repeat=len(pairs)):
        edges = []
        for (i, j), c in zip(pairs, counts):
            for k in range(c):
                edges.append(Edge(f"e{i}x{j}n{k}", f"v{i}", f"v{j}"))
        yield Graph.build(vertices, edges)


def _sample_four_vertex_graph(rng: SplitMix64) -> Graph:
    vertices = tuple(f"v{i}" for i in range(4))
    edges = []
    for i in range(4):
        for j in range(4):
            for k in range(rng.randint(0, 2)):
                edges.append(Edge(f"e{i}x{j}n{k}", f"v{i}", f"v{j}"))
    return Graph.build(vertices, edges)


def _certify_monoid_ops(g: Graph, budget: int) -> tuple[int, int]:
    paths = fulls = 0
    for v in g.vertices:
        for w in g.vertices:
            if v == w:
                continue
            route = shortest_path(g, v, w)
            if route is None:
                continue
            start = parse_multiset(f"{v}=1")
            result = mvn_equivalent(g, start, path_expansion(g, route), budget)
            assert result.verdict == "yes", (g, v, w)
            paths += 1
    if not g.sinks and not g.source_vertices and all(g.loops_at(v) for v in g.vertices):
        for v in g.vertices:
            start = parse_multiset(f"{v}=1")
            if not is_full(g, start):
                continue
            out = fullness_normalize(g, start)
            result = mvn_equivalent(g, start, out, budget)
            assert result.verdict == "yes", (g, v)
            fulls += 1
    return paths, fulls


def test_criterion_5_monoid_oracle_agreement():
    # Exhaustive for up to 3 vertices; the full 4-vertex space (3^16 graphs)
    # cannot fit the time budget, so it is covered by a fixed seeded sample.
    started = time.perf_counter()
    budget = 10_000
    paths = fulls = count = 0
    for n in (1, 2, 3):
        for g in _enumerate_small_graphs(n):
            p, f = _certify_monoid_ops(g, budget)
            paths += p
            fulls += f
            count += 1
    rng = SplitMix64(derive_seed(SEED, "acceptance-monoid-4v"))
    for _ in range(8000):
        g = _sample_four_vertex_graph(rng)
        p, f = _certify_monoid_ops(g, budget)
        paths += p
        fulls += f
        count += 1
    assert count == 19767 + 8000
    assert paths > 100_000 and fulls > 13_000
    _stamp(
        5,
        f"monoid oracle agreement ({count} graphs, {paths} paths, {fulls} normalizations)",
        started,
        120.0,
    )


def test_criterion_6_pipeline_idempotence_and_corner_unit_class():
    started = time.perf_counter()
    rng = SplitMix64(derive_seed(SEED, "acceptance-normalize"))
    for _ in range(200):
        g = random_no_sink_graph(rng, max_vertices=6, max_parallel=2)
        once = normalize_to_ck(g)
        twice = normalize_to_ck(once.graph)
        assert isomorphism(once.graph, twice.graph) is not None

    rng = SplitMix64(derive_seed(SEED, "acceptance-corner"))
    for _ in range(200):
        g = random_all_loop_graph(rng, max_vertices=5, max_parallel=2)
        m = parse_multiset(",".join(f"{v}={rng.randint(1, 4)}" for v in g.vertices))
        result = realize_full_corner(g, m)
        assert result.certificate("unit-class-matches")
        # independent coordinate check through the Smith transforms
        projection = {}
        for v in result.graph.vertices:
            w = v
            while not g.has_vertex(w):
                w = result.graph.out_edges(w)[0].dst
            projection[v] = w
        unit_image: dict[str, int] = {}
        for v in result.graph.vertices:
            unit_image[projection[v]] = unit_image.get(projection[v], 0) + 1
        assert k0_class_of(g, unit_image) == k0_class_of(g, m.to_dict())
    _stamp(6, "normalization idempotent, corner unit class (200 + 200)", started, 60.0)


def test_criterion_7_bouquet_family_spot_checks():
    started = time.perf_counter()
    # frozen expectations, originally computed with the minors oracle on the
    # one-column presentation [[n - 1]]
    single = k_invariants(bouquet(1))
    assert (single.k0_torsion, single.k0_rank, single.k1_rank) == ((), 1, 1)
    assert single.unit_profile.order is None
    for n in range(2, 9):
        inv = k_invariants(bouquet(n))
        expected_torsion = (n - 1,) if n >= 3 else ()  # unit divisors are dropped
        assert (inv.k0_torsion, inv.k0_rank, inv.k1_rank) == (expected_torsion, 0, 0)
        assert inv.unit_profile.order == n - 1
        presentation = IntMatrix.from_rows([[n - 1]])
        assert minors_divisors(presentation) == smith_normal_form(presentation).divisors()
    _stamp(7, "one-vertex bouquet family spot checks", started, 10.0)


def test_criterion_8_cli_golden_files(capsys, monkeypatch):
    started = time.perf_counter()
    monkeypatch.chdir(HERE.parent)
    manifest = json.loads((HERE / "golden" / "manifest.json").read_text())
    report_fields = {"certificates", "graph", "invariants", "moves", "verdicts"}
    for name in sorted(manifest):
        code = cli_run(manifest[name])
        out = capsys.readouterr().out
        assert code == 0, name
        assert out == (HERE / "golden" / name).read_text(), name
        if name.endswith(".json"):
            assert set(json.loads(out)) == report_fields, name
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        print(f"\nACCEPTANCE 8 CLI golden files ({len(manifest)} reports): PASS ({elapsed:.1f}s < 30s)")
    assert elapsed < 30.0
