"""Seeded workloads: the input stream, the timed operation and the output
check of each workload.

Every input comes from ``ckgraph.randgen`` seeded by the run seed, so the
operation sequence is a function of the seed alone.  Streams are stratified:
each block of operations holds one input per stratum (vertex-count bucket,
amplification factor, ...) in a seeded order, filled from the generator's own
output.  Inputs keep the generator's distribution within a stratum, and every
run holds the strata in fixed shares, so the run-to-run spread comes from the
program rather than from how many large graphs a seed happened to draw.

Program entry points are looked up on the ``ckgraph`` modules at call time,
so the tracer's wrappers see every call.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import ckgraph as ck
from ckgraph import randgen

# Buffered inputs per stratum; surplus draws are dropped.  A small cap keeps
# the buffers out of the measured peak memory, at about two draws per input.
BUCKET_CAP = 2


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


class TraceDoesNotReplay(CheckFailed):
    """A "yes" rewrite trace that does not lead from ``a`` to ``b``."""


class KnownDefectFailure(TraceDoesNotReplay):
    """A "yes" trace that replays once the steps of its backward half are put
    back in search order: the known defect of ``monoid._join_traces``, which
    reverses that half."""


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[randgen.SplitMix64], Iterator[Any]]
    run: Callable[[Any], Any]
    # raises CheckFailed on a wrong answer; returns whether the answer is definite
    check: Callable[[Any, Any], bool]


def shuffled(rng: randgen.SplitMix64, items: list) -> list:
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.randint(0, i)
        out[i], out[j] = out[j], out[i]
    return out


def stratified(rng, block, draw, bucket_of=lambda key: key) -> Iterator[tuple[Any, Any]]:
    """Yield ``(key, item)`` forever, one seeded shuffle of ``block`` at a time.

    ``draw(rng)`` returns ``(bucket, item)``; the item for ``key`` is the next
    buffered one of bucket ``bucket_of(key)``.
    """
    buckets: dict[Any, deque] = defaultdict(deque)
    while True:
        for key in shuffled(rng, block):
            wanted = buckets[bucket_of(key)]
            while not wanted:
                bucket, item = draw(rng)
                if len(buckets[bucket]) < BUCKET_CAP:
                    buckets[bucket].append(item)
            yield key, wanted.popleft()


# -- kinv: K-invariants and the Cuntz-Krieger decision on fresh graphs ---------

KINV_MAX_VERTICES = 28


def _kinv_bucket(count: int) -> int:
    # 1-4 share a bucket: there are too few distinct 1- and 2-vertex graphs
    return 4 if count <= 4 else (count + 1) // 2 * 2


KINV_BLOCK = sorted({_kinv_bucket(c) for c in range(1, KINV_MAX_VERTICES + 1)})


def kinv_inputs(rng):
    seen: set[int] = set()

    def draw(rng):
        while True:
            g = randgen.random_graph(rng, max_vertices=KINV_MAX_VERTICES, max_parallel=3)
            if hash(g) not in seen:
                seen.add(hash(g))
                return _kinv_bucket(len(g.vertices)), g

    for _, g in stratified(rng, KINV_BLOCK, draw):
        yield g


def kinv_run(g):
    return ck.k_invariants(g), ck.is_cuntz_krieger(g)


def kinv_check(g, result) -> bool:
    inv, (verdict, _) = result
    if inv.k0_rank - inv.k1_rank != len(g.sinks):
        raise CheckFailed(f"rank gap {inv.k0_rank - inv.k1_rank} != {len(g.sinks)} sinks")
    if verdict != (not g.sinks):
        raise CheckFailed(f"CK verdict {verdict} with sinks {g.sinks}")
    return True


# -- corner: matrix amplification and corner realization, with log round trip --

AMPLIFY_MAX_VERTICES = 5
AMPLIFY_FACTORS = (2, 3, 4)
CORNER_MAX_VERTICES = 6
AMPLIFY_BLOCK = [(c, n) for c in range(1, AMPLIFY_MAX_VERTICES + 1) for n in AMPLIFY_FACTORS] * 2
CORNER_BLOCK = list(range(1, CORNER_MAX_VERTICES + 1)) * 5


def corner_inputs(rng):
    def draw_amplify(rng):
        g = randgen.random_no_sink_graph(rng, max_vertices=AMPLIFY_MAX_VERTICES, max_parallel=2)
        return len(g.vertices), g

    def draw_corner(rng):
        g = randgen.random_all_loop_graph(rng, max_vertices=CORNER_MAX_VERTICES, max_parallel=2)
        while True:
            p = {v: rng.randint(0, 3) for v in g.vertices}
            if any(p.values()):
                return len(g.vertices), (g, ck.VertexMultiset.from_dict(p))

    amplify = stratified(rng, AMPLIFY_BLOCK, draw_amplify, bucket_of=lambda key: key[0])
    corner = stratified(rng, CORNER_BLOCK, draw_corner)
    while True:
        (_, n), g = next(amplify)
        yield ("amplify", g, n)
        _, (g, p) = next(corner)
        yield ("corner", g, p)


def corner_run(item):
    kind, g, arg = item
    if kind == "amplify":
        result, start = ck.matrix_amplify(g, arg), g
    else:
        result = ck.realize_corner(g, arg)
        start = result.restriction
    log = ck.parse_move_log(ck.format_move_log(result.log))
    return result, ck.replay_move_log(start, log)


def corner_check(item, outcome) -> bool:
    result, replayed = outcome
    failed = [name for name, ok in result.certificates if not ok]
    if failed:
        raise CheckFailed(f"{item[0]}: certificates false: {failed}")
    if replayed != result.graph:
        raise CheckFailed(f"{item[0]}: replayed log does not reproduce the output graph")
    if result.graph.sinks:
        raise CheckFailed(f"{item[0]}: output has sinks {result.graph.sinks}")
    return True


# -- mvn: the budgeted projection-equivalence oracle --------------------------

MVN_MAX_VERTICES = 4
MVN_BUDGET = 2000


def mvn_inputs(rng):
    def draw(rng):
        g = randgen.random_graph(rng, max_vertices=MVN_MAX_VERTICES, max_parallel=2)
        a = ck.VertexMultiset.from_dict({v: rng.randint(0, 2) for v in g.vertices})
        b = ck.VertexMultiset.from_dict({v: rng.randint(0, 2) for v in g.vertices})
        return len(g.vertices), (g, a, b)

    for _, item in stratified(rng, list(range(1, MVN_MAX_VERTICES + 1)), draw):
        yield item


def mvn_run(item):
    g, a, b = item
    return ck.mvn_equivalent(g, a, b, MVN_BUDGET)


def _replays(g, steps, a, b) -> bool:
    try:
        return ck.RewriteTrace(tuple(steps)).replay(g, a) == b
    except ck.CkGraphError:
        return False


def mvn_check(item, result) -> bool:
    g, a, b = item
    if result.verdict != "yes":
        return result.verdict == "no"
    steps = list(result.trace.steps)
    if not _replays(g, steps, a, b):
        # the trace is forward half + backward half; try every split point
        if any(_replays(g, steps[:k] + steps[k:][::-1], a, b) for k in range(len(steps))):
            raise KnownDefectFailure("yes-trace replays only with its backward half reordered")
        raise TraceDoesNotReplay("yes-trace does not replay from a to b")
    if ck.k0_class_of(g, a.to_dict()) != ck.k0_class_of(g, b.to_dict()):
        raise CheckFailed("equivalent multisets with different K0 classes")
    return True


# -- replay: build a move log, serialize, parse, replay ------------------------

REPLAY_MAX_VERTICES = 40
REPLAY_MOVES = 30
REPLAY_BLOCK = list(range(4, REPLAY_MAX_VERTICES + 1, 4))


def replay_inputs(rng):
    def draw(rng):
        g = randgen.random_no_sink_graph(rng, max_vertices=REPLAY_MAX_VERTICES, max_parallel=2)
        # the seed that picks the moves travels with the graph
        return -(-len(g.vertices) // 4) * 4, (g, rng.next_u64())

    for _, item in stratified(rng, REPLAY_BLOCK, draw):
        yield item


def _pick_move(rng, g):
    kind = rng.randint(0, 4)
    if kind == 3:
        sources = g.source_vertices
        if sources:
            return ck.RemoveSource(rng.choice(sources))
    elif kind == 4:
        # short chains only: collapsing a vertex adds in-degree * out-degree edges
        chain = [
            v for v in g.vertices
            if not g.loops_at(v) and 0 < g.in_degree(v) * g.out_degree(v) <= 2
        ]
        if chain:
            return ck.CollapseVertex(rng.choice(chain))
    elif kind == 1:
        return ck.SubdivideEdge(rng.choice(g.edges).eid, rng.randint(1, 3))
    elif kind == 2:
        return ck.StarSources(rng.choice(g.vertices), rng.randint(1, 3))
    return ck.AddHead(rng.choice(g.vertices), rng.randint(1, 3))


def replay_run(item):
    g, move_seed = item
    rng = randgen.SplitMix64(move_seed)
    builder = ck.MoveLogBuilder(g)
    for _ in range(REPLAY_MOVES):
        builder.apply(_pick_move(rng, builder.graph))
    log = ck.parse_move_log(ck.format_move_log(builder.log()))
    return builder.graph, ck.replay_move_log(g, log)


def replay_check(item, outcome) -> bool:
    built, replayed = outcome
    if replayed != built:
        raise CheckFailed("replayed graph differs from the built graph")
    return True


WORKLOADS = {
    w.name: w
    for w in (
        Workload("kinv", kinv_inputs, kinv_run, kinv_check),
        Workload("corner", corner_inputs, corner_run, corner_check),
        Workload("mvn", mvn_inputs, mvn_run, mvn_check),
        Workload("replay", replay_inputs, replay_run, replay_check),
    )
}
