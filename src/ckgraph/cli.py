"""Command-line front end.

Reports go to standard output and are byte-deterministic for a given input
and flag set; diagnostics go to standard error.  Exit status: 0 on success,
1 when a precondition or internal certificate fails (the diagnostic names the
violated precondition) or the ``--log`` file cannot be written, 2 on parse
errors.

The JSON report (``--format json``) always carries exactly the five top-level
fields ``certificates``, ``graph``, ``invariants``, ``moves``, ``verdicts``;
fields a command does not produce are null.

``run`` reads the graph before any other argument, so a graph it cannot read
or parse exits 2 first, and writes standard output only once the command has
succeeded; each command takes the arguments and the graph and returns its
report and its text.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .errors import CertificateError, CkGraphError, GraphFormatError, PreconditionError, require_int
from .graph import (
    Graph,
    classify_vertex,
    format_graph,
    graph_fingerprint,
    parse_graph,
    vertex_simple_cycles_without_exit,
)
from .intmatrix import smith_normal_form
from .ktheory import format_k_invariants, is_cuntz_krieger, k_invariants, k_invariants_dict
from .monoid import format_multiset, mvn_equivalent, parse_multiset
from .moves import (
    MoveLogBuilder, add_head, collapse_vertex, format_move, format_move_log, parse_move,
    remove_source, star_sources, subdivide_edge,
)
from .pipeline import PipelineResult, matrix_amplify, normalize_to_ck, realize_corner
from .randgen import (
    SplitMix64,
    derive_seed,
    random_graph,
    random_int_matrix,
    random_no_sink_graph,
)

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_PARSE = 2


def _graph_dict(g: Optional[Graph]) -> Optional[dict]:
    if g is None:
        return None
    return {
        "vertices": list(g.vertices),
        "edges": [[e.eid, e.src, e.dst] for e in g.edges],
    }


def _report(
    g=None, output=None, restriction=None, *,
    certificates=None, invariants=None, moves=None, verdicts=None,
) -> dict:
    # the graph record is null when the command reads no graph
    graph = {"input": g, "output": output, "restriction": restriction}
    return {
        "certificates": certificates,
        "graph": None if g is None else {name: _graph_dict(h) for name, h in graph.items()},
        "invariants": invariants,
        "moves": moves,
        "verdicts": verdicts,
    }


def _load_graph(path: str) -> Graph:
    try:
        content = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from exc
    return parse_graph(content)


def _invariants_line(inv) -> str:
    return " ".join(
        line.replace(" = ", "=") for line in format_k_invariants(inv).splitlines()
    )


def _indented_graph(g: Graph) -> str:
    return "".join(f"  {line}\n" for line in format_graph(g).splitlines())


def _summary(label: str, g: Graph) -> str:
    return f"{label}: {len(g.vertices)} vertices, {len(g.edges)} edges [{graph_fingerprint(g)}]"


def _pipeline_text(name: str, source: Graph, result: PipelineResult) -> str:
    lines = [f"pipeline: {name}", _summary("input", source)]
    if result.restriction is not None:
        lines.append(_summary("restriction", result.restriction))
    lines += [_summary("output", result.graph), "moves:"]
    if result.log.steps:
        lines += [f"  {format_move(move)} [{fp}]" for move, fp in result.log.steps]
    else:
        lines.append("  (none)")
    if result.multiset is not None:
        lines.append(f"multiset: {format_multiset(result.multiset) or '(zero)'}")
    lines.append(f"invariants before: {_invariants_line(result.before)}")
    lines.append(f"invariants after: {_invariants_line(result.after)}")
    if result.certificates:
        lines.append(
            "certificates: "
            + " ".join(f"{cert}={'pass' if ok else 'FAIL'}" for cert, ok in result.certificates)
        )
    else:
        lines.append("certificates: (none)")
    lines.append("output graph:")
    return "\n".join(lines) + "\n" + _indented_graph(result.graph)


def _pipeline_report(source: Graph, result: PipelineResult) -> dict:
    return _report(
        source, result.graph, result.restriction,
        certificates={name: ok for name, ok in result.certificates},
        invariants={
            "before": k_invariants_dict(result.before),
            "after": k_invariants_dict(result.after),
        },
        moves=[{"move": format_move(m), "fingerprint": fp} for m, fp in result.log.steps],
        verdicts={
            "fingerprint_in": graph_fingerprint(source),
            "fingerprint_out": graph_fingerprint(result.graph),
            "multiset": format_multiset(result.multiset) if result.multiset else None,
        },
    )


# -- commands --------------------------------------------------------------


def _cmd_info(args, g: Graph) -> tuple[dict, str]:
    classes = {v: classify_vertex(g, v) for v in g.vertices}
    cycles = vertex_simple_cycles_without_exit(g)
    lines = [f"graph: {len(g.vertices)} vertices, {len(g.edges)} edges"]
    lines += [
        f"vertex {v}: {c.kind} (in {c.in_degree}, out {c.out_degree})"
        for v, c in classes.items()
    ]
    lines.append("sinks: " + (", ".join(g.sinks) or "-"))
    lines.append("sources: " + (", ".join(g.source_vertices) or "-"))
    lines.append(
        "cycles without exit: " + (", ".join(".".join(p.edges) for p in cycles) or "-")
    )
    report = _report(
        g,
        verdicts={
            "vertices": len(g.vertices),
            "edges": len(g.edges),
            "classes": {v: c.kind for v, c in classes.items()},
            "sinks": list(g.sinks),
            "sources": list(g.source_vertices),
            "cycles_without_exit": [list(p.edges) for p in cycles],
        },
    )
    return report, "\n".join(lines) + "\n"


def _cmd_ktheory(args, g: Graph) -> tuple[dict, str]:
    inv = k_invariants(g)
    text = (
        f"vertices = {len(g.vertices)}\n"
        f"edges = {len(g.edges)}\n" + format_k_invariants(inv)
    )
    report = _report(g, invariants={"before": k_invariants_dict(inv), "after": None})
    return report, text


def _cmd_is_ck(args, g: Graph) -> tuple[dict, str]:
    verdict, witness = is_cuntz_krieger(g)
    if verdict:
        text = (
            "CK: yes (finite, no sinks;"
            f" rank K0 = rank K1 = {witness.k0_rank})\n"
        )
    else:
        text = (
            f"CK: no (sinks: {', '.join(witness.sinks)};"
            f" rank K0 = {witness.k0_rank}, rank K1 = {witness.k1_rank})\n"
        )
    report = _report(
        g,
        invariants={"before": k_invariants_dict(k_invariants(g)), "after": None},
        verdicts={
            "cuntz_krieger": verdict,
            "sinks": list(witness.sinks),
            "k0_rank": witness.k0_rank,
            "k1_rank": witness.k1_rank,
        },
    )
    return report, text


def _apply_moves(args, g: Graph) -> PipelineResult:
    moves = [parse_move(spec) for spec in args.move]
    before = k_invariants(g)
    builder = MoveLogBuilder(g)
    for move in moves:
        builder.apply(move)
    return PipelineResult(builder.graph, builder.log(), before, k_invariants(builder.graph), ())


# How each move-log command builds its result from the arguments and the
# loaded graph.
_PIPELINES = {
    "normalize": lambda args, g: normalize_to_ck(g),
    "move": _apply_moves,
    "corner": lambda args, g: realize_corner(g, parse_multiset(args.proj)),
    "amplify": lambda args, g: matrix_amplify(g, args.factor),
}


def _cmd_pipeline(args, g: Graph) -> tuple[dict, str]:
    result = _PIPELINES[args.command](args, g)
    if args.log:
        try:
            Path(args.log).write_text(format_move_log(result.log), encoding="utf-8")
        except OSError as exc:
            raise CkGraphError(f"cannot write {args.log}: {exc.strerror or exc}") from exc
    return _pipeline_report(g, result), _pipeline_text(args.command, g, result)


def _cmd_monoid_eq(args, g: Graph) -> tuple[dict, str]:
    a = parse_multiset(args.a)
    b = parse_multiset(args.b)
    result = mvn_equivalent(g, a, b, args.budget)
    if result.verdict == "yes":
        assert result.trace is not None
        steps = [f"{s.op} {s.vertex}" for s in result.trace.steps]
        text = f"equivalent (trace length {len(result.trace.steps)})\n"
        if steps:
            text += "trace: " + "; ".join(steps) + "\n"
        trace_json: Optional[list] = steps
    elif result.verdict == "no":
        text = "not equivalent\n"
        trace_json = None
    else:
        reason = "mass cap reached" if result.stop == "mass-cap" else "budget exhausted"
        text = f"unknown ({reason})\n"
        trace_json = None
    report = _report(g, verdicts={"verdict": result.verdict, "trace": trace_json})
    return report, text


def _fuzz_moves_once(rng: SplitMix64, g: Graph) -> int:
    base = k_invariants(g)
    applied = 0
    variants = [add_head(g, rng.choice(g.vertices), rng.randint(1, 2))]
    variants.append(star_sources(g, rng.choice(g.vertices), rng.randint(1, 2)))
    if g.edges:
        variants.append(subdivide_edge(g, rng.choice(g.edges).eid, rng.randint(1, 2)))
    for v in g.source_vertices[:1]:
        variants.append(remove_source(g, v))
    collapsible = [
        v
        for v in g.vertices
        if g.in_degree(v) > 0 and g.out_degree(v) > 0 and not g.loops_at(v)
    ]
    if collapsible:
        variants.append(collapse_vertex(g, collapsible[0]))
    for moved in variants:
        if not base.groups_equal(k_invariants(moved)):
            raise CertificateError(
                f"move changed K-groups on graph:\n{format_graph(g)}"
            )
        applied += 1
    return applied


def _cmd_fuzz(args, g: Optional[Graph]) -> tuple[dict, str]:
    seed, cases = args.seed, args.cases
    require_int(cases, "case count", least=0)
    lines = [f"fuzz seed={seed} cases={cases}"]

    rng = SplitMix64(derive_seed(seed, "snf"))
    for _ in range(cases):
        matrix = random_int_matrix(rng, max_dim=6)
        smith_normal_form(matrix)  # raises CertificateError on a broken certificate
    lines.append(f"snf-certificates: pass ({cases} matrices)")

    rng = SplitMix64(derive_seed(seed, "rank"))
    for _ in range(cases):
        g = random_graph(rng, max_vertices=6, max_parallel=2)
        inv = k_invariants(g)
        if inv.k0_rank - inv.k1_rank != len(g.sinks):
            raise CertificateError(f"rank law broken on graph:\n{format_graph(g)}")
    lines.append(f"rank-sink-law: pass ({cases} graphs)")

    rng = SplitMix64(derive_seed(seed, "moves"))
    moved = 0
    for _ in range(cases):
        g = random_no_sink_graph(rng, max_vertices=5, max_parallel=2)
        moved += _fuzz_moves_once(rng, g)
    lines.append(f"move-invariance: pass ({cases} graphs, {moved} moves)")
    lines.append("fuzz: PASS")

    report = _report(
        verdicts={
            "seed": seed,
            "cases": cases,
            "checks": {
                "snf_certificates": cases,
                "rank_sink_law": cases,
                "move_invariance": moved,
            },
            "pass": True,
        }
    )
    return report, "\n".join(lines) + "\n"


# -- argument wiring -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckgraph",
        description="Graph moves, exact K-invariants, and corner realization "
        "for graph C*-algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_graph: bool = True) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")
        if with_graph:
            p.add_argument("graph", help="graph file (vertex/edge lines)")

    def with_log(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument(
            "--log", metavar="PATH", default=None,
            help="also write the move log as a replayable file",
        )
        return p

    common(sub.add_parser("info", help="vertex classes, sinks, sources, exit-free cycles"))
    common(sub.add_parser("ktheory", help="K0/K1 invariants and unit profile"))
    common(sub.add_parser("is-ck", help="decide Cuntz-Krieger, with witness"))
    common(with_log(sub.add_parser("normalize", help="rebuild without sources (input must be sink-free)")))

    p_move = with_log(sub.add_parser("move", help="apply moves in order"))
    p_move.add_argument(
        "--move", action="append", required=True, metavar="SPEC",
        help="e.g. add-head:v0:2, subdivide-edge:e0:1, source-elision:v0,v1, "
        "star-sources:v0:2, remove-source:v2, collapse:v1, attach-heads:v0=2",
    )
    common(p_move)

    p_corner = with_log(sub.add_parser("corner", help="realize the corner cut by a projection"))
    p_corner.add_argument("--proj", required=True, metavar="MULTISET", help="e.g. v0=2,v1=1")
    common(p_corner)

    p_amp = with_log(sub.add_parser("amplify", help="realize the n-by-n matrix amplification"))
    p_amp.add_argument("--factor", type=int, required=True, metavar="N")
    common(p_amp)

    p_eq = sub.add_parser("monoid-eq", help="decide projection equivalence by rewriting")
    p_eq.add_argument("--a", required=True, metavar="MULTISET")
    p_eq.add_argument("--b", required=True, metavar="MULTISET")
    p_eq.add_argument("--budget", type=int, default=10000)
    common(p_eq)

    p_fuzz = sub.add_parser("fuzz", help="seeded invariant fuzzing, replayable")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--cases", type=int, default=50)
    common(p_fuzz, with_graph=False)
    return parser


_HANDLERS = {
    "info": _cmd_info,
    "ktheory": _cmd_ktheory,
    "is-ck": _cmd_is_ck,
    **dict.fromkeys(_PIPELINES, _cmd_pipeline),
    "monoid-eq": _cmd_monoid_eq,
    "fuzz": _cmd_fuzz,
}


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # The graph is read and parsed before any other argument is looked at,
    # so a graph parse error is reported first; stdout is written only once
    # the command has succeeded.
    try:
        g = _load_graph(args.graph) if "graph" in args else None
        report, text = _HANDLERS[args.command](args, g)
    except GraphFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PreconditionError, CertificateError) as exc:
        kind = "precondition violated" if isinstance(exc, PreconditionError) else "certificate failed"
        print(f"error: {kind}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except CkGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    if args.format == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
