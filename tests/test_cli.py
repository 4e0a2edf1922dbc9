from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ckgraph import format_graph
from ckgraph.cli import run
from conftest import fans

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())

REPORT_FIELDS = {"certificates", "graph", "invariants", "moves", "verdicts"}


def _run(argv: list[str], capsys) -> tuple[int, str, str]:
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_golden_output_is_byte_identical(name, capsys, monkeypatch):
    monkeypatch.chdir(HERE.parent)
    code, out, _ = _run(MANIFEST[name], capsys)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["info"],
        ["ktheory"],
        ["is-ck"],
        ["normalize"],
        ["corner", "--proj", "v0=1"],
        ["amplify", "--factor", "2"],
        ["monoid-eq", "--a", "v0=1", "--b", "v0=1"],
    ],
)
def test_json_reports_have_the_stable_field_list(argv, capsys, monkeypatch):
    monkeypatch.chdir(HERE.parent)
    target = "tests/data/example_loops.graph"
    code, out, _ = _run(argv[:1] + ["--format", "json"] + argv[1:] + [target], capsys)
    assert code == 0
    assert set(json.loads(out)) == REPORT_FIELDS


def test_move_and_fuzz_json_fields(capsys, monkeypatch):
    monkeypatch.chdir(HERE.parent)
    code, out, _ = _run(
        ["move", "--format", "json", "--move", "add-head:v0:1", "tests/data/example_loops.graph"],
        capsys,
    )
    assert code == 0 and set(json.loads(out)) == REPORT_FIELDS
    code, out, _ = _run(["fuzz", "--format", "json", "--seed", "3", "--cases", "5"], capsys)
    assert code == 0 and set(json.loads(out)) == REPORT_FIELDS


def test_missing_file_is_a_parse_error(capsys):
    code, out, err = _run(["is-ck", "no/such/file.graph"], capsys)
    assert (code, out) == (2, "")
    # the path is named once, not again inside the OSError's own text
    assert err == "parse error: cannot read no/such/file.graph: No such file or directory\n"


def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "utf16.graph"
    bad.write_bytes(b"\xff\xfev\x00e\x00r\x00t\x00e\x00x\x00")
    code, out, err = _run(["info", str(bad)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff")


def test_garbage_file_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("vertex v0\nnonsense line\n")
    code, _, err = _run(["ktheory", str(bad)], capsys)
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["info"],
        ["ktheory"],
        ["is-ck"],
        ["normalize"],
        ["move", "--move", "nonsense"],
        ["corner", "--proj", "v0"],
        ["amplify", "--factor", "0"],
        ["monoid-eq", "--a", "x", "--b", "y"],
    ],
)
def test_a_bad_graph_is_reported_before_any_other_argument(argv, tmp_path, capsys):
    # any other argument given here is bad too, but the graph is read first
    bad = tmp_path / "bad.graph"
    bad.write_text("vertex v0\nbogus line\n")
    code, out, err = _run([*argv, str(bad)], capsys)
    assert (code, out) == (2, "")
    assert err == "parse error: line 2: cannot parse 'bogus line'\n"


@pytest.mark.parametrize(
    "width, parallel, budget, text",
    [
        # each spends 1 transition before the mass cap cuts the search
        (5, 1, ["--budget", "2"], "unknown (mass cap reached)"),
        (5, 1, ["--budget", "3"], "unknown (mass cap reached)"),
        (5, 1, ["--budget", "200"], "equivalent (trace length 2)"),
        (1, 10_002, [], "unknown (mass cap reached)"),
    ],
)
def test_monoid_eq_says_not_equivalent_only_with_a_proof(
    tmp_path, capsys, width, parallel, budget, text
):
    graph = tmp_path / "fans.graph"
    graph.write_text(format_graph(fans(width, parallel)))
    code, out, _ = _run(["monoid-eq", *budget, "--a", "v=1", "--b", "w=1", str(graph)], capsys)
    assert code == 0
    assert out.splitlines()[0] == text


def test_precondition_failures_name_the_reason(tmp_path, capsys):
    sink = tmp_path / "sink.graph"
    sink.write_text("vertex v\nvertex w\nedge a v w\n")
    code, _, err = _run(["normalize", str(sink)], capsys)
    assert code == 1
    assert "precondition violated" in err and "has-sink" in err

    loops = tmp_path / "loops.graph"
    loops.write_text("vertex v0\nedge e0 v0 v0\nedge f v0 v0\n")
    code, _, err = _run(["corner", "--proj", "nope=1", str(loops)], capsys)
    assert code == 1
    assert "unknown-vertex" in err

    code, _, err = _run(["amplify", "--factor", "0", str(loops)], capsys)
    assert code == 1
    assert "bad-parameter" in err


def test_amplify_refuses_the_empty_graph_for_every_factor(tmp_path, capsys):
    empty = tmp_path / "empty.graph"
    empty.write_text("")
    for factor in ("1", "2"):
        code, out, err = _run(["amplify", "--factor", factor, str(empty)], capsys)
        assert (code, out) == (1, "")
        assert "empty-core" in err


def test_bad_multiset_literal_is_a_parse_error(tmp_path, capsys):
    loops = tmp_path / "loops.graph"
    loops.write_text("vertex v0\nedge e0 v0 v0\n")
    code, _, err = _run(["monoid-eq", "--a", "v0", "--b", "v0=1", str(loops)], capsys)
    assert code == 2
    assert "parse error" in err


def test_fuzz_is_reproducible_from_the_seed(capsys):
    code1, out1, _ = _run(["fuzz", "--seed", "11", "--cases", "12"], capsys)
    code2, out2, _ = _run(["fuzz", "--seed", "11", "--cases", "12"], capsys)
    assert (code1, code2) == (0, 0)
    assert out1 == out2
    _, other, _ = _run(["fuzz", "--seed", "12", "--cases", "12"], capsys)
    assert other != out1


def test_fuzz_refuses_a_negative_case_count(capsys):
    code, out, err = _run(["fuzz", "--cases", "-3"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: precondition violated: bad-parameter: case count must be non-negative, got -3\n"
    code, out, _ = _run(["fuzz", "--cases", "0"], capsys)
    assert code == 0 and out.endswith("fuzz: PASS\n")


def test_move_refuses_a_negative_head_length(capsys, monkeypatch):
    monkeypatch.chdir(HERE.parent)
    argv = ["move", "--move", "attach-heads:v0=-1", "tests/data/example_loops.graph"]
    code, out, err = _run(argv, capsys)
    assert (code, out) == (1, "")
    assert err == (
        "error: precondition violated: bad-parameter: "
        "head length at 'v0' must be non-negative, got -1\n"
    )


def test_move_refuses_an_empty_kept_set(capsys, monkeypatch):
    monkeypatch.chdir(HERE.parent)
    argv = ["move", "--move", "source-elision:", "tests/data/bouquet2.graph"]
    code, out, err = _run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "parse error: empty vertex set in 'source-elision:'\n"


def test_module_entry_point_runs_in_a_subprocess():
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "ckgraph", "is-ck", str(HERE / "data" / "example_loops.graph")],
        capture_output=True,
        text=True,
        env=env,
        cwd=HERE.parent,
    )
    assert proc.returncode == 0
    assert proc.stdout == "CK: yes (finite, no sinks; rank K0 = rank K1 = 0)\n"


def test_huge_move_length_is_refused_in_a_subprocess():
    # these inputs once ran for seconds building their heads: a head of
    # 99,999,999,999 vertices, and two heads of 2,998 whose total is above
    # the limit; now nothing is built
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    cases = [
        (["move", "--move", "add-head:v0:99999999999", "example_loops.graph"], "99999999999"),
        (["corner", "--proj", "u=2999,v=2999", "two_islands.graph"], "5996"),
    ]
    for (*args, graph), size in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "ckgraph", *args, str(HERE / "data" / graph)],
            capture_output=True,
            text=True,
            env=env,
            cwd=HERE.parent,
            timeout=30,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "output-too-large" in proc.stderr and size in proc.stderr


def test_help_exits_cleanly(capsys):
    code, out, _ = _run(["--help"], capsys)
    assert code == 0
    assert "ckgraph" in out


def test_log_flag_writes_a_replayable_file(tmp_path, capsys, monkeypatch):
    from ckgraph import graph_fingerprint, parse_graph, parse_move_log, replay_move_log

    monkeypatch.chdir(HERE.parent)
    log_path = tmp_path / "normalize.log"
    code, _, _ = _run(
        ["normalize", "--log", str(log_path), "tests/data/line_into_loops.graph"], capsys
    )
    assert code == 0
    log = parse_move_log(log_path.read_text())
    source = parse_graph(Path("tests/data/line_into_loops.graph").read_text())
    replayed = replay_move_log(source, log)
    assert graph_fingerprint(replayed) == log.steps[-1][1]


def test_an_unwritable_log_path_is_an_error_not_a_traceback(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(HERE.parent)
    log_path = tmp_path / "no" / "such" / "dir" / "normalize.log"
    code, out, err = _run(
        ["normalize", "--log", str(log_path), "tests/data/line_into_loops.graph"], capsys
    )
    assert (code, out) == (1, "")
    assert err == f"error: cannot write {log_path}: No such file or directory\n"
    assert not log_path.parent.exists()
