"""End-to-end tests of every CLI subcommand."""

import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ptmc
from ptmc import cli
from ptmc.cli import build_parser, main
from ptmc.codes import code_to_json
from ptmc.constructions import build_box_code
from ptmc.cover import eds_instance
from ptmc.graphs import lattice_graph
from ptmc.metric import Ambient

README = Path(__file__).resolve().parent.parent / "README.md"


def run(argv, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    report = json.loads(out.read_text())
    return code, report


def test_construct_box_and_verify(tmp_path):
    code_file = tmp_path / "box.json"
    code, report = run(["construct", "box", "--c", "2,2", "--k", "1,1",
                        "--emit", str(code_file)], tmp_path)
    assert code == 0
    assert report["verdicts"] == {"verified": True, "separation": 3}
    assert str(code_file) in report["artifacts"]

    code, report = run(["verify", "ptmc", "--code", str(code_file)], tmp_path, "r2.json")
    assert code == 0
    assert report["verdicts"]["passed"] is True

    code, report = run(["verify", "ptmc", "--code", str(code_file), "--t", "1"],
                       tmp_path, "r3.json")
    assert code == 1
    assert report["verdicts"]["passed"] is False
    assert report["verdicts"]["failure"] in ("bad-radius", "gap")


def test_verify_radius_above_dimension_is_a_failure_report(tmp_path):
    code_file = tmp_path / "box.json"
    assert run(["construct", "box", "--c", "2,2", "--k", "2,2",
                "--emit", str(code_file)], tmp_path)[0] == 0
    code, report = run(["verify", "ptmc", "--code", str(code_file), "--t", "3"],
                       tmp_path, "r2.json")
    assert code == 1
    assert report["verdicts"] == {"passed": False, "failure": "bad-radius",
                                  "witness": [[1, 1]]}


def test_verify_failure_has_witness(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "ambient": {"kind": "torus", "moduli": [4, 4]},
        "vertices": [[0, 0]],
        "kappa": {},
    }))
    doc = json.loads(bad.read_text())
    from ptmc.codes import class_key_hash, code_from_json
    code_set, _ = code_from_json({k: v for k, v in doc.items() if k != "kappa"})
    (key,) = code_set._classes
    h = class_key_hash(key)
    doc["kappa"] = {h: 2}
    bad.write_text(json.dumps(doc))
    code, report = run(["verify", "ptmc", "--code", str(bad)], tmp_path)
    assert code == 1
    assert report["verdicts"]["failure"] == "gap"
    assert report["verdicts"]["witness"]


def test_construct_square_singleton(tmp_path):
    code_file = tmp_path / "sq.json"
    code, report = run(["construct", "square-singleton", "--budget", "120",
                        "--emit", str(code_file)], tmp_path)
    assert code == 0
    assert report["verdicts"] == {"outcome": "solution", "verified": True}
    assert report["counts"]["components"] == 8
    doc = json.loads(code_file.read_text())
    assert doc["ambient"]["moduli"] == [6, 6, 3]


def test_search_grid_enumerate(tmp_path):
    code, report = run(["search", "--grid", "4,4", "--enumerate"], tmp_path)
    assert code == 0
    assert report["verdicts"]["exhaustive"] is True
    assert report["counts"]["solutions"] == 2


def test_search_instance_file(tmp_path):
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(json.dumps({
        "universe": [1, 2],
        "tiles": [["a", [1]], ["b", [2]], ["c", [1, 2]]],
    }))
    sol_file = tmp_path / "sol.json"
    code, report = run(["search", "--instance", str(inst_file),
                        "--emit", str(sol_file)], tmp_path)
    assert code == 0
    assert report["verdicts"]["outcome"] == "solution"
    assert json.loads(sol_file.read_text())["tiles"] == ["a", "b"]


def dense_instance_file(tmp_path):
    """24 cells, every 3-subset a tile: far too many covers to enumerate."""
    universe = list(range(24))
    tiles = []
    for a in range(24):
        for b in range(a + 1, 24):
            for c in range(b + 1, 24):
                tiles.append([f"t{a}.{b}.{c}", [a, b, c]])
    inst_file = tmp_path / "big.json"
    inst_file.write_text(json.dumps({"universe": universe, "tiles": tiles}))
    return str(inst_file)


def test_search_timeout_exit_code(tmp_path):
    # enumerating covers of a dense instance cannot finish in the budget
    code, report = run(["search", "--instance", dense_instance_file(tmp_path),
                        "--enumerate", "--budget", "0.02"], tmp_path)
    assert code == 3
    assert report["verdicts"]["exhaustive"] is False


@pytest.mark.parametrize("argv, slowed", [
    (["search", "--torus", "10,10", "--budget", "0.1"], "ptmc.cover.eds_instance"),
    (["gamma", "no-isolated-pds", "--budget", "0.1"], "ptmc.gamma2.eds_instance"),
])
def test_budget_counts_from_the_command_start(argv, slowed, tmp_path, monkeypatch):
    # the stub sleeps through the whole budget before the build, which reads
    # the clock before each vertex's mask and stops at the first; the command
    # reports a timeout in which no search node was made
    def slow_eds_instance(g, deadline=None):
        time.sleep(0.2)
        return eds_instance(g, deadline)

    monkeypatch.setattr(slowed, slow_eds_instance)
    code, report = run(argv, tmp_path)
    assert code == 3
    assert report["verdicts"] == {"outcome": "timeout"}
    assert report["counts"]["nodes"] == 0


@pytest.mark.parametrize("extra, verdicts", [
    ([], {"outcome": "timeout"}),
    (["--enumerate"], {"exhaustive": False}),
])
def test_budget_passing_during_the_eds_build_is_a_timeout(extra, verdicts, tmp_path,
                                                          monkeypatch):
    # the budget passes while the 5,625 masks are built: the 100th vertex's
    # clock read comes after it, so the build stops there, and the search is
    # never started
    reads = []

    def check_clock(deadline):
        reads.append(None)
        if len(reads) == 100:
            time.sleep(0.3)
        return read_clock(deadline)

    read_clock = ptmc.cover._check_clock
    monkeypatch.setattr("ptmc.cover._check_clock", check_clock)
    code, report = run(["search", "--torus", "75,75", "--budget", "0.2"] + extra, tmp_path)
    assert code == 3
    assert report["verdicts"] == verdicts
    assert report["counts"]["nodes"] == 0
    assert len(reads) == 100


@pytest.mark.parametrize("extra, verdicts", [
    ([], {"outcome": "timeout"}),
    (["--enumerate"], {"exhaustive": False}),
])
def test_budget_passing_during_an_instance_file_build_is_a_timeout(extra, verdicts, tmp_path,
                                                                   monkeypatch):
    # the budget passes while the instance's tile masks are built: the build
    # stops at its next clock read, the search is never started, and the
    # report keeps the file's counts
    g = lattice_graph(Ambient.torus(10, 10))
    inst_file = tmp_path / "torus.json"
    inst_file.write_text(json.dumps({
        "universe": [list(v) for v in g.vertices],
        "tiles": [[str(v), [list(u) for u in sorted(g.neighbors(v) | {v})]]
                  for v in g.vertices]}))
    made = []

    def mask(positions):
        made.append(None)
        if len(made) == 10:
            time.sleep(0.3)
        return make_mask(positions)

    make_mask = ptmc.cover._mask
    monkeypatch.setattr("ptmc.cover._mask", mask)
    code, report = run(["search", "--instance", str(inst_file), "--budget", "0.2"] + extra,
                       tmp_path)
    assert code == 3
    assert report["verdicts"] == verdicts
    assert (report["counts"]["cells"], report["counts"]["tiles"]) == (100, 100)
    assert report["counts"]["nodes"] == 0
    assert len(made) == 10


def test_search_limit_exit_codes(tmp_path):
    inst_file = dense_instance_file(tmp_path)
    # reaching the limit is success
    code, report = run(["search", "--instance", inst_file, "--enumerate",
                        "--limit", "5"], tmp_path, "r1.json")
    assert code == 0
    assert report["counts"]["solutions"] == 5
    # the budget ending the run before the limit is a timeout
    code, report = run(["search", "--instance", inst_file, "--enumerate",
                        "--limit", "100000", "--budget", "0.02"], tmp_path, "r2.json")
    assert code == 3
    assert report["verdicts"]["exhaustive"] is False
    assert report["counts"]["solutions"] < 100000


def test_search_limit_below_one_is_usage_error(tmp_path, capsys):
    err = usage_error(["search", "--grid", "4,4", "--enumerate", "--limit", "0"],
                      tmp_path, capsys)
    assert "--limit" in err


@pytest.mark.parametrize("grid", ["4", "4,4,4"])
def test_search_grid_needs_two_values(grid, tmp_path, capsys):
    err = usage_error(["search", "--grid", grid], tmp_path, capsys)
    assert "--grid" in err


@pytest.mark.parametrize("argv", [["--grid", "0,4"], ["--grid=-1,3"],
                                  ["--torus", "0,4"], ["--torus=-2,5"]])
def test_search_sizes_below_one_name_their_option(argv, tmp_path, capsys):
    err = usage_error(["search"] + argv, tmp_path, capsys)
    assert argv[0].split("=")[0] in err


def test_search_deep_torus(tmp_path):
    # 1,125 tiles deep: the search must not hit Python's recursion limit
    code, report = run(["search", "--torus", "75,75", "--emit", str(tmp_path / "sol.json")],
                       tmp_path)
    assert code == 0
    assert report["verdicts"]["outcome"] == "solution"


def test_gamma_count(tmp_path):
    code, report = run(["gamma", "count-2ptmc"], tmp_path)
    assert code == 0
    assert report["verdicts"]["count"] == 262144


def test_gamma_count_complete_records_nodes(tmp_path):
    # the totality run cannot finish in the budget; its nodes are reported
    code, report = run(["gamma", "count-2ptmc", "--complete", "--budget", "0.05"], tmp_path)
    assert code == 3
    assert report["verdicts"]["complete_exhaustive"] is False
    assert list(report["counts"]) == ["count", "complete_count", "complete_nodes"]
    assert report["counts"]["complete_nodes"] > 0


def test_gamma_count_complete_budget_ending_the_build(tmp_path, monkeypatch):
    # the budget passes while the totality instance is built: no search node
    def mask(positions):
        time.sleep(0.6)
        return make_mask(positions)

    make_mask = ptmc.cover._mask
    monkeypatch.setattr("ptmc.cover._mask", mask)
    code, report = run(["gamma", "count-2ptmc", "--complete", "--budget", "0.5"], tmp_path)
    assert code == 3
    assert report["verdicts"]["complete_exhaustive"] is False
    assert (report["counts"]["complete_count"], report["counts"]["complete_nodes"]) == (0, 0)


def test_gamma_no_isolated_pds(tmp_path):
    code, report = run(["gamma", "no-isolated-pds"], tmp_path)
    assert code == 0
    assert report["verdicts"]["outcome"] == "infeasible"


def test_gamma_non_isolated_pds(tmp_path):
    emit = tmp_path / "pds.json"
    code, report = run(["gamma", "non-isolated-pds", "--emit", str(emit)], tmp_path)
    assert code == 0
    assert report["verdicts"] == {"non_isolated_pass": True, "isolated_pass": False}
    assert len(json.loads(emit.read_text())["vertices"]) == 18


def test_gamma_extend(tmp_path):
    code, report = run(["gamma", "extend", "--level", "3", "--seed", "5"], tmp_path)
    assert code == 0
    assert report["verdicts"]["interior_verified"] is True


def test_gamma_stats(tmp_path):
    code, report = run(["gamma", "stats", "--level", "3"], tmp_path)
    assert code == 0
    assert report["counts"]["hive_members"] == 16
    assert report["counts"]["hive_vertices"] == 81
    assert report["counts"]["interior_degrees"] == [8]


@pytest.mark.parametrize("what", ["pds", "nipds"])
def test_verify_foreign_vertex_is_usage_error(what, tmp_path, capsys):
    hive_file, pds_file = tmp_path / "hive.json", tmp_path / "pds.json"
    assert main(["export", "hive", "--format", "json", "--emit", str(hive_file),
                 "--out", str(tmp_path / "e.json")]) == 0
    pds_file.write_text(json.dumps({"vertices": ["nowhere", "elsewhere"]}))
    err = usage_error(["verify", what, "--code", str(pds_file), "--graph", str(hive_file)],
                      tmp_path, capsys)
    assert "'nowhere' not in graph" in err


def test_verify_gamma_pds_against_exported_graph(tmp_path):
    hive_file = tmp_path / "hive.json"
    pds_file = tmp_path / "pds.json"
    assert main(["export", "hive", "--format", "json", "--emit", str(hive_file),
                 "--out", str(tmp_path / "e.json")]) == 0
    assert main(["gamma", "non-isolated-pds", "--emit", str(pds_file),
                 "--out", str(tmp_path / "g.json")]) == 0
    code, report = run(["verify", "nipds", "--code", str(pds_file),
                        "--graph", str(hive_file)], tmp_path)
    assert code == 0 and report["verdicts"]["passed"] is True
    code, report = run(["verify", "pds", "--code", str(pds_file),
                        "--graph", str(hive_file)], tmp_path, "r5.json")
    assert code == 1 and report["verdicts"]["passed"] is False


def test_verify_pds_counts_distinct_code_vertices(tmp_path):
    # a vertex-list code may repeat an id; the code is the set it lists
    graph_file, code_file = tmp_path / "g.json", tmp_path / "code.json"
    graph_file.write_text(json.dumps({"vertices": [{"id": "x"}], "edges": []}))
    code_file.write_text(json.dumps({"vertices": ["x", "x"]}))
    for what in ("pds", "nipds"):
        code, report = run(["verify", what, "--code", str(code_file), "--graph", str(graph_file)],
                           tmp_path, f"{what}.json")
        assert code == 0
        assert report["counts"] == {"graph_vertices": 1, "code": 1}


def test_export_dot_and_json(tmp_path):
    dot = tmp_path / "hive.dot"
    code, report = run(["export", "hive", "--format", "dot", "--emit", str(dot)], tmp_path)
    assert code == 0
    text = dot.read_text()
    assert text.startswith("graph gamma2 {")
    assert text.count(" -- ") == 216

    jf = tmp_path / "region.json"
    code, report = run(["export", "region", "--level", "0", "--format", "json",
                        "--emit", str(jf)], tmp_path, "r2.json")
    assert code == 0
    assert len(json.loads(jf.read_text())["vertices"]) == 9


def test_survey(tmp_path):
    code, report = run(["survey", "--max-side", "4"], tmp_path)
    assert code == 0
    assert report["verdicts"]["exists_only_at_4x4"] is True
    rows = {(r["m"], r["n"]): r for r in report["counts"]["table"]}
    assert rows[(4, 4)]["count"] == 2
    assert rows[(3, 3)]["count"] == 0


@pytest.mark.parametrize("side", ["3", "0"])
def test_survey_side_below_4_is_usage_error(side, tmp_path, capsys):
    # the verdict is about the 4 x 4 grid, which a smaller side never searches
    err = usage_error(["survey", "--max-side", side], tmp_path, capsys)
    assert "--max-side" in err


def test_survey_budget_bounds_the_whole_survey(tmp_path):
    # 25 grids cannot all finish in 0.1 ms; a grid that runs out of the
    # shared budget leaves the verdict open and the exit code says timeout
    code, report = run(["survey", "--max-side", "7", "--budget", "0.0001"], tmp_path)
    assert code == 3
    assert report["verdicts"] == {"exists_only_at_4x4": None}
    timed_out = [r for r in report["counts"]["table"] if not r["exhaustive"]]
    assert timed_out
    assert all(r["exists"] is None and r["count"] is None for r in timed_out)


def test_usage_error_exit_code():
    assert main(["construct", "box"]) == 2      # missing --c/--k
    assert main(["nonsense"]) == 2


def usage_error(argv, tmp_path, capsys):
    """Run a command that must end in exit 2, one error line and no report."""
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
    return err


# every option a leaf does not read, and every combination its handler would
# ignore, is refused; CODE is a box code file, GRAPH a graph file
@pytest.mark.parametrize("argv, flag", [
    (["construct", "box", "--c", "2,2", "--k", "1,1", "--n", "3"], "--n"),
    (["construct", "box", "--c", "2,2", "--k", "1,1", "--budget", "5"], "--budget"),
    (["construct", "box", "--c", "2,2", "--k", "1,1", "--seed", "5"], "--seed"),
    (["construct", "square-singleton", "--c", "2,2"], "--c"),
    (["construct", "square-singleton", "--k", "1,1"], "--k"),
    (["construct", "square-singleton", "--n", "3"], "--n"),
    (["construct", "cube-singleton", "--c", "2,2"], "--c"),
    (["construct", "cube-singleton", "--k", "1,1"], "--k"),
    (["gamma", "count-2ptmc", "--level", "3"], "--level"),
    (["gamma", "count-2ptmc", "--seed", "1"], "--seed"),
    (["gamma", "no-isolated-pds", "--level", "3"], "--level"),
    (["gamma", "no-isolated-pds", "--seed", "1"], "--seed"),
    (["gamma", "no-isolated-pds", "--complete"], "--complete"),
    (["gamma", "non-isolated-pds", "--level", "3"], "--level"),
    (["gamma", "non-isolated-pds", "--seed", "1"], "--seed"),
    (["gamma", "non-isolated-pds", "--budget", "1"], "--budget"),
    (["gamma", "non-isolated-pds", "--complete"], "--complete"),
    (["gamma", "extend", "--budget", "1"], "--budget"),
    (["gamma", "extend", "--complete"], "--complete"),
    (["gamma", "stats", "--seed", "1"], "--seed"),
    (["gamma", "stats", "--budget", "1"], "--budget"),
    (["gamma", "stats", "--complete"], "--complete"),
    (["export", "hive", "--level", "3"], "--level"),
    (["verify", "ptmc", "--code", "CODE", "--graph", "GRAPH"], "--graph"),
    (["verify", "pds", "--code", "CODE", "--t", "1"], "--t"),
    (["verify", "nipds", "--code", "CODE", "--t", "1"], "--t"),
    (["verify", "ptmc", "--code", "CODE", "--emit", "x.json"], "--emit"),
    (["verify", "pds", "--code", "CODE", "--emit", "x.json"], "--emit"),
    (["verify", "nipds", "--code", "CODE", "--emit", "x.json"], "--emit"),
    (["survey", "--max-side", "3", "--emit", "x.json"], "--emit"),
    (["gamma", "count-2ptmc", "--emit", "x.json"], "--emit"),
    (["gamma", "no-isolated-pds", "--emit", "x.json"], "--emit"),
    (["gamma", "stats", "--emit", "x.json"], "--emit"),
    (["search", "--grid", "4,4", "--torus", "5,5"], "--torus"),
    (["search", "--instance", "CODE", "--graph", "GRAPH"], "--graph"),
    (["search", "--grid", "4,4", "--limit", "2"], "--limit"),
    (["gamma", "count-2ptmc", "--budget", "1"], "--budget"),
    (["verify", "pds", "--code", "CODE", "--graph", "GRAPH"], "--graph"),
    (["verify", "nipds", "--code", "CODE", "--graph", "GRAPH"], "--graph"),
])
def test_ignored_option_is_usage_error(argv, flag, tmp_path, capsys):
    code_file, graph_file = tmp_path / "code.json", tmp_path / "graph.json"
    code_file.write_text(json.dumps(code_to_json(*build_box_code((2, 2), (1, 1)))))
    graph_file.write_text(json.dumps({"vertices": [{"id": "a"}], "edges": []}))
    paths = {"CODE": str(code_file), "GRAPH": str(graph_file)}
    out = tmp_path / "report.json"
    assert main([paths.get(a, a) for a in argv] + ["--out", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "x.json").exists()


def test_readme_cli_examples_parse():
    text = README.read_text()
    block = text[text.index("## CLI"):]
    block = block[block.index("```sh"):]
    block = block[:block.index("```", 5)]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    examples = [words[1:] for words in lines if words[:1] == ["ptmc"]]
    assert len(examples) >= 18
    for words in examples:
        build_parser().parse_args(words)


def test_missing_code_file_is_usage_error(tmp_path, capsys):
    err = usage_error(["verify", "ptmc", "--code", str(tmp_path / "missing.json")],
                      tmp_path, capsys)
    assert "missing.json" in err


def test_malformed_code_json_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    usage_error(["verify", "ptmc", "--code", str(bad), "--t", "2"], tmp_path, capsys)


@pytest.mark.parametrize("doc, argv", [
    ({}, ["verify", "ptmc", "--t", "1", "--code"]),
    ([], ["verify", "ptmc", "--t", "1", "--code"]),
    ([], ["verify", "pds", "--code"]),
    ({}, ["search", "--instance"]),
    ({"vertices": [{"id": "a"}], "edges": [["a", "b"]]}, ["search", "--graph"]),
    ({"vertices": [{"id": "a"}]}, ["search", "--graph"]),
    # both formats name tiles and vertices by string ids
    ({"universe": [[0], [1]], "tiles": [[1, [[0]]], ["a", [[1]]]]}, ["search", "--instance"]),
    ({"vertices": [{"id": 1}, {"id": "a"}], "edges": [[1, "a"]]}, ["search", "--graph"]),
    # arrays given as strings or objects, which would unpack as characters or keys
    ({"universe": ["b"], "tiles": {"ab": 0}}, ["search", "--instance"]),
    ({"universe": "xy", "tiles": [["t", ["x", "y"]]]}, ["search", "--instance"]),
    ({"universe": ["x", "y"], "tiles": [["t", "yx"]]}, ["search", "--instance"]),
    ({"vertices": [{"id": "a"}, {"id": "b"}], "edges": {"ab": 1}}, ["search", "--graph"]),
    ({"vertices": "ab"}, ["verify", "pds", "--code"]),
    ({"ambient": {"kind": "torus", "moduli": [3, 3]}, "vertices": "ab"},
     ["verify", "ptmc", "--t", "1", "--code"]),
    # tile entries, edges and window bounds have exactly two items
    ({"universe": ["a"], "tiles": [["a"]]}, ["search", "--instance"]),
    ({"universe": ["a"], "tiles": [["a", ["a"], "b"]]}, ["search", "--instance"]),
    ({"vertices": [{"id": "a"}, {"id": "b"}], "edges": [["a", "b", "a"]]}, ["search", "--graph"]),
    ({"ambient": {"kind": "window", "bounds": [[0]]}, "vertices": []},
     ["verify", "ptmc", "--t", "1", "--code"]),
    # a radius map is an object: pairs would be read as one, or fail to
    ({"ambient": {"kind": "torus", "moduli": [3, 3]}, "vertices": [[0, 0]],
      "kappa": [["b0d317a3ada5", 1]]}, ["verify", "ptmc", "--code"]),
    ({"ambient": {"kind": "torus", "moduli": [3, 3]}, "vertices": [[0, 0]],
      "kappa": [["h", 1, 2]]}, ["verify", "ptmc", "--code"]),
    # an instance cell must be hashable: an array inside a cell array is not
    ({"universe": [[0, [1]]], "tiles": []}, ["search", "--instance"]),
])
def test_malformed_document_is_usage_error(doc, argv, tmp_path, capsys):
    # valid JSON of the wrong shape is bad input, not a failed verification
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    err = usage_error(argv + [str(path)], tmp_path, capsys)
    assert "input.json: malformed document" in err


@pytest.mark.parametrize("depth", [5_000, 100_000])
@pytest.mark.parametrize("argv", [
    ["verify", "ptmc", "--t", "1", "--code", "DEEP"],
    ["verify", "pds", "--code", "DEEP"],
    ["verify", "pds", "--code", "CODE", "--graph", "DEEP"],
    ["search", "--instance", "DEEP"],
    ["search", "--graph", "DEEP"],
])
def test_deeply_nested_json_is_usage_error(argv, depth, tmp_path, capsys):
    # the parser's recursion limit is bad input, not a crash
    deep, code_file = tmp_path / "deep.json", tmp_path / "code.json"
    deep.write_text("[" * depth + "]" * depth)
    code_file.write_text(json.dumps({"vertices": ["x"]}))
    names = {"DEEP": str(deep), "CODE": str(code_file)}
    err = usage_error([names.get(a, a) for a in argv], tmp_path, capsys)
    assert "deep.json: JSON nested too deeply" in err


@pytest.mark.parametrize("doc, argv, named", [
    # read as a dict, the second "x" would merge into the first and the
    # two-vertex graph would have a solution
    ({"vertices": [{"id": "x"}, {"id": "x"}, {"id": "y"}], "edges": []},
     ["search", "--graph"], "duplicate vertex id 'x'"),
    ({"vertices": [{"id": "x"}, {"id": "y"}, {"id": "x"}], "edges": [["x", "y"]]},
     ["verify", "pds", "--code", "CODE", "--graph"], "duplicate vertex id 'x'"),
    ({"universe": ["a", "b"], "tiles": [["t", ["a"]], ["t", ["b"]]]},
     ["search", "--instance"], "duplicate tile id 't'"),
    # a code file's set would keep one (0, 0): a one-vertex code that passes
    ({"ambient": {"kind": "torus", "moduli": [3, 3]}, "vertices": [[0, 0], [0, 0]]},
     ["verify", "ptmc", "--t", "2", "--code"], "duplicate vertex (0, 0)"),
    ({"ambient": {"kind": "torus", "moduli": [3, 3]}, "vertices": [[1, 1], [0, 0], [1, 1]]},
     ["verify", "pds", "--code"], "duplicate vertex (1, 1)"),
])
def test_id_listed_twice_is_usage_error(doc, argv, named, tmp_path, capsys):
    path, code_file = tmp_path / "input.json", tmp_path / "code.json"
    path.write_text(json.dumps(doc))
    code_file.write_text(json.dumps({"vertices": ["x"]}))
    argv = [str(code_file) if a == "CODE" else a for a in argv]
    err = usage_error(argv + [str(path)], tmp_path, capsys)
    assert named in err


@pytest.mark.parametrize("vertex, moduli, bad", [
    ([1.5, 1], [3, 3], "1.5"),
    ([True, 1], [3, 3], "True"),
    ([1, 1], [3.9, 3], "3.9"),
    ([1, 1], [3, False], "False"),
])
def test_non_integer_coordinates_and_moduli_are_usage_errors(vertex, moduli, bad, tmp_path,
                                                             capsys):
    # int() would round them, and the code would verify as if they were ints
    code_file = tmp_path / "box.json"
    assert main(["construct", "box", "--c", "2,2", "--k", "1,1", "--emit", str(code_file),
                 "--out", str(tmp_path / "built.json")]) == 0
    doc = json.loads(code_file.read_text())
    assert (doc["vertices"], doc["ambient"]["moduli"]) == ([[1, 1]], [3, 3])
    doc["vertices"], doc["ambient"]["moduli"] = [vertex], moduli
    code_file.write_text(json.dumps(doc))
    err = usage_error(["verify", "ptmc", "--code", str(code_file), "--t", "2"], tmp_path, capsys)
    assert f"{bad} is not an integer" in err


@pytest.mark.parametrize("radius", [2.9, True])
def test_non_integer_kappa_radius_is_usage_error(radius, tmp_path, capsys):
    # int() would round 2.9 down to a radius that verifies, and read True as 1
    code_file = tmp_path / "box.json"
    assert main(["construct", "box", "--c", "2,2", "--k", "1,1", "--emit", str(code_file),
                 "--out", str(tmp_path / "built.json")]) == 0
    doc = json.loads(code_file.read_text())
    (h,) = doc["kappa"]
    doc["kappa"][h] = radius
    code_file.write_text(json.dumps(doc))
    err = usage_error(["verify", "ptmc", "--code", str(code_file)], tmp_path, capsys)
    assert f"kappa entry {h} radius {radius} is not an integer" in err


def test_non_string_vertex_list_id_is_usage_error(tmp_path, capsys):
    # str() would turn the id 1 into the graph's vertex "1" and pass
    graph_file, code_file = tmp_path / "g.json", tmp_path / "input.json"
    graph_file.write_text(json.dumps({"vertices": [{"id": "1"}], "edges": []}))
    code_file.write_text(json.dumps({"vertices": [1]}))
    err = usage_error(["verify", "pds", "--code", str(code_file), "--graph", str(graph_file)],
                      tmp_path, capsys)
    assert "input.json: malformed document" in err


@pytest.mark.parametrize("argv", [["verify", "ptmc", "--t", "1"], ["verify", "pds"]])
def test_unknown_ambient_kind_is_usage_error(argv, tmp_path, capsys):
    # read as a window, it would fail as a degenerate ambient or with a gap
    code_file = tmp_path / "code.json"
    code_file.write_text(json.dumps({"ambient": {"kind": "sphere", "bounds": [[0, 2], [0, 2]]},
                                     "vertices": [[1, 1]]}))
    err = usage_error(argv + ["--code", str(code_file)], tmp_path, capsys)
    assert "unknown ambient kind 'sphere'" in err


def test_incomplete_kappa_error_line_is_the_bare_message(tmp_path, capsys):
    # no KeyError repr quotes and no malformed-document wrapper
    from ptmc.codes import class_key_hash
    code_file = tmp_path / "code.json"
    code_file.write_text(json.dumps({"ambient": {"kind": "torus", "moduli": [3, 3]},
                                     "vertices": [[0, 0]], "kappa": {}}))
    err = usage_error(["verify", "ptmc", "--code", str(code_file)], tmp_path, capsys)
    assert err == f"error: kappa entry {class_key_hash(((0, 0),))} missing for class of (0, 0)\n"


def test_incomplete_kappa_names_the_least_vertex_of_a_code_that_folds(tmp_path, capsys):
    # a (5, 4) staircase that wraps round x, repeated (2, 3) times: the code
    # is checked on its (5, 4) period, and the component that holds the
    # class's least vertex (0, 0) runs from x = 9 round to x = 1
    cell = ((0, 0), (1, 0), (1, 1), (4, 0), (4, 1))
    code_file = tmp_path / "code.json"
    code_file.write_text(json.dumps({
        "ambient": {"kind": "torus", "moduli": [10, 12]},
        "vertices": [[x + 5 * i, y + 4 * j] for x, y in cell for i in range(2) for j in range(3)],
        "kappa": {},
    }))
    err = usage_error(["verify", "ptmc", "--code", str(code_file)], tmp_path, capsys)
    assert err == "error: kappa entry 3d95af64423a missing for class of (0, 0)\n"


def test_incomplete_kappa_is_usage_error_unless_t_given(tmp_path, capsys):
    code_file = tmp_path / "code.json"
    code_file.write_text(json.dumps({
        "ambient": {"kind": "torus", "moduli": [3, 3]},
        "vertices": [[0, 0]],
        "kappa": {},
    }))
    err = usage_error(["verify", "ptmc", "--code", str(code_file)], tmp_path, capsys)
    assert "kappa entry" in err and "'" not in err
    code, report = run(["verify", "ptmc", "--code", str(code_file), "--t", "2"], tmp_path)
    assert code == 0 and report["verdicts"]["passed"] is True


@pytest.mark.parametrize("vertex", [[1, 3], [1]])
def test_vertex_outside_torus_is_usage_error(vertex, tmp_path, capsys):
    code_file = tmp_path / "code.json"
    code_file.write_text(json.dumps({
        "ambient": {"kind": "torus", "moduli": [3, 3]},
        "vertices": [[0, 0], vertex],
    }))
    err = usage_error(["verify", "ptmc", "--code", str(code_file), "--t", "1"],
                      tmp_path, capsys)
    assert f"vertex {tuple(vertex)} outside ambient" in err


def test_extend_level_too_small_is_usage_error(tmp_path, capsys):
    err = usage_error(["gamma", "extend", "--level", "1"], tmp_path, capsys)
    assert "--level must be at least 2" in err


@pytest.mark.parametrize("argv, option", [
    (["gamma", "stats", "--level", "-1"], "--level"),
    (["export", "region", "--level", "-1"], "--level"),
    (["construct", "cube-singleton", "--n", "2"], "--n"),
    (["construct", "box", "--c", "0,2", "--k", "1,1"], "--c"),
    (["construct", "box", "--c", "2,1", "--k", "1,1"], "--c"),
    (["construct", "box", "--c", "2,2", "--k", "1,0"], "--k"),
    (["construct", "box", "--c", "2,2", "--k", "1,1,1"], "--c and --k"),
])
def test_out_of_range_values_name_their_option(argv, option, tmp_path, capsys):
    err = usage_error(argv, tmp_path, capsys)
    assert f"error: {option} " in err


@pytest.mark.parametrize("argv", [
    ["survey", "--max-side", "4"],
    ["gamma", "count-2ptmc", "--complete"],
    ["gamma", "no-isolated-pds"],
    ["search", "--grid", "4,4"],
    ["construct", "square-singleton"],
    ["construct", "cube-singleton", "--n", "3"],
])
@pytest.mark.parametrize("budget", ["-1", "0", "nan", "-inf"])
def test_budget_not_above_zero_is_usage_error(argv, budget, tmp_path, capsys):
    # a budget that bounds nothing or has run out before the start is a usage
    # error, not a timeout; NaN compares false with everything
    err = usage_error(argv + [f"--budget={budget}"], tmp_path, capsys)
    assert "--budget must be positive" in err


def test_reports_byte_identical_modulo_timings(tmp_path):
    # a budget's deadline is read off the clock, so it stays out of the digest
    for argv in (["survey", "--max-side", "4", "--budget", "600"],
                 ["gamma", "stats", "--level", "2"]):
        _, r1 = run(argv, tmp_path, "a.json")
        _, r2 = run(argv, tmp_path, "b.json")
        r1.pop("timings")
        r2.pop("timings")
        # the command echo differs only in the --out path, which is part of it
        r1["command"] = [c for c in r1["command"] if "a.json" not in c]
        r2["command"] = [c for c in r2["command"] if "b.json" not in c]
        assert r1 == r2
    _, r3 = run(["gamma", "stats", "--level", "3"], tmp_path, "c.json")
    assert r3["inputs"]["digest"] != r1["inputs"]["digest"]


def test_report_field_order(tmp_path):
    out = tmp_path / "r.json"
    main(["gamma", "count-2ptmc", "--out", str(out)])
    keys = list(json.loads(out.read_text()).keys())
    assert keys == ["command", "inputs", "verdicts", "counts", "artifacts", "timings"]


def test_main_builds_the_parser_once(tmp_path, monkeypatch):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    assert main(["survey", "--max-side", "4", "--out", str(tmp_path / "a.json")]) == 0
    assert main(["gamma", "stats", "--level", "2", "--out", str(tmp_path / "b.json")]) == 0
    assert built == [1]
    assert build_parser() is not build_parser()  # the public builder stays fresh


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    # each run exports the hive and the relaxed set, then searches and
    # verifies them (the strict check fails at a witness), all in fresh
    # processes with one PYTHONHASHSEED
    commands = [
        ["export", "hive", "--format", "json", "--emit", "hive.json", "--out", "r1.json"],
        ["gamma", "non-isolated-pds", "--emit", "pds.json", "--out", "r2.json"],
        ["search", "--graph", "hive.json", "--enumerate", "--emit", "sol.json",
         "--out", "r3.json"],
        ["verify", "nipds", "--code", "pds.json", "--graph", "hive.json", "--out", "r4.json"],
        ["verify", "pds", "--code", "pds.json", "--graph", "hive.json", "--out", "r5.json"],
    ]
    src = str(Path(ptmc.__file__).resolve().parent.parent)
    runs = []
    for seed in ("1", "2"):
        cwd = tmp_path / seed
        cwd.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = [subprocess.run([sys.executable, "-m", "ptmc", *argv], cwd=cwd, env=env,
                               capture_output=True, text=True) for argv in commands]
        stdout = [(p.returncode, p.stdout, p.stderr) for p in done]
        files = {path.name: path.read_text() for path in sorted(cwd.iterdir())}
        for name in ("r1.json", "r2.json", "r3.json", "r4.json", "r5.json"):
            report = json.loads(files[name])
            del report["timings"]
            files[name] = json.dumps(report)  # in field order
        runs.append((stdout, files))
    assert [code for code, _, _ in runs[0][0]] == [0, 0, 0, 0, 1]
    assert sorted(runs[0][1]) == ["hive.json", "pds.json", "r1.json", "r2.json", "r3.json",
                                  "r4.json", "r5.json", "sol.json"]
    assert runs[1] == runs[0]
