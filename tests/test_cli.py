"""End-to-end tests of every CLI subcommand."""

import json

import pytest

from ptmc.cli import main


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
    from ptmc.codes import components_of
    h = class_key_hash(components_of(code_set)[0].class_key)
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
])
def test_malformed_document_is_usage_error(doc, argv, tmp_path, capsys):
    # valid JSON of the wrong shape is bad input, not a failed verification
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    err = usage_error(argv + [str(path)], tmp_path, capsys)
    assert "input.json: malformed document" in err


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


def test_extend_level_too_small_is_usage_error(tmp_path, capsys):
    err = usage_error(["gamma", "extend", "--level", "1"], tmp_path, capsys)
    assert "level >= 2" in err


def test_reports_byte_identical_modulo_timings(tmp_path):
    _, r1 = run(["gamma", "stats", "--level", "2"], tmp_path, "a.json")
    _, r2 = run(["gamma", "stats", "--level", "2"], tmp_path, "b.json")
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
