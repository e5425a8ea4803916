"""Every artifact the CLI emits is written directly, through one indent-2
array writer: its text must be what json.dumps(doc, indent=2) writes for
the document as it is built from the library's results."""

import json

import pytest

from ptmc.cli import main
from ptmc.codes import CodeSet, KappaAssignment, code_to_json, code_to_text
from ptmc.constructions import (build_box_code, build_by_template, cube_singleton_template,
                                square_singleton_template)
from ptmc.cover import (ExactCoverInstance, eds_instance, enumerate_covers, instance_from_json,
                        solve)
from ptmc.gamma2 import extend_2ptmc, hive_non_isolated_pds
from ptmc.graphs import grid_graph, lattice_graph
from ptmc.metric import Ambient

BOXES = [((2,), (5,)), ((2, 3), (3, 4)), ((2, 3, 4), (2, 3, 2)), ((2, 2, 3, 2), (2, 1, 2, 2))]

# tile ids that json.dumps escapes: a quote, a backslash and non-ASCII characters
ESCAPES = {"universe": ["a", "b", "c"],
           "tiles": [['q"uote', ["a"]], ["back\\slash", ["b"]], ["café", ["c"]],
                     ["ab", ["a", "b"]], ["☃c", ["c"]]]}


def emitted(argv, tmp_path) -> str:
    path = tmp_path / "artifact.json"
    main(argv + ["--emit", str(path), "--out", str(tmp_path / "report.json")])
    return path.read_text()


def dumped(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("c, k", BOXES)
def test_box_codes_are_written_as_json_dumps_lays_them_out(c, k, tmp_path):
    argv = ["construct", "box", "--c", ",".join(map(str, c)), "--k", ",".join(map(str, k))]
    assert emitted(argv, tmp_path) == dumped(code_to_json(*build_box_code(c, k)))


@pytest.mark.parametrize("family, template", [
    (["square-singleton"], square_singleton_template()),
    (["cube-singleton", "--n", "4"], cube_singleton_template(4))])
def test_seeded_template_codes_are_written_as_json_dumps_lays_them_out(family, template,
                                                                       tmp_path):
    build = build_by_template(template, seed=7)
    text = emitted(["construct", *family, "--seed", "7"], tmp_path)
    assert text == dumped(code_to_json(build.code, build.kappa))


@pytest.mark.parametrize("code, kappa", [
    (CodeSet(Ambient.torus(3, 3), ()), KappaAssignment.uniform(1)),
    (CodeSet(Ambient.window((-2, 3), (1, 4)), ((-2, 1), (0, 3), (3, 4))),
     KappaAssignment.uniform(1)),
    (CodeSet(Ambient.window((5, 9),), ((5,), (6,), (9,))), KappaAssignment.uniform(1))])
def test_code_text_matches_json_dumps_on_windows_and_the_empty_code(code, kappa):
    # an empty code has no class, so its "kappa" is {}; a window writes its bounds
    assert code_to_text(code, kappa) == json.dumps(code_to_json(code, kappa), indent=2)


def search_cases(tmp_path):
    """(search argv, instance) pairs: EDS of grids and tori, and instance files."""
    inst = tmp_path / "escapes.json"
    inst.write_text(json.dumps(ESCAPES))
    three = tmp_path / "three.json"
    three.write_text(json.dumps({"universe": ["a", "b", "c"],
                                 "tiles": [["ab", ["a", "b"]], ["bc", ["b", "c"]],
                                           ["c", ["c"]]]}))

    def from_file(doc):
        return ExactCoverInstance(*instance_from_json(doc))
    return [
        (["--grid", "3,3"], eds_instance(grid_graph(3, 3))),  # no solution
        (["--instance", str(three)], from_file(json.loads(three.read_text()))),  # one
        (["--grid", "4,4"], eds_instance(grid_graph(4, 4))),  # many
        (["--torus", "5,5"], eds_instance(lattice_graph(Ambient.torus(5, 5)))),
        (["--instance", str(inst)], from_file(ESCAPES)),
    ]


def test_search_solution_lists_are_written_as_json_dumps_lays_them_out(tmp_path):
    sizes = set()
    for source, inst in search_cases(tmp_path):
        res = enumerate_covers(inst)
        sizes.add(min(len(res.solutions), 2))
        doc = {"solutions": [list(s) for s in res.solutions], "exhaustive": res.exhaustive}
        assert emitted(["search", *source, "--enumerate"], tmp_path) == dumped(doc), source
    assert sizes == {0, 1, 2}  # empty, one and many solutions


def test_search_tiles_are_written_as_json_dumps_lays_them_out(tmp_path):
    for source, inst in search_cases(tmp_path):
        out = solve(inst)
        if out.kind == "solution":
            assert emitted(["search", *source], tmp_path) == dumped({"tiles": list(out.tiles)})


@pytest.mark.parametrize("level", range(2, 7))
@pytest.mark.parametrize("seed", [None, 1])
def test_extend_centres_are_written_as_json_dumps_lays_them_out(level, seed, tmp_path):
    argv = ["gamma", "extend", "--level", str(level)]
    argv += [] if seed is None else ["--seed", str(seed)]
    rc = extend_2ptmc(level, seed=seed)
    doc = {"centers": [str(c) for c in rc.centers], "level": rc.level, "seed": rc.seed}
    assert emitted(argv, tmp_path) == dumped(doc)


def test_non_isolated_pds_is_written_as_json_dumps_lays_it_out(tmp_path):
    doc = {"vertices": [str(v) for v in hive_non_isolated_pds()]}
    assert emitted(["gamma", "non-isolated-pds"], tmp_path) == dumped(doc)
