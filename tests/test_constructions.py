"""Tests for the box-code generator and the template searches."""

import json
import random
import time
from pathlib import Path

import pytest

import ptmc.cover
from ptmc.codes import (
    CodeSet,
    KappaAssignment,
    box_hull_check,
    code_from_json,
    code_to_json,
    components_of,
    verify_kappa_ptmc,
    verify_t_ptmc,
)
from ptmc.constructions import (
    TemplateShape,
    TemplateSpec,
    build_box_code,
    build_by_template,
    cube_singleton_template,
    min_component_separation,
    shape_ball_volume,
    square_singleton_template,
)
from ptmc.cover import tiling_instance
from ptmc.metric import Ambient, ball_size_formula

from oracles import brute_ball, naive_min_component_separation

FIXTURES = Path(__file__).parent / "fixtures"


def shape_kind_census(code):
    """Aggregate the per-class census over orientations by box extents."""
    kinds = {}
    for comp in components_of(code):
        spec = box_hull_check(comp)
        key = tuple(sorted(spec.extents))
        kinds[key] = kinds.get(key, 0) + 1
    return kinds


# ---------------------------------------------------------------------------
# box codes
# ---------------------------------------------------------------------------

def test_box_code_simplest_case():
    code, kappa = build_box_code((2, 2), (1, 1))
    assert code.ambient.moduli == (3, 3)
    assert code.vertices == ((1, 1),)
    assert verify_kappa_ptmc(code, kappa).passed


def test_box_code_3d_singletons():
    code, kappa = build_box_code((2, 2, 2), (1, 1, 1))
    assert code.ambient.moduli == (3, 3, 3)
    comps = components_of(code)
    assert len(comps) == 1 and len(comps[0]) == 1
    assert verify_t_ptmc(code, 3).passed


def test_box_code_mixed_extents():
    code, kappa = build_box_code((3, 2), (2, 1))
    assert code.ambient.moduli == (8, 3)
    comps = components_of(code)
    assert len(comps) == 2
    assert box_hull_check(comps[0]).extents == (2, 1)
    assert verify_t_ptmc(code, 2).passed


def test_box_code_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_box_code((1, 2), (1, 1))
    with pytest.raises(ValueError):
        build_box_code((2, 2), (0, 1))
    with pytest.raises(ValueError):
        build_box_code((2, 2), (1,))


def test_box_code_separation_is_three():
    for c, k in (((2, 2), (1, 1)), ((4, 3), (2, 2)), ((2, 3, 4), (1, 2, 1))):
        code, _ = build_box_code(c, k)
        assert min_component_separation(code) == 3


def test_box_code_components_are_boxes():
    code, _ = build_box_code((4, 2, 3), (2, 1, 1))
    # moduli (1 + c_i) k_i: one component per lattice cell
    assert code.ambient.moduli == (10, 3, 4)
    assert len(components_of(code)) == 2
    for comp in components_of(code):
        spec = box_hull_check(comp)
        assert spec is not None
        assert spec.extents == (3, 1, 2)


def test_box_code_dimension_one():
    code, kappa = build_box_code((2,), (2,))
    assert code.ambient.moduli == (6,)
    assert code.vertices == ((1,), (4,))
    assert verify_t_ptmc(code, 1).passed
    assert min_component_separation(code) == 3


def test_box_code_dimension_four_samples():
    for c, k in (((2, 2, 2, 2), (1, 1, 1, 1)),
                 ((3, 2, 4, 2), (1, 1, 1, 2)),
                 ((4, 4, 2, 3), (2, 1, 1, 1))):
        code, kappa = build_box_code(c, k)
        assert verify_t_ptmc(code, 4).passed, (c, k)
        assert min_component_separation(code) == 3


def _separation_or_error(f, code):
    try:
        return f(code)
    except ValueError as e:
        return type(e), str(e)


def test_separation_matches_all_pairs_oracle():
    codes = [build_box_code(c, k)[0]
             for c, k in (((2,), (1,)), ((3,), (2,)), ((2, 3), (2, 1)), ((4, 2), (1, 3)),
                          ((2, 3, 4), (1, 2, 1)), ((3, 2, 2), (2, 1, 1)),
                          ((2, 2, 2, 2), (1, 1, 1, 1)), ((3, 2, 2, 2), (1, 2, 1, 1)))]
    rng = random.Random(20)
    for _ in range(300):
        a = Ambient.torus(*(rng.randint(1, 6) for _ in range(rng.randint(1, 3))))
        verts = list(a.vertices())
        codes.append(CodeSet(a, tuple(rng.sample(verts, rng.randint(1, max(1, len(verts) // 4))))))
    codes.append(CodeSet(Ambient.window((0, 3), (0, 3)), ((1, 1),)))
    results = [_separation_or_error(naive_min_component_separation, c) for c in codes]
    assert results == [_separation_or_error(min_component_separation, c) for c in codes]
    # the sample reaches every outcome: distances, no second component, no torus
    assert {r if isinstance(r, int) else r[0] for r in results} >= {2, 3, 4, 5, 6, ValueError}
    with pytest.raises(ValueError, match="empty code"):
        min_component_separation(CodeSet(Ambient.torus(4, 4), ()))


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------

def test_square_singleton_template_arithmetic():
    tpl = square_singleton_template()
    assert tpl.torus.moduli == (6, 6, 3)
    assert tpl.fr_volume == 54
    assert tpl.fr_count == 2
    square = tpl.shapes[0]
    assert shape_ball_volume(square.vertices, square.radius) == 20
    assert shape_ball_volume(((0, 0, 0),), 1) == 7
    # cross-check the 20 against a plain window scan
    assert len(brute_ball(list(square.vertices), 1, -2, 3)) == 20


def test_cube_template_matches_square_at_dim3():
    square, dot = square_singleton_template().shapes
    assert square.vertices == ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0))
    assert (square.radius, square.multiplicity) == (1, 2)
    assert (dot.vertices, dot.radius, dot.multiplicity) == (((0, 0, 0),), 1, 2)


def test_cube_template_dim4_arithmetic():
    tpl = cube_singleton_template(4)
    cube, dot = tpl.shapes
    assert shape_ball_volume(cube.vertices, cube.radius) == 48
    assert ball_size_formula(4, 2) == 33
    assert tpl.fr_volume == 162
    assert tpl.torus.vertex_count() == 648
    assert tpl.fr_count == 4
    assert (cube.radius, dot.radius) == (1, 2)


def test_cube_template_rejects_small_dimension():
    with pytest.raises(ValueError):
        cube_singleton_template(2)


def test_template_requires_divisibility():
    shapes = (TemplateShape("dot", ((0, 0),), 1, 1),)
    with pytest.raises(ValueError):
        TemplateSpec(shapes, Ambient.torus(4, 3))   # volume 5 does not divide 12
    tpl = TemplateSpec(shapes, Ambient.torus(5, 5))
    assert (tpl.fr_volume, tpl.fr_count) == (5, 5)  # derived from the shape's ball


# ---------------------------------------------------------------------------
# template search
# ---------------------------------------------------------------------------

def test_build_square_singleton_code():
    build = build_by_template(square_singleton_template(), deadline=time.monotonic() + 120)
    assert build.kind == "solution"
    rep = verify_kappa_ptmc(build.code, build.kappa)
    assert rep.passed, rep
    assert shape_kind_census(build.code) == {(1, 1, 1): 4, (1, 2, 2): 4}


def test_build_is_deterministic_per_seed():
    tpl = square_singleton_template()
    first = build_by_template(tpl, deadline=time.monotonic() + 120)
    again = build_by_template(tpl, deadline=time.monotonic() + 120)
    assert first.tiles == again.tiles
    seeded = build_by_template(tpl, deadline=time.monotonic() + 120, seed=7)
    seeded2 = build_by_template(tpl, deadline=time.monotonic() + 120, seed=7)
    assert seeded.tiles == seeded2.tiles
    assert seeded.kind == "solution"
    assert verify_kappa_ptmc(seeded.code, seeded.kappa).passed


def test_build_budget_covers_instance_building(monkeypatch):
    # instance building that outlasts the deadline leaves the search no time
    def slow_tiling_instance(*args):
        time.sleep(0.2)
        return tiling_instance(*args)

    monkeypatch.setattr("ptmc.constructions.tiling_instance", slow_tiling_instance)
    build = build_by_template(square_singleton_template(), deadline=time.monotonic() + 0.1)
    assert build.kind == "timeout"


def test_build_budget_stops_instance_building(monkeypatch):
    # a deadline that passes once the first orientation has been swept stops
    # the cube-4 build there: no further sweep, and no search
    sweep = ptmc.cover._sweep
    sweeps = []

    def counted_sweep(*args):
        sweeps.append(None)
        return sweep(*args)

    monkeypatch.setattr("ptmc.cover._sweep", counted_sweep)
    assert build_by_template(cube_singleton_template(4)).kind == "solution"
    assert len(sweeps) > 2
    sweeps.clear()
    monkeypatch.setattr("ptmc.cover.time.monotonic", lambda: float(len(sweeps)))
    build = build_by_template(cube_singleton_template(4), deadline=0.5)
    assert (build.kind, build.nodes) == ("timeout", 0)
    assert len(sweeps) == 1


def test_build_with_a_passed_deadline_times_out_at_once():
    build = build_by_template(square_singleton_template(), deadline=time.monotonic() - 1)
    assert (build.kind, build.tiles, build.nodes) == ("timeout", None, 0)


def test_seeded_builds_keep_their_tiles():
    # the chosen tile ids and node counts of the square (n = 3), cube-4 and
    # cube-5 templates, unseeded and seeded, as first recorded: pinning and
    # the seeded candidate order must not move them
    for case in json.loads((FIXTURES / "template_tiles.json").read_text()):
        build = build_by_template(cube_singleton_template(case["n"]), seed=case["seed"])
        assert build.kind == "solution"
        assert (build.nodes, list(build.tiles)) == (case["nodes"], case["tiles"]), case["seed"]


def test_build_radii_follow_shapes():
    build = build_by_template(square_singleton_template(), deadline=time.monotonic() + 120)
    for comp in components_of(build.code):
        t = build.kappa.radius_for(comp.class_key)
        assert t == 1


def test_build_radii_are_keyed_by_the_chosen_orientations():
    # each component is one placed tile, so its class takes the radius of
    # the shape placed: the shapes differ in size, which names the shape
    cases = [(3, seed) for seed in (None, 1, 7, 9, 123)] + [(4, None), (4, 3), (4, 7), (5, None)]
    for n, seed in cases:
        template = cube_singleton_template(n)
        build = build_by_template(template, seed=seed)
        assert build.kind == "solution"
        radius = {len(s.vertices): s.radius for s in template.shapes}
        assert build.kappa.by_class == {c.class_key: radius[len(c)]
                                        for c in components_of(build.code)}, (n, seed)


def test_dim4_build_reproduces_fixture():
    # the unseeded search finds exactly the frozen file, byte for byte
    build = build_by_template(cube_singleton_template(4))
    text = (FIXTURES / "cube_singleton_dim4.json").read_text()
    assert json.dumps(code_to_json(build.code, build.kappa)) == text


def test_dim4_fixture_verifies():
    # a solution produced by this search, frozen as an external file
    doc = json.loads((FIXTURES / "cube_singleton_dim4.json").read_text())
    code, kappa = code_from_json(doc)
    assert code.ambient.moduli == (6, 6, 6, 3)
    rep = verify_kappa_ptmc(code, kappa)
    assert rep.passed
    assert shape_kind_census(code) == {(1, 1, 1, 1): 8, (1, 2, 2, 2): 8}
    radii = {tuple(sorted(box_hull_check(c).extents)): kappa.radius_for(c.class_key)
             for c in components_of(code)}
    assert radii == {(1, 1, 1, 1): 2, (1, 2, 2, 2): 1}
