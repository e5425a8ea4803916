"""Tests for components, translation classes, and the code verifiers."""

import json
import random
import re
import time

import pytest

from ptmc.codes import (
    CodeSet,
    ComponentWrapsTorus,
    KappaAssignment,
    MissingRadiusError,
    box_hull_check,
    class_key_hash,
    code_from_json,
    code_to_json,
    components_of,
    inflate_code,
    verify_kappa_ptmc,
    verify_non_isolated_pds,
    verify_partition,
    verify_pds,
    verify_t_ptmc,
)
from ptmc.constructions import build_box_code, square_singleton_template, build_by_template
from ptmc.cover import eds_instance, solve
from ptmc.gamma2 import build_hive, hive_graph, hive_non_isolated_pds
from ptmc.graphs import Graph, grid_graph, lattice_graph
from ptmc.metric import Ambient, truncated_ball

from oracles import (
    naive_components,
    naive_domination,
    naive_lattice_graph,
    naive_verify_kappa_ptmc,
)


def torus(*m):
    return Ambient.torus(*m)


def translated(code, z):
    return CodeSet(code.ambient, tuple(code.ambient.translate(v, z) for v in code.vertices))


def balls_of(code, kappa):
    """The truncated ball of each component, in component order."""
    return [truncated_ball(c.vertices, kappa.radius_for(c.class_key), code.ambient)
            for c in components_of(code)]


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------

def test_components_basic():
    code = CodeSet(torus(10, 10), ((0, 0), (0, 1), (5, 5)))
    comps = components_of(code)
    assert len(comps) == 2
    assert comps[0].vertices == ((0, 0), (0, 1))
    assert comps[1].vertices == ((5, 5),)


def test_components_empty():
    assert components_of(CodeSet(torus(4, 4), ())) == []


@pytest.mark.parametrize("ambient, vertices, bad", [
    (torus(3, 3), ((0, 0), (2, 3), (1, 3)), "(1, 3)"),  # the smallest offender is named
    (torus(3, 3), ((2, 2), (0, -1)), "(0, -1)"),
    (torus(3, 3), ((0, 0), (1,)), "(1,)"),
    (Ambient.window((-1, 1), (0, 2)), ((-1, 0), (-2, 1)), "(-2, 1)"),
    (Ambient.window((-1, 1), (0, 2)), ((0, 0, 0),), "(0, 0, 0)"),
])
def test_vertex_outside_ambient_raises(ambient, vertices, bad):
    with pytest.raises(ValueError, match=re.escape(f"vertex {bad} outside ambient")):
        CodeSet(ambient, vertices)


@pytest.mark.parametrize("vertices, bad", [
    (((0, 0), (1.5, 1)), "1.5"),
    (((True, 1),), "True"),
    (((0, 0), (1, 2.0)), "2.0"),
])
def test_non_integer_coordinates_are_refused(vertices, bad):
    # each is within the ambient's range, where it would pass as an int
    with pytest.raises(ValueError, match=re.escape(f"coordinate {bad} is not an integer")):
        CodeSet(torus(3, 3), vertices)


def test_codeset_sorts_and_dedups_keeping_first_occurrence():
    first, again = tuple([1, 0]), tuple([1, 0])
    assert first == again and first is not again
    code = CodeSet(torus(3, 3), ((2, 2), first, (0, 1), again, (2, 2), (0, 1)))
    assert code.vertices == ((0, 1), (1, 0), (2, 2))
    assert code.vertices[1] is first


def test_vertices_on_the_ambient_boundary_are_inside():
    assert len(CodeSet(torus(3, 4), ((0, 0), (2, 3), (0, 3), (2, 0)))) == 4
    assert len(CodeSet(Ambient.window((-1, 1), (0, 2)), ((-1, 0), (1, 2)))) == 2


def test_components_unit_square():
    code = CodeSet(torus(10, 10), ((0, 0), (0, 1), (1, 0), (1, 1)))
    comps = components_of(code)
    assert len(comps) == 1
    assert len(comps[0].class_key) == 4


def test_components_wrap_across_seam():
    # the pair (0,0), (9,0) is connected through the torus seam
    code = CodeSet(torus(10, 3), ((0, 0), (9, 0)))
    comps = components_of(code)
    assert len(comps) == 1
    assert comps[0].class_key == ((0, 0), (1, 0))
    assert not comps[0].wrapped


def test_class_key_translation_invariant():
    rng = random.Random(3)
    base = CodeSet(torus(7, 7), ((1, 1), (1, 2), (2, 1)))
    key = components_of(base)[0].class_key
    for _ in range(10):
        z = (rng.randrange(7), rng.randrange(7))
        moved = translated(base, z)
        assert components_of(moved)[0].class_key == key


def test_components_found_once_per_code():
    code = inflate_code(CodeSet(torus(6, 6), ((0, 0), (0, 1), (3, 3))), (2, 1))
    first = components_of(code)
    again = components_of(code)
    assert first is not again and first == again
    own = {v: v for v in code.vertices}
    assert all(own[v] is v for c in first for v in c.vertices)
    keys = {}
    for c in first:
        assert keys.setdefault(c.class_key, c.class_key) is c.class_key
    assert len(keys) == 2
    fresh = CodeSet(code.ambient, code.vertices)
    assert code == fresh and hash(code) == hash(fresh)
    assert components_of(fresh) == first


def test_wrapped_component_flagged():
    code = CodeSet(torus(3, 5), ((0, 0), (1, 0), (2, 0)))  # full ring around axis 0
    comps = components_of(code)
    assert len(comps) == 1
    assert comps[0].wrapped
    with pytest.raises(ComponentWrapsTorus):
        box_hull_check(comps[0])


# ---------------------------------------------------------------------------
# box hulls
# ---------------------------------------------------------------------------

def test_box_hull_square():
    comp = components_of(CodeSet(torus(6, 6), ((0, 0), (0, 1), (1, 0), (1, 1))))[0]
    spec = box_hull_check(comp)
    assert spec.extents == (2, 2)


def test_box_hull_l_triomino_fails():
    comp = components_of(CodeSet(torus(6, 6), ((0, 0), (1, 0), (1, 1))))[0]
    assert box_hull_check(comp) is None


def test_box_hull_singleton():
    comp = components_of(CodeSet(torus(6, 6), ((2, 3),)))[0]
    spec = box_hull_check(comp)
    assert spec.extents == (1, 1)


# ---------------------------------------------------------------------------
# PTMC verification
# ---------------------------------------------------------------------------

def test_singleton_code_on_3x3_passes():
    code = CodeSet(torus(3, 3), ((0, 0),))
    rep = verify_kappa_ptmc(code, KappaAssignment.uniform(2))
    assert rep.passed


def test_gap_reported_with_witness():
    code = CodeSet(torus(4, 4), ((0, 0),))
    rep = verify_t_ptmc(code, 2)
    assert not rep.passed
    assert rep.kind == "gap"
    w = rep.witness[0]
    ball = balls_of(code, KappaAssignment.uniform(2))[0]
    assert w not in ball  # witness is recheckable


def test_adjacent_pair_is_one_component_and_gaps():
    code = CodeSet(torus(5, 5), ((0, 0), (1, 0)))
    comps = components_of(code)
    assert len(comps) == 1
    rep = verify_t_ptmc(code, 1)
    assert not rep.passed and rep.kind == "gap"
    assert len(balls_of(code, KappaAssignment.uniform(1))[0]) == 8


def test_overlap_reported():
    code = CodeSet(torus(5, 5), ((0, 0), (2, 0)))
    rep = verify_t_ptmc(code, 2)
    assert not rep.passed
    assert rep.kind == "overlap"


def test_partition_reports_overlap_before_smaller_gap():
    verts = [(0,), (1,), (2,), (3,)]
    rep = verify_partition([{(1,), (2,)}, {(2,), (3,)}], verts)
    assert (rep.kind, rep.witness) == ("overlap", ((2,),))  # not the gap at (0,)
    rep = verify_partition([{(3,)}, {(1,)}], verts)
    assert (rep.kind, rep.witness) == ("gap", ((0,),))
    assert verify_partition([{(3,), (1,)}, {(0,), (2,)}], verts).passed
    # balls of every kind the callers pass (dicts, tuples, sets); the witness
    # is the smallest vertex in two balls, though (3,) is found first
    balls = [{(3,): 0, (0,): 1}, ((2,),), frozenset({(3,), (1,)}), {(1,), (2,)}]
    rep = verify_partition(balls, verts)
    assert (rep.kind, rep.witness) == ("overlap", ((1,),))


def test_degenerate_ambient_refused():
    code = CodeSet(torus(2, 5), ((0, 0),))
    rep = verify_t_ptmc(code, 1)
    assert not rep.passed and rep.kind == "degenerate-ambient"
    win = CodeSet(Ambient.window((0, 4), (0, 4)), ((2, 2),))
    rep = verify_t_ptmc(win, 1)
    assert not rep.passed and rep.kind == "degenerate-ambient"


def test_bad_radius_reported():
    code = CodeSet(torus(3, 3), ((0, 0),))
    rep = verify_t_ptmc(code, 0)
    assert not rep.passed and rep.kind == "bad-radius"


def test_bad_radius_above_dimension_reported():
    # radii are checked before any ball is built, so t = n + 1 is a report
    code, _ = build_box_code((2, 2), (2, 2))
    rep = verify_t_ptmc(code, 3)
    assert (rep.kind, rep.witness) == ("bad-radius", (code.vertices[0],))
    comps = components_of(code)
    kappa = KappaAssignment(by_class={comps[0].class_key: 2})
    assert verify_kappa_ptmc(code, kappa).passed
    kappa = KappaAssignment(by_class={comps[0].class_key: -1})
    assert verify_kappa_ptmc(code, kappa).kind == "bad-radius"


def test_nonunique_nearest_reports_smallest_witness():
    # (2, 0) is tied in the first component, (0, 2) in the second
    code = CodeSet(torus(3, 6), ((0, 0), (1, 0), (1, 3), (2, 3)))
    rep = verify_t_ptmc(code, 2)
    assert (rep.kind, rep.witness) == ("nonunique-nearest", ((0, 2),))
    assert rep.detail == "two vertices of the center at distance 2"


def test_verifier_matches_naive_oracle_on_random_tori():
    rng = random.Random(17)
    kinds = set()
    for _ in range(400):
        n = rng.randint(1, 3)
        a = torus(*(rng.randint(3, 6) for _ in range(n)))
        verts = list(a.vertices())
        code = CodeSet(a, tuple(rng.sample(verts, rng.randint(1, min(6, len(verts) // 3 + 1)))))
        comps = components_of(code)
        assert [c.vertices for c in comps] == naive_components(code)
        if rng.random() < 0.5:
            kappa = KappaAssignment.uniform(rng.randint(0, n + 1))
        else:
            kappa = KappaAssignment(by_class={c.class_key: rng.randint(0, n + 1) for c in comps})
        rep = verify_kappa_ptmc(code, kappa)
        assert (rep.passed, rep.kind, rep.witness) == naive_verify_kappa_ptmc(code, kappa)
        kinds.add(rep.kind)
    assert kinds == {None, "bad-radius", "overlap", "gap", "nonunique-nearest"}


def test_missing_kappa_entry_raises():
    code = CodeSet(torus(3, 3), ((0, 0),))
    with pytest.raises(MissingRadiusError):
        verify_kappa_ptmc(code, KappaAssignment(by_class={}))


def test_box_code_passes_and_translates_pass():
    code, kappa = build_box_code((2, 2), (2, 2))
    assert verify_t_ptmc(code, 2).passed
    assert verify_t_ptmc(translated(code, (1, 1)), 2).passed
    assert not verify_t_ptmc(code, 1).passed


def test_verdict_translation_invariant_on_failures():
    rng = random.Random(5)
    for _ in range(20):
        verts = tuple({(rng.randrange(5), rng.randrange(5)) for _ in range(rng.randint(1, 5))})
        code = CodeSet(torus(5, 5), verts)
        base = verify_t_ptmc(code, 1)
        z = (rng.randrange(5), rng.randrange(5))
        moved = verify_t_ptmc(translated(code, z), 1)
        assert base.passed == moved.passed


def test_counting_identity_on_pass():
    code, kappa = build_box_code((3, 2), (2, 2))
    rep = verify_kappa_ptmc(code, kappa)
    assert rep.passed
    total = sum(map(len, balls_of(code, kappa)))
    assert total == code.ambient.vertex_count()


def test_t1_ptmc_coincides_with_pds():
    # random subsets agree in verdict; a real radius-1 code passes both
    rng = random.Random(9)
    for _ in range(15):
        verts = tuple({(rng.randrange(4), rng.randrange(4), rng.randrange(3))
                       for _ in range(rng.randint(1, 6))})
        code = CodeSet(torus(4, 4, 3), verts)
        g = lattice_graph(code.ambient)
        assert verify_t_ptmc(code, 1).passed == verify_pds(code.vertices, g).passed
    build = build_by_template(square_singleton_template(), deadline=time.monotonic() + 60)
    assert build.kind == "solution"
    assert verify_t_ptmc(build.code, 1).passed
    assert verify_pds(build.code.vertices, lattice_graph(build.code.ambient)).passed


# ---------------------------------------------------------------------------
# PDS verifiers on general graphs
# ---------------------------------------------------------------------------

def cycle_graph(n):
    return Graph({i: {(i - 1) % n, (i + 1) % n} for i in range(n)})


def triangle():
    return Graph({0: {1, 2}, 1: {0, 2}, 2: {0, 1}})


def test_lattice_graph_matches_step_oracle():
    # moduli 1 and 2 collapse a step onto the vertex or both steps onto one edge
    for a in (Ambient.torus(1, 3), Ambient.torus(2, 5), Ambient.torus(3, 5, 2),
              Ambient.window((-2, 1), (3, 8))):
        g, ref = lattice_graph(a), naive_lattice_graph(a)
        assert g.vertices == ref.vertices
        assert all(g.neighbors(v) == ref.neighbors(v) for v in g.vertices)


def test_pds_on_grid_4x4():
    g = grid_graph(4, 4)
    out = solve(eds_instance(g))
    assert out.kind == "solution"
    verts = [eval(t) for t in out.tiles]
    rep = verify_pds(verts, g)
    assert rep.passed and rep.independent


def test_pds_on_cycle_fails():
    rep = verify_pds([0], cycle_graph(5))
    assert not rep.passed
    assert rep.witness == (2,) or rep.witness == (3,)


def test_pds_on_triangle():
    rep = verify_pds([0], triangle())
    assert rep.passed and rep.independent


def test_non_isolated_pds_triangle_edge():
    rep = verify_non_isolated_pds([0, 1], triangle())
    assert rep.passed


def test_non_isolated_pds_path_end_fails():
    p3 = Graph({0: {1}, 1: {0, 2}, 2: {1}})
    rep = verify_non_isolated_pds([0], p3)
    assert not rep.passed and rep.witness == (2,)


def test_non_isolated_pds_rejects_nonedge_pair():
    # vertex sees two code vertices that are not adjacent
    p3 = Graph({0: {1}, 1: {0, 2}, 2: {1}})
    rep = verify_non_isolated_pds([0, 2], p3)
    assert not rep.passed and rep.kind == "overlap"


@pytest.mark.parametrize("check", [verify_pds, verify_non_isolated_pds])
def test_pds_verifiers_name_first_foreign_vertex_in_input_order(check):
    g = grid_graph(4, 4)
    s = [(0, 1), (1, 3), (2, 0), (3, 2)]  # an efficient dominating set
    assert verify_pds(s, g).passed
    # (0, 9) sorts before (9, 9) but comes after it
    with pytest.raises(ValueError, match=re.escape("code vertex (9, 9) not in graph")):
        check(s[:2] + [(9, 9), (0, 9)] + s[2:], g)


def report_fields(rep):
    return rep.passed, rep.kind, rep.witness, rep.detail, rep.independent


def test_pds_verifiers_match_domination_oracle():
    rng = random.Random(11)
    cases = []
    for g in (grid_graph(4, 4), grid_graph(3, 5), grid_graph(5, 6),
              lattice_graph(torus(5, 5)), hive_graph(build_hive())):
        verts = list(g.vertices)
        cases.append((g, []))
        for _ in range(40):
            cases.append((g, rng.sample(verts, rng.randint(1, len(verts) // 2))))
    # passing sets, from exact cover and the hive's relaxed set, with
    # one-vertex edits and repeats
    g = grid_graph(4, 4)
    eds = [eval(t) for t in solve(eds_instance(g)).tiles]
    cases += [(g, eds), (g, eds[1:]), (g, eds + [(0, 0)])]
    g = lattice_graph(torus(5, 5))
    eds = [eval(t) for t in solve(eds_instance(g)).tiles]
    cases += [(g, eds), (g, eds[:-1]), (g, eds[::-1] + [eds[0]])]
    g = hive_graph(build_hive())
    relaxed = list(hive_non_isolated_pds())
    cases += [(g, relaxed), (g, relaxed[1:]), (g, relaxed + relaxed[:3])]
    passed = set()
    for g, s in cases:
        for check, rel in ((verify_pds, False), (verify_non_isolated_pds, True)):
            rep = check(s, g)
            assert report_fields(rep) == naive_domination(s, g, rel), (check.__name__, s)
            passed.add((check.__name__, rep.passed))
    assert len(passed) == 4  # every verifier both passes and fails somewhere


# ---------------------------------------------------------------------------
# inflation
# ---------------------------------------------------------------------------

def test_inflate_box_code():
    code, kappa = build_box_code((2, 2), (1, 1))
    big = inflate_code(code, (2, 2))
    assert big.ambient.moduli == (6, 6)
    assert len(components_of(big)) == 4
    assert verify_t_ptmc(big, 2).passed


def test_inflate_identity():
    code, _ = build_box_code((3, 2), (1, 1))
    same = inflate_code(code, (1, 1))
    assert same.ambient == code.ambient
    assert same.vertices == code.vertices


def test_inflate_square_singleton_code():
    build = build_by_template(square_singleton_template(), deadline=time.monotonic() + 60)
    assert build.kind == "solution"
    big = inflate_code(build.code, (1, 1, 2))
    assert big.ambient.moduli == (6, 6, 6)
    kappa = KappaAssignment(by_class=dict(build.kappa.by_class))
    assert verify_kappa_ptmc(big, kappa).passed
    assert len(components_of(big)) == 2 * len(components_of(build.code))


def test_inflate_preserves_pass_up_to_multiplier_three():
    code, _ = build_box_code((2, 3), (1, 1))
    for k in ((1, 3), (3, 1), (2, 3), (3, 3)):
        big = inflate_code(code, k)
        assert verify_t_ptmc(big, 2).passed, k
        assert len(components_of(big)) == k[0] * k[1]


def test_inflate_rejects_bad_multipliers():
    code, _ = build_box_code((2, 2), (1, 1))
    with pytest.raises(ValueError):
        inflate_code(code, (0, 1))
    with pytest.raises(ValueError):
        inflate_code(code, (2,))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_round_trip_preserves_verdict():
    code, kappa = build_box_code((2, 3), (2, 1))
    doc = code_to_json(code, kappa)
    text = json.dumps(doc)
    back, kappa2 = code_from_json(json.loads(text))
    assert back == code
    assert verify_kappa_ptmc(back, kappa2).passed
    assert code_to_json(back, kappa2) == doc  # stable re-serialization


def test_json_kappa_hash_is_stable():
    key = (((0, 0), (0, 1)))
    h1 = class_key_hash(((0, 0), (0, 1)))
    h2 = class_key_hash(((0, 0), (0, 1)))
    assert h1 == h2 and len(h1) == 12


def test_json_missing_kappa_entry():
    code, kappa = build_box_code((2, 2), (1, 1))
    doc = code_to_json(code, kappa)
    doc["kappa"] = {"deadbeef0000": 2}
    with pytest.raises(MissingRadiusError):
        code_from_json(doc)
