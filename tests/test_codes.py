"""Tests for components, translation classes, and the code verifiers."""

import json
import random
import re
import time
import tracemalloc
from collections import Counter
from itertools import product
from operator import add, ge, lt, mod, mul

import pytest

import ptmc.codes

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
from ptmc.cli import main
from ptmc.constructions import build_box_code, square_singleton_template, build_by_template
from ptmc.cover import eds_instance, solve
from ptmc.gamma2 import build_hive, hive_graph, hive_non_isolated_pds, hive_vertices
from ptmc.graphs import Graph, grid_graph, lattice_graph
from ptmc.metric import Ambient, _mask, _nearest_ball, truncated_ball

from oracles import (
    class_components,
    naive_components,
    naive_domination,
    naive_induced_graph,
    naive_lattice_graph,
    naive_verify_kappa_ptmc,
    reference_components,
    reference_wrapped_key,
    same_graph,
    shuffled_adjacency,
)


def torus(*m):
    return Ambient.torus(*m)


def translated(code, z):
    return CodeSet(code.ambient, tuple(code.ambient.translate(v, z) for v in code.vertices))


def balls_of(code, kappa):
    """The truncated ball of each component, in component order."""
    return [truncated_ball(verts, kappa.radius_for(key), code.ambient)
            for verts, key, _ in class_components(code)]


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------

def test_components_basic():
    code = CodeSet(torus(10, 10), ((0, 0), (0, 1), (5, 5)))
    assert components_of(code) == [((0, 0), (0, 1)), ((5, 5),)]


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


def test_codeset_keeps_the_row_major_indices_of_its_vertices():
    # random codes, given shuffled and with repeats, on tori and on windows
    # whose low corner is negative: the indices are each vertex's row-major
    # index, ascending, and the code's mask is made from them
    rng = random.Random(39)
    for _ in range(60):
        n = rng.randint(1, 4)
        if rng.random() < 0.5:
            a = torus(*(rng.randint(1, 6) for _ in range(n)))
        else:
            a = Ambient.window(*((lo, lo + rng.randint(0, 5))
                                 for lo in (rng.randint(-4, -1) for _ in range(n))))
        verts = list(a.vertices())
        picked = rng.sample(verts, rng.randint(0, len(verts)))
        given = picked + rng.choices(picked, k=len(picked) // 3)
        rng.shuffle(given)
        code = CodeSet(a, tuple(given))
        assert code.vertices == tuple(sorted(set(picked)))
        assert list(code.indices) == [a.index(v) for v in code.vertices]
        assert list(code.indices) == sorted(set(code.indices))
        assert code._whole == _mask(code.indices)
        assert code._rows == {a.index(v): v for v in code.vertices}


def test_vertices_on_the_ambient_boundary_are_inside():
    assert len(CodeSet(torus(3, 4), ((0, 0), (2, 3), (0, 3), (2, 0)))) == 4
    assert len(CodeSet(Ambient.window((-1, 1), (0, 2)), ((-1, 0), (1, 2)))) == 2


def test_components_unit_square():
    code = CodeSet(torus(10, 10), ((0, 0), (0, 1), (1, 0), (1, 1)))
    assert components_of(code) == [code.vertices]
    assert list(code._classes) == [code.vertices]  # at the origin, the square is its key


def test_components_wrap_across_seam():
    # the pair (0,0), (9,0) is connected through the torus seam
    code = CodeSet(torus(10, 3), ((0, 0), (9, 0)))
    assert class_components(code) == [(((0, 0), (9, 0)), ((0, 0), (1, 0)), False)]


def test_class_key_translation_invariant():
    rng = random.Random(3)
    base = CodeSet(torus(7, 7), ((1, 1), (1, 2), (2, 1)))
    (key,) = base._classes
    for _ in range(10):
        z = (rng.randrange(7), rng.randrange(7))
        moved = translated(base, z)
        assert list(moved._classes) == [key]


def test_components_found_once_per_code():
    code = inflate_code(CodeSet(torus(6, 6), ((0, 0), (0, 1), (3, 3))), (2, 1))
    first = components_of(code)
    again = components_of(code)
    assert first is not again and first == again
    own = {v: v for v in code.vertices}
    assert all(own[v] is v for c in first for v in c)
    assert len(first) == 4 and len(code._classes) == 2
    fresh = CodeSet(code.ambient, code.vertices)
    assert code == fresh and hash(code) == hash(fresh)
    assert components_of(fresh) == first


def test_components_match_the_reference_bfs():
    # tori of dimension 1-4 with moduli 1-7, where at moduli 1 and 2 the
    # steps +1 and -1 meet, and windows of the same sizes
    rng = random.Random(21)
    wrapped = moduli_met = 0
    for _ in range(200):
        extents = [rng.randint(1, 7) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.7:
            a = torus(*extents)
        else:
            lows = [rng.randint(-3, 3) for _ in extents]
            a = Ambient.window(*((lo, lo + e - 1) for lo, e in zip(lows, extents)))
        verts = list(a.vertices())
        code = CodeSet(a, tuple(rng.sample(verts, rng.randint(0, len(verts) * rng.choice((1, 3)) // 4))))
        comps = class_components(code)
        assert comps == reference_components(code)
        # each class's first component, as the class holds it, is its key
        # placed at its first anchor
        listed = components_of(code)
        assert listed == [verts for verts, _, _ in comps]
        own = {v: v for v in code.vertices}
        assert all(own[v] is v for c in listed for v in c)
        wrapped += any(w for _, _, w in comps)
        moduli_met += a.is_torus and min(a.moduli) < 3 and len(code) > 1
    assert wrapped > 20 and moduli_met > 20


def test_wrapped_keys_match_the_tuple_sort():
    # the key and anchor of each wrapped component, from row-major ints,
    # equal those of sorting wrapped vertex tuples, on dense random codes of
    # tori of dimension 1-4, moduli 1 and 2 included
    rng = random.Random(35)
    met = 0
    for _ in range(150):
        n = rng.randint(1, 4)
        a = torus(*(rng.randint(1, 7 if n < 4 else 4) for _ in range(n)))
        verts = list(a.vertices())
        code = CodeSet(a, tuple(rng.sample(verts, len(verts) * rng.randint(1, 3) // 4)))
        for comp, _, wrapped in reference_components(code):
            if wrapped:
                assert ptmc.codes._wrapped_key(comp, a) == reference_wrapped_key(comp, a)
                met += 1
    assert met > 100, met


def test_wrapped_component_flagged():
    code = CodeSet(torus(3, 5), ((0, 0), (1, 0), (2, 0)))  # full ring around axis 0
    ((key, (_, _, wrapped)),) = code._classes.items()
    assert class_components(code) == [(code.vertices, key, True)]
    with pytest.raises(ComponentWrapsTorus):
        box_hull_check(key, wrapped)


def _scattered(a, shapes, rng):
    """A code of translates of keys, (key, count) each, every one at a random
    anchor where it neither meets nor touches one placed before, so that each
    translate is a component of its key's class. On a window an anchor keeps
    its translate inside."""
    n = a.dimension
    if a.is_torus:
        lows, highs = (0,) * n, tuple(m - 1 for m in a.moduli)
    else:
        lows, highs = zip(*a.bounds)
    near, verts = set(), []  # placed vertices and their neighbours
    for key, count in shapes:
        tops = [max(column) for column in zip(*key)]
        for _ in range(count):
            while True:
                anchor = tuple(rng.randint(lo, hi if a.is_torus else hi - top)
                               for lo, hi, top in zip(lows, highs, tops))
                comp = [a.wrap(tuple(map(add, anchor, k))) for k in key]
                if near.isdisjoint(comp):
                    break
            verts += comp
            for v in comp:
                near.add(v)
                near.update(a.wrap(v[:i] + (v[i] + d,) + v[i + 1:])
                            for i in range(n) for d in (1, -1))
    return CodeSet(a, tuple(verts))


L_KEY = ((0, 0, 1), (1, 0, 0), (1, 0, 1))  # its origin is not one of its points
# on a torus with modulus 4 along axis 0 its lift spans 5 rows there, unwrapped
STAIRCASE = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0), (2, 2, 0), (3, 2, 0), (3, 3, 0),
             (4, 3, 0), (4, 4, 0))
BOX_KEY = tuple(product(range(1), range(2), range(3)))
SINGLE = ((0, 0, 0),)


def _class_case(name):
    rng = random.Random(name)
    if name == "l-shape":
        return _scattered(torus(10, 12, 14), [(L_KEY, 30)], rng)
    if name == "staircase":
        return _scattered(torus(4, 30, 20), [(STAIRCASE, 20), (SINGLE, 3)], rng)
    if name == "crowded":
        # 18,000 vertices: classes past the threshold of 17 beside singletons
        # past it, a pair below it and rings that wrap axis 2
        ring = tuple((0, 0, z) for z in range(30))
        return _scattered(torus(30, 20, 30), [(ring, 2), (BOX_KEY, 40), (SINGLE, 40),
                                              (L_KEY, 20), (((0, 0, 0), (0, 1, 0)), 5)], rng)
    # a window is never swept
    return _scattered(Ambient.window((-3, 8), (0, 9), (2, 13)), [(SINGLE, 20), (L_KEY, 20)], rng)


def _sweeps(monkeypatch):
    """The number of anchors each sweep finds, as the finder runs; the BFS
    walks the other components."""
    found = []
    sweep = ptmc.codes._sweep

    def counted(*args):
        out = sweep(*args)
        found.append(len(out[0]))
        return out

    monkeypatch.setattr("ptmc.codes._sweep", counted)
    return found


@pytest.mark.parametrize("name", ["l-shape", "staircase", "crowded", "window"])
def test_class_finder_matches_the_reference_bfs(name, monkeypatch, tmp_path):
    code = _class_case(name)
    a = code.ambient
    found = _sweeps(monkeypatch)
    comps = components_of(code)
    reference = reference_components(code)
    assert class_components(code) == reference
    assert comps == [verts for verts, _, _ in reference]
    # the BFS walks every component of a class below the threshold or that
    # wraps, and the threshold's worth of any other, which one sweep finds
    # the rest of
    after = ptmc.codes._sweep_after(a.vertex_count()) if a.is_torus else len(code) + 1
    counts = Counter((key, wrapped) for _, key, wrapped in reference)
    walked = sum(count if wrapped else min(count, after) for (_, wrapped), count in counts.items())
    assert len(found) == sum(count >= after and not wrapped
                             for (_, wrapped), count in counts.items())
    assert len(found) >= (name != "window")
    assert len(comps) - sum(found) == walked
    assert ptmc.codes.component_count(code) == len(reference)
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code_to_json(code, KappaAssignment.uniform(1))))
    main(["verify", "ptmc", "--code", str(path), "--out", str(tmp_path / "report.json")])
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["counts"]["components"] == len(reference)


def test_finder_walks_the_threshold_and_sweeps_the_rest(monkeypatch):
    # the box code: 400 translates of a 1 x 2 x 3 box on the (15, 32, 50)
    # torus. The BFS walks 24000 >> 10 = 23 of them; one sweep translates
    # the code's mask by -k for the key's 6 points and -b for its rim's 22,
    # then the anchors it finds by k for each key point, to mark them. The
    # code folds onto its (3, 4, 5) period, so the finder is run on the
    # full torus as the fold's fallback runs it
    built, _ = build_box_code((2, 3, 4), (5, 8, 10))
    code = CodeSet(built.ambient, built.vertices)
    strides = (32 * 50, 50, 1)
    whole = sum(1 << sum(map(mul, v, strides)) for v in code.vertices)
    masks = []
    translate = ptmc.codes._translate

    def counted(*args):
        masks.append(args[0] == whole)
        return translate(*args)

    found = _sweeps(monkeypatch)
    monkeypatch.setattr("ptmc.codes._translate", counted)
    classes = ptmc.codes._find_classes(code)
    assert sum(len(anchors) for anchors, _, _ in classes.values()) == 400
    (key,) = classes
    rim = {k[:i] + (k[i] + d,) + k[i + 1:] for k in key for i in range(3) for d in (1, -1)}
    rim -= set(key)
    assert (len(key), len(rim)) == (6, 22)
    assert len(found) == 1 and 400 - found[0] <= ptmc.codes._sweep_after(24000) + 1
    assert masks.count(True) == len(key) + len(rim)
    assert masks.count(False) <= len(key)


# ---------------------------------------------------------------------------
# box hulls
# ---------------------------------------------------------------------------

def hulls(code):
    """box_hull_check of each translation class of a code, in class order."""
    return [box_hull_check(key, wrapped) for key, (_, _, wrapped) in code._classes.items()]


def test_box_hull_square():
    assert hulls(CodeSet(torus(6, 6), ((0, 0), (0, 1), (1, 0), (1, 1)))) == [(2, 2)]


def test_box_hull_l_triomino_fails():
    assert hulls(CodeSet(torus(6, 6), ((0, 0), (1, 0), (1, 1)))) == [None]


def test_box_hull_singleton():
    assert hulls(CodeSet(torus(6, 6), ((2, 3),))) == [(1, 1)]


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
    (key,) = code._classes
    kappa = KappaAssignment(by_class={key: 2})
    assert verify_kappa_ptmc(code, kappa).passed
    kappa = KappaAssignment(by_class={key: -1})
    assert verify_kappa_ptmc(code, kappa).kind == "bad-radius"


def test_nonunique_nearest_reports_smallest_witness():
    # (2, 0) is tied in the first component, (0, 2) in the second: one
    # class, whose first ball's ties are translated to its second anchor
    code = CodeSet(torus(3, 6), ((0, 0), (1, 0), (1, 3), (2, 3)))
    assert [len(anchors) for anchors, _, _ in code._classes.values()] == [2]
    rep = verify_t_ptmc(code, 2)
    assert (rep.kind, rep.witness) == ("nonunique-nearest", ((0, 2),))


def _sweep_every_class(swept, monkeypatch):
    """Make the class finder sweep each class that does not wrap once it has
    two components, or never sweep: the verifier reads the anchors alike."""
    monkeypatch.setattr("ptmc.codes._sweep_after",
                        (lambda size: 2) if swept else (lambda size: size + 1))


@pytest.mark.parametrize("swept", [True, False])
def test_nonunique_nearest_witness_on_either_path(swept, monkeypatch):
    # a sweep run once the class's second anchor is found, which finds no
    # more and marks them walked, or none run
    _sweep_every_class(swept, monkeypatch)
    found = _sweeps(monkeypatch)
    test_nonunique_nearest_reports_smallest_witness()
    assert found == ([0] if swept else [])


def test_verifier_matches_naive_oracle_on_random_tori():
    # up to n = 4 and up to a third of the torus, so that wrapped components,
    # balls that wrap onto themselves (modulus 3) and classes of many
    # components all occur
    rng = random.Random(17)
    kinds = set()
    wrapped = self_wrapped = crowded = 0
    for _ in range(400):
        n = rng.randint(1, 4)
        a = torus(*(rng.randint(3, 6 if n < 4 else 4) for _ in range(n)))
        verts = list(a.vertices())
        most = rng.choice((min(6, len(verts) // 3 + 1), len(verts) // 3))
        code = CodeSet(a, tuple(rng.sample(verts, rng.randint(1, most))))
        assert components_of(code) == naive_components(code)
        classes = code._classes
        if rng.random() < 0.5:
            kappa = KappaAssignment.uniform(rng.randint(0, n + 1))
        else:
            kappa = KappaAssignment(by_class={key: rng.randint(0, n + 1) for key in classes})
        rep = verify_kappa_ptmc(code, kappa)
        assert (rep.passed, rep.kind, rep.witness) == naive_verify_kappa_ptmc(code, kappa)
        kinds.add(rep.kind)
        wrapped += any(w for _, _, w in classes.values())
        # a ball spans its component's lift plus one vertex either side
        self_wrapped += any(not w and kappa.radius_for(key) >= 1
                            and any(max(x) - min(x) + 3 > m
                                    for x, m in zip(zip(*key), a.moduli))
                            for key, (_, _, w) in classes.items())
        crowded += max(Counter(key for _, key, _ in class_components(code)).values(),
                       default=0) >= 4
    # two rings round axis 0, a class that wraps with two anchors: at radius
    # 1 their balls leave a gap, or meet
    for z, kind in ((3, "gap"), (2, "overlap")):
        code = CodeSet(torus(3, 4, 7), tuple((x, 0, c) for c in (0, z) for x in range(3)))
        assert [w for _, _, w in class_components(code)] == [True, True]
        kappa = KappaAssignment.uniform(1)
        rep = verify_kappa_ptmc(code, kappa)
        assert (rep.passed, rep.kind, rep.witness) == naive_verify_kappa_ptmc(code, kappa)
        assert rep.kind == kind
    assert kinds == {None, "bad-radius", "overlap", "gap", "nonunique-nearest"}
    assert wrapped > 10 and self_wrapped > 10 and crowded > 10


@pytest.mark.parametrize("swept", [True, False])
def test_verifier_paths_match_naive_oracle_on_random_tori(swept, monkeypatch):
    # every class that does not wrap swept by the finder from its second
    # component on, or every class walked by the BFS
    _sweep_every_class(swept, monkeypatch)
    found = _sweeps(monkeypatch)
    test_verifier_matches_naive_oracle_on_random_tori()
    assert any(found) == swept


def test_verifier_matches_the_partition_reference_on_swept_classes(monkeypatch):
    # on 8,000 vertices the finder sweeps a class once it has 16 anchors, so
    # the denser codes hold classes whose anchors a sweep found. The
    # reference is verify_partition over each component's own truncated
    # ball; where it passes, the verifier may still find a tie
    found = _sweeps(monkeypatch)
    rng = random.Random(5)
    a = torus(20, 20, 20)
    verts = list(a.vertices())
    kinds = set()
    finder_swept = 0  # codes with a class the finder swept
    for count in (1, 3, 40, 400, 1600):
        for t in (1, 2, 3):
            code = CodeSet(a, tuple(rng.sample(verts, count)))
            del found[:]
            rep = verify_t_ptmc(code, t)
            finder_swept += any(found)
            reference = verify_partition([truncated_ball(c, t, a) for c in components_of(code)],
                                         verts)
            if reference.passed:
                assert rep.kind in (None, "nonunique-nearest")
            else:
                assert (rep.kind, rep.witness) == (reference.kind, reference.witness)
            kinds.add(rep.kind)
    assert {"overlap", "gap"} <= kinds
    assert finder_swept
    build = build_by_template(square_singleton_template(), seed=3)
    code = inflate_code(build.code, (4, 4, 4))
    assert verify_kappa_ptmc(code, build.kappa).passed
    assert _full_torus(code, build.kappa, monkeypatch)[2] == (True, None, ())


def test_verifier_finds_overlaps_between_two_classes():
    # 27,000 vertices: the pair's 12-vertex ball meets the 7-vertex balls of
    # the singletons (0, 0, 0) and (0, 0, 3) of the other class and nothing
    # else
    lattice = [(x, y, z) for x in range(0, 30, 3) for y in range(0, 30, 3) for z in range(0, 30, 3)]
    code = CodeSet(torus(30, 30, 30), tuple(lattice) + ((1, 0, 1), (1, 0, 2)))
    rep = verify_t_ptmc(code, 1)
    assert (rep.kind, rep.witness) == ("overlap", ((0, 0, 1),))
    assert verify_t_ptmc(CodeSet(code.ambient, tuple(lattice)), 1).kind == "gap"


def test_verifier_translates_at_most_twice_per_component(monkeypatch):
    # per class of A components, a ball of B vertices and T tied vertices:
    # one ball built, its first component's, then min(A, B) translates for
    # the balls and min(A, T) for the ties. The box and inflated codes fold
    # onto one period, so the fold is switched off and the full-torus check
    # that it stands in for is run on them
    monkeypatch.setattr("ptmc.codes._fold", lambda code: None)
    events = []  # a ball built, by its component, or None for a translate
    translate, nearest_ball = ptmc.codes._translate, ptmc.codes._nearest_ball

    def counted(*args):
        events.append(None)
        return translate(*args)

    def counted_ball(*args):
        events.append(tuple(sorted(args[0])))
        return nearest_ball(*args)

    monkeypatch.setattr("ptmc.codes._translate", counted)
    monkeypatch.setattr("ptmc.codes._nearest_ball", counted_ball)
    rng = random.Random(2)
    a = torus(9, 7, 8)
    build = build_by_template(square_singleton_template(), seed=3)
    cases = [build_box_code((2, 3, 2), (3, 2, 4)),
             (inflate_code(build.code, (2, 1, 3)), build.kappa),
             (CodeSet(a, tuple(rng.sample(list(a.vertices()), 150))), KappaAssignment.uniform(2)),
             (CodeSet(torus(3, 6), ((0, 0), (1, 0), (1, 3), (2, 3))), KappaAssignment.uniform(2))]
    # 27,000 vertices: a class of many singletons beside a few pairs and triples
    big = torus(30, 30, 30)
    cases.append((CodeSet(big, tuple(rng.sample(list(big.vertices()), 300))),
                  KappaAssignment.uniform(1)))
    for code, kappa in cases:
        comps = class_components(code)
        firsts = {}
        for verts, key, _ in comps:
            firsts.setdefault(key, verts)
        counts = Counter(key for _, key, _ in comps)
        expect = []
        for key, first in firsts.items():
            ties = []
            ball = _nearest_ball([code.ambient.wrap(k) for k in key], kappa.radius_for(key),
                                 code.ambient.moduli, ties)
            translates = min(counts[key], len(ball)) + min(counts[key], len(set(ties)))
            assert translates <= 2 * counts[key]
            expect.append((first, translates))
        del events[:]
        ptmc.codes._verify_classes(code, kappa)
        got = []
        for e in events:
            if e is None:
                got[-1][1] += 1
            else:
                got.append([e, 0])
        assert [tuple(x) for x in got] == expect


def test_large_keys_with_many_anchors_are_swept(monkeypatch):
    # 240,000 vertices, 128 anchors of a 4 x 4 x 4 box key at radius 3 (216-
    # vertex balls): the one ball is translated to the anchors as masks. The
    # code folds onto its (10, 15, 50) period, so the fold is switched off
    # and the full-torus check is run
    monkeypatch.setattr("ptmc.codes._fold", lambda code: None)
    box = list(product(range(4), repeat=3))
    verts = [(x + dx, y + dy, z + dz) for x in range(0, 80, 10) for y in range(0, 60, 15)
             for z in range(0, 48, 12) for dx, dy, dz in box]
    code = CodeSet(torus(80, 60, 50), tuple(verts))
    assert [len(anchors) for anchors, _, _ in code._classes.values()] == [128]
    rep = ptmc.codes._verify_classes(code, KappaAssignment.uniform(3))
    assert (rep.kind, rep.witness) == ("gap", ((0, 0, 5),))


def test_verifier_on_a_large_torus_holds_few_masks():
    # 8,000,000 vertices; masks of N bits take 1 MB each. One vertex, whose
    # ball leaves gaps, and two vertices two steps apart, whose radius-1
    # balls meet between them
    for vertices, report in ((((200, 200, 25),), ("gap", ((0, 0, 0),))),
                             (((0, 0, 0), (0, 0, 2)), ("overlap", ((0, 0, 1),)))):
        code = CodeSet(torus(400, 400, 50), vertices)
        tracemalloc.start()
        try:
            rep = verify_t_ptmc(code, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rep.kind, rep.witness) == report
        assert peak < 64 << 20


# ---------------------------------------------------------------------------
# the fold onto one period
# ---------------------------------------------------------------------------

def _full_torus(code, kappa, monkeypatch):
    """The components, component count and (passed, kind, witness) of the
    finder and verifier run on the whole torus, the fold switched off."""
    with monkeypatch.context() as m:
        m.setattr("ptmc.codes._fold", lambda code: None)
        full = CodeSet(code.ambient, code.vertices)
        rep = verify_kappa_ptmc(full, kappa)
        count = ptmc.codes.component_count(full)
        return components_of(full), count, (rep.passed, rep.kind, rep.witness)


def _folds_as_the_full_torus(code, kappa, monkeypatch):
    """Whether a code folds, once its components, component count and
    report are checked against the full torus's and the components against
    the reference BFS's, and, on at most 150 vertices, its report against
    the naive oracle's. The class order and each class's least vertex,
    which a bad-radius witness and a missing kappa entry name, are checked
    against the reference too."""
    comps, count, report = _full_torus(code, kappa, monkeypatch)
    rep = verify_kappa_ptmc(code, kappa)
    assert (rep.passed, rep.kind, rep.witness) == report
    if code.ambient.vertex_count() <= 150:
        assert report == naive_verify_kappa_ptmc(code, kappa)
    reference = reference_components(code)
    assert components_of(code) == comps == [verts for verts, _, _ in reference]
    assert ptmc.codes.component_count(code) == count == len(reference)
    least = {}
    for verts, key, _ in reference:
        least.setdefault(key, verts[0])
    assert [(key, first[0]) for key, (_, first, _) in code._classes.items()] == list(
        least.items())
    return code._checked is not code


def test_fold_matches_the_full_torus_on_random_periodic_codes(monkeypatch):
    # n = 2 and 3, periods 3-7 and 1-3 copies per axis, uniform and per-class
    # radii; a mutant in every period stays periodic, and a mutant in one
    # period of a code with two or more copies on each axis folds on no axis
    rng = random.Random(38)
    folded, kinds, crossing, one_period = 0, set(), 0, 0
    for i in range(120):
        n = rng.choice((2, 3))
        cell = torus(*(rng.randint(3, 7) for _ in range(n)))
        copies = tuple(rng.randint(1, 3) for _ in range(n))
        if copies == (1,) * n:
            copies = (2,) + copies[1:]
        verts = list(cell.vertices())
        base = set(rng.sample(verts, rng.randint(1, len(verts) // 4 + 1)))
        code = inflate_code(CodeSet(cell, tuple(base)), copies)
        t = rng.randint(1, n)
        if i % 2:
            kappa = KappaAssignment(by_class={key: rng.randint(1, n)
                                              for key in ptmc.codes._find_classes(code)},
                                    uniform_radius=t)
        else:
            kappa = KappaAssignment.uniform(t)
        v = rng.choice(verts)
        every = inflate_code(CodeSet(cell, tuple(base ^ {v})), copies)
        for c in (code, every):
            if _folds_as_the_full_torus(c, kappa, monkeypatch):
                folded += 1
                kinds.add(verify_kappa_ptmc(c, kappa).kind)
                # a component that holds a vertex of the period box [0, d)
                # and one outside it crosses the fold's boundary
                d = c._checked.ambient.moduli
                crossing += any(all(map(lt, comp[0], d)) and any(any(map(ge, v, d)) for v in comp)
                                for comp in components_of(c))
        if min(copies) >= 2:
            z = tuple(rng.randrange(1, k) * p for k, p in zip(copies, cell.moduli))
            one = CodeSet(code.ambient, tuple(set(code.vertices) ^ {tuple(map(add, v, z))}))
            assert not _folds_as_the_full_torus(one, kappa, monkeypatch)
            one_period += 1
    assert folded > 100 and crossing > 10 and one_period > 40
    assert {None, "overlap", "gap"} <= kinds


def test_constructed_codes_fold_and_their_mutants_agree(monkeypatch):
    # box and inflated square-singleton codes pass folded; less one vertex
    # in every period they fold and fail, less one in one period they do
    # not fold
    build = build_by_template(square_singleton_template(), seed=1)
    cases = [build_box_code((2, 3, 4), (5, 8, 10)), build_box_code((3, 2), (3, 4)),
             (inflate_code(build.code, (4, 6, 5)), build.kappa)]
    for code, kappa in cases:
        assert _folds_as_the_full_torus(code, kappa, monkeypatch)
        assert verify_kappa_ptmc(code, kappa).passed
        d = code._checked.ambient.moduli
        drop = min(code._checked.vertices)
        every = CodeSet(code.ambient, tuple(v for v in code.vertices
                                            if tuple(map(mod, v, d)) != drop))
        one = CodeSet(code.ambient, tuple(v for v in code.vertices if v != drop))
        # a class the drop makes takes radius n
        radius = KappaAssignment(kappa.by_class, uniform_radius=code.ambient.dimension)
        assert _folds_as_the_full_torus(every, radius, monkeypatch)
        assert not verify_kappa_ptmc(every, radius).passed
        assert not _folds_as_the_full_torus(one, radius, monkeypatch)


def test_fold_keeps_a_bad_radius_witness(monkeypatch):
    # the inflated square-singleton code with its singletons' radius above n
    build = build_by_template(square_singleton_template(), seed=1)
    code = inflate_code(build.code, (2, 2, 3))
    kappa = KappaAssignment(by_class={key: 2 if len(key) > 1 else 4
                                      for key in build.kappa.by_class})
    assert _folds_as_the_full_torus(code, kappa, monkeypatch)
    rep = verify_kappa_ptmc(code, kappa)
    singles = next(first for key, (_, first, _) in code._classes.items() if len(key) == 1)
    assert (rep.kind, rep.witness) == ("bad-radius", (singles[0],))


def test_fold_keeps_a_tie_and_a_first_component_across_its_boundary(monkeypatch):
    # on its (5, 4) period the code is one component that wraps round x, at
    # radius 2 tied at (0, 1). Repeated (2, 3) times, the component holding
    # the least vertex (0, 0) runs from x = 9 round to x = 1
    cell = CodeSet(torus(5, 4), ((0, 0), (1, 0), (1, 1), (4, 0), (4, 1)))
    code = inflate_code(cell, (2, 3))
    kappa = KappaAssignment.uniform(2)
    assert _folds_as_the_full_torus(code, kappa, monkeypatch)
    assert code._checked.ambient.moduli == (5, 4)
    assert (verify_t_ptmc(code, 2).kind, verify_t_ptmc(code, 2).witness) == (
        "nonunique-nearest", ((0, 1),))
    assert ((0, 0), (1, 0), (1, 1), (9, 0), (9, 1)) in components_of(code)


def test_a_folding_code_is_verified_and_counted_without_its_whole_index():
    # the index-to-vertex dict of the whole code is read only to list its
    # components; the verifier and the count read the fold's classes
    built, kappa = build_box_code((2, 3, 4), (5, 8, 10))
    code = CodeSet(built.ambient, built.vertices)
    assert verify_kappa_ptmc(code, kappa).passed
    assert ptmc.codes.component_count(code) == 400
    assert code._checked is not code and "_rows" not in vars(code)
    assert len(components_of(code)) == 400


def test_fold_is_skipped_where_a_ball_would_wrap_its_period(monkeypatch):
    # period (3, 5) with a domino along axis 0: its ball spans 4 > 3 rows, so
    # the code is checked on its whole torus; a ring round the period of
    # axis 1 wraps, and so does not fold either
    domino = inflate_code(CodeSet(torus(3, 5), ((0, 0), (1, 0))), (3, 2))
    ring = inflate_code(CodeSet(torus(4, 5), tuple((0, y) for y in range(5))), (2, 2))
    for code in (domino, ring):
        assert ptmc.codes._periods(code) != code.ambient.moduli
        assert not _folds_as_the_full_torus(code, KappaAssignment.uniform(1), monkeypatch)


def test_a_class_that_wraps_fails_the_fold_key_bound(monkeypatch):
    # _fold reads only the key bound: a class that wraps winds round some
    # axis, so it has a vertex in every row of that axis and its key reaches
    # m - 1 there, past m - 3. On random codes every class that wraps does;
    # a staircase winding round both axes of its (4, 4) period, repeated
    # (2, 2) times, is refused by that bound
    rng = random.Random(39)
    wraps = 0
    for _ in range(150):
        a = torus(*(rng.randint(3, 6) for _ in range(rng.choice((2, 3)))))
        verts = list(a.vertices())
        code = CodeSet(a, tuple(rng.sample(verts, rng.randint(1, len(verts) // 2))))
        for key, (_, _, wrapped) in ptmc.codes._find_classes(code).items():
            if wrapped:
                wraps += 1
                assert any(max(column) == m - 1 for column, m in zip(zip(*key), a.moduli))
    assert wraps > 30
    stairs = CodeSet(torus(4, 4), ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (0, 3)))
    ((key, (_, _, wrapped)),) = ptmc.codes._find_classes(stairs).items()
    assert wrapped and [max(column) for column in zip(*key)] == [3, 3]
    code = inflate_code(stairs, (2, 2))
    assert ptmc.codes._periods(code) == (4, 4)
    assert not _folds_as_the_full_torus(code, KappaAssignment.uniform(1), monkeypatch)


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
    # moduli 1 and 2 collapse a step onto the vertex or both steps onto one
    # edge; random tori and windows of dimension 1-4, moduli or extents 1-6
    rng = random.Random(5)
    ambients = [Ambient.torus(1, 3), Ambient.torus(2, 5), Ambient.torus(3, 5, 2),
                Ambient.window((-2, 1), (3, 8))]
    for _ in range(60):
        extents = [rng.randint(1, 6) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:
            ambients.append(Ambient.torus(*extents))
        else:
            lows = [rng.randint(-3, 3) for _ in extents]
            ambients.append(Ambient.window(*((lo, lo + e - 1) for lo, e in zip(lows, extents))))
    for a in ambients:
        ref = naive_lattice_graph(a)
        assert same_graph(lattice_graph(a), ref), a
        # the same adjacency as a dict in another order, checked and converted
        assert same_graph(Graph(shuffled_adjacency(ref, rng)), ref), a


def test_graph_edge_cases():
    empty = Graph({})
    assert same_graph(empty, {}) and empty.vertices == () and empty.edge_count() == 0
    # moduli 1 and 2 and windows of extent 1: no loops, no doubled edges
    for a, edges in [(torus(1), 0), (torus(2), 1), (torus(1, 1), 0), (torus(2, 2), 4),
                     (torus(1, 2, 3), 9), (Ambient.window((3, 3)), 0),
                     (Ambient.window((0, 0), (-2, 2)), 4),
                     (Ambient.window((-1, -1), (2, 3), (5, 5)), 1)]:
        g = lattice_graph(a)
        assert same_graph(g, naive_lattice_graph(a)) and g.edge_count() == edges, a
    # an unknown vertex is in no edge and has no neighbours or degree
    for g in (empty, grid_graph(2, 3), lattice_graph(torus(3, 3)), cycle_graph(4)):
        for u in (None, (0, 9), (3, 3), 7, "x"):
            assert u not in g
            assert not any(g.has_edge(u, v) or g.has_edge(v, u) for v in g.vertices)
            assert not g.has_edge(u, u)
            for query in (g.neighbors, g.degree):
                with pytest.raises(KeyError):
                    query(u)
    # neighbours are the graph's own vertex objects, though the adjacency
    # given holds equal copies
    adj = {(i, 0): [((i + 1) % 5, 0), ((i - 1) % 5, 0)] for i in range(5)}
    g = Graph({v: [tuple(list(u)) for u in ns] for v, ns in adj.items()})
    own = {v: v for v in adj}
    assert all(v is own[v] for v in g.vertices)
    assert all(u is own[u] for v in g.vertices for u in g.neighbors(v))


@pytest.mark.parametrize("adjacency, message", [
    ({0: {1}}, "edge endpoint 1 missing from vertex set"),
    ({0: {1}, 1: set()}, "asymmetric edge 0->1"),
    ({0: {0}}, "self-loop at 0"),
    # vertices in order, each one's neighbours in order, its loop after them
    ({0: {1, 2}, 1: set()}, "asymmetric edge 0->1"),
    ({0: {1, 2}, 2: {0}}, "edge endpoint 1 missing from vertex set"),
    ({0: {0, 5}}, "edge endpoint 5 missing from vertex set"),
    ({0: {0, 1}, 1: set()}, "asymmetric edge 0->1"),
    ({0: {0}, 1: {2}}, "self-loop at 0"),
    ({0: {1}, 1: {0, 2}}, "edge endpoint 2 missing from vertex set"),
])
def test_graph_rejects_malformed_adjacency(adjacency, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Graph(adjacency)


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
    return rep.passed, rep.kind, rep.witness, rep.independent


def test_pds_verifiers_match_domination_oracle():
    # each graph with the oracle's adjacency dict of it
    rng = random.Random(11)
    graphs = [(grid_graph(m, n), naive_lattice_graph(Ambient.window((0, m - 1), (0, n - 1))))
              for m, n in ((4, 4), (3, 5), (5, 6))]
    graphs += [(lattice_graph(torus(5, 5)), naive_lattice_graph(torus(5, 5))),
               (hive_graph(build_hive()), naive_induced_graph(hive_vertices(build_hive())))]
    cases = []
    for g, adj in graphs:
        assert same_graph(g, adj)
        verts = sorted(adj)
        cases.append((g, adj, []))
        for _ in range(40):
            cases.append((g, adj, rng.sample(verts, rng.randint(1, len(verts) // 2))))
    # passing sets, from exact cover and the hive's relaxed set, with
    # one-vertex edits and repeats
    g, adj = graphs[0]
    eds = [eval(t) for t in solve(eds_instance(g)).tiles]
    cases += [(g, adj, eds), (g, adj, eds[1:]), (g, adj, eds + [(0, 0)])]
    g, adj = graphs[3]
    eds = [eval(t) for t in solve(eds_instance(g)).tiles]
    cases += [(g, adj, eds), (g, adj, eds[:-1]), (g, adj, eds[::-1] + [eds[0]])]
    g, adj = graphs[4]
    relaxed = list(hive_non_isolated_pds())
    cases += [(g, adj, relaxed), (g, adj, relaxed[1:]), (g, adj, relaxed + relaxed[:3])]
    passed = set()
    for g, adj, s in cases:
        for check, rel in ((verify_pds, False), (verify_non_isolated_pds, True)):
            rep = check(s, g)
            assert report_fields(rep) == naive_domination(s, adj, rel), (check.__name__, s)
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


def test_json_format_on_tori_and_offset_windows():
    # the documents as the format fixes them, for a torus and for windows
    # whose low corner is not the origin, and their classes' anchors
    cases = [
        (CodeSet(torus(5, 5), ((0, 0), (1, 2), (2, 4), (3, 1), (4, 3))),
         KappaAssignment.uniform(2),
         '{"ambient": {"kind": "torus", "moduli": [5, 5]}, "vertices": [[0, 0], [1, 2], '
         '[2, 4], [3, 1], [4, 3]], "kappa": {"b0d317a3ada5": 2}}'),
        (CodeSet(Ambient.window((1, 4), (1, 4)), ((1, 2), (2, 4), (3, 1), (4, 3))),
         KappaAssignment.uniform(1),
         '{"ambient": {"kind": "window", "bounds": [[1, 4], [1, 4]]}, "vertices": [[1, 2], '
         '[2, 4], [3, 1], [4, 3]], "kappa": {"b0d317a3ada5": 1}}'),
        (CodeSet(Ambient.window((-1, 2), (3, 5)), ((2, 5), (-1, 3), (0, 3))),
         KappaAssignment(by_class={((0, 0), (1, 0)): 1, ((0, 0),): 2}),
         '{"ambient": {"kind": "window", "bounds": [[-1, 2], [3, 5]]}, "vertices": [[-1, 3], '
         '[0, 3], [2, 5]], "kappa": {"0588b2094e86": 1, "b0d317a3ada5": 2}}'),
    ]
    for code, kappa, text in cases:
        assert json.dumps(code_to_json(code, kappa)) == text
        back, radii = code_from_json(json.loads(text))
        assert back == code and code_to_json(back, radii) == json.loads(text)
    code = cases[2][0]
    assert components_of(code) == [((-1, 3), (0, 3)), ((2, 5),)]
    assert [(key, list(map(code.ambient.point, anchors)))
            for key, (anchors, _, _) in code._classes.items()] == [
        (((0, 0), (1, 0)), [(-1, 3)]), (((0, 0),), [(2, 5)])]


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
