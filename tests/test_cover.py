"""Tests for the exact cover engine and its instance builders."""

import random
import time
from itertools import product

import pytest

import ptmc.cover
from ptmc.cover import (
    ExactCoverInstance,
    OutOfTime,
    _run_x,
    eds_instance,
    enumerate_covers,
    grid_eds_survey,
    instance_from_json,
    shape_orientations,
    solve,
    tiling_instance,
    verify_cover,
)
from ptmc.codes import verify_pds
from ptmc.constructions import build_by_template, cube_singleton_template, square_singleton_template
from ptmc.gamma2 import build_hive, no_isolated_pds
from ptmc.graphs import Graph, grid_graph, lattice_graph
from ptmc.metric import Ambient, DimensionMismatch, truncated_ball

from oracles import brute_ball, naive_cover_solutions, naive_tiling_masks, reference_x


def inst(universe, tiles):
    return ExactCoverInstance(tuple(universe),
                              tuple((tid, frozenset(cells)) for tid, cells in tiles))


def test_solve_prefers_first_deterministic_branch():
    i = inst([1, 2], [("a", {1}), ("b", {2}), ("c", {1, 2})])
    out = solve(i)
    assert out.kind == "solution"
    assert out.tiles == ("a", "b")


def test_solve_infeasible_no_tiles():
    out = solve(inst([1], []))
    assert out.kind == "infeasible"


def test_solve_infeasible_overlap_forced():
    out = solve(inst([1, 2, 3], [("p", {1, 2}), ("q", {2, 3})]))
    assert out.kind == "infeasible"


def test_enumerate_singletons():
    i = inst([(0, 0), (0, 1), (1, 0), (1, 1)],
             [(f"s{k}", {c}) for k, c in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)])])
    res = enumerate_covers(i)
    assert res.exhaustive
    assert len(res.solutions) == 1


def test_enumerate_two_solutions_canonical_order():
    i = inst([1, 2], [("c", {1, 2}), ("a", {1}), ("b", {2})])
    res = enumerate_covers(i)
    assert res.exhaustive
    assert res.solutions == (("a", "b"), ("c",))


def test_enumerate_limit_not_exhaustive():
    i = inst([1, 2], [("a", {1}), ("b", {2}), ("c", {1, 2})])
    res = enumerate_covers(i, limit=1)
    assert len(res.solutions) == 1
    assert not res.exhaustive
    # a cap below 1 would still stop at the first solution found
    for limit in (0, -1):
        with pytest.raises(ValueError, match="limit must be at least 1"):
            enumerate_covers(i, limit=limit)


def test_timeout_is_distinct_from_infeasible():
    universe = list(range(24))
    tiles = []
    for a in range(24):
        for b in range(a + 1, 24):
            for c in range(b + 1, 24):
                tiles.append((f"t{a}.{b}.{c}", {a, b, c}))
    big = inst(universe, tiles)
    res = enumerate_covers(big, deadline=time.monotonic() + 0.02)
    assert not res.exhaustive
    out = solve(inst([1], []), deadline=time.monotonic() + 10)
    assert out.kind == "infeasible"  # fast exhaustion is not a timeout


def test_solutions_reverify():
    i = inst([1, 2, 3, 4], [("a", {1, 2}), ("b", {3, 4}), ("c", {1, 3}), ("d", {2, 4})])
    res = enumerate_covers(i)
    assert res.solutions
    for sol in res.solutions:
        assert verify_cover(i, sol)
    assert not verify_cover(i, ("a", "c"))
    with pytest.raises(KeyError):
        verify_cover(i, ("a", "z"))


def test_verify_cover_reads_a_tiling_instance_off_its_masks():
    # a cover, an overlap and a gap on the cube n = 5 instance: only the
    # chosen tiles' cells are read, and its rows and tiles are never made
    i, _ = tiling_instance(*_template_case(5))
    chosen = build_by_template(cube_singleton_template(5)).tiles
    assert verify_cover(i, chosen)
    extra = next(t for t in i.ids if t not in chosen)
    assert not verify_cover(i, chosen + (extra,))
    assert not verify_cover(i, chosen[1:])
    # a restricted instance lists its tiles in its own order
    assert verify_cover(i.restrict(range(len(i.ids) - 1, -1, -1)), chosen)
    with pytest.raises(KeyError):
        verify_cover(i, chosen[:1] + ("no-such-tile",))
    assert "tiles" not in i.__dict__ and "rows" not in i.__dict__


def test_instance_validation():
    with pytest.raises(ValueError, match="duplicate cells"):
        inst([1, 1], [])
    with pytest.raises(ValueError, match="is empty"):
        inst([1], [("a", set())])
    with pytest.raises(ValueError, match="leaves the universe"):
        inst([1], [("a", {2})])
    with pytest.raises(ValueError, match="duplicate tile id"):
        inst([1, 2], [("a", {1}), ("a", {2})])


def test_instance_positional_form():
    # tuple-celled tiles are converted once: each row holds the positions
    # of the tile's cells in the universe, and the tiles given are not kept;
    # .tiles is made from the rows when first read
    universe = ((0, 1), (1, 0), (1, 1))
    tiles = (("a", frozenset({(1, 1), (0, 1)})), ("b", frozenset({(1, 0)})))
    i = ExactCoverInstance(universe, tiles)
    assert i.ids == ("a", "b")
    assert [sorted(row) for row in i.rows] == [[0, 2], [1]]
    assert i.universe is universe
    assert "tiles" not in vars(i)
    assert i.tiles == tiles
    assert "tiles" in vars(i)


def test_oracle_equivalence_random_instances():
    rng = random.Random(42)
    for trial in range(50):
        ncells = rng.randint(2, 9)
        ntiles = rng.randint(1, 14)
        universe = list(range(ncells))
        tiles = []
        for t in range(ntiles):
            size = rng.randint(1, max(1, ncells // 2))
            cells = frozenset(rng.sample(universe, size))
            tiles.append((f"t{t:02d}", cells))
        i = inst(universe, tiles)
        expected = naive_cover_solutions(universe, tiles)
        res = enumerate_covers(i)
        assert res.exhaustive
        assert list(res.solutions) == expected
        out = solve(i)
        if expected:
            assert out.kind == "solution" and tuple(sorted(out.tiles)) in expected
        else:
            assert out.kind == "infeasible"


def test_core_matches_reference_x():
    # same solutions in the same order, same node counts, with and without a limit
    rng = random.Random(7)
    for trial in range(150):
        ncells = rng.randint(2, 12)
        universe = list(range(ncells))
        tiles = [(f"t{t:02d}", rng.sample(universe, rng.randint(1, max(1, ncells // 2))))
                 for t in range(rng.randint(1, 24))]
        if trial % 5 == 0:
            # a cell no tile holds: zero candidates, infeasible at the root
            universe.insert(rng.randrange(ncells + 1), "hole")
        rng.shuffle(tiles)  # as build_by_template's seeded candidate order
        i = inst(universe, tiles)
        for limit in (1, 3, None):
            assert _run_x(i, limit, None) == reference_x(i, limit)
    g = lattice_graph(Ambient.torus(10, 10))
    tiles = list(eds_instance(g).tiles)
    random.Random(3).shuffle(tiles)
    i = ExactCoverInstance(tuple(sorted(g.vertices)), tuple(tiles))
    for limit in (1, None):
        assert _run_x(i, limit, None) == reference_x(i, limit)


def test_determinism_repeat_runs():
    rng = random.Random(1)
    universe = list(range(8))
    tiles = [(f"t{t}", frozenset(rng.sample(universe, rng.randint(1, 4))))
             for t in range(12)]
    i = inst(universe, tiles)
    first = enumerate_covers(i)
    second = enumerate_covers(i)
    assert first.solutions == second.solutions
    assert first.nodes == second.nodes


def test_golden_node_counts_pin_branching_order():
    # node counts fixed by the branching rule (fewest live tiles, ties to the
    # earliest cell, candidates in instance order); reference_x gives them too,
    # and any change to the branching or candidate order moves them
    assert no_isolated_pds(build_hive()).nodes == 5
    for m, nodes in ((40, 320), (45, 405), (50, 500)):
        out = solve(eds_instance(lattice_graph(Ambient.torus(m, m))))
        assert (out.kind, out.nodes) == ("solution", nodes)
    # seeded shuffles move whenever the pinned tile list's order changes
    for seed, nodes in ((None, 8), (1, 38), (7, 22)):
        assert build_by_template(square_singleton_template(), seed=seed).nodes == nodes
    for seed, nodes in ((None, 16), (7, 35)):
        assert build_by_template(cube_singleton_template(4), seed=seed).nodes == nodes
    res = enumerate_covers(eds_instance(grid_graph(7, 7)))
    assert (res.exhaustive, res.solutions, res.nodes) == (True, (), 18)


@pytest.mark.parametrize("template, seed", [
    (square_singleton_template(), 1),
    (square_singleton_template(), 7),
    (cube_singleton_template(4), 7),
])
def test_core_matches_reference_x_on_pinned_tiling_instances(template, seed, monkeypatch):
    # the instance build_by_template searches: pinned and seed-shuffled, in
    # positional form with its tiles made on first use
    searched = []

    def record(instance, deadline=None):
        searched.append(instance)
        return solve(instance, deadline)

    monkeypatch.setattr("ptmc.constructions.solve", record)
    assert build_by_template(template, seed=seed).kind == "solution"
    (i,) = searched
    for limit in (1, 2):
        assert _run_x(i, limit, None) == reference_x(i, limit)


def test_budget_is_checked_during_set_up():
    # a deadline that has passed ends the run while the masks are built,
    # before the first node
    out = solve(eds_instance(lattice_graph(Ambient.torus(75, 75))), deadline=time.monotonic())
    assert (out.kind, out.tiles, out.nodes) == ("timeout", None, 0)


def test_budget_is_checked_while_tile_listed_masks_are_built(monkeypatch):
    # the clock is read once per tile, then once per cell, each read before
    # that tile's or cell's mask is made; a deadline passing at any read
    # stops the build there, with 0 nodes
    i = eds_instance(lattice_graph(Ambient.torus(5, 5)))  # 25 tiles over 25 cells
    make_mask = ptmc.cover._mask
    for passes_at in range(1, 25 + 25 + 1):
        reads, masks = [], []

        def clock():
            reads.append(None)
            return float(len(reads) >= passes_at)

        def mask(positions):
            masks.append(None)
            return make_mask(positions)

        monkeypatch.setattr("ptmc.cover.time.monotonic", clock)
        monkeypatch.setattr("ptmc.cover._mask", mask)
        out = solve(i, deadline=0.5)
        assert (out.kind, out.tiles, out.nodes) == ("timeout", None, 0)
        assert (len(reads), len(masks)) == (passes_at, passes_at - 1)


@pytest.mark.parametrize("n", [3, 4])
def test_tile_listed_and_tiling_forms_search_alike(n):
    # the same tiles listed one by one search as the swept masks do, in
    # instance order and in a shuffled order made by restrict; the listed
    # instance keeps no masks once searched
    i, _ = tiling_instance(*_template_case(n))
    keep = list(range(len(i.ids)))
    random.Random(n).shuffle(keep)
    for tiling in (i, i.restrict(keep)):
        listed = ExactCoverInstance(tiling.universe, tiling.tiles)
        for limit in (1, 2):
            assert _run_x(listed, limit, None) == _run_x(tiling, limit, None)
        assert "_masks" not in vars(listed)


def test_restrict_on_a_tile_listed_instance_matches_reference_x():
    rng = random.Random(11)
    for trial in range(60):
        ncells = rng.randint(2, 10)
        universe = list(range(ncells))
        tiles = [(f"t{t:02d}", rng.sample(universe, rng.randint(1, max(1, ncells // 2))))
                 for t in range(rng.randint(1, 20))]
        i = inst(universe, tiles)
        keep = rng.sample(range(len(tiles)), rng.randint(0, len(tiles)))
        r = i.restrict(keep)
        assert r.tiles == tuple(i.tiles[k] for k in keep)
        for limit in (1, 3, None):
            assert _run_x(r, limit, None) == reference_x(r, limit)


def test_deep_instance_beyond_recursion_limit():
    # 1,125 nested choices, deeper than the default recursion limit allows
    i = eds_instance(lattice_graph(Ambient.torus(75, 75)))
    out = solve(i)
    assert (out.kind, len(out.tiles), out.nodes) == ("solution", 1125, 1125)
    assert verify_cover(i, out.tiles)


# ---------------------------------------------------------------------------
# EDS instances
# ---------------------------------------------------------------------------

def test_eds_triangle():
    g = Graph({0: {1, 2}, 1: {0, 2}, 2: {0, 1}})
    i = eds_instance(g)
    assert len(i.tiles) == 3
    assert all(cells == frozenset({0, 1, 2}) for _, cells in i.tiles)
    res = enumerate_covers(i)
    assert len(res.solutions) == 3


def test_eds_path_middle():
    g = Graph({0: {1}, 1: {0, 2}, 2: {1}})
    out = solve(eds_instance(g))
    assert out.kind == "solution"
    assert out.tiles == ("1",)


def test_eds_solutions_are_isolated_pds():
    g = grid_graph(4, 4)
    res = enumerate_covers(eds_instance(g))
    assert res.exhaustive and res.solutions
    for sol in res.solutions:
        verts = [eval(t) for t in sol]
        rep = verify_pds(verts, g)
        assert rep.passed and rep.independent


# ---------------------------------------------------------------------------
# tiling instances
# ---------------------------------------------------------------------------

def test_shape_orientations():
    square3 = ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0))
    assert len(shape_orientations(square3)) == 3
    assert len(shape_orientations(((0, 0, 0),))) == 1
    cube4 = tuple((a, b, c, 0) for a in (0, 1) for b in (0, 1) for c in (0, 1))
    assert len(shape_orientations(cube4)) == 4


def placements_of(i, blocks, a):
    """Each tile's (name, radius, placed shape, anchor vertex), read off its
    position: tile r is block r // N anchored at universe[r % N]."""
    n = len(i.universe)
    assert len(blocks) * n == len(i.ids)
    out = {}
    for r, tid in enumerate(i.ids):
        name, radius, orient, anchor = blocks[r // n]
        z = i.universe[r % n]
        shift = tuple(x - y for x, y in zip(z, anchor))
        out[tid] = (name, radius, tuple(sorted(a.translate(p, shift) for p in orient)), z)
    return out


def test_tiling_instance_full_radius_singletons():
    a = Ambient.torus(3, 3)
    i, blocks = tiling_instance(a, [("dot", ((0, 0),), 2)])
    assert blocks == [("dot", 2, ((0, 0),), (-1, -1))]
    assert len(i.tiles) == 9
    assert all(len(cells) == 9 for _, cells in i.tiles)
    out = solve(i)
    assert out.kind == "solution" and len(out.tiles) == 1


def test_tiling_instance_square_singleton_counts():
    a = Ambient.torus(6, 6, 3)
    square = ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0))
    i, blocks = tiling_instance(a, [("square", square, 1), ("dot", ((0, 0, 0),), 1)])
    squares = [t for t in i.tiles if t[0].startswith("square")]
    dots = [t for t in i.tiles if t[0].startswith("dot")]
    # squares raised into the modulus-3 axis wrap onto themselves and are
    # left out; the flat orientation stays at every translate
    assert len(squares) == 108
    assert all(len(cells) == 20 for _, cells in squares)
    assert len(dots) == 108
    assert all(len(cells) == 7 for _, cells in dots)
    # one block of 108 tiles per orientation kept, in instance order
    assert [(name, orient) for name, _, orient, _ in blocks] == [("square", square),
                                                                 ("dot", ((0, 0, 0),))]
    assert placements_of(i, blocks, a).keys() == {tid for tid, _ in i.tiles}


@pytest.mark.parametrize("a, shapes", [
    (Ambient.torus(6, 6, 3), [("square", ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)), 1),
                              ("dot", ((0, 0, 0),), 1)]),
    (Ambient.torus(6, 6, 6, 3), [("cube", tuple(p + (0,) for p in product((0, 1), repeat=3)), 1),
                                 ("dot", ((0, 0, 0, 0),), 2)]),
])
def test_tiling_instance_matches_naive_placements(a, shapes):
    # every placement, from the definition: anchor the orientation's window
    # ball at z and take the torus ball of the placed shape
    i, blocks = tiling_instance(a, shapes)
    placements = placements_of(i, blocks, a)
    cells = dict(i.tiles)
    # each cell is the universe's own tuple at that position, not a copy
    pos = {v: k for k, v in enumerate(i.universe)}
    assert all(c is i.universe[pos[c]] for _, tile in i.tiles for c in tile)
    expected, kept = [], []
    for name, shape, radius in shapes:
        for oi, orient in enumerate(shape_orientations(shape)):
            full = brute_ball(list(orient), radius, -1, 3)
            anchor = min(full, key=lambda p: (sum(p), p))
            before = len(expected)
            for z in a.vertices():
                placed = tuple(sorted(
                    a.wrap(tuple(x - y + w for x, y, w in zip(p, anchor, z))) for p in orient))
                ball = frozenset(truncated_ball(placed, radius, a))
                tid = f"{name}:{oi}@{','.join(map(str, z))}"
                if len(ball) == len(full):
                    expected.append(tid)
                    assert cells[tid] == ball
                    assert placements[tid] == (name, radius, placed, z)
                else:
                    assert len(ball) < len(full) and tid not in placements
            if len(expected) > before:
                kept.append((name, radius, orient, anchor))
    assert [tid for tid, _ in i.tiles] == expected
    # one block per orientation with a placement, none for self-wrapped ones
    assert blocks == kept
    # the positional form the search reads: each row lists the positions of
    # its tile's cells
    assert len(i.rows) == len(i.ids) == len(expected)
    assert all(sorted(row) == sorted(pos[c] for c in cells[tid])
               for tid, row in zip(i.ids, i.rows))


def _template_case(n):
    template = cube_singleton_template(n)
    return template.torus, [(s.name, s.vertices, s.radius) for s in template.shapes]


def _random_torus_case(seed):
    # 2 or 3 axes, one modulus above 10 so that row-major order is not id
    # order, and a random pick of the dot, Lee-sphere and unit-square shapes
    rng = random.Random(seed)
    n = rng.choice((2, 3))
    moduli = [rng.randint(3, 9) for _ in range(n)]
    moduli[rng.randrange(n)] = rng.randint(11, 14)
    dot = ((0,) * n,)
    lee = dot + tuple(tuple(s * (i == j) for j in range(n)) for i in range(n) for s in (1, -1))
    square = tuple(p + (0,) * (n - 2) for p in product((0, 1), repeat=2))
    shapes = [("dot", dot, rng.randint(0, n)), ("lee", lee, rng.randint(0, 1)),
              ("square", square, rng.randint(0, n))]
    return Ambient.torus(*moduli), rng.sample(shapes, rng.randint(1, 3))


@pytest.mark.parametrize("a, shapes", [_template_case(n) for n in (3, 4, 5)]
                         + [_random_torus_case(seed) for seed in range(8)])
def test_tiling_masks_match_naive_placements(a, shapes):
    # the swept masks equal, bit for bit, the masks of every placement made
    # one at a time, and so do the rows made from them on demand
    i, blocks = tiling_instance(a, shapes)
    want_blocks, rows, cells, holders = naive_tiling_masks(a, shapes, shape_orientations)
    names, got_cells, got_holders = i._masks
    assert blocks == want_blocks
    assert len(names) == len(i.ids) == len(rows) == len(blocks) * len(i.universe)
    assert got_cells == cells
    assert got_holders == holders
    assert [list(row) for row in i.rows] == rows


def test_tiling_instance_checks_its_deadline_before_each_sweep(monkeypatch):
    # one check per shape orientation (kept or not) and one before the sweep
    # of the cells' tile masks; a deadline that passes at any of them stops
    # the build
    a = Ambient.torus(6, 6, 3)
    shapes = [("square", ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)), 1),
              ("dot", ((0, 0, 0),), 1)]
    checks = 3 + 1 + 1  # the square's 3 orientations, the dot's 1, the tile-mask sweep
    for passes_at in range(1, checks + 2):
        reads = []

        def clock():
            reads.append(None)
            return float(len(reads) >= passes_at)

        monkeypatch.setattr("ptmc.cover.time.monotonic", clock)
        if passes_at <= checks:
            with pytest.raises(OutOfTime):
                tiling_instance(a, shapes, deadline=0.5)
        else:
            tiling_instance(a, shapes, deadline=0.5)
        assert len(reads) == min(passes_at, checks)


def test_tiling_instance_stops_at_its_deadline():
    with pytest.raises(OutOfTime):
        tiling_instance(Ambient.torus(6, 6, 3), [("dot", ((0, 0, 0),), 1)],
                        deadline=time.monotonic())


@pytest.mark.parametrize("shape", [((0, 0),), ((0, 0, 0, 0),)])
def test_tiling_rejects_shapes_of_another_dimension(shape):
    # a 2-d dot on a 3-d torus would place garbage tiles (dot:0@0,0,0
    # covering (1,2,0)) and the search would report a false "infeasible"
    with pytest.raises(DimensionMismatch):
        tiling_instance(Ambient.torus(3, 3, 3), [("dot", shape, 1)])


def test_tiling_rejects_degenerate_torus():
    with pytest.raises(ValueError):
        tiling_instance(Ambient.torus(2, 6), [("dot", ((0, 0),), 1)])


def test_instance_json_round_trip():
    # JSON has no tuples: list-valued cells come back as tuple cells
    doc = {"universe": [[0, 0], [0, 1]],
           "tiles": [["a", [[0, 0]]], ["b", [[0, 1]]], ["c", [[0, 0], [0, 1]]]]}
    back = instance_from_json(doc)
    i = inst([(0, 0), (0, 1)], [("a", {(0, 0)}), ("b", {(0, 1)}), ("c", {(0, 0), (0, 1)})])
    assert (back.universe, back.tiles) == (i.universe, i.tiles)


# ---------------------------------------------------------------------------
# the grid survey, small slice (the full range runs in acceptance)
# ---------------------------------------------------------------------------

def test_grid_survey_small():
    table = grid_eds_survey(5)
    assert table[(4, 4)] == {"exists": True, "count": 2, "exhaustive": True}
    for mn, row in table.items():
        if mn != (4, 4):
            assert row == {"exists": False, "count": 0, "exhaustive": True}
